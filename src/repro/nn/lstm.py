"""A single-layer LSTM with full backpropagation through time.

The paper's embedding network (Table I) uses an LSTM input layer of 30
units that consumes the per-IP byte-count sequences and emits its final
hidden state to a stack of fully-connected layers.  This module implements
that layer in NumPy, vectorised over the batch dimension.

The implementation is built around five observations:

* all four gates share a single ``tanh`` pass per step by pre-scaling the
  pre-activations (``sigmoid(z) = 0.5 * tanh(0.5 z) + 0.5``); caching the
  *tanh-domain* values keeps every backward derivative a polynomial of the
  cache (``sigmoid' = 0.25 (1 - t^2)``);
* stacking ``[x_t | h_prev | 1]`` in one cached slab turns the whole
  per-step affine map into a single BLAS GEMM (``z = xh1 @ [W; U; b]``)
  and, transposed, the whole parameter gradient into a single ``beta=1``
  GEMM per step (``[dW; dU; db] += xh1^T @ dz``) — backward never
  materialises the ``(steps, batch, 4*units)`` gradient tensor;
* every elementwise op in the hot loop runs on small reused buffers that
  stay cache-resident, with per-gate scale constants folded into a single
  broadcast multiply;
* the sequence caches are allocated once per input shape and reused across
  calls — fresh multi-MB allocations are mmap-backed and their page faults
  would otherwise dominate the runtime;
* the fused C cell kernels (:mod:`repro.nn.kernels`) take raw buffer
  addresses.  A workspace's buffers never move, so each kernel's per-step
  argument tuples are built once, beside the buffers, and live in the same
  workspace: evicting a shape drops buffers and addresses together.

With the kernels, forward matches the NumPy fallback to rounding (1e-12
absolute) and backward runs its per-step GEMMs in float32: each gradient
array agrees with the fallback to 1e-5 of its largest entry.  The workspaces
belong to the layer, so ``forward``/``backward`` are not re-entrant: one
model per thread.

Input shape:  ``(batch, time, features)``
Output shape: ``(batch, units)`` (the hidden state at the last timestep).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np
from scipy.linalg.blas import dgemm, sgemm

from repro.nn.initializers import glorot_uniform, orthogonal, zeros_init
from repro.nn.kernels import lstm_kernels
from repro.nn.layers import Layer


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Numerically stable sigmoid via tanh: tanh saturates cleanly, so no
    # branch on the sign of x is needed and the whole array is one ufunc.
    return 0.5 * np.tanh(0.5 * x) + 0.5


class LSTM(Layer):
    """Long short-term memory layer returning the last hidden state.

    The gate kernels are packed into a single input kernel ``W`` of shape
    ``(features, 4 * units)`` and a recurrent kernel ``U`` of shape
    ``(units, 4 * units)`` with gate order ``[input, forget, cell, output]``.
    The forget-gate bias is initialised to 1, the standard trick to ease
    gradient flow at the start of training.
    """

    def __init__(self, in_features: int, units: int, *, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if in_features <= 0 or units <= 0:
            raise ValueError("LSTM dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.units = units
        bias = zeros_init((4 * units,))
        bias[units : 2 * units] = 1.0
        self.params = {
            "W": glorot_uniform((in_features, 4 * units), rng),
            "U": np.concatenate([orthogonal((units, units), rng) for _ in range(4)], axis=1),
            "b": bias,
        }
        self.grads = {key: np.zeros_like(value) for key, value in self.params.items()}
        # Pre-activation scale: the sigmoid gates (i, f, o) consume 0.5 z so
        # that one tanh pass yields all four gates in tanh domain; dz_scale
        # undoes the per-gate constants of the backward derivatives.
        scale = np.full(4 * units, 0.5)
        scale[2 * units : 3 * units] = 1.0
        self._gate_scale = scale
        dz_scale = np.full(4 * units, 0.25)
        dz_scale[2 * units : 3 * units] = 0.5
        self._dz_scale = dz_scale
        self._workspaces: Dict[Tuple[int, int], Dict[str, Any]] = {}
        self._ws: Dict[str, Any] = {}
        self._cached = False
        self._x_shape: Optional[Tuple[int, int, int]] = None
        # Fused C kernels for the cell elementwise math; None -> NumPy path.
        self._kernels = lstm_kernels()

    # ------------------------------------------------------------- workspace
    def _workspace(self, batch: int, steps: int) -> Dict[str, Any]:
        """Reusable sequence buffers for one input shape.

        These are large (tens of MB at training shapes); allocating them
        fresh per call would cost more in page faults than the math itself.
        With the C kernels active it also holds their per-step arguments.
        """
        key = (batch, steps)
        cached = self._workspaces.get(key)
        if cached is None:
            if len(self._workspaces) >= 4:  # bound retained memory
                self._workspaces.pop(next(iter(self._workspaces)))
            units, features = self.units, self.in_features
            width = features + units + 1
            xh1 = np.empty((steps + 1, batch, width))
            xh1[:, :, features + units] = 1.0  # the bias column, set once
            cached = {
                "xh1": xh1,
                "t_gates": np.empty((steps, batch, 4 * units)),
                "c": np.empty((steps + 1, batch, units)),
                "tanh_c": np.empty((steps, batch, units)),
                "grad_x": np.empty((steps, batch, features)),
                "grad_x_out": np.empty((batch, steps, features)),
                "z": np.empty((batch, 4 * units)),
                "dz": np.empty((batch, 4 * units)),
                "d4": np.empty((batch, 4 * units)),
                "ig": np.empty((batch, units)),
                "t1": np.empty((batch, units)),
                "t2": np.empty((batch, units)),
                "dh": np.empty((batch, units)),
                "dc": np.empty((batch, units)),
                "dc_next": np.empty((batch, units)),
                "wub_grad": np.empty((width, 4 * units)),
                "dz32": np.empty((batch, 4 * units), dtype=np.float32),
                "xh32": np.empty((batch, width), dtype=np.float32),
                "dh32": np.empty((batch, units), dtype=np.float32),
                "wub_grad32": np.empty((width, 4 * units), dtype=np.float32),
                "grad_x32": np.empty((steps, batch, features), dtype=np.float32),
            }
            if self._kernels is not None:
                cached.update(self._kernel_args(cached, batch, steps))
            self._workspaces[key] = cached
        self._ws = cached
        return cached

    def _kernel_args(self, ws: Dict[str, Any], n: int, steps: int) -> Dict[str, list]:
        """Each cell kernel's argument tuple per timestep: sizes, then raw addresses."""

        def address(name: str) -> int:
            array = ws[name]  # indexed blind by the kernels: the one layout check
            assert array.dtype == np.float64 and array.flags.c_contiguous, name
            return array.ctypes.data

        u, width = self.units, self.in_features + self.units + 1
        gates, c, tanh_c, dh, dc_next, dz = map(
            address, ("t_gates", "c", "tanh_c", "dh", "dc_next", "dz")
        )
        h = address("xh1") + 8 * self.in_features  # the h block of [x | h | 1]
        row, slab = 8 * n * u, 8 * n * width  # bytes per timestep of a (n, u) / xh1 buffer
        ts = range(steps)
        return {
            "cell_c": [(n, u, gates + 4 * row * t, c + row * t, c + row * (t + 1)) for t in ts],
            "cell_h": [
                (n, u, width, gates + 4 * row * t, tanh_c + row * t, h + slab * (t + 1))
                for t in ts
            ],
            "cell_backward": [
                (n, u, gates + 4 * row * t, tanh_c + row * t, c + row * t, dh, dc_next, dz, dc_next)
                for t in ts
            ],
        }

    # ----------------------------------------------------------------- forward
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 3:
            raise ValueError(
                f"LSTM expects input of shape (batch, time, features), got {x.shape}"
            )
        if x.shape[2] != self.in_features:
            raise ValueError(
                f"LSTM expected {self.in_features} input features, got {x.shape[2]}"
            )
        batch, steps, features = x.shape
        units = self.units
        W, U, b = self.params["W"], self.params["U"], self.params["b"]
        ws = self._workspace(batch, steps)

        # Stacked affine map [W; U; b], gate-scaled (see _gate_scale).
        wub = np.concatenate([W, U, b[None, :]], axis=0) * self._gate_scale
        xh1 = ws["xh1"]
        xh1[:steps, :, :features] = x.transpose(1, 0, 2)
        h = xh1[0, :, features : features + units]
        h[:] = 0.0

        t_gates = ws["t_gates"]
        c_states = ws["c"]
        tanh_c = ws["tanh_c"]
        c_states[0] = 0.0
        z = ws["z"]
        ig = ws["ig"]
        kernels = self._kernels
        if kernels is not None:
            cell_c, cell_h = kernels.lstm_cell_c, kernels.lstm_cell_h
            cell_c_args, cell_h_args = ws["cell_c"], ws["cell_h"]
        wub_t = wub.T
        z_t = z.T
        for t in range(steps):
            # z = [x_t | h_prev | 1] @ [W; U; b] in one GEMM (F-contiguous
            # transposed views; dgemm writes the reused buffer in place).
            dgemm(1.0, a=wub_t, b=xh1[t].T, beta=0.0, c=z_t, overwrite_c=1)
            gate = t_gates[t]
            np.tanh(z, out=gate)
            c = c_states[t + 1]
            if kernels is not None:
                cell_c(*cell_c_args[t])
                np.tanh(c, out=tanh_c[t])
                cell_h(*cell_h_args[t])
                continue
            h = xh1[t + 1, :, features : features + units]
            ti = gate[:, :units]
            tf = gate[:, units : 2 * units]
            tg = gate[:, 2 * units : 3 * units]
            to = gate[:, 3 * units :]
            # c = f*c_prev + i*g with f = (tf+1)/2 and i = (ti+1)/2.
            np.multiply(tf, c_states[t], out=c)
            c += c_states[t]
            np.multiply(ti, tg, out=ig)
            ig += tg
            c += ig
            c *= 0.5
            np.tanh(c, out=tanh_c[t])
            # h = o * tanh(c) with o = (to+1)/2, written straight into the
            # next step's GEMM operand slot.
            np.multiply(to, tanh_c[t], out=h)
            h += tanh_c[t]
            h *= 0.5
        self._cached = True
        self._x_shape = (batch, steps, features)
        return xh1[steps, :, features : features + units].copy()

    # ---------------------------------------------------------------- backward
    def backward(self, grad: np.ndarray) -> np.ndarray:
        if not self._cached or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        batch, steps, features = self._x_shape
        units = self.units
        W, U = self.params["W"], self.params["U"]
        ws = self._ws
        xh1 = ws["xh1"]
        t_gates = ws["t_gates"]
        c_states = ws["c"]
        tanh_c_all = ws["tanh_c"]
        grad_x_steps = ws["grad_x"]
        wub_grad = ws["wub_grad"]
        wub_grad[:] = 0.0

        dz = ws["dz"]
        d4 = ws["d4"]
        t1 = ws["t1"]
        t2 = ws["t2"]
        dh = ws["dh"]
        dh[:] = grad
        dc = ws["dc"]
        dc_next = ws["dc_next"]
        dc_next[:] = 0.0
        dz_scale = self._dz_scale
        kernels = self._kernels
        dz_t = dz.T
        dh_t = dh.T
        w_t = W.T
        u_t = U.T
        wub_grad_t = wub_grad.T
        if kernels is not None:
            # Mixed-precision backward: the three per-step GEMMs run in
            # float32 (gradient noise ~1e-7 relative, far inside training
            # and gradient-check tolerances) at twice the FLOP rate; the
            # recurrence state and the cell derivatives stay float64.
            dz32, xh32, dh32 = ws["dz32"], ws["xh32"], ws["dh32"]
            wub_grad32, grad_x32 = ws["wub_grad32"], ws["grad_x32"]
            wub_grad32[:] = 0.0
            w32 = W.astype(np.float32)
            u32 = U.astype(np.float32)
            dz32_t, xh32_t, dh32_t = dz32.T, xh32.T, dh32.T
            w32_t, u32_t, wub_grad32_t = w32.T, u32.T, wub_grad32.T
            cell_backward, cell_backward_args = kernels.lstm_cell_backward, ws["cell_backward"]
            for t in range(steps - 1, -1, -1):
                # One fused pass computes dz and dc_next (in place) from the
                # tanh-domain cache; see kernels.py for the derivatives.
                cell_backward(*cell_backward_args[t])
                np.copyto(dz32, dz)
                np.copyto(xh32, xh1[t])
                sgemm(1.0, a=dz32_t, b=xh32_t, beta=1.0, c=wub_grad32_t, overwrite_c=1, trans_b=1)
                sgemm(1.0, a=w32_t, b=dz32_t, beta=0.0, c=grad_x32[t].T, overwrite_c=1, trans_a=1)
                sgemm(1.0, a=u32_t, b=dz32_t, beta=0.0, c=dh32_t, overwrite_c=1, trans_a=1)
                np.copyto(dh, dh32)
            self.grads["W"] += wub_grad32[:features]
            self.grads["U"] += wub_grad32[features : features + units]
            self.grads["b"] += wub_grad32[features + units]
            grad_x = ws["grad_x_out"]
            np.copyto(grad_x, grad_x32.transpose(1, 0, 2))
            return grad_x
        for t in range(steps - 1, -1, -1):
            gate = t_gates[t]
            ti = gate[:, :units]
            tf = gate[:, units : 2 * units]
            tg = gate[:, 2 * units : 3 * units]
            to = gate[:, 3 * units :]
            tanh_c = tanh_c_all[t]
            # In tanh domain: sigmoid' = 0.25 (1 - t^2), tanh' = 1 - t^2;
            # the 0.25/0.5 constants are applied in one pass via dz_scale.
            np.multiply(gate, gate, out=d4)
            np.subtract(1.0, d4, out=d4)
            d4 *= dz_scale
            np.multiply(tanh_c, tanh_c, out=t1)
            np.subtract(1.0, t1, out=t1)
            np.add(to, 1.0, out=t2)
            t2 *= t1
            # dc = dh * o (1 - tanh_c^2) + dc_next, with o = (to+1)/2.
            np.multiply(dh, t2, out=dc)
            dc *= 0.5
            dc += dc_next
            # dz blocks: i <- dc*g*i', f <- dc*c_prev*f', g <- dc*i*g',
            # o <- dh*tanh_c*o'  (gate-derivative constants live in d4).
            np.multiply(dh, tanh_c, out=t1)
            np.multiply(t1, d4[:, 3 * units :], out=dz[:, 3 * units :])
            np.multiply(dc, tg, out=t1)
            np.multiply(t1, d4[:, :units], out=dz[:, :units])
            np.multiply(dc, c_states[t], out=t1)
            np.multiply(t1, d4[:, units : 2 * units], out=dz[:, units : 2 * units])
            np.add(ti, 1.0, out=t1)
            t1 *= dc
            np.multiply(t1, d4[:, 2 * units : 3 * units], out=dz[:, 2 * units : 3 * units])
            # dc_next = dc * f with f = (tf+1)/2.
            np.add(tf, 1.0, out=t1)
            np.multiply(dc, t1, out=dc_next)
            dc_next *= 0.5
            # One beta=1 GEMM accumulates [dW; dU; db] (the xh1 slab holds
            # [x_t | h_prev | 1]); grad_x and the dh recurrence are GEMMs.
            dgemm(1.0, a=dz.T, b=xh1[t].T, beta=1.0, c=wub_grad.T, overwrite_c=1, trans_b=1)
            dgemm(1.0, a=W.T, b=dz.T, beta=0.0, c=grad_x_steps[t].T, overwrite_c=1, trans_a=1)
            dgemm(1.0, a=U.T, b=dz.T, beta=0.0, c=dh.T, overwrite_c=1, trans_a=1)
        self.grads["W"] += wub_grad[:features]
        self.grads["U"] += wub_grad[features : features + units]
        self.grads["b"] += wub_grad[features + units]
        # Reused output buffer: valid until the next backward() call, which
        # is the lifetime the layer-chain contract needs.
        grad_x = ws["grad_x_out"]
        np.copyto(grad_x, grad_x_steps.transpose(1, 0, 2))
        return grad_x
