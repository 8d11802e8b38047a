"""Optional fused C kernels for the LSTM cell's elementwise hot loops.

The per-timestep LSTM cell update and its backward pass are ~30 small
elementwise NumPy calls per step; at (batch, units) = (512, 30) each call
is dominated by dispatch overhead, not arithmetic.  This module fuses each
phase into a single C function (pure arithmetic, no transcendentals — the
``tanh`` calls stay in NumPy's SIMD loops) compiled on first use with the
system C compiler and loaded through :mod:`ctypes`.

No new dependency is introduced: when no compiler is available, or the
build fails for any reason, ``lstm_kernels()`` returns ``None`` and the
LSTM layer falls back to the equivalent NumPy implementation.  The kernels
are numerically the same computation (IEEE semantics, no -ffast-math);
only the operation fusion differs.

Calling convention, the same for all three kernels: ``(n, u, ...)`` as C
longs, then raw buffer addresses as plain Python integers (``c_void_p``
argtypes; ``lstm_cell_h`` also takes the row stride of its output).  The
kernels index those addresses blind — float64, row-major, contiguous rows of
``u`` or ``4 * u`` — so the *caller* owns layout and lifetime: the LSTM
layer checks both once, where it allocates a workspace, and keeps the
addresses inside that workspace so that they die with the buffers they
point into (see ``LSTM._workspace``).  Nothing here wraps an array per call.

The shared object is cached outside the source tree (see
:mod:`repro.kernel_cache`), keyed by a hash of the C source and the host
CPU, so each machine compiles at most once per kernel version and build
artifacts never land in the git-tracked tree.
"""

from __future__ import annotations

import ctypes
from typing import Optional

from repro.kernel_cache import KernelLatch, load_kernel_library

_C_SOURCE = r"""
/* Fused elementwise kernels for the tanh-domain LSTM cell.

   Layout: gates is (n, 4*u) row-major with gate order [i, f, g, o], all in
   tanh domain (sigmoid(z) = 0.5 * (t + 1) with t = tanh(0.5 z)); every
   other array is (n, u) row-major and contiguous.
*/

void lstm_cell_c(long n, long u, const double *gates, const double *c_prev,
                 double *c_out)
{
    for (long row = 0; row < n; ++row) {
        const double *g4 = gates + row * 4 * u;
        const double *ti = g4;
        const double *tf = g4 + u;
        const double *tg = g4 + 2 * u;
        const double *cp = c_prev + row * u;
        double *c = c_out + row * u;
        for (long j = 0; j < u; ++j) {
            /* c = f*c_prev + i*g with f = (tf+1)/2, i = (ti+1)/2 */
            c[j] = 0.5 * ((tf[j] + 1.0) * cp[j] + (ti[j] + 1.0) * tg[j]);
        }
    }
}

void lstm_cell_h(long n, long u, long h_stride, const double *gates,
                 const double *tanh_c, double *h_out)
{
    /* h_stride: row stride (in elements) of h_out, so h can be written
       straight into a column block of the fused [x | h | 1] GEMM slab. */
    for (long row = 0; row < n; ++row) {
        const double *to = gates + row * 4 * u + 3 * u;
        const double *tc = tanh_c + row * u;
        double *h = h_out + row * h_stride;
        for (long j = 0; j < u; ++j) {
            /* h = o * tanh(c) with o = (to+1)/2 */
            h[j] = 0.5 * (to[j] + 1.0) * tc[j];
        }
    }
}

void lstm_cell_backward(long n, long u, const double *gates,
                        const double *tanh_c, const double *c_prev,
                        const double *dh, const double *dc_next_in,
                        double *dz_out, double *dc_next_out)
{
    for (long row = 0; row < n; ++row) {
        const double *g4 = gates + row * 4 * u;
        const double *ti = g4;
        const double *tf = g4 + u;
        const double *tg = g4 + 2 * u;
        const double *to = g4 + 3 * u;
        const double *tc = tanh_c + row * u;
        const double *cp = c_prev + row * u;
        const double *dhr = dh + row * u;
        const double *dcn_in = dc_next_in + row * u;
        double *dz = dz_out + row * 4 * u;
        double *dcn_out = dc_next_out + row * u;
        for (long j = 0; j < u; ++j) {
            /* sigmoid' = 0.25 (1 - t^2) in tanh domain, tanh' = 1 - t^2 */
            double tc2 = 1.0 - tc[j] * tc[j];
            double dc = dhr[j] * 0.5 * (to[j] + 1.0) * tc2 + dcn_in[j];
            dz[j]         = dc * tg[j] * 0.25 * (1.0 - ti[j] * ti[j]);
            dz[u + j]     = dc * cp[j] * 0.25 * (1.0 - tf[j] * tf[j]);
            dz[2 * u + j] = dc * 0.5 * (ti[j] + 1.0) * (1.0 - tg[j] * tg[j]);
            dz[3 * u + j] = dhr[j] * tc[j] * 0.25 * (1.0 - to[j] * to[j]);
            dcn_out[j] = dc * 0.5 * (tf[j] + 1.0);
        }
    }
}
"""

_CFLAGS = ["-O3", "-march=native", "-shared", "-fPIC"]


def _build_library() -> Optional[ctypes.CDLL]:
    library = load_kernel_library("lstm_kernel", _C_SOURCE, _CFLAGS)
    if library is None:
        return None
    c_long, c_addr = ctypes.c_long, ctypes.c_void_p
    library.lstm_cell_c.argtypes = [c_long, c_long] + [c_addr] * 3
    library.lstm_cell_h.argtypes = [c_long, c_long, c_long] + [c_addr] * 3
    library.lstm_cell_backward.argtypes = [c_long, c_long] + [c_addr] * 7
    for name in ("lstm_cell_c", "lstm_cell_h", "lstm_cell_backward"):
        getattr(library, name).restype = None
    return library


_latch = KernelLatch(_build_library)


def lstm_kernels() -> Optional[ctypes.CDLL]:
    """The compiled kernels (``lstm_cell_c``, ``lstm_cell_h``,
    ``lstm_cell_backward``), or ``None`` when unavailable (NumPy fallback)."""
    return _latch()
