"""Gradient-check and behavioural tests for the LSTM layer."""

import numpy as np
import pytest

from repro.nn.kernels import lstm_kernels
from repro.nn.lstm import LSTM, _sigmoid

needs_kernels = pytest.mark.skipif(
    lstm_kernels() is None, reason="no system C compiler / kernel build failed / disabled"
)


def numerical_gradient(func, array, eps=1e-6):
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = func()
        flat[i] = original - eps
        minus = func()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


class TestSigmoid:
    def test_range_and_symmetry(self):
        x = np.linspace(-50, 50, 101)
        s = _sigmoid(x)
        assert np.all((s >= 0) & (s <= 1))
        assert np.allclose(s + _sigmoid(-x), 1.0)

    def test_extreme_values_do_not_overflow(self):
        s = _sigmoid(np.array([-1000.0, 1000.0]))
        assert np.allclose(s, [0.0, 1.0])


class TestLSTMForward:
    def test_output_shape(self):
        layer = LSTM(3, 8, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((5, 12, 3))
        out = layer.forward(x)
        assert out.shape == (5, 8)

    def test_rejects_wrong_rank(self):
        layer = LSTM(3, 8)
        with pytest.raises(ValueError):
            layer.forward(np.ones((5, 3)))

    def test_rejects_wrong_features(self):
        layer = LSTM(3, 8)
        with pytest.raises(ValueError):
            layer.forward(np.ones((5, 12, 4)))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            LSTM(0, 8)

    def test_zero_input_gives_bounded_output(self):
        layer = LSTM(2, 4, rng=np.random.default_rng(2))
        out = layer.forward(np.zeros((3, 6, 2)))
        assert np.all(np.abs(out) < 1.0)

    def test_deterministic_given_same_seed(self):
        a = LSTM(2, 4, rng=np.random.default_rng(7))
        b = LSTM(2, 4, rng=np.random.default_rng(7))
        x = np.random.default_rng(3).standard_normal((2, 5, 2))
        assert np.allclose(a.forward(x), b.forward(x))

    def test_forget_bias_initialised_to_one(self):
        layer = LSTM(2, 4)
        assert np.allclose(layer.params["b"][4:8], 1.0)


class TestLSTMBackward:
    def test_backward_before_forward_raises(self):
        layer = LSTM(2, 3)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 3)))

    @pytest.mark.parametrize("param_name", ["W", "U", "b"])
    def test_gradient_check_parameters(self, param_name):
        rng = np.random.default_rng(42)
        layer = LSTM(2, 3, rng=rng)
        x = rng.standard_normal((4, 5, 2))

        def loss():
            return float(np.sum(layer.forward(x) ** 2) / 2)

        expected = numerical_gradient(loss, layer.params[param_name])
        layer.zero_grad()
        out = layer.forward(x)
        layer.backward(out)
        assert np.allclose(layer.grads[param_name], expected, atol=1e-4), param_name

    def test_gradient_check_input(self):
        rng = np.random.default_rng(43)
        layer = LSTM(2, 3, rng=rng)
        x = rng.standard_normal((3, 4, 2))

        def loss():
            return float(np.sum(layer.forward(x) ** 2) / 2)

        expected = numerical_gradient(loss, x)
        out = layer.forward(x)
        grad_x = layer.backward(out)
        assert np.allclose(grad_x, expected, atol=1e-4)

    def test_grad_shapes_match_params(self):
        layer = LSTM(3, 5)
        x = np.random.default_rng(4).standard_normal((2, 6, 3))
        out = layer.forward(x)
        layer.backward(np.ones_like(out))
        for name, param in layer.params.items():
            assert layer.grads[name].shape == param.shape


def layer_pair(in_features, units, seed=9):
    """Two weight-identical layers: compiled kernels and the NumPy fallback."""
    compiled = LSTM(in_features, units, rng=np.random.default_rng(seed))
    fallback = LSTM(in_features, units, rng=np.random.default_rng(seed))
    fallback._kernels = None
    return compiled, fallback


@needs_kernels
class TestCompiledKernels:
    @pytest.mark.parametrize("shape,units", [((1, 40, 3), 30), ((64, 40, 3), 30), ((7, 13, 2), 5)])
    def test_matches_numpy_fallback(self, shape, units):
        rng = np.random.default_rng(sum(shape))
        compiled, fallback = layer_pair(shape[2], units)
        x = 2.0 * rng.standard_normal(shape)
        out = compiled.forward(x)
        assert np.allclose(out, fallback.forward(x), rtol=0, atol=1e-12)
        grad = rng.standard_normal(out.shape)
        pairs = [(compiled.backward(grad), fallback.backward(grad))]
        pairs += [(compiled.grads[name], fallback.grads[name]) for name in ("W", "U", "b")]
        for mixed, exact in pairs:
            # The mixed-precision tolerance the lstm module docstring states.
            assert np.abs(mixed - exact).max() <= 1e-5 * np.abs(exact).max()

    def test_workspace_addresses_follow_their_buffers(self):
        # Six batch sizes through a workspace dict that holds four: every
        # shape is evicted and rebuilt, and a backward runs in between.  A
        # stale or shared cached address would show up as different bits.
        rng = np.random.default_rng(5)
        layer = LSTM(3, 6, rng=np.random.default_rng(1))
        inputs = [rng.standard_normal((batch, 9, 3)) for batch in (1, 2, 3, 5, 8, 13)]
        expected = [LSTM(3, 6, rng=np.random.default_rng(1)).forward(x) for x in inputs]
        for _ in range(2):
            for x, fresh in zip(inputs, expected):
                out = layer.forward(x)
                assert np.array_equal(out, fresh)
                layer.backward(np.ones_like(out))
                assert np.array_equal(layer.forward(x), fresh)
        assert len(layer._workspaces) == 4

    def test_backward_after_eviction_matches_fresh_layer(self):
        rng = np.random.default_rng(6)
        layer = LSTM(3, 6, rng=np.random.default_rng(1))
        for batch in (1, 2, 3, 5, 8):
            layer.forward(rng.standard_normal((batch, 9, 3)))
        fresh = LSTM(3, 6, rng=np.random.default_rng(1))
        x, grad = rng.standard_normal((4, 9, 3)), rng.standard_normal((4, 6))
        for candidate in (layer, fresh):
            candidate.forward(x)
        assert np.array_equal(layer.backward(grad), fresh.backward(grad))
        assert all(np.array_equal(layer.grads[k], fresh.grads[k]) for k in ("W", "U", "b"))


@pytest.mark.parametrize("compiled", [True, False])
def test_non_contiguous_input_gives_the_same_bits(compiled):
    if compiled and lstm_kernels() is None:
        pytest.skip("compiled kernels unavailable")
    layer = LSTM(3, 6, rng=np.random.default_rng(2))
    if not compiled:
        layer._kernels = None
    # (batch, sequences, time) -> (batch, time, sequences), as the client
    # pipeline hands extracted traces to the model.
    x = np.random.default_rng(3).random((5, 3, 11)).transpose(0, 2, 1)
    assert not x.flags.c_contiguous
    assert np.array_equal(layer.forward(x), layer.forward(np.ascontiguousarray(x)))
