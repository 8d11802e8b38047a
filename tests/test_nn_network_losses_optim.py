"""Tests for Sequential, the losses, the optimizers and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import (
    Adam,
    ContrastiveLoss,
    Dense,
    Dropout,
    LeakyReLU,
    LSTM,
    ReLU,
    SGD,
    Sequential,
    SoftmaxCrossEntropy,
    euclidean_distance,
    load_weights,
    save_weights,
)


def make_mlp(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([
        Dense(6, 16, rng=rng),
        ReLU(),
        Dense(16, 4, rng=rng),
        LeakyReLU(0.01),
    ])


class TestSequential:
    def test_forward_backward_shapes(self):
        net = make_mlp()
        x = np.random.default_rng(1).standard_normal((10, 6))
        out = net.forward(x)
        assert out.shape == (10, 4)
        grad = net.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_requires_layers(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_named_parameters_unique(self):
        net = make_mlp()
        names = [name for name, _ in net.named_parameters()]
        assert len(names) == len(set(names))
        assert all(name.startswith("layer") for name in names)

    def test_state_dict_roundtrip(self):
        net = make_mlp(seed=2)
        other = make_mlp(seed=3)
        x = np.random.default_rng(4).standard_normal((5, 6))
        assert not np.allclose(net.forward(x), other.forward(x))
        other.load_state_dict(net.state_dict())
        assert np.allclose(net.forward(x), other.forward(x))

    def test_load_state_dict_rejects_mismatch(self):
        net = make_mlp()
        state = net.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_load_state_dict_rejects_shape_mismatch(self):
        net = make_mlp()
        state = net.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_n_params_counts_all(self):
        net = make_mlp()
        assert net.n_params == (6 * 16 + 16) + (16 * 4 + 4)

    def test_callable(self):
        net = make_mlp()
        x = np.zeros((2, 6))
        assert np.allclose(net(x), net.forward(x))


class TestContrastiveLoss:
    def test_positive_pair_loss_is_squared_distance(self):
        loss = ContrastiveLoss(margin=5.0)
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        value = loss.forward(a, b, np.array([1]))
        assert value == pytest.approx(25.0, rel=1e-6)

    def test_negative_pair_beyond_margin_is_zero(self):
        loss = ContrastiveLoss(margin=2.0)
        a = np.array([[0.0, 0.0]])
        b = np.array([[10.0, 0.0]])
        assert loss.forward(a, b, np.array([0])) == pytest.approx(0.0, abs=1e-9)

    def test_negative_pair_within_margin_penalised(self):
        loss = ContrastiveLoss(margin=10.0)
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 0.0]])
        assert loss.forward(a, b, np.array([0])) == pytest.approx(81.0, rel=1e-6)

    def test_rejects_non_positive_margin(self):
        with pytest.raises(ValueError):
            ContrastiveLoss(margin=0.0)

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(7)
        loss = ContrastiveLoss(margin=3.0)
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((6, 4))
        labels = rng.integers(0, 2, size=6)
        grad_a, grad_b = loss.backward(a, b, labels)

        eps = 1e-6
        num_a = np.zeros_like(a)
        for idx in np.ndindex(a.shape):
            a[idx] += eps
            plus = loss.forward(a, b, labels)
            a[idx] -= 2 * eps
            minus = loss.forward(a, b, labels)
            a[idx] += eps
            num_a[idx] = (plus - minus) / (2 * eps)
        assert np.allclose(grad_a, num_a, atol=1e-5)
        assert np.allclose(grad_b, -grad_a)

    def test_euclidean_distance_shape_mismatch(self):
        with pytest.raises(ValueError):
            euclidean_distance(np.zeros((2, 3)), np.zeros((2, 4)))

    @given(st.integers(1, 8), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_loss_always_non_negative(self, batch, dim):
        rng = np.random.default_rng(batch * 100 + dim)
        loss = ContrastiveLoss(margin=4.0)
        a = rng.standard_normal((batch, dim))
        b = rng.standard_normal((batch, dim))
        labels = rng.integers(0, 2, size=batch)
        assert loss.forward(a, b, labels) >= 0.0


class TestOtherLosses:
    def test_softmax_rows_sum_to_one(self):
        logits = np.random.default_rng(0).standard_normal((5, 7))
        probs = SoftmaxCrossEntropy.softmax(logits)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_softmax_ce_gradient_matches_numerical(self):
        rng = np.random.default_rng(8)
        loss = SoftmaxCrossEntropy()
        logits = rng.standard_normal((4, 5))
        labels = rng.integers(0, 5, size=4)
        grad = loss.backward(logits, labels)
        eps = 1e-6
        num = np.zeros_like(logits)
        for idx in np.ndindex(logits.shape):
            logits[idx] += eps
            plus = loss.forward(logits, labels)
            logits[idx] -= 2 * eps
            minus = loss.forward(logits, labels)
            logits[idx] += eps
            num[idx] = (plus - minus) / (2 * eps)
        assert np.allclose(grad, num, atol=1e-5)


class TestOptimizers:
    def _train_regression(self, optimizer_cls, **kwargs):
        rng = np.random.default_rng(11)
        net = Sequential([Dense(3, 16, rng=rng), ReLU(), Dense(16, 1, rng=rng)])
        optimizer = optimizer_cls(net, **kwargs)
        x = rng.standard_normal((64, 3))
        target = (x @ np.array([[1.0], [-2.0], [0.5]])) + 0.3

        def mse():
            return float(np.mean((net.forward(x) - target) ** 2))

        initial = mse()
        for _ in range(200):
            optimizer.zero_grad()
            pred = net.forward(x, training=True)
            grad = 2 * (pred - target) / x.shape[0]
            net.backward(grad)
            optimizer.step()
        return initial, mse()

    def test_sgd_reduces_loss(self):
        initial, final = self._train_regression(SGD, learning_rate=0.05)
        assert final < initial * 0.2

    def test_sgd_momentum_reduces_loss(self):
        initial, final = self._train_regression(SGD, learning_rate=0.02, momentum=0.9)
        assert final < initial * 0.2

    def test_adam_reduces_loss(self):
        initial, final = self._train_regression(Adam, learning_rate=0.01)
        assert final < initial * 0.2

    def test_gradient_clipping_bounds_update(self):
        rng = np.random.default_rng(12)
        net = Sequential([Dense(2, 2, rng=rng)])
        optimizer = SGD(net, learning_rate=1.0, gradient_clip=1e-3)
        x = np.full((4, 2), 1e6)
        before = net.state_dict()
        out = net.forward(x)
        net.backward(out)
        optimizer.step()
        after = net.state_dict()
        delta = sum(float(np.abs(after[k] - before[k]).max()) for k in before)
        assert delta < 1.0

    def test_invalid_hyperparameters(self):
        net = Sequential([Dense(2, 2)])
        with pytest.raises(ValueError):
            SGD(net, learning_rate=0.0)
        with pytest.raises(ValueError):
            SGD(net, learning_rate=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD(net, learning_rate=0.1, gradient_clip=-1)


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        net = Sequential([LSTM(2, 4, rng=np.random.default_rng(1)), Dense(4, 3, rng=np.random.default_rng(2))])
        path = save_weights(net, tmp_path / "model")
        assert path.suffix == ".npz"
        fresh = Sequential([LSTM(2, 4, rng=np.random.default_rng(9)), Dense(4, 3, rng=np.random.default_rng(10))])
        x = np.random.default_rng(3).standard_normal((3, 5, 2))
        assert not np.allclose(net.forward(x), fresh.forward(x))
        load_weights(fresh, path)
        assert np.allclose(net.forward(x), fresh.forward(x))

    def test_load_missing_file_raises(self, tmp_path):
        net = Sequential([Dense(2, 2)])
        with pytest.raises(FileNotFoundError):
            load_weights(net, tmp_path / "absent.npz")

    def test_load_architecture_mismatch_raises(self, tmp_path):
        net = Sequential([Dense(2, 2)])
        path = save_weights(net, tmp_path / "weights.npz")
        other = Sequential([Dense(3, 3)])
        with pytest.raises(ValueError):
            load_weights(other, path)


class TestEndToEndSiamese:
    def test_contrastive_training_separates_two_clusters(self):
        """A tiny siamese run: embeddings of two synthetic classes separate."""
        rng = np.random.default_rng(21)
        net = Sequential([
            Dense(4, 16, rng=rng),
            ReLU(),
            Dropout(0.0),
            Dense(16, 2, rng=rng),
        ])
        loss_fn = ContrastiveLoss(margin=4.0)
        optimizer = Adam(net, learning_rate=0.01)

        def sample(cls, n):
            centre = np.array([2.0, -1.0, 0.5, 3.0]) if cls == 0 else np.array([-2.0, 1.0, -0.5, -3.0])
            return centre + 0.3 * rng.standard_normal((n, 4))

        for _ in range(150):
            a_cls, b_cls = rng.integers(0, 2), rng.integers(0, 2)
            xa, xb = sample(a_cls, 16), sample(b_cls, 16)
            labels = np.full(16, 1.0 if a_cls == b_cls else 0.0)
            optimizer.zero_grad()
            ea, eb = net.forward(xa, training=True), net.forward(xb, training=True)
            grad_a, grad_b = loss_fn.backward(ea, eb, labels)
            net.backward(grad_a)
            net.backward(grad_b)
            optimizer.step()

        emb0 = net.forward(sample(0, 32))
        emb1 = net.forward(sample(1, 32))
        intra = np.linalg.norm(emb0 - emb0.mean(axis=0), axis=1).mean()
        inter = np.linalg.norm(emb0.mean(axis=0) - emb1.mean(axis=0))
        assert inter > 2 * intra
