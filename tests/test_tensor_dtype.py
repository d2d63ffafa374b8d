"""Tests for the engine-wide floating-point precision policy."""

import numpy as np
import pytest

from repro.core import SAGDFN, SAGDFNConfig
from repro.data.scalers import MinMaxScaler, StandardScaler
from repro.nn import Linear, init
from repro.nn.loss import masked_mae
from repro.nn.module import Parameter
from repro.sparse import alpha_entmax_np
from repro.tensor import (
    Tensor,
    default_dtype,
    get_default_dtype,
    set_default_dtype,
)


@pytest.fixture(autouse=True)
def _restore_policy():
    """Never leak a modified policy into other tests."""
    previous = get_default_dtype()
    yield
    set_default_dtype(previous)


class TestPolicy:
    def test_default_is_float64(self):
        assert get_default_dtype() == np.float64
        assert Tensor([1.0, 2.0]).dtype == np.float64

    def test_set_default_dtype(self):
        set_default_dtype("float32")
        assert get_default_dtype() == np.float32
        assert Tensor([1.0]).dtype == np.float32
        assert Parameter(np.zeros(3)).dtype == np.float32

    def test_context_manager_scopes_and_restores(self):
        with default_dtype(np.float32):
            assert Tensor([1.0]).dtype == np.float32
            with default_dtype("float64"):
                assert Tensor([1.0]).dtype == np.float64
            assert get_default_dtype() == np.float32
        assert get_default_dtype() == np.float64

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int64)
        with pytest.raises(ValueError):
            default_dtype("int32")

    def test_explicit_dtype_overrides_policy(self):
        tensor = Tensor([1.0], dtype=np.float32)
        assert tensor.dtype == np.float32

    def test_operations_follow_operands(self):
        with default_dtype(np.float32):
            a = Tensor(np.ones(4), requires_grad=True)
            out = ((a * 2.0 + 1.0).relu()).sum()
            assert out.dtype == np.float32
            out.backward()
            assert a.grad.dtype == np.float32

    def test_detach_and_copy_preserve_dtype(self):
        tensor = Tensor(np.ones(3), dtype=np.float32)
        with default_dtype(np.float64):
            assert tensor.detach().dtype == np.float32
            assert tensor.copy().dtype == np.float32

    def test_astype_is_differentiable(self):
        a = Tensor(np.ones(3), requires_grad=True)
        out = a.astype(np.float32).sum()
        assert out.dtype == np.float32
        out.backward()
        assert a.grad.dtype == np.float64
        np.testing.assert_array_equal(a.grad, np.ones(3))


class TestThreadedThroughComponents:
    def test_initializers_follow_policy(self):
        rng = np.random.default_rng(0)
        with default_dtype(np.float32):
            assert init.xavier_uniform((3, 4), rng).dtype == np.float32
            assert init.zeros((2,)).dtype == np.float32
            assert init.ones((2,)).dtype == np.float32
        assert init.xavier_uniform((3, 4), rng).dtype == np.float64
        assert init.uniform((3,), rng, dtype=np.float32).dtype == np.float32

    def test_linear_parameters_follow_policy(self):
        with default_dtype(np.float32):
            layer = Linear(4, 3, seed=0)
            assert layer.weight.dtype == np.float32
            assert layer.bias.dtype == np.float32
            out = layer(Tensor(np.ones((2, 4))))
            assert out.dtype == np.float32

    def test_scalers_follow_policy(self):
        values = np.arange(20.0)
        scaler = StandardScaler().fit(values)
        minmax = MinMaxScaler().fit(values)
        with default_dtype(np.float32):
            assert scaler.transform(values).dtype == np.float32
            assert scaler.inverse_transform(values).dtype == np.float32
            assert minmax.transform(values).dtype == np.float32
        assert scaler.transform(values).dtype == np.float64

    def test_entmax_preserves_floating_dtype(self):
        z = np.random.default_rng(0).normal(size=(5, 7)).astype(np.float32)
        for alpha in (1.0, 1.5, 2.0, 1.3):
            out = alpha_entmax_np(z, alpha=alpha)
            assert out.dtype == np.float32, alpha
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-5)

    def test_module_to_casts_parameters(self):
        layer = Linear(4, 3, seed=0)
        layer.to(np.float32)
        assert layer.weight.dtype == np.float32
        assert layer.bias.dtype == np.float32
        with pytest.raises(ValueError):
            layer.to(np.int32)

    def test_module_to_casts_tensor_and_ndarray_buffers(self):
        """Non-parameter buffers (e.g. a baseline's fixed support) must follow,
        or the first matmul against them promotes the forward back to float64."""
        from repro.nn.module import Module

        class WithBuffers(Module):
            def __init__(self):
                super().__init__()
                self.layer = Linear(3, 3, seed=0)
                self.support = Tensor(np.eye(3))
                self.stats = np.zeros(3)
                self.index = np.arange(3)  # integer buffer must stay integer

            def forward(self, x):
                return self.layer(x).matmul(self.support)

        model = WithBuffers().to(np.float32)
        assert model.support.dtype == np.float32
        assert model.stats.dtype == np.float32
        assert model.index.dtype == np.int64
        out = model(Tensor(np.ones((2, 3)), dtype=np.float32))
        assert out.dtype == np.float32

    def test_scalar_operands_follow_tensor_dtype(self):
        """Python-scalar arithmetic must not promote a float32 graph to the
        float64 policy default (the `1.0 / x` degree-normalisation pattern)."""
        x = Tensor(np.ones(4), dtype=np.float32, requires_grad=True)
        assert (x + 1.0).dtype == np.float32
        assert (2.0 - x).dtype == np.float32
        assert (x * 0.5).dtype == np.float32
        assert (1.0 / (x + 1.0)).dtype == np.float32

    def test_optimizer_state_follows_module_to(self):
        """Stale float64 Adam/SGD buffers must not promote a float32-cast
        model back to float64 on the first step."""
        from repro.optim import SGD
        from repro.optim.adam import Adam

        for make_optimizer in (lambda ps: Adam(ps, lr=0.01), lambda ps: SGD(ps, lr=0.01, momentum=0.5)):
            layer = Linear(4, 3, seed=0)
            optimizer = make_optimizer(layer.parameters())
            layer.to(np.float32)
            layer(Tensor(np.ones((2, 4)), dtype=np.float32)).sum().backward()
            optimizer.step()
            assert layer.weight.dtype == np.float32
            assert layer.bias.dtype == np.float32

    def test_baseline_to_float32_runs_float32(self):
        """A baseline with Tensor buffers (DCRNN's support) and recurrent
        initial states must run float32 end-to-end after Module.to()."""
        from repro.baselines import build_baseline

        adjacency = np.eye(8) + np.eye(8, k=1)
        model = build_baseline(
            "DCRNN", num_nodes=8, input_dim=2, history=4, horizon=4, adjacency=adjacency
        )
        model.to(np.float32)
        assert model.support.dtype == np.float32
        x = Tensor(np.random.default_rng(0).normal(size=(2, 4, 8, 2)), dtype=np.float32)
        assert model(x).dtype == np.float32


def _tiny_model_and_batch(dtype_name: str):
    with default_dtype(dtype_name):
        config = SAGDFNConfig(
            num_nodes=16, history=4, horizon=4, embedding_dim=6, num_significant=5,
            top_k=4, hidden_size=8, num_heads=2, ffn_hidden=6, seed=0,
        )
        model = SAGDFN(config)
        model.refresh_graph(0)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 4, 16, config.input_dim))
        y = np.abs(rng.normal(size=(3, 4, 16, 1))) + 1.0
        prediction = model(Tensor(x))
        loss = masked_mae(prediction, Tensor(y), null_value=0.0)
        loss.backward()
        grad_norm = float(
            np.sqrt(sum((p.grad**2).sum() for p in model.parameters() if p.grad is not None))
        )
    return float(loss.data), prediction.data.astype(np.float64), grad_norm


class TestFloat32EndToEnd:
    def test_full_model_matches_float64_within_1e_3(self):
        """The acceptance bar: SAGDFN forward+backward in float32 tracks float64."""
        loss64, pred64, grad64 = _tiny_model_and_batch("float64")
        loss32, pred32, grad32 = _tiny_model_and_batch("float32")
        assert abs(loss64 - loss32) < 1e-3
        np.testing.assert_allclose(pred32, pred64, atol=1e-3, rtol=0)
        assert abs(grad64 - grad32) / max(grad64, 1e-12) < 1e-3

    def test_float32_training_stays_float32(self):
        with default_dtype("float32"):
            config = SAGDFNConfig(
                num_nodes=12, history=3, horizon=3, embedding_dim=4, num_significant=4,
                top_k=3, hidden_size=6, num_heads=1, ffn_hidden=4, seed=0,
            )
            model = SAGDFN(config)
            model.refresh_graph(0)
            x = np.random.default_rng(0).normal(size=(2, 3, 12, config.input_dim))
            prediction = model(Tensor(x))
            assert prediction.dtype == np.float32
            assert all(p.dtype == np.float32 for p in model.parameters())
