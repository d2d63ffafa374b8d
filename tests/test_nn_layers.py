"""Tests for the individual nn layers: Linear, FFN, Embedding, Dropout, normalisation, activations."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm1d,
    Dropout,
    Embedding,
    FeedForward,
    LayerNorm,
    Linear,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.tensor import Tensor, check_gradients


class TestLinear:
    def test_output_shape_and_batch_dims(self, rng):
        layer = Linear(6, 3, seed=0)
        assert layer(Tensor(rng.normal(size=(4, 6)))).shape == (4, 3)
        assert layer(Tensor(rng.normal(size=(2, 5, 6)))).shape == (2, 5, 3)

    def test_no_bias_option(self, rng):
        layer = Linear(4, 2, bias=False)
        assert layer.bias is None
        assert layer.num_parameters() == 8

    def test_wrong_input_width_raises(self, rng):
        with pytest.raises(ValueError):
            Linear(4, 2)(Tensor(rng.normal(size=(3, 5))))

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_deterministic_for_same_seed(self, rng):
        a, b = Linear(5, 4, seed=3), Linear(5, 4, seed=3)
        assert np.allclose(a.weight.data, b.weight.data)

    def test_gradients(self, rng):
        layer = Linear(3, 2, seed=0)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        assert check_gradients(
            lambda inp, weight, bias: layer(inp).tanh(), [x, layer.weight, layer.bias]
        )


class TestFeedForward:
    def test_shapes_and_activations(self, rng):
        for activation in ("relu", "tanh", "sigmoid"):
            ffn = FeedForward(4, 8, 2, activation=activation, seed=1)
            assert ffn(Tensor(rng.normal(size=(7, 4)))).shape == (7, 2)

    def test_invalid_activation_raises(self):
        with pytest.raises(ValueError):
            FeedForward(4, 8, 2, activation="swish")

    def test_gradients_flow_to_both_layers(self, rng):
        ffn = FeedForward(3, 5, 2, seed=0)
        x = Tensor(rng.normal(size=(4, 3)))
        ffn(x).sum().backward()
        assert ffn.input_layer.weight.grad is not None
        assert ffn.output_layer.weight.grad is not None


class TestEmbedding:
    def test_lookup_shape(self):
        table = Embedding(10, 4, seed=0)
        assert table(np.array([0, 3, 9])).shape == (3, 4)
        assert table(np.array([[0, 1], [2, 3]])).shape == (2, 2, 4)

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            Embedding(5, 2)(np.array([5]))

    def test_gradient_accumulates_on_repeated_indices(self):
        table = Embedding(4, 3, seed=0)
        out = table(np.array([1, 1, 2]))
        out.sum().backward()
        assert np.allclose(table.weight.grad[1], 2.0)
        assert np.allclose(table.weight.grad[2], 1.0)
        assert np.allclose(table.weight.grad[0], 0.0)

    def test_all_returns_whole_table(self):
        table = Embedding(6, 2, seed=0)
        assert table.all().shape == (6, 2)


class TestDropout:
    def test_identity_in_eval_mode(self, rng):
        layer = Dropout(0.5, seed=0)
        layer.eval()
        x = Tensor(rng.normal(size=(10, 10)))
        assert np.allclose(layer(x).data, x.data)

    def test_training_zeroes_and_rescales(self):
        layer = Dropout(0.5, seed=0)
        x = Tensor(np.ones((200, 200)))
        out = layer(x).data
        zero_fraction = (out == 0).mean()
        assert 0.4 < zero_fraction < 0.6
        nonzero = out[out != 0]
        assert np.allclose(nonzero, 2.0)

    def test_zero_probability_is_identity(self, rng):
        layer = Dropout(0.0)
        x = Tensor(rng.normal(size=(5, 5)))
        assert np.allclose(layer(x).data, x.data)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestNormalisation:
    def test_layernorm_zero_mean_unit_variance(self, rng):
        layer = LayerNorm(16)
        out = layer(Tensor(rng.normal(loc=5.0, scale=3.0, size=(8, 16)))).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_layernorm_gradients(self, rng):
        layer = LayerNorm(6)
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        assert check_gradients(lambda inp: layer(inp), [x], atol=1e-4)

    def test_batchnorm_normalises_training_batch(self, rng):
        layer = BatchNorm1d(4)
        out = layer(Tensor(rng.normal(loc=2.0, scale=5.0, size=(64, 4)))).data
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_batchnorm_eval_uses_running_statistics(self, rng):
        layer = BatchNorm1d(3, momentum=1.0)
        train_batch = Tensor(rng.normal(loc=4.0, size=(32, 3)))
        layer(train_batch)
        layer.eval()
        out = layer(Tensor(np.full((2, 3), 4.0))).data
        assert np.all(np.abs(out) < 1.0)

    def test_batchnorm_rejects_wrong_shape(self, rng):
        with pytest.raises(ValueError):
            BatchNorm1d(3)(Tensor(rng.normal(size=(2, 4))))


class TestActivationModules:
    def test_each_activation_shape_preserving(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        for module in (ReLU(), Tanh(), Sigmoid()):
            assert module(x).shape == (3, 4)

    def test_relu_module_matches_method(self, rng):
        x = Tensor(rng.normal(size=(5,)))
        assert np.allclose(ReLU()(x).data, x.relu().data)
