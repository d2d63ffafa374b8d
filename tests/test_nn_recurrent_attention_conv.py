"""Tests for recurrent cells, attention and temporal convolutions."""

import numpy as np
import pytest

from repro.nn import (
    CausalConv1d,
    Conv1d,
    GRU,
    GRUCell,
    GatedTemporalConv,
    LSTM,
    LSTMCell,
    MultiHeadAttention,
    scaled_dot_product_attention,
)
from repro.tensor import Tensor, check_gradients


class TestRecurrentCells:
    def test_gru_cell_shape_and_initial_state(self, rng):
        cell = GRUCell(3, 6, seed=0)
        h0 = cell.initial_state(4)
        assert h0.shape == (4, 6)
        h1 = cell(Tensor(rng.normal(size=(4, 3))), h0)
        assert h1.shape == (4, 6)

    def test_gru_zero_update_gate_keeps_state_bounded(self, rng):
        cell = GRUCell(2, 4, seed=0)
        h = cell.initial_state(3)
        for _ in range(50):
            h = cell(Tensor(rng.normal(size=(3, 2))), h)
        assert np.all(np.abs(h.data) <= 1.0 + 1e-9)  # state is a convex mix of tanh values

    def test_lstm_cell_shapes(self, rng):
        cell = LSTMCell(3, 5, seed=0)
        h, c = cell.initial_state(2)
        h1, c1 = cell(Tensor(rng.normal(size=(2, 3))), (h, c))
        assert h1.shape == (2, 5) and c1.shape == (2, 5)

    def test_gru_cell_gradients(self, rng):
        cell = GRUCell(2, 3, seed=0)
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        h = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        assert check_gradients(lambda a, b: cell(a, b), [x, h], atol=1e-4)

    def test_gru_layer_unrolls_over_time(self, rng):
        layer = GRU(3, 4, seed=0)
        outputs, final = layer(Tensor(rng.normal(size=(2, 7, 3))))
        assert outputs.shape == (2, 7, 4)
        assert final.shape == (2, 4)
        assert np.allclose(outputs.data[:, -1], final.data)

    def test_lstm_layer_unrolls_over_time(self, rng):
        layer = LSTM(3, 4, seed=0)
        outputs, (h, c) = layer(Tensor(rng.normal(size=(2, 5, 3))))
        assert outputs.shape == (2, 5, 4)
        assert h.shape == (2, 4) and c.shape == (2, 4)

    def test_recurrence_depends_on_history(self, rng):
        """Changing an early input must change the final hidden state."""
        layer = GRU(2, 3, seed=0)
        base = rng.normal(size=(1, 6, 2))
        perturbed = base.copy()
        perturbed[0, 0, 0] += 1.0
        _, h_base = layer(Tensor(base))
        _, h_perturbed = layer(Tensor(perturbed))
        assert not np.allclose(h_base.data, h_perturbed.data)


class TestAttention:
    def test_scaled_dot_product_shapes(self, rng):
        q = Tensor(rng.normal(size=(2, 5, 8)))
        out = scaled_dot_product_attention(q, q, q)
        assert out.shape == (2, 5, 8)

    def test_mask_blocks_positions(self, rng):
        q = Tensor(rng.normal(size=(1, 3, 4)))
        value = Tensor(np.stack([np.zeros((3, 4)) + np.array([1.0, 2.0, 3.0])[:, None]]))
        mask = np.zeros((3, 3), dtype=bool)
        mask[:, 0] = True  # only the first key is visible
        out = scaled_dot_product_attention(q, q, value, mask=mask)
        assert np.allclose(out.data, value.data[:, 0:1, :].repeat(3, axis=1), atol=1e-6)

    def test_multi_head_shapes_and_self_attention_default(self, rng):
        attention = MultiHeadAttention(8, 4, seed=0)
        x = Tensor(rng.normal(size=(3, 6, 8)))
        assert attention(x).shape == (3, 6, 8)

    def test_multi_head_rejects_indivisible_dims(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3)

    def test_entmax_attention_is_sparse(self, rng):
        sparse_attention = MultiHeadAttention(8, 2, alpha=2.0, seed=0)
        x = Tensor(rng.normal(size=(2, 10, 8)) * 3.0)
        out = sparse_attention(x)
        assert out.shape == (2, 10, 8)

    def test_attention_gradients(self, rng):
        attention = MultiHeadAttention(4, 2, seed=0)
        x = Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
        assert check_gradients(lambda inp: attention(inp), [x], atol=1e-4, rtol=1e-3)


class TestConvolutions:
    def test_conv1d_valid_output_length(self, rng):
        conv = Conv1d(3, 5, kernel_size=3, seed=0)
        out = conv(Tensor(rng.normal(size=(2, 3, 10))))
        assert out.shape == (2, 5, 8)

    def test_conv1d_dilation_receptive_field(self):
        conv = Conv1d(1, 1, kernel_size=2, dilation=4)
        assert conv.receptive_field == 5

    def test_conv1d_too_short_input_raises(self, rng):
        conv = Conv1d(2, 2, kernel_size=4)
        with pytest.raises(ValueError):
            conv(Tensor(rng.normal(size=(1, 2, 3))))

    def test_conv1d_wrong_channels_raises(self, rng):
        conv = Conv1d(2, 2, kernel_size=2)
        with pytest.raises(ValueError):
            conv(Tensor(rng.normal(size=(1, 3, 8))))

    def test_conv1d_matches_manual_computation(self, rng):
        conv = Conv1d(1, 1, kernel_size=2, bias=False, seed=0)
        x = rng.normal(size=(1, 1, 5))
        out = conv(Tensor(x)).data
        w = conv.weight.data[:, 0, 0]
        expected = np.array([x[0, 0, t] * w[0] + x[0, 0, t + 1] * w[1] for t in range(4)])
        assert np.allclose(out[0, 0], expected)

    def test_causal_conv_preserves_length(self, rng):
        conv = CausalConv1d(2, 3, kernel_size=2, dilation=2, seed=0)
        out = conv(Tensor(rng.normal(size=(2, 2, 12))))
        assert out.shape == (2, 3, 12)

    def test_causal_conv_does_not_see_future(self, rng):
        conv = CausalConv1d(1, 1, kernel_size=2, seed=0)
        base = rng.normal(size=(1, 1, 8))
        perturbed = base.copy()
        perturbed[0, 0, -1] += 10.0  # change only the last step
        out_base = conv(Tensor(base)).data
        out_perturbed = conv(Tensor(perturbed)).data
        assert np.allclose(out_base[0, 0, :-1], out_perturbed[0, 0, :-1])

    def test_gated_temporal_conv_shape_and_range(self, rng):
        conv = GatedTemporalConv(2, 4, kernel_size=2, dilation=2, seed=0)
        out = conv(Tensor(rng.normal(size=(3, 2, 10))))
        assert out.shape == (3, 4, 10)
        assert np.all(np.abs(out.data) <= 1.0 + 1e-9)  # tanh * sigmoid is bounded

    def test_conv_gradients(self, rng):
        conv = Conv1d(2, 3, kernel_size=2, seed=0)
        x = Tensor(rng.normal(size=(2, 2, 6)), requires_grad=True)
        assert check_gradients(lambda inp, weight: conv(inp), [x, conv.weight], atol=1e-4)
