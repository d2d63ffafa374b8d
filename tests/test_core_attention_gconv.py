"""Tests for the Sparse Spatial Multi-Head Attention and the fast graph convolution cell."""

import numpy as np
import pytest

from repro.core import FastGraphConv, OneStepFastGConvCell, SparseSpatialMultiHeadAttention
from repro.nn.module import Parameter
from repro.tensor import Tensor, check_gradients, no_grad


@pytest.fixture
def embeddings(rng):
    return Parameter(rng.normal(size=(14, 6)), name="embeddings")


@pytest.fixture
def index_set():
    return np.array([0, 3, 7, 11])


class TestSparseSpatialAttention:
    def test_output_shape(self, embeddings, index_set):
        attention = SparseSpatialMultiHeadAttention(embedding_dim=6, num_heads=3, ffn_hidden=8)
        slim = attention(embeddings, index_set)
        assert slim.shape == (14, 4)

    def test_gradients_flow_to_embeddings(self, embeddings, index_set):
        attention = SparseSpatialMultiHeadAttention(embedding_dim=6, num_heads=2, ffn_hidden=8)
        slim = attention(embeddings, index_set)
        # A non-linear objective: the plain sum is constant by construction
        # (each α-entmax head normalises over the neighbour axis).
        (slim * slim).sum().backward()
        assert embeddings.grad is not None
        assert not np.allclose(embeddings.grad, 0.0)

    def test_row_sums_constant_per_head_structure(self, embeddings, index_set):
        """Each head's α-entmax normalises over the M neighbours, so every row sum of A_s
        equals the same mixer-determined constant."""
        attention = SparseSpatialMultiHeadAttention(embedding_dim=6, num_heads=2, ffn_hidden=8)
        slim = attention(embeddings, index_set)
        row_sums = slim.data.sum(axis=1)
        assert np.allclose(row_sums, row_sums[0], atol=1e-8)

    def test_softmax_normalizer_forces_alpha_one(self):
        attention = SparseSpatialMultiHeadAttention(embedding_dim=4, normalizer="softmax", alpha=2.0)
        assert attention.alpha == 1.0

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            SparseSpatialMultiHeadAttention(embedding_dim=4, num_heads=0)
        with pytest.raises(ValueError):
            SparseSpatialMultiHeadAttention(embedding_dim=4, normalizer="other")

    def test_inner_product_ablation_path(self, embeddings, index_set):
        attention = SparseSpatialMultiHeadAttention(embedding_dim=6, use_pairwise_attention=False,
                                                    alpha=1.5)
        slim = attention(embeddings, index_set)
        assert slim.shape == (14, 4)
        # inner-product + entmax rows are probability vectors over the neighbours
        assert np.allclose(slim.data.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(slim.data >= -1e-12)

    def test_entmax_produces_sparser_scores_than_softmax(self, rng, index_set):
        embeddings = Parameter(rng.normal(size=(14, 6)) * 3.0)
        sparse_attention = SparseSpatialMultiHeadAttention(6, num_heads=1, alpha=2.0, seed=1)
        soft_attention = SparseSpatialMultiHeadAttention(6, num_heads=1, normalizer="softmax", seed=1)
        # compare the per-head normalised scores via the number of exact zeros
        sparse_zeros = (sparse_attention(embeddings, index_set).data == 0.0).sum()
        soft_zeros = (soft_attention(embeddings, index_set).data == 0.0).sum()
        assert sparse_zeros >= soft_zeros

    def test_parameter_count_independent_of_num_nodes(self):
        small = SparseSpatialMultiHeadAttention(embedding_dim=6, num_heads=2, ffn_hidden=8)
        # the module has no per-node parameters — scalability requirement
        names = [name for name, _ in small.named_parameters()]
        assert all("node" not in name for name in names)


def _cell(input_dim, hidden_dim, diffusion_steps, seed=0):
    """A cell whose gate and candidate convolutions carry random biases."""
    cell = OneStepFastGConvCell(input_dim=input_dim, hidden_dim=hidden_dim,
                                diffusion_steps=diffusion_steps, seed=seed)
    rng = np.random.default_rng(seed)
    for conv in (cell.gates, cell.candidate):
        conv.bias.data[:] = rng.normal(size=conv.bias.shape)
    return cell


class TestFastGraphConv:
    """Eq. 9 through the cell that applies the convolutions' weights."""

    def test_slim_output_shape(self, rng, index_set):
        cell = _cell(input_dim=5, hidden_dim=7, diffusion_steps=3)
        assert [w.shape for w in cell.gates.hop_weights] == [(12, 14)] * 3
        assert [w.shape for w in cell.candidate.hop_weights] == [(12, 7)] * 3
        x = Tensor(rng.normal(size=(2, 14, 5)))
        slim = Tensor(rng.random((14, 4)))
        new_hidden, prediction = cell(x, cell.initial_state(2, 14), slim, index_set)
        assert new_hidden.shape == (2, 14, 7)
        assert prediction.shape == (2, 14, 1)

    def test_dense_output_shape(self, rng):
        cell = _cell(input_dim=5, hidden_dim=7, diffusion_steps=2)
        x = Tensor(rng.normal(size=(2, 9, 5)))
        dense = Tensor(rng.random((9, 9)))
        new_hidden, _ = cell(x, cell.initial_state(2, 9), dense, index_set=None)
        assert new_hidden.shape == (2, 9, 7)

    def test_single_step_is_plain_linear(self, rng, index_set):
        """J = 1: every convolution is ``[x, h] W_0 + b``, a plain GRU."""
        cell = _cell(input_dim=4, hidden_dim=3, diffusion_steps=1)
        x = rng.normal(size=(1, 14, 4))
        hidden = rng.normal(size=(1, 14, 3))
        slim = Tensor(rng.random((14, 4)))
        new_hidden, _ = cell(Tensor(x), Tensor(hidden), slim, index_set)

        def sigmoid(z):
            return 1.0 / (1.0 + np.exp(-z))

        gates = (np.concatenate([x, hidden], axis=-1) @ cell.gates.hop_weights[0].data
                 + cell.gates.bias.data)
        reset, update = sigmoid(gates[..., :3]), sigmoid(gates[..., 3:])
        candidate = np.tanh(np.concatenate([x, reset * hidden], axis=-1)
                            @ cell.candidate.hop_weights[0].data + cell.candidate.bias.data)
        expected = update * hidden + (1.0 - update) * candidate
        assert np.allclose(new_hidden.data, expected)

    def test_diffusion_states_match_eq9(self, rng):
        """s_j = (A @ gather(s_{j-1}) + s_{j-1}) * (D + I)^{-1} (Eq. 9)."""
        from repro.core.gconv import _Graph

        x = rng.normal(size=(2, 9, 2))
        slim = rng.random((9, 4))
        index_set = np.array([0, 3, 5, 7])
        scale = 1.0 / (slim.sum(axis=-1, keepdims=True) + 1.0)
        stack = np.empty((3 * 2, 2, 9))
        stack[:2] = x.transpose(2, 0, 1)
        _Graph(slim, index_set, scale.reshape(-1)).diffuse_(stack, width=2, hops=3)
        expected = x
        for j in (1, 2):
            gathered = expected[:, index_set, :]
            expected = (np.einsum("nm,bmc->bnc", slim, gathered) + expected) * scale
            state = stack[2 * j : 2 * j + 2].transpose(1, 2, 0)
            assert np.abs(state - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_wrong_input_dim_raises(self, rng, index_set):
        cell = _cell(input_dim=4, hidden_dim=3, diffusion_steps=2)
        with pytest.raises(ValueError):
            cell(Tensor(rng.normal(size=(1, 14, 5))), cell.initial_state(1, 14),
                 Tensor(rng.random((14, 4))), index_set)

    def test_invalid_diffusion_steps(self):
        with pytest.raises(ValueError):
            FastGraphConv(3, 3, diffusion_steps=0)

    def test_gradients_through_slim_adjacency(self, rng, index_set):
        cell = _cell(input_dim=3, hidden_dim=2, diffusion_steps=2)
        x = Tensor(rng.normal(size=(1, 14, 3)), requires_grad=True)
        hidden = Tensor(rng.normal(size=(1, 14, 2)))
        slim = Tensor(rng.random((14, 4)), requires_grad=True)
        assert check_gradients(
            lambda signal, adjacency: cell(signal, hidden, adjacency, index_set)[0],
            [x, slim], atol=1e-4,
        )

    @staticmethod
    def _node_change(rng, node):
        """|Δ new hidden| per node after perturbing ``node``'s input (I = {2, 5})."""
        index_set = np.array([2, 5])
        cell = _cell(input_dim=3, hidden_dim=3, diffusion_steps=2)
        slim = Tensor(np.abs(rng.random((10, 2))) + 0.5)
        hidden = Tensor(rng.normal(size=(1, 10, 3)))
        base = rng.normal(size=(1, 10, 3))
        perturbed = base.copy()
        perturbed[0, node, :] += 10.0
        outputs = [cell(Tensor(signal), hidden, slim, index_set)[0].data
                   for signal in (perturbed, base)]
        return np.abs(outputs[0] - outputs[1])[0].sum(axis=-1)

    def test_information_flows_from_significant_neighbours(self, rng):
        """Perturbing a significant neighbour's features changes other nodes' outputs."""
        difference = self._node_change(rng, node=2)  # node 2 is a significant neighbour
        assert difference[7] > 0.0  # node 7 saw the change through the graph

    def test_no_information_flow_from_insignificant_nodes(self, rng):
        """Perturbing a node outside I cannot affect other nodes (only itself)."""
        difference = self._node_change(rng, node=7)  # node 7 is NOT significant
        assert difference[7] > 0.0
        assert np.allclose(np.delete(difference, 7), 0.0)


class TestOneStepFastGConvCell:
    def test_shapes_and_prediction(self, rng, index_set):
        cell = OneStepFastGConvCell(input_dim=2, hidden_dim=6, output_dim=1, diffusion_steps=2)
        hidden = cell.initial_state(3, 14)
        assert hidden.shape == (3, 14, 6)
        x = Tensor(rng.normal(size=(3, 14, 2)))
        slim = Tensor(rng.random((14, 4)))
        new_hidden, prediction = cell(x, hidden, slim, index_set)
        assert new_hidden.shape == (3, 14, 6)
        assert prediction.shape == (3, 14, 1)

    def test_hidden_state_is_bounded(self, rng, index_set):
        cell = OneStepFastGConvCell(input_dim=2, hidden_dim=4, diffusion_steps=2)
        hidden = cell.initial_state(2, 14)
        slim = Tensor(rng.random((14, 4)))
        for _ in range(30):
            hidden, _ = cell(Tensor(rng.normal(size=(2, 14, 2))), hidden, slim, index_set)
        assert np.all(np.abs(hidden.data) <= 1.0 + 1e-9)

    def test_gradients_reach_all_parameters(self, rng, index_set):
        cell = OneStepFastGConvCell(input_dim=2, hidden_dim=3, diffusion_steps=2)
        hidden = cell.initial_state(1, 14)
        slim = Tensor(rng.random((14, 4)))
        _, prediction = cell(Tensor(rng.normal(size=(1, 14, 2))), hidden, slim, index_set)
        prediction.sum().backward()
        for name, parameter in cell.named_parameters():
            assert parameter.grad is not None, name


class TestNumericalGradients:
    """Finite-difference verification of the gconv/recurrent core.

    ``check_gradients`` perturbs every element of every ``requires_grad``
    input, so the shapes here are deliberately tiny.  The convolution
    parameters are passed as extra inputs: the closures ignore them
    positionally, but perturbing their ``data`` in place changes the layer
    output, so their analytic gradients are verified too.
    """

    def test_fast_graph_conv_slim_path(self, rng):
        cell = _cell(input_dim=2, hidden_dim=2, diffusion_steps=3)
        index_set = np.array([0, 2, 4])
        x = Tensor(rng.normal(size=(2, 5, 2)), requires_grad=True)
        hidden = Tensor(rng.normal(size=(2, 5, 2)))
        adjacency = Tensor(rng.random((5, 3)) + 0.1, requires_grad=True)
        assert check_gradients(
            lambda x_, a_, *params: cell(x_, hidden, a_, index_set)[0],
            [x, adjacency, *cell.parameters()],
        )

    def test_fast_graph_conv_dense_path(self, rng):
        cell = _cell(input_dim=2, hidden_dim=2, diffusion_steps=2, seed=1)
        x = Tensor(rng.normal(size=(1, 4, 2)), requires_grad=True)
        hidden = Tensor(rng.normal(size=(1, 4, 2)))
        adjacency = Tensor(rng.random((4, 4)) + 0.1, requires_grad=True)
        assert check_gradients(
            lambda x_, a_, *params: cell(x_, hidden, a_)[0],
            [x, adjacency, *cell.parameters()],
        )

    def test_fast_graph_conv_precomputed_degree_scale_matches_default(self, rng):
        cell = _cell(input_dim=3, hidden_dim=2, diffusion_steps=2, seed=2)
        index_set = np.array([1, 3])
        x = Tensor(rng.normal(size=(2, 6, 3)))
        hidden = Tensor(rng.normal(size=(2, 6, 2)))
        adjacency = Tensor(rng.random((6, 2)))
        scale = Tensor(1.0 / (adjacency.data.sum(axis=-1, keepdims=True) + 1.0))
        default = cell(x, hidden, adjacency, index_set)[0]
        frozen = cell(x, hidden, adjacency, index_set, degree_scale=scale)[0]
        assert np.allclose(default.data, frozen.data)

    def test_one_step_cell_gradients(self, rng):
        cell = OneStepFastGConvCell(input_dim=2, hidden_dim=2, diffusion_steps=2, seed=3)
        index_set = np.array([0, 3])
        x = Tensor(rng.normal(size=(1, 4, 2)), requires_grad=True)
        hidden = Tensor(rng.normal(size=(1, 4, 2)), requires_grad=True)
        adjacency = Tensor(rng.random((4, 2)) + 0.1, requires_grad=True)

        def both_outputs(x_, h_, a_, *params):
            new_hidden, prediction = cell(x_, h_, a_, index_set)
            return new_hidden.sum() + prediction.sum()

        assert check_gradients(
            both_outputs, [x, hidden, adjacency, *cell.parameters()]
        )
