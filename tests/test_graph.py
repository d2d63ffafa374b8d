"""Tests for adjacency utilities and the dense/slim diffusion operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    add_self_loops,
    cheb_polynomials,
    degree_vector,
    dense_diffusion,
    gaussian_kernel_adjacency,
    knn_adjacency,
    knn_neighbours,
    random_walk_matrix,
    row_normalize,
    scaled_laplacian,
    slim_degree_vector,
    slim_diffusion_step,
    slim_graph_conv,
    symmetric_normalize,
    threshold_sparsify,
)
from repro.tensor import Tensor, check_gradients


@pytest.fixture
def adjacency(rng):
    matrix = rng.random((6, 6))
    matrix = (matrix + matrix.T) / 2
    np.fill_diagonal(matrix, 0.0)
    return matrix


class TestAdjacencyUtilities:
    def test_degree_vector(self, adjacency):
        assert np.allclose(degree_vector(adjacency), adjacency.sum(axis=1))

    def test_add_self_loops(self, adjacency):
        looped = add_self_loops(adjacency, weight=2.0)
        assert np.allclose(np.diag(looped), 2.0)

    def test_add_self_loops_rejects_non_square(self):
        with pytest.raises(ValueError):
            add_self_loops(np.ones((2, 3)))

    def test_row_normalize_rows_sum_to_one(self, adjacency):
        normalised = row_normalize(adjacency)
        assert np.allclose(normalised.sum(axis=1), 1.0)

    def test_row_normalize_handles_isolated_nodes(self):
        matrix = np.zeros((3, 3))
        matrix[0, 1] = 1.0
        normalised = row_normalize(matrix)
        assert np.allclose(normalised[2], 0.0)

    def test_random_walk_alias(self, adjacency):
        assert np.allclose(random_walk_matrix(adjacency), row_normalize(adjacency))

    def test_symmetric_normalize_is_symmetric(self, adjacency):
        normalised = symmetric_normalize(adjacency)
        assert np.allclose(normalised, normalised.T)

    def test_scaled_laplacian_eigenvalues_in_range(self, adjacency):
        laplacian = scaled_laplacian(adjacency)
        eigenvalues = np.linalg.eigvalsh(laplacian)
        assert eigenvalues.min() >= -1.0 - 1e-8
        assert eigenvalues.max() <= 1.0 + 1e-8

    def test_cheb_polynomials_first_two_terms(self, adjacency):
        laplacian = scaled_laplacian(adjacency)
        polynomials = cheb_polynomials(laplacian, order=3)
        assert len(polynomials) == 3
        assert np.allclose(polynomials[0], np.eye(6))
        assert np.allclose(polynomials[1], laplacian)
        assert np.allclose(polynomials[2], 2 * laplacian @ laplacian - np.eye(6))

    def test_cheb_polynomials_invalid_order(self, adjacency):
        with pytest.raises(ValueError):
            cheb_polynomials(adjacency, order=0)

    def test_gaussian_kernel_thresholds_and_no_diagonal(self):
        distances = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]])
        weights = gaussian_kernel_adjacency(distances, sigma=1.0, threshold=0.1)
        assert weights[0, 2] == 0.0  # far pair thresholded away
        assert weights[0, 1] > 0.0
        assert np.allclose(np.diag(weights), 0.0)

    def test_knn_adjacency_row_counts(self, rng):
        distances = rng.random((8, 8))
        distances = (distances + distances.T) / 2
        np.fill_diagonal(distances, 0.0)
        knn = knn_adjacency(distances, k=3, symmetric=False)
        assert np.all(knn.sum(axis=1) == 3)
        symmetric = knn_adjacency(distances, k=3, symmetric=True)
        assert np.allclose(symmetric, symmetric.T)

    @pytest.mark.parametrize("block_rows", [1, 3, 256])
    def test_knn_neighbours_are_the_full_argsort_in_any_row_blocks(self, monkeypatch,
                                                                    block_rows):
        from repro.graph import adjacency as adjacency_module

        monkeypatch.setattr(adjacency_module, "_KNN_BLOCK_ROWS", block_rows)
        # An integer grid has many tied distances, so this pins the tie order too.
        grid = np.stack(np.meshgrid(np.arange(4.0), np.arange(4.0)), axis=-1).reshape(-1, 2)
        distances = np.abs(grid[:, None, :] - grid[None, :, :]).sum(axis=-1)
        masked = distances.copy()
        np.fill_diagonal(masked, np.inf)
        expected = np.argsort(masked, axis=1)[:, :5]
        assert np.array_equal(knn_neighbours(distances, 5), expected)

    def test_knn_invalid_k(self, rng):
        with pytest.raises(ValueError):
            knn_adjacency(np.zeros((4, 4)), k=4)

    def test_threshold_sparsify_keeps_top_entries(self, rng):
        matrix = rng.random((5, 10))
        sparsified = threshold_sparsify(matrix, keep_top=3)
        assert np.all((sparsified > 0).sum(axis=1) == 3)
        # the kept entries are the largest ones
        for row, sparse_row in zip(matrix, sparsified):
            kept = set(np.nonzero(sparse_row)[0])
            expected = set(np.argsort(-row)[:3])
            assert kept == expected

    def test_threshold_sparsify_noop_when_keep_top_large(self, rng):
        matrix = rng.random((3, 4))
        assert np.allclose(threshold_sparsify(matrix, keep_top=10), matrix)


class TestDenseDiffusion:
    def test_returns_powers_of_support(self, adjacency, rng):
        signal = Tensor(rng.normal(size=(6, 3)))
        support = row_normalize(adjacency)
        outputs = dense_diffusion(support, signal, steps=3)
        assert len(outputs) == 3
        assert np.allclose(outputs[1].data, support @ signal.data)
        assert np.allclose(outputs[2].data, support @ support @ signal.data)

    def test_invalid_steps(self, adjacency, rng):
        with pytest.raises(ValueError):
            dense_diffusion(adjacency, Tensor(rng.normal(size=(6, 2))), steps=0)


class TestSlimDiffusion:
    def test_degree_vector_matches_row_sums(self, rng):
        slim = Tensor(rng.random((6, 3)))
        assert np.allclose(slim_degree_vector(slim), slim.data.sum(axis=1))

    def test_single_step_matches_manual_computation(self, rng):
        num_nodes, num_significant, channels = 5, 2, 3
        slim = rng.random((num_nodes, num_significant))
        indices = np.array([1, 3])
        signal = rng.normal(size=(num_nodes, channels))
        result = slim_diffusion_step(Tensor(slim), Tensor(signal), indices).data
        expected = (slim @ signal[indices] + signal) / (slim.sum(axis=1, keepdims=True) + 1.0)
        assert np.allclose(result, expected)

    def test_batched_signal(self, rng):
        slim = Tensor(rng.random((4, 2)))
        signal = Tensor(rng.normal(size=(3, 4, 5)))
        out = slim_diffusion_step(slim, signal, np.array([0, 2]))
        assert out.shape == (3, 4, 5)

    def test_mismatched_indices_raise(self, rng):
        with pytest.raises(ValueError):
            slim_diffusion_step(Tensor(rng.random((4, 3))), Tensor(rng.normal(size=(4, 2))),
                                np.array([0, 1]))

    def test_slim_graph_conv_shapes_and_gradients(self, rng):
        slim = Tensor(rng.random((5, 2)), requires_grad=True)
        signal = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        weights = [Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(2)]
        indices = np.array([0, 4])
        out = slim_graph_conv(slim, signal, indices, weights)
        assert out.shape == (5, 4)
        assert check_gradients(
            lambda adjacency, x, w0, w1: slim_graph_conv(adjacency, x, indices, [w0, w1]),
            [slim, signal, weights[0], weights[1]],
            atol=1e-4,
        )

    def test_slim_graph_conv_requires_weights(self, rng):
        with pytest.raises(ValueError):
            slim_graph_conv(Tensor(rng.random((3, 2))), Tensor(rng.normal(size=(3, 2))),
                            np.array([0, 1]), [])

    def test_equivalence_with_dense_when_m_equals_n(self, rng):
        """With I = all nodes, the slim diffusion equals the dense formulation."""
        num_nodes, channels = 4, 3
        dense = rng.random((num_nodes, num_nodes))
        indices = np.arange(num_nodes)
        signal = rng.normal(size=(num_nodes, channels))
        slim_result = slim_diffusion_step(Tensor(dense), Tensor(signal), indices).data
        expected = (dense @ signal + signal) / (dense.sum(axis=1, keepdims=True) + 1.0)
        assert np.allclose(slim_result, expected)


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 8), st.integers(1, 5))
def test_property_row_normalised_matrix_is_stochastic(num_nodes, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.random((num_nodes, num_nodes)) + 0.01
    normalised = row_normalize(matrix)
    assert np.allclose(normalised.sum(axis=1), 1.0)
    assert np.all(normalised >= 0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 9), st.integers(1, 3), st.integers(0, 100))
def test_property_knn_graph_is_connected_enough(num_nodes, k, seed):
    rng = np.random.default_rng(seed)
    points = rng.random((num_nodes, 2))
    distances = np.linalg.norm(points[:, None] - points[None, :], axis=-1)
    adjacency = knn_adjacency(distances, k=min(k, num_nodes - 1))
    assert np.all(adjacency.sum(axis=1) >= min(k, num_nodes - 1))
