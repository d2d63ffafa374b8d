"""Adjacency-matrix construction and normalisation helpers (plain NumPy).

These functions operate on dense ``(N, N)`` arrays; the *slim* ``(N, M)``
operators used by SAGDFN live in :mod:`repro.graph.diffusion`.
"""

from __future__ import annotations

import numpy as np


def degree_vector(adjacency: np.ndarray, axis: int = 1) -> np.ndarray:
    """Row (out-) degree of a weighted adjacency matrix."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    return adjacency.sum(axis=axis)


def add_self_loops(adjacency: np.ndarray, weight: float = 1.0) -> np.ndarray:
    """Return ``A + weight · I``."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("self loops require a square adjacency matrix")
    return adjacency + weight * np.eye(adjacency.shape[0])


def row_normalize(adjacency: np.ndarray, eps: float = 1e-10) -> np.ndarray:
    """Random-walk normalisation ``D⁻¹ A`` (rows sum to one where possible)."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    degrees = adjacency.sum(axis=1, keepdims=True)
    return adjacency / np.maximum(degrees, eps)


def symmetric_normalize(adjacency: np.ndarray, eps: float = 1e-10) -> np.ndarray:
    """Symmetric normalisation ``D^{-1/2} A D^{-1/2}`` used by classical GCNs."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    degrees = adjacency.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, eps))
    return adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]


def random_walk_matrix(adjacency: np.ndarray) -> np.ndarray:
    """Alias of :func:`row_normalize`, named as in the DCRNN paper."""
    return row_normalize(adjacency)


def scaled_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Rescaled Laplacian ``2 L / λ_max − I`` used by Chebyshev graph convolutions."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    normalised = symmetric_normalize(adjacency)
    laplacian = np.eye(adjacency.shape[0]) - normalised
    eigenvalues = np.linalg.eigvalsh(laplacian)
    lambda_max = float(eigenvalues.max())
    if lambda_max <= 0:
        lambda_max = 2.0
    return 2.0 * laplacian / lambda_max - np.eye(adjacency.shape[0])


def cheb_polynomials(laplacian: np.ndarray, order: int) -> list[np.ndarray]:
    """Chebyshev polynomial basis ``T_0 … T_{order-1}`` of the scaled Laplacian."""
    if order < 1:
        raise ValueError("order must be >= 1")
    n = laplacian.shape[0]
    polynomials = [np.eye(n)]
    if order > 1:
        polynomials.append(laplacian.copy())
    for _ in range(2, order):
        polynomials.append(2.0 * laplacian @ polynomials[-1] - polynomials[-2])
    return polynomials


def gaussian_kernel_adjacency(
    distances: np.ndarray, sigma: float | None = None, threshold: float = 0.1
) -> np.ndarray:
    """Thresholded Gaussian kernel adjacency from a pairwise distance matrix.

    This is the construction used by DCRNN/STGCN for road networks:
    ``W_ij = exp(-d_ij² / σ²)`` with entries below ``threshold`` zeroed and the
    diagonal removed.  ``sigma`` defaults to the standard deviation of the
    finite distances.
    """
    distances = np.asarray(distances, dtype=np.float64)
    finite = distances[np.isfinite(distances)]
    if sigma is None:
        sigma = float(finite.std()) or 1.0
    weights = np.exp(-np.square(distances / sigma))
    weights[~np.isfinite(distances)] = 0.0
    weights[weights < threshold] = 0.0
    np.fill_diagonal(weights, 0.0)
    return weights


# Rows per block of knn_neighbours' argsort: its scratch is this many rows
# of distances and sort indices, not two more (N, N) arrays.
_KNN_BLOCK_ROWS = 256


def knn_neighbours(distances: np.ndarray, k: int) -> np.ndarray:
    """``(N, k)`` indices of each node's ``k`` nearest other nodes, nearest first.

    Each row is argsorted in full, so ties keep index order whatever the
    row blocking.
    """
    distances = np.asarray(distances, dtype=np.float64)
    n = distances.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    neighbours = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, _KNN_BLOCK_ROWS):
        block = distances[start:start + _KNN_BLOCK_ROWS].copy()
        rows = np.arange(len(block))
        block[rows, start + rows] = np.inf
        neighbours[start:start + len(block)] = np.argsort(block, axis=1)[:, :k]
    return neighbours


def knn_adjacency(distances: np.ndarray, k: int, symmetric: bool = True) -> np.ndarray:
    """Binary k-nearest-neighbour adjacency from a pairwise distance matrix."""
    neighbours = knn_neighbours(distances, k)
    n = neighbours.shape[0]
    adjacency = np.zeros((n, n))
    adjacency[np.repeat(np.arange(n), k), neighbours.reshape(-1)] = 1.0
    if symmetric:
        adjacency = np.maximum(adjacency, adjacency.T)
    return adjacency


def threshold_sparsify(adjacency: np.ndarray, keep_top: int) -> np.ndarray:
    """Keep only the ``keep_top`` largest entries per row, zeroing the rest.

    Used by the "w/o SNS & SSMA" ablation, which retains the top-100 closest
    neighbours of a distance-derived adjacency matrix.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    n, m = adjacency.shape
    if keep_top >= m:
        return adjacency.copy()
    result = np.zeros_like(adjacency)
    top_indices = np.argpartition(-adjacency, keep_top, axis=1)[:, :keep_top]
    rows = np.repeat(np.arange(n), keep_top)
    cols = top_indices.reshape(-1)
    result[rows, cols] = adjacency[rows, cols]
    return result
