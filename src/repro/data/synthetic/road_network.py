"""Procedural road-network generation.

The traffic simulators need a graph whose edges reflect *physical* proximity
of sensors: congestion propagates along it, which is exactly the kind of
sparse, local spatial correlation SAGDFN's Significant Neighbors Sampling is
designed to discover from data.

The road graph has ~``neighbours`` edges per node, so everything here past
the pairwise distances works on its edge list: the Gaussian weights are
evaluated on the kNN edges only, and :class:`Transition` moves a field over
the graph in O(edges) per step instead of a dense ``(N, N)`` mat-vec.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.graph import knn_neighbours
from repro.utils.seed import spawn_rng


@dataclass
class RoadNetwork:
    """A sensor network embedded in the unit square.

    Attributes
    ----------
    positions:
        ``(N, 2)`` sensor coordinates.
    distances:
        ``(N, N)`` Euclidean distance matrix.
    adjacency:
        Weighted ``(N, N)`` adjacency (Gaussian kernel over the symmetric
        k-nearest-neighbour graph), the analogue of the distance-based graph
        DCRNN builds for METR-LA.
    """

    positions: np.ndarray
    distances: np.ndarray
    adjacency: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.positions.shape[0]

    @cached_property
    def graph(self):
        """The same connectivity as a :class:`networkx.Graph`, built on first access.

        networkx is imported here, so generating data does not need it.
        """
        import networkx as nx

        return nx.from_numpy_array(self.adjacency)


class Transition:
    """The row-normalised road graph ``T = D⁻¹A`` as neighbour lists.

    ``rows`` / ``cols`` / ``vals`` hold the non-zeros of ``T`` in row-major
    order; ``T @ x`` gathers and scatters over them, O(edges) per product.
    """

    def __init__(self, adjacency: np.ndarray):
        self.num_nodes = adjacency.shape[0]
        self.rows, self.cols = np.nonzero(adjacency)
        weights = adjacency[self.rows, self.cols]
        degrees = np.bincount(self.rows, weights=weights, minlength=self.num_nodes)
        self.vals = weights / np.maximum(degrees, 1e-10)[self.rows]  # as row_normalize

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=self.num_nodes)

    def smooth(self, x: np.ndarray) -> np.ndarray:
        """``(0.4 I + 0.4 T + 0.2 T²) x``, without forming ``T²``."""
        tx = self @ x
        return 0.4 * x + 0.4 * tx + 0.2 * (self @ tx)


def latent_field(
    transition: Transition,
    rng: np.random.Generator,
    num_steps: int,
    innovation: float,
    temporal_rho: float,
    spatial_rho: float,
) -> np.ndarray:
    """A ``(num_steps, N)`` AR(1) field diffusing over the road graph.

    ``c_t = temporal_rho · c_{t-1} + spatial_rho · T c_{t-1} + S ε_t``: the
    field persists in time and travels along the network, and its
    innovations ``ε_t ~ N(0, innovation²)`` are graph-smoothed
    (:meth:`Transition.smooth`) so that neighbours receive correlated shocks.
    Draws ``N`` then ``(num_steps, N)`` normals from ``rng``.
    """
    current = transition.smooth(rng.normal(scale=innovation, size=transition.num_nodes))
    innovations = rng.normal(scale=innovation, size=(num_steps, transition.num_nodes))
    field = np.empty_like(innovations)
    for step, shock in enumerate(innovations):
        current = (
            temporal_rho * current
            + spatial_rho * (transition @ current)
            + transition.smooth(shock)
        )
        field[step] = current
    return field


def generate_road_network(
    num_nodes: int,
    neighbours: int = 6,
    seed: int | None = 0,
    clusters: int | None = None,
) -> RoadNetwork:
    """Generate a road network of ``num_nodes`` sensors.

    Sensors are placed around ``clusters`` cluster centres (defaults to
    ``max(4, num_nodes // 50)``) to imitate the corridor structure of real
    road networks, then connected to their ``neighbours`` nearest sensors.
    Edge ``(i, j)`` weighs ``exp(-d_ij² / σ²)``, with σ the standard
    deviation of all pairwise distances.

    Parameters
    ----------
    num_nodes:
        Number of sensors.
    neighbours:
        k of the k-nearest-neighbour connectivity.
    seed:
        RNG seed; the same seed always yields the same network.
    clusters:
        Number of spatial clusters (road corridors).
    """
    if num_nodes < 2:
        raise ValueError("a road network needs at least two sensors")
    rng = spawn_rng(seed)
    if clusters is None:
        clusters = max(4, num_nodes // 50)
    clusters = min(clusters, num_nodes)
    centres = rng.random((clusters, 2))
    assignment = rng.integers(0, clusters, size=num_nodes)
    jitter = rng.normal(scale=0.06, size=(num_nodes, 2))
    positions = np.clip(centres[assignment] + jitter, 0.0, 1.0)
    # sqrt(dx² + dy²) from two (N, N) differences, not an (N, N, 2) tensor.
    distances = np.subtract.outer(positions[:, 0], positions[:, 0])
    distances *= distances
    dy = np.subtract.outer(positions[:, 1], positions[:, 1])
    dy *= dy
    distances += dy
    del dy
    np.sqrt(distances, out=distances)

    # Symmetric kNN edges as sorted ``i·N + j`` keys, i.e. in row-major order.
    k = min(neighbours, num_nodes - 1)
    sources = np.repeat(np.arange(num_nodes), k)
    targets = knn_neighbours(distances, k).reshape(-1)
    keys = np.unique(np.concatenate([sources * num_nodes + targets,
                                     targets * num_nodes + sources]))
    rows, cols = np.divmod(keys, num_nodes)
    sigma = float(distances.std()) or 1.0
    adjacency = np.zeros((num_nodes, num_nodes))
    adjacency[rows, cols] = np.exp(-np.square(distances[rows, cols] / sigma))
    return RoadNetwork(positions=positions, distances=distances, adjacency=adjacency)
