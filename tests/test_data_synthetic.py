"""Tests for the synthetic road-network, traffic and car-park generators."""

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.data.synthetic import (
    DATASET_REGISTRY,
    CarparkConfig,
    TrafficConfig,
    generate_carpark_dataset,
    generate_road_network,
    generate_traffic_dataset,
    load_dataset,
)
from repro.data.synthetic.carpark import _occupancy_profile
from repro.data.synthetic.traffic import _rush_hour_profile
from repro.experiments.common import prepare_data_from_series
from repro.graph import row_normalize
from repro.utils.seed import spawn_rng


class TestRoadNetwork:
    def test_shapes_and_symmetry(self, tiny_network):
        network = tiny_network
        assert network.positions.shape == (12, 2)
        assert network.distances.shape == (12, 12)
        assert network.adjacency.shape == (12, 12)
        assert np.allclose(network.adjacency, network.adjacency.T)
        assert np.allclose(np.diag(network.adjacency), 0.0)

    def test_every_node_has_neighbours(self, tiny_network):
        assert np.all((tiny_network.adjacency > 0).sum(axis=1) >= 3)

    def test_determinism(self):
        a = generate_road_network(10, seed=3)
        b = generate_road_network(10, seed=3)
        assert np.allclose(a.positions, b.positions)
        assert np.allclose(a.adjacency, b.adjacency)

    def test_different_seeds_differ(self):
        a = generate_road_network(10, seed=1)
        b = generate_road_network(10, seed=2)
        assert not np.allclose(a.positions, b.positions)

    def test_too_few_nodes_raises(self):
        with pytest.raises(ValueError):
            generate_road_network(1)

    def test_networkx_graph_matches_adjacency(self, tiny_network):
        pytest.importorskip("networkx")
        assert tiny_network.graph.number_of_nodes() == 12
        for u, v in tiny_network.graph.edges():
            assert tiny_network.adjacency[u, v] > 0


class TestTrafficGenerator:
    def test_shape_and_metadata(self, tiny_traffic_series):
        series = tiny_traffic_series
        assert series.values.shape == (400, 12, 1)
        assert series.step_minutes == 5
        assert series.adjacency is not None

    def test_speeds_are_physical(self, tiny_traffic_series):
        values = tiny_traffic_series.values[..., 0]
        assert values.min() >= 0.0
        assert values.max() < 120.0

    def test_missing_values_fraction(self):
        config = TrafficConfig(num_nodes=20, num_steps=600, missing_rate=0.05, seed=0)
        series = generate_traffic_dataset(config)
        zero_fraction = (series.values == 0).mean()
        assert 0.02 < zero_fraction < 0.12

    def test_rush_hour_dip(self):
        """Average weekday speed at 8am is lower than at 3am."""
        config = TrafficConfig(num_nodes=15, num_steps=288 * 4, seed=1, missing_rate=0.0)
        series = generate_traffic_dataset(config)
        minutes = series.minute_of_day()
        rush = series.values[(minutes >= 7 * 60) & (minutes <= 9 * 60)].mean()
        calm = series.values[(minutes >= 2 * 60) & (minutes <= 4 * 60)].mean()
        assert rush < calm

    def test_spatial_correlation_is_local(self):
        """After removing the shared daily pattern, neighbours correlate more than strangers."""
        config = TrafficConfig(num_nodes=30, num_steps=900, seed=3, missing_rate=0.0)
        network = generate_road_network(30, seed=3)
        series = generate_traffic_dataset(config, network)
        values = series.values[..., 0]
        residual = values - values.mean(axis=1, keepdims=True)
        correlation = np.corrcoef(residual.T)
        neighbour_mask = network.adjacency > 0
        np.fill_diagonal(neighbour_mask, False)
        stranger_mask = ~(network.adjacency > 0)
        np.fill_diagonal(stranger_mask, False)
        assert correlation[neighbour_mask].mean() > correlation[stranger_mask].mean() + 0.05

    def test_determinism(self):
        config = TrafficConfig(num_nodes=10, num_steps=200, seed=5)
        assert np.allclose(generate_traffic_dataset(config).values,
                           generate_traffic_dataset(config).values)

    def test_network_size_mismatch_raises(self):
        config = TrafficConfig(num_nodes=10, num_steps=100)
        with pytest.raises(ValueError):
            generate_traffic_dataset(config, generate_road_network(12))


class TestCarparkGenerator:
    def test_counts_within_capacity(self, tiny_carpark_series):
        values = tiny_carpark_series.values[..., 0]
        assert values.min() >= 0.0
        assert np.allclose(values, np.round(values))

    def test_business_daily_cycle(self):
        """Across all car parks, availability is lower mid-day than early morning on average
        for business-dominated configurations."""
        config = CarparkConfig(num_nodes=30, num_steps=288 * 3, business_fraction=1.0, seed=2)
        series = generate_carpark_dataset(config)
        minutes = series.minute_of_day()
        midday = series.values[(minutes >= 12 * 60) & (minutes <= 15 * 60)].mean()
        early = series.values[(minutes >= 3 * 60) & (minutes <= 5 * 60)].mean()
        assert midday < early

    def test_determinism(self):
        config = CarparkConfig(num_nodes=8, num_steps=150, seed=9)
        assert np.allclose(generate_carpark_dataset(config).values,
                           generate_carpark_dataset(config).values)


class TestRegistry:
    def test_registry_matches_table2(self):
        assert DATASET_REGISTRY["metr_la_like"].num_nodes == 207
        assert DATASET_REGISTRY["london2000_like"].num_nodes == 2000
        assert DATASET_REGISTRY["newyork2000_like"].num_nodes == 2000
        assert DATASET_REGISTRY["carpark1918_like"].num_nodes == 1918
        assert DATASET_REGISTRY["carpark1918_like"].history == 24
        assert DATASET_REGISTRY["metr_la_like"].history == 12

    def test_load_dataset_overrides(self):
        series, spec = load_dataset("metr_la_like", num_nodes=15, num_steps=120)
        assert series.num_nodes == 15
        assert series.num_steps == 120
        assert spec.num_nodes == 15

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_dataset("not_a_dataset")

    def test_london_and_newyork_differ(self):
        london, _ = load_dataset("london2000_like", num_nodes=20, num_steps=100)
        newyork, _ = load_dataset("newyork2000_like", num_nodes=20, num_steps=100)
        assert not np.allclose(london.values, newyork.values)

    def test_load_dataset_deterministic(self):
        first, _ = load_dataset("metr_la_like", num_nodes=10, num_steps=80, seed=4)
        second, _ = load_dataset("metr_la_like", num_nodes=10, num_steps=80, seed=4)
        assert np.allclose(first.values, second.values)


# ---------------------------------------------------------------------- #
# The dense formulation the sparse generators replaced, kept as a reference:
# an (N, N, 2) delta tensor, a dense kNN matrix, the Gaussian kernel over all
# pairs, T = row_normalize(A), the smoothing matrix 0.4 I + 0.4 T + 0.2 T @ T
# and one dense mat-vec per step.
# ---------------------------------------------------------------------- #
def _dense_road_network(num_nodes, neighbours, seed):
    rng = spawn_rng(seed)
    clusters = min(max(4, num_nodes // 50), num_nodes)
    centres = rng.random((clusters, 2))
    assignment = rng.integers(0, clusters, size=num_nodes)
    jitter = rng.normal(scale=0.06, size=(num_nodes, 2))
    positions = np.clip(centres[assignment] + jitter, 0.0, 1.0)
    deltas = positions[:, None, :] - positions[None, :, :]
    distances = np.sqrt((deltas**2).sum(axis=-1))
    k = min(neighbours, num_nodes - 1)
    masked = distances.copy()
    np.fill_diagonal(masked, np.inf)
    knn = np.zeros_like(distances)
    knn[np.repeat(np.arange(num_nodes), k), np.argsort(masked, axis=1)[:, :k].reshape(-1)] = 1.0
    knn = np.maximum(knn, knn.T)
    kernel = np.exp(-np.square(distances / (float(distances.std()) or 1.0)))
    np.fill_diagonal(kernel, 0.0)
    return distances, knn * kernel


def _dense_latent_field(transition, rng, steps, innovation, temporal_rho, spatial_rho):
    n = transition.shape[0]
    smoothing = 0.4 * np.eye(n) + 0.4 * transition + 0.2 * (transition @ transition)
    field = np.zeros((steps, n))
    current = smoothing @ rng.normal(scale=innovation, size=n)
    innovations = rng.normal(scale=innovation, size=(steps, n)) @ smoothing.T
    for step in range(steps):
        current = temporal_rho * current + spatial_rho * (transition @ current) + innovations[step]
        field[step] = current
    return field


def _dense_traffic(c):
    _, adjacency = _dense_road_network(c.num_nodes, c.neighbours, c.seed)
    rng, n, t = spawn_rng(c.seed), c.num_nodes, c.num_steps
    transition = row_normalize(adjacency)
    free_flow = np.clip(rng.normal(c.free_flow_mean, c.free_flow_std, size=n), 20.0, None)
    rush_sensitivity = np.clip(rng.normal(1.0, 0.25, size=n), 0.2, 2.0)
    minutes = np.arange(t) * c.step_minutes
    rush = _rush_hour_profile(minutes % (24 * 60), (minutes // (24 * 60)) % 7)
    congestion = c.congestion_scale * np.tanh(_dense_latent_field(
        transition, rng, t, c.congestion_innovation, c.temporal_rho, c.spatial_rho))
    incident_effect = np.zeros((t, n))
    for _ in range(int(rng.poisson(c.incident_rate * t))):
        start = int(rng.integers(0, max(1, t - c.incident_duration)))
        impact = np.zeros(n)
        impact[int(rng.integers(0, n))] = c.incident_depth
        for offset in range(min(c.incident_duration, t - start)):
            incident_effect[start + offset] += impact * (1.0 - offset / c.incident_duration)
            impact = 0.6 * impact + 0.4 * (transition @ impact)
    reduction = np.clip(c.rush_hour_depth * rush[:, None] * rush_sensitivity[None, :]
                        + congestion + incident_effect, 0.0, 0.95)
    speeds = free_flow[None, :] * (1.0 - reduction)
    speeds = np.clip(speeds + rng.normal(scale=c.noise_std, size=(t, n)), 0.0, None)
    speeds = np.where(rng.random((t, n)) < c.missing_rate, 0.0, speeds)
    return speeds, adjacency


def _dense_carpark(c):
    _, adjacency = _dense_road_network(c.num_nodes, c.neighbours, c.seed)
    rng, n, t = spawn_rng(c.seed), c.num_nodes, c.num_steps
    capacities = rng.integers(c.capacity_low, c.capacity_high + 1, size=n).astype(float)
    is_business = rng.random(n) < c.business_fraction
    minutes = np.arange(t) * c.step_minutes
    profile = _occupancy_profile(minutes % (24 * 60), (minutes // (24 * 60)) % 7, is_business)
    demand = c.demand_scale * np.tanh(_dense_latent_field(
        row_normalize(adjacency), rng, t, c.demand_innovation, c.temporal_rho, c.spatial_rho))
    base = np.clip(rng.normal(0.35, 0.1, size=n), 0.05, 0.7)
    occupancy = np.clip(base[None, :] + c.demand_depth * profile + demand, 0.02, 0.98)
    available = capacities[None, :] * (1.0 - occupancy) + rng.normal(scale=c.noise_std,
                                                                      size=(t, n))
    return np.clip(np.round(available), 0.0, capacities[None, :]), adjacency


class TestSparseMatchesDenseReference:
    @pytest.mark.parametrize("num_nodes,seed", [(40, 0), (41, 5)])
    def test_road_network(self, num_nodes, seed):
        distances, adjacency = _dense_road_network(num_nodes, 6, seed)
        network = generate_road_network(num_nodes, neighbours=6, seed=seed)
        assert np.array_equal(network.distances, distances)
        assert np.array_equal(network.adjacency, adjacency)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_traffic(self, seed):
        config = TrafficConfig(num_nodes=40, num_steps=300, seed=seed, incident_rate=0.05)
        speeds, adjacency = _dense_traffic(config)
        series = generate_traffic_dataset(config)
        assert np.array_equal(series.adjacency, adjacency)
        np.testing.assert_allclose(series.values[..., 0], speeds, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_carpark(self, seed):
        config = CarparkConfig(num_nodes=40, num_steps=300, seed=seed)
        available, adjacency = _dense_carpark(config)
        series = generate_carpark_dataset(config)
        assert np.array_equal(series.adjacency, adjacency)
        np.testing.assert_allclose(series.values[..., 0], available, rtol=1e-12, atol=0.0)


class TestGenerationMemory:
    """At N=1000 the data path holds the one (N, N) adjacency, not copies of it."""

    N = 1000
    UNIT = N * N * 8  # one dense (N, N) float64

    @pytest.mark.parametrize("kind", ["traffic", "carpark"])
    def test_generation_peak_and_retained_memory(self, kind):
        generate, config = {
            "traffic": (generate_traffic_dataset, TrafficConfig),
            "carpark": (generate_carpark_dataset, CarparkConfig),
        }[kind]
        generate(config(num_nodes=20, num_steps=30))  # first-call allocations
        gc.collect()
        tracemalloc.start()
        try:
            series = generate(config(num_nodes=self.N, num_steps=60, seed=1))
            generation_peak = tracemalloc.get_traced_memory()[1]
            data = prepare_data_from_series(series, 6, 6, batch_size=4)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert data.train.adjacency is not None
        assert generation_peak <= 4 * self.UNIT, generation_peak / self.UNIT
        assert retained <= 1.5 * self.UNIT, retained / self.UNIT


def test_generation_does_not_need_networkx():
    """Only ``RoadNetwork.graph`` imports networkx."""
    script = (
        "import sys; sys.modules['networkx'] = None\n"
        "from repro.data.synthetic import load_dataset\n"
        "series, _ = load_dataset('metr_la_like', num_nodes=12, num_steps=60)\n"
        "assert series.adjacency.shape == (12, 12)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr
