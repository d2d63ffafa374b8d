"""Synthetic traffic-speed generator (METR-LA / London2000 / NewYork2000 stand-ins).

The generator produces speed readings whose statistical structure matches
what spatial-temporal GNNs exploit in the real datasets:

* **Rush-hour seasonality** — two weekday congestion peaks (morning and
  evening) whose depth varies per sensor.
* **Spatially diffusing congestion** — a latent congestion field follows an
  AR(1) process *on the road network* (``c_t = ρ · P c_{t-1} + ε``), so
  neighbouring sensors are strongly correlated while distant ones are nearly
  independent.  This is precisely the sparse locality that the Significant
  Neighbors Sampling module is designed to discover.
* **Incidents** — occasional accidents start at a random sensor and spread to
  graph neighbours with decaying intensity before dissipating.
* **Sensor noise and missing readings** — i.i.d. noise plus a small fraction
  of zeroed readings, matching the missing-data convention (zero = missing)
  of METR-LA.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.synthetic.road_network import (
    RoadNetwork,
    Transition,
    generate_road_network,
    latent_field,
)
from repro.data.timeseries import MultivariateTimeSeries
from repro.utils.seed import spawn_rng


@dataclass
class TrafficConfig:
    """Parameters of the synthetic traffic simulator."""

    num_nodes: int = 207
    num_steps: int = 2016
    step_minutes: int = 5
    free_flow_mean: float = 65.0
    free_flow_std: float = 6.0
    rush_hour_depth: float = 0.45
    temporal_rho: float = 0.65
    spatial_rho: float = 0.3
    congestion_scale: float = 0.4
    congestion_innovation: float = 0.09
    incident_rate: float = 0.01
    incident_depth: float = 0.5
    incident_duration: int = 18
    noise_std: float = 1.0
    missing_rate: float = 0.005
    neighbours: int = 6
    seed: int = 0
    name: str = "synthetic-traffic"


def _rush_hour_profile(minute_of_day: np.ndarray, day_of_week: np.ndarray) -> np.ndarray:
    """Fraction of free-flow speed lost to recurring congestion at each step."""
    hours = minute_of_day / 60.0
    morning = np.exp(-0.5 * ((hours - 8.0) / 1.2) ** 2)
    evening = np.exp(-0.5 * ((hours - 17.5) / 1.5) ** 2)
    weekday = (day_of_week < 5).astype(np.float64)
    weekend_factor = 0.35
    scale = weekday + (1.0 - weekday) * weekend_factor
    return (morning + evening) * scale


def generate_traffic_dataset(
    config: TrafficConfig, network: RoadNetwork | None = None
) -> MultivariateTimeSeries:
    """Simulate a traffic-speed dataset according to ``config``.

    Returns a :class:`~repro.data.timeseries.MultivariateTimeSeries` whose
    ``adjacency`` attribute holds the generating road-network adjacency
    (available to predefined-graph baselines only).
    """
    rng = spawn_rng(config.seed)
    if network is None:
        network = generate_road_network(
            config.num_nodes, neighbours=config.neighbours, seed=config.seed
        )
    if network.num_nodes != config.num_nodes:
        raise ValueError("road network size does not match config.num_nodes")

    n, t = config.num_nodes, config.num_steps
    transition = Transition(network.adjacency)

    free_flow = rng.normal(config.free_flow_mean, config.free_flow_std, size=n)
    free_flow = np.clip(free_flow, 20.0, None)
    rush_sensitivity = np.clip(rng.normal(1.0, 0.25, size=n), 0.2, 2.0)

    minutes = np.arange(t) * config.step_minutes
    minute_of_day = minutes % (24 * 60)
    day_of_week = (minutes // (24 * 60)) % 7
    rush = _rush_hour_profile(minute_of_day, day_of_week)

    # Latent congestion field diffusing over the road network: congestion
    # literally *travels* along it.
    congestion = latent_field(
        transition, rng, t, config.congestion_innovation,
        config.temporal_rho, config.spatial_rho,
    )
    congestion = config.congestion_scale * np.tanh(congestion)

    # Incidents: localised congestion spikes that spread to graph neighbours.
    incident_effect = np.zeros((t, n))
    expected_incidents = config.incident_rate * t
    num_incidents = rng.poisson(expected_incidents) if expected_incidents > 0 else 0
    for _ in range(int(num_incidents)):
        start = int(rng.integers(0, max(1, t - config.incident_duration)))
        node = int(rng.integers(0, n))
        impact = np.zeros(n)
        impact[node] = config.incident_depth
        for offset in range(config.incident_duration):
            if start + offset >= t:
                break
            decay = 1.0 - offset / config.incident_duration
            incident_effect[start + offset] += impact * decay
            impact = 0.6 * impact + 0.4 * (transition @ impact)

    reduction = (
        config.rush_hour_depth * rush[:, None] * rush_sensitivity[None, :]
        + congestion
        + incident_effect
    )
    reduction = np.clip(reduction, 0.0, 0.95)
    speeds = free_flow[None, :] * (1.0 - reduction)
    speeds += rng.normal(scale=config.noise_std, size=(t, n))
    speeds = np.clip(speeds, 0.0, None)

    if config.missing_rate > 0:
        missing = rng.random((t, n)) < config.missing_rate
        speeds = np.where(missing, 0.0, speeds)

    return MultivariateTimeSeries(
        values=speeds[:, :, None],
        step_minutes=config.step_minutes,
        start_minute=0,
        name=config.name,
        adjacency=network.adjacency,
    )
