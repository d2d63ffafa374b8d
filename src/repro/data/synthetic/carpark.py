"""Synthetic car-park availability generator (CARPARK1918 stand-in).

CARPARK1918 records the number of available parking lots at 1918 Singapore
car parks every five minutes.  The generator reproduces the structure the
forecasting models care about:

* a hard capacity ceiling per car park,
* opposite daily occupancy cycles for *business* and *residential* car parks
  (business lots fill during working hours, residential lots overnight),
* spatially correlated demand — car parks in the same neighbourhood share a
  latent demand factor that diffuses over a proximity graph,
* integer-valued counts with bounded noise.
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
class CarparkConfig:
    """Parameters of the synthetic car-park availability simulator."""

    num_nodes: int = 1918
    num_steps: int = 2016
    step_minutes: int = 5
    capacity_low: int = 80
    capacity_high: int = 900
    business_fraction: float = 0.45
    demand_depth: float = 0.55
    temporal_rho: float = 0.65
    spatial_rho: float = 0.3
    demand_scale: float = 0.2
    demand_innovation: float = 0.09
    noise_std: float = 4.0
    neighbours: int = 6
    seed: int = 0
    name: str = "synthetic-carpark"


def _occupancy_profile(minute_of_day: np.ndarray, day_of_week: np.ndarray,
                       is_business: np.ndarray) -> np.ndarray:
    """Base occupied fraction ``(T, N)`` driven by the daily cycle."""
    hours = minute_of_day / 60.0
    work = np.exp(-0.5 * ((hours - 13.0) / 3.5) ** 2)  # peaks early afternoon
    night = np.exp(-0.5 * ((np.minimum(hours, 24.0 - hours)) / 3.0) ** 2)  # peaks around midnight
    weekday = (day_of_week < 5).astype(np.float64)
    business_cycle = work * (0.3 + 0.7 * weekday)
    residential_cycle = night * (0.85 + 0.15 * (1.0 - weekday))
    profile = np.where(is_business[None, :], business_cycle[:, None], residential_cycle[:, None])
    return profile


def generate_carpark_dataset(
    config: CarparkConfig, network: RoadNetwork | None = None
) -> MultivariateTimeSeries:
    """Simulate a car-park availability dataset according to ``config``."""
    rng = spawn_rng(config.seed)
    if network is None:
        network = generate_road_network(
            config.num_nodes, neighbours=config.neighbours, seed=config.seed
        )
    if network.num_nodes != config.num_nodes:
        raise ValueError("road network size does not match config.num_nodes")

    n, t = config.num_nodes, config.num_steps
    capacities = rng.integers(config.capacity_low, config.capacity_high + 1, size=n).astype(float)
    is_business = rng.random(n) < config.business_fraction

    minutes = np.arange(t) * config.step_minutes
    minute_of_day = minutes % (24 * 60)
    day_of_week = (minutes // (24 * 60)) % 7
    base_profile = _occupancy_profile(minute_of_day, day_of_week, is_business)

    # Latent demand factor diffusing over the proximity graph, so nearby car
    # parks receive correlated demand shocks.
    demand = latent_field(
        Transition(network.adjacency), rng, t, config.demand_innovation,
        config.temporal_rho, config.spatial_rho,
    )
    demand = config.demand_scale * np.tanh(demand)

    base_occupancy = np.clip(rng.normal(0.35, 0.1, size=n), 0.05, 0.7)
    occupancy = base_occupancy[None, :] + config.demand_depth * base_profile + demand
    occupancy = np.clip(occupancy, 0.02, 0.98)

    available = capacities[None, :] * (1.0 - occupancy)
    available += rng.normal(scale=config.noise_std, size=(t, n))
    available = np.clip(np.round(available), 0.0, capacities[None, :])

    return MultivariateTimeSeries(
        values=available[:, :, None],
        step_minutes=config.step_minutes,
        start_minute=0,
        name=config.name,
        adjacency=network.adjacency,
    )
