"""Shared fixtures for the test-suite."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.data.synthetic import generate_road_network
from repro.data.synthetic.carpark import CarparkConfig, generate_carpark_dataset
from repro.data.synthetic.traffic import TrafficConfig, generate_traffic_dataset
from repro.experiments.common import prepare_data_from_series


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


def _autograd_forecast(service, history) -> np.ndarray:
    """What ``service.predict(history)`` computes, through the autograd forecaster.

    Runs ``service.model.forecaster`` under ``no_grad`` over the service's
    frozen graph and un-scales with the service's scaler — the reference the
    serving kernel's parity bounds are measured against.
    """
    from repro.tensor import Tensor, no_grad

    frozen = service.frozen
    dtype = frozen.adjacency.dtype
    with no_grad():
        output = service.model.forecaster(
            Tensor(history, dtype=dtype),
            Tensor(frozen.adjacency, dtype=dtype),
            frozen.index_set,
            degree_scale=Tensor(frozen.degree_scale, dtype=dtype),
        )
        if service.scaler is not None:
            output = output * service.scaler.std_ + service.scaler.mean_
    return output.data


@pytest.fixture
def autograd_forecast():
    """The autograd reference of ``service.predict``; see :func:`_autograd_forecast`."""
    return _autograd_forecast


@pytest.fixture
def supervision(monkeypatch):
    """``supervision(**overrides)`` replaces fields of the serving cluster's
    ``SUPERVISION`` timings for one test; clusters built afterwards use them."""
    from repro.serve import cluster

    def override(**timings):
        monkeypatch.setattr(cluster, "SUPERVISION",
                            replace(cluster.SUPERVISION, **timings))

    return override


@pytest.fixture(scope="session")
def tiny_network():
    """A 12-node road network shared across tests."""
    return generate_road_network(12, neighbours=3, seed=7)


@pytest.fixture(scope="session")
def tiny_traffic_series():
    """A small traffic series: 12 nodes, 400 five-minute steps."""
    config = TrafficConfig(num_nodes=12, num_steps=400, seed=7, missing_rate=0.01)
    return generate_traffic_dataset(config)


@pytest.fixture(scope="session")
def tiny_carpark_series():
    """A small car-park series: 10 nodes, 350 five-minute steps."""
    config = CarparkConfig(num_nodes=10, num_steps=350, seed=11)
    return generate_carpark_dataset(config)


@pytest.fixture(scope="session")
def tiny_experiment_data(tiny_traffic_series):
    """Loaders / scaler / adjacency for the tiny traffic series (h=f=6)."""
    return prepare_data_from_series(tiny_traffic_series, history=6, horizon=6, batch_size=8,
                                    seed=0, name="tiny_traffic")


# --------------------------------------------------------------------- #
# Scenario matrix: (head: point|quantile) × (exog: off|on) × (dense|missing)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the forecasting-scenario grid."""

    head: str  # "point" | "quantile"
    exog: str  # "off" | "on"
    data: str  # "dense" | "missing"

    @property
    def quantiles(self) -> tuple[float, ...] | None:
        return (0.1, 0.5, 0.9) if self.head == "quantile" else None

    @property
    def include_day_of_week(self) -> bool:
        return self.exog == "on"

    @property
    def mask_input(self) -> bool:
        return self.data == "missing"

    @property
    def id(self) -> str:
        return f"{self.head}-exog_{self.exog}-{self.data}"


SCENARIO_GRID = tuple(
    ScenarioSpec(head, exog, data)
    for head in ("point", "quantile")
    for exog in ("off", "on")
    for data in ("dense", "missing")
)


@dataclass
class ScenarioResult:
    """Every artefact of one train → bundle → serve run of a scenario cell."""

    spec: ScenarioSpec
    data: object  # ExperimentData
    config: object  # SAGDFNConfig
    model: object  # trained SAGDFN
    train_loss: float
    val_metrics: dict
    bundle_path: object  # Path to the .npz serving bundle
    bundle: object  # CheckpointBundle round-tripped from bundle_path
    batch_x: np.ndarray  # first test batch, model-input layout
    batch_y: np.ndarray
    kernel_pred: np.ndarray  # service prediction through the serving kernel
    module_pred: np.ndarray  # the autograd forecaster over the same frozen graph
    chunked_pred: np.ndarray  # module_pred over a graph frozen with chunk_size=3
    serve_metrics: dict  # streaming metrics of the kernel service on test


def make_scenario_series(spec: ScenarioSpec, num_steps: int = 160, num_nodes: int = 8):
    """Deterministic tiny series for a scenario cell (0 marks missing readings)."""
    from repro.data import MultivariateTimeSeries

    rng = np.random.default_rng(1234)
    steps = np.arange(num_steps, dtype=np.float64)
    values = (
        50.0
        + 10.0 * np.sin(steps / 12.0)[:, None]
        + rng.normal(0.0, 3.0, size=(num_steps, num_nodes))
    )
    values = np.abs(values) + 1.0  # dense cells must contain no accidental nulls
    if spec.data == "missing":
        missing = rng.random((num_steps, num_nodes)) < 0.15
        values[missing] = 0.0
    return MultivariateTimeSeries(values=values, step_minutes=5, name=f"scenario_{spec.id}")


def run_scenario_cell(spec: ScenarioSpec, bundle_dir) -> ScenarioResult:
    """Shared end-to-end runner: train → bundle round-trip → serve → metrics."""
    from repro.core import SAGDFN, Trainer
    from repro.experiments.common import small_sagdfn_config
    from repro.optim import Adam
    from repro.serve.service import ForecastService
    from repro.utils.checkpoint import load_bundle, save_bundle

    series = make_scenario_series(spec)
    data = prepare_data_from_series(
        series,
        history=4,
        horizon=3,
        batch_size=8,
        seed=0,
        include_day_of_week=spec.include_day_of_week,
        mask_input=spec.mask_input,
    )
    config = small_sagdfn_config(
        data,
        quantiles=spec.quantiles,
        hidden_size=12,
        embedding_dim=6,
        num_significant=4,
        top_k=3,
        ffn_hidden=6,
        convergence_iteration=3,
    )
    model = SAGDFN(config)
    trainer = Trainer(model, Adam(model.parameters(), lr=5e-3), scaler=data.scaler)
    train_loss = trainer.train_epoch(data.train_loader)
    val_metrics = trainer.evaluate(data.val_loader)

    bundle_path = save_bundle(model, bundle_dir / f"{spec.id}.npz", scaler=data.scaler)
    bundle = load_bundle(bundle_path)

    batch_x, batch_y = next(iter(data.test_loader))
    kernel_service = ForecastService.from_checkpoint(bundle_path)
    chunked_service = ForecastService.from_checkpoint(bundle_path, chunk_size=3)
    return ScenarioResult(
        spec=spec,
        data=data,
        config=config,
        model=model,
        train_loss=train_loss,
        val_metrics=val_metrics,
        bundle_path=bundle_path,
        bundle=bundle,
        batch_x=batch_x,
        batch_y=batch_y,
        kernel_pred=kernel_service.predict(batch_x),
        module_pred=_autograd_forecast(kernel_service, batch_x),
        chunked_pred=_autograd_forecast(chunked_service, batch_x),
        serve_metrics=kernel_service.evaluate(data.test_loader),
    )


@pytest.fixture(scope="session", params=SCENARIO_GRID, ids=lambda spec: spec.id)
def scenario_cell(request, tmp_path_factory) -> ScenarioResult:
    """One fully-exercised cell of the 2×2×2 scenario grid (session-cached)."""
    bundle_dir = tmp_path_factory.mktemp(f"scenario_{request.param.id}")
    return run_scenario_cell(request.param, bundle_dir)
