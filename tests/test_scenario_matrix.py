"""End-to-end checks of every cell in the forecasting-scenario grid.

The ``scenario_cell`` fixture (``conftest.py``) runs one full
train → bundle round-trip → serve → metrics pipeline per cell of the
(head: point|quantile) × (exog: off|on) × (data: dense|missing) matrix;
these tests assert the contract every cell must satisfy.
"""

from __future__ import annotations

import numpy as np

from repro.core import SAGDFNConfig

REL_TOL = 1e-10  # kernel vs module forward, float64


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(b))), 1e-12)
    return float(np.max(np.abs(a - b))) / scale


class TestScenarioConfig:
    def test_config_declares_scenario(self, scenario_cell):
        spec, config = scenario_cell.spec, scenario_cell.config
        assert config.quantiles == spec.quantiles
        assert config.exog_dim == (1 if spec.exog == "on" else 0)
        assert config.mask_input is spec.mask_input
        assert config.encoder_input_width == scenario_cell.data.input_dim

    def test_loader_emits_declared_width(self, scenario_cell):
        batch_x, batch_y = scenario_cell.batch_x, scenario_cell.batch_y
        assert batch_x.shape[-1] == scenario_cell.config.encoder_input_width
        assert batch_y.shape[-1] == 1
        if scenario_cell.spec.mask_input:
            mask_channel = batch_x[..., -1]
            assert set(np.unique(mask_channel)) <= {0.0, 1.0}


class TestScenarioTraining:
    def test_training_loss_is_finite(self, scenario_cell):
        assert np.isfinite(scenario_cell.train_loss)

    def test_val_metrics_finite_and_complete(self, scenario_cell):
        metrics = scenario_cell.val_metrics
        for key in ("mae", "rmse", "mape"):
            assert np.isfinite(metrics[key]), key
        if scenario_cell.spec.head == "quantile":
            assert np.isfinite(metrics["pinball"])
            assert metrics["interval_width"] >= 0.0
            for level in scenario_cell.spec.quantiles:
                coverage = metrics[f"coverage@{level:g}"]
                assert 0.0 <= coverage <= 1.0
        else:
            assert "pinball" not in metrics


class TestScenarioBundle:
    def test_bundle_records_scenario(self, scenario_cell):
        config = scenario_cell.bundle.config
        spec = scenario_cell.spec
        expected_quantiles = None if spec.quantiles is None else list(spec.quantiles)
        assert config["quantiles"] == expected_quantiles
        assert config["exog_dim"] == (1 if spec.exog == "on" else 0)
        assert config["mask_input"] is spec.mask_input

    def test_bundle_config_rebuilds_identically(self, scenario_cell):
        rebuilt = SAGDFNConfig(**scenario_cell.bundle.config)
        assert rebuilt == scenario_cell.config


class TestScenarioServing:
    def test_prediction_shape(self, scenario_cell):
        batch, horizon = scenario_cell.batch_y.shape[:2]
        num_nodes = scenario_cell.batch_y.shape[2]
        width = scenario_cell.config.num_quantiles
        assert scenario_cell.kernel_pred.shape == (batch, horizon, num_nodes, width)

    def test_predictions_finite(self, scenario_cell):
        assert np.all(np.isfinite(scenario_cell.kernel_pred))
        assert np.all(np.isfinite(scenario_cell.module_pred))

    def test_kernel_matches_module_forward(self, scenario_cell):
        assert _rel_err(scenario_cell.kernel_pred, scenario_cell.module_pred) <= REL_TOL

    def test_chunked_matches_unchunked(self, scenario_cell):
        assert _rel_err(scenario_cell.chunked_pred, scenario_cell.module_pred) <= 1e-9

    def test_serve_metrics_match_trainer_contract(self, scenario_cell):
        metrics = scenario_cell.serve_metrics
        assert np.isfinite(metrics["mae"])
        if scenario_cell.spec.head == "quantile":
            for level in scenario_cell.spec.quantiles:
                assert f"coverage@{level:g}" in metrics

    def test_mask_kwarg_equals_mask_channel(self, scenario_cell):
        """`predict(x, mask=m)` must equal `predict(concat(x, m))`."""
        if not scenario_cell.spec.mask_input:
            return
        from repro.serve.service import ForecastService

        service = ForecastService.from_checkpoint(scenario_cell.bundle_path)
        batch_x = scenario_cell.batch_x
        bare, mask = batch_x[..., :-1], batch_x[..., -1]
        via_kwarg = service.predict(bare, mask=mask)
        via_channel = service.predict(batch_x)
        np.testing.assert_array_equal(via_kwarg, via_channel)

    def test_mask_rejected_for_dense_models(self, scenario_cell):
        if scenario_cell.spec.mask_input:
            return
        import pytest

        from repro.serve.service import ForecastService

        service = ForecastService.from_checkpoint(scenario_cell.bundle_path)
        mask = np.ones(scenario_cell.batch_x.shape[:3])
        with pytest.raises(ValueError, match="mask_input"):
            service.predict(scenario_cell.batch_x, mask=mask)


class TestQuantileHead:
    def test_quantile_spread_is_meaningful(self, scenario_cell):
        """After training, upper and lower heads should not be identical."""
        if scenario_cell.spec.head != "quantile":
            return
        prediction = scenario_cell.kernel_pred
        spread = np.abs(prediction[..., -1] - prediction[..., 0])
        assert float(spread.mean()) > 0.0

    def test_median_head_scores_point_metrics(self, scenario_cell):
        """Point MAE of serve metrics equals a manual median-head MAE."""
        if scenario_cell.spec.head != "quantile":
            return
        from repro.evaluation.streaming import StreamingMetrics
        from repro.serve.service import ForecastService

        spec = scenario_cell.spec
        median = int(np.argmin(np.abs(np.asarray(spec.quantiles) - 0.5)))
        service = ForecastService.from_checkpoint(scenario_cell.bundle_path)
        manual = StreamingMetrics(null_value=0.0)
        for batch_x, batch_y in scenario_cell.data.test_loader:
            prediction = service.predict(batch_x)
            manual.update(prediction[..., median : median + 1], batch_y)
        assert manual.compute()["mae"] == scenario_cell.serve_metrics["mae"]
