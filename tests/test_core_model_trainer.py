"""Tests for the SAGDFN model, its configuration, the encoder-decoder and the trainer."""

import numpy as np
import pytest

from repro.core import SAGDFN, SAGDFNConfig, SAGDFNEncoderDecoder, Trainer
from repro.core.complexity import (
    complexity_table,
    computation_cost,
    example_memory_comparison,
    hidden_state_memory_gb,
    memory_cost,
)
from repro.optim import Adam
from repro.tensor import Tensor, default_dtype


def _tiny_config(**overrides) -> SAGDFNConfig:
    defaults = dict(
        num_nodes=12,
        input_dim=2,
        output_dim=1,
        history=6,
        horizon=6,
        embedding_dim=6,
        num_significant=4,
        top_k=3,
        hidden_size=8,
        num_heads=2,
        ffn_hidden=6,
        alpha=1.5,
        diffusion_steps=2,
        convergence_iteration=5,
    )
    defaults.update(overrides)
    return SAGDFNConfig(**defaults)


class TestConfig:
    def test_validation_errors(self):
        with pytest.raises(ValueError):
            _tiny_config(num_significant=20)
        with pytest.raises(ValueError):
            _tiny_config(top_k=0)
        with pytest.raises(ValueError):
            _tiny_config(normalizer="rasterize")
        with pytest.raises(ValueError):
            _tiny_config(alpha=0.5)
        with pytest.raises(ValueError):
            _tiny_config(diffusion_steps=0)
        with pytest.raises(ValueError):
            SAGDFNConfig(num_nodes=1)

    def test_paper_setting_matches_implementation_section(self):
        config = SAGDFNConfig.paper_setting(num_nodes=2000)
        assert config.embedding_dim == 100
        assert config.num_significant == 100
        assert config.top_k == 80
        assert config.hidden_size == 64
        assert config.num_heads == 8
        assert config.diffusion_steps == 3
        assert config.alpha == 2.0

    def test_paper_setting_small_graph_caps_m(self):
        config = SAGDFNConfig.paper_setting(num_nodes=50)
        assert config.num_significant == 50
        assert config.top_k == 50


class TestEncoderDecoder:
    def test_forecast_shape(self, rng):
        model = SAGDFNEncoderDecoder(input_dim=2, hidden_dim=8, horizon=5, diffusion_steps=2)
        history = Tensor(rng.normal(size=(3, 7, 10, 2)))
        slim = Tensor(rng.random((10, 4)))
        out = model(history, slim, np.array([0, 2, 5, 8]))
        assert out.shape == (3, 5, 10, 1)

    def test_multi_layer_stack(self, rng):
        model = SAGDFNEncoderDecoder(input_dim=2, hidden_dim=6, horizon=3, num_layers=2)
        history = Tensor(rng.normal(size=(2, 4, 8, 2)))
        slim = Tensor(rng.random((8, 3)))
        assert model(history, slim, np.array([0, 1, 2])).shape == (2, 3, 8, 1)

    def test_rejects_bad_history_rank(self, rng):
        model = SAGDFNEncoderDecoder(input_dim=2, hidden_dim=6, horizon=3)
        with pytest.raises(ValueError):
            model(Tensor(rng.normal(size=(4, 8, 2))), Tensor(rng.random((8, 3))), np.arange(3))

    def test_invalid_layer_count(self):
        with pytest.raises(ValueError):
            SAGDFNEncoderDecoder(input_dim=2, hidden_dim=6, horizon=3, num_layers=0)

    def test_teacher_forcing_uses_targets(self, rng):
        model = SAGDFNEncoderDecoder(input_dim=2, hidden_dim=6, horizon=4, teacher_forcing=1.0)
        history = Tensor(rng.normal(size=(2, 4, 6, 2)))
        slim = Tensor(rng.random((6, 3)))
        targets = Tensor(rng.normal(size=(2, 4, 6, 1)))
        with_tf = model(history, slim, np.arange(3), targets=targets)
        model.eval()
        without_tf = model(history, slim, np.arange(3), targets=targets)
        assert not np.allclose(with_tf.data, without_tf.data)


class TestSAGDFNModel:
    def test_forward_shape(self, rng):
        model = SAGDFN(_tiny_config())
        out = model(Tensor(rng.normal(size=(4, 6, 12, 2))))
        assert out.shape == (4, 6, 12, 1)

    def test_refresh_graph_explores_then_freezes(self, rng):
        config = _tiny_config(convergence_iteration=3)
        model = SAGDFN(config)
        model.refresh_graph(0)
        first = model.index_set.copy()
        model.refresh_graph(1)
        second = model.index_set.copy()
        # after convergence the index set is frozen
        model.refresh_graph(100)
        frozen_a = model.index_set.copy()
        model.refresh_graph(101)
        frozen_b = model.index_set.copy()
        assert np.array_equal(frozen_a, frozen_b)
        assert first.shape == second.shape == (config.num_significant,)

    def test_slim_adjacency_shape(self, rng):
        model = SAGDFN(_tiny_config())
        model.refresh_graph(0)
        assert model.slim_adjacency().shape == (12, 4)

    def test_gradients_reach_node_embeddings(self, rng):
        model = SAGDFN(_tiny_config())
        model.refresh_graph(0)
        out = model(Tensor(rng.normal(size=(2, 6, 12, 2))))
        out.abs().mean().backward()
        assert model.node_embeddings.grad is not None
        assert not np.allclose(model.node_embeddings.grad, 0.0)

    def test_without_sns_uses_random_index_set(self, rng):
        model = SAGDFN(_tiny_config(use_sns=False))
        model.refresh_graph(0)
        assert model.index_set is not None
        assert model(Tensor(rng.normal(size=(1, 6, 12, 2)))).shape == (1, 6, 12, 1)

    def test_predefined_graph_ablation_requires_adjacency(self):
        with pytest.raises(ValueError):
            SAGDFN(_tiny_config(use_predefined_graph=True))

    def test_predefined_graph_ablation_forward(self, rng):
        adjacency = rng.random((12, 12))
        model = SAGDFN(_tiny_config(use_predefined_graph=True), predefined_adjacency=adjacency)
        out = model(Tensor(rng.normal(size=(2, 6, 12, 2))))
        assert out.shape == (2, 6, 12, 1)

    def test_parameter_count_scales_with_m_not_n(self):
        """Trainable parameters outside the node embeddings must not depend on N."""
        small = SAGDFN(_tiny_config(num_nodes=12))
        large = SAGDFN(_tiny_config(num_nodes=24))
        small_other = small.num_parameters() - small.node_embeddings.size
        large_other = large.num_parameters() - large.node_embeddings.size
        assert small_other == large_other


class TestTrainer:
    def test_loss_decreases_and_history_recorded(self, tiny_experiment_data):
        data = tiny_experiment_data
        config = _tiny_config(num_nodes=data.num_nodes, history=data.history,
                              horizon=data.horizon)
        model = SAGDFN(config)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01), scaler=data.scaler)
        history = trainer.fit(data.train_loader, data.val_loader, epochs=2)
        assert history.num_epochs == 2
        assert len(history.val_maes) == 2
        assert history.train_losses[-1] < history.train_losses[0]
        assert all(second > 0 for second in history.epoch_seconds)

    def test_evaluate_returns_all_metrics(self, tiny_experiment_data):
        data = tiny_experiment_data
        config = _tiny_config(num_nodes=data.num_nodes, history=data.history, horizon=data.horizon)
        model = SAGDFN(config)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01), scaler=data.scaler)
        metrics = trainer.evaluate(data.val_loader)
        assert set(metrics) == {"mae", "rmse", "mape"}
        assert metrics["rmse"] >= metrics["mae"] > 0

    def test_early_stopping_restores_best_state(self, tiny_experiment_data):
        data = tiny_experiment_data
        config = _tiny_config(num_nodes=data.num_nodes, history=data.history, horizon=data.horizon)
        model = SAGDFN(config)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01), scaler=data.scaler)
        history = trainer.fit(data.train_loader, data.val_loader, epochs=3, patience=0)
        best = min(history.val_maes)
        final_metrics = trainer.evaluate(data.val_loader)
        assert final_metrics["mae"] == pytest.approx(best, rel=0.05)

    def test_callback_invoked_each_epoch(self, tiny_experiment_data):
        data = tiny_experiment_data
        config = _tiny_config(num_nodes=data.num_nodes, history=data.history, horizon=data.horizon)
        model = SAGDFN(config)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01), scaler=data.scaler)
        calls = []
        trainer.fit(data.train_loader, data.val_loader, epochs=2,
                    callback=lambda epoch, loss, val: calls.append((epoch, loss, val)))
        assert [call[0] for call in calls] == [0, 1]
        assert all(call[2] is not None for call in calls)


    def test_float32_model_trains_in_float32_outside_the_dtype_policy(
            self, tiny_experiment_data):
        """Batches are cast to the model's parameter dtype, so a float32
        model runs its forward, and receives its gradients, in float32 even
        when the engine policy is float64."""
        data = tiny_experiment_data
        with default_dtype("float32"):
            model = SAGDFN(_tiny_config(num_nodes=data.num_nodes, history=data.history,
                                        horizon=data.horizon))
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01), scaler=data.scaler)
        seen = []
        forward = model.forward

        def recording_forward(history, targets=None):
            output = forward(history, targets=targets)
            seen.append((history.dtype, output.dtype))
            return output

        model.forward = recording_forward
        batches = list(data.train_loader)[:2]
        assert np.isfinite(trainer.train_epoch(batches))
        assert seen == [(np.float32, np.float32)] * 2
        assert all(p.grad.dtype == np.float32 for p in model.parameters()
                   if p.grad is not None)
        trainer.evaluate(batches)
        assert seen[2:] == [(np.float32, np.float32)] * 2


class TestComplexityModel:
    def test_table1_expressions(self):
        n, d, D, m = 1000, 100, 64, 100
        assert computation_cost("AGCRN", n, d, D, m) == n * n * d + n * n * D
        assert computation_cost("GTS", n, d, D, m) == n * n * d * d + n * n * D
        assert computation_cost("SAGDFN", n, d, D, m) == n * m * d * d + n * m * D
        assert memory_cost("SAGDFN", n, d, D, m) == n * m + n * m * d
        assert memory_cost("GTS", n, d, D, m) == n * n + n * n * d

    def test_sagdfn_reduction_factor_is_n_over_m(self):
        n, m = 2000, 100
        table = {p.model: p for p in complexity_table(n, 100, 64, m)}
        assert table["GTS"].memory / table["SAGDFN"].memory == pytest.approx(n / m)

    def test_sagdfn_scales_linearly_with_n(self):
        small = computation_cost("SAGDFN", 1000, 100, 64, 100)
        large = computation_cost("SAGDFN", 2000, 100, 64, 100)
        assert large / small == pytest.approx(2.0)
        quadratic_small = computation_cost("GTS", 1000, 100, 64, 100)
        quadratic_large = computation_cost("GTS", 2000, 100, 64, 100)
        assert quadratic_large / quadratic_small == pytest.approx(4.0)

    def test_example1_hidden_state_memory(self):
        """Example 1: B=64, N=2000, T=24, D=64 at 8 bytes ≈ 1.57 GB per variable."""
        assert hidden_state_memory_gb(64, 2000, 24, 64) == pytest.approx(1.46, abs=0.15)

    def test_example2_reduction(self):
        comparison = example_memory_comparison()
        assert comparison["gts_hidden_state_gb"] / comparison["sagdfn_hidden_state_gb"] == (
            pytest.approx(20.0)
        )
        assert comparison["gts_embedding_gb"] / comparison["sagdfn_embedding_gb"] == (
            pytest.approx(20.0)
        )

    def test_unknown_model_and_invalid_inputs(self):
        with pytest.raises(KeyError):
            computation_cost("UNKNOWN", 10, 10, 10, 10)
        with pytest.raises(ValueError):
            memory_cost("GTS", 0, 10, 10, 10)
