"""Regression tests for the trainer bugfixes: eval-mode restore and early stopping."""

import ctypes
import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.core import Trainer
from repro.nn.module import Module, Parameter
from repro.optim import SGD
from repro.tensor import Tensor


class _ConstantModel(Module):
    """Predicts a constant; with a vanishing learning rate the
    validation MAE never improves beyond the trainer's 1e-9 threshold."""

    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.zeros(1), name="weight")

    def forward(self, x):
        return x * 0.0 + self.weight + 1.0


def _loader(num_batches: int = 2):
    rng = np.random.default_rng(0)
    return [
        (rng.normal(size=(2, 3, 4, 1)), np.full((2, 3, 4, 1), 2.0))
        for _ in range(num_batches)
    ]


def _trainer(lr: float = 1e-12) -> Trainer:
    model = _ConstantModel()
    return Trainer(model, SGD(model.parameters(), lr=lr), scaler=None)


class TestEvaluateModeRestore:
    def test_evaluate_restores_eval_mode(self):
        trainer = _trainer()
        trainer.model.eval()
        trainer.evaluate(_loader())
        assert trainer.model.training is False, "evaluate() flipped an eval-mode model back to train"

    def test_evaluate_restores_train_mode(self):
        trainer = _trainer()
        trainer.model.train()
        trainer.evaluate(_loader())
        assert trainer.model.training is True

    def test_evaluate_restores_mode_when_a_batch_raises(self):
        trainer = _trainer()
        trainer.model.train()

        def bad_loader():
            yield (np.ones((2, 3, 4, 1)), np.ones((2, 3, 4, 1)))
            raise RuntimeError("corrupt batch")

        with np.testing.assert_raises(RuntimeError):
            trainer.evaluate(bad_loader())
        assert trainer.model.training is True

    def test_evaluate_empty_loader_restores_mode(self):
        trainer = _trainer()
        trainer.model.eval()
        metrics = trainer.evaluate([])
        assert np.isnan(metrics["mae"])
        assert trainer.model.training is False


class TestEarlyStoppingPatience:
    def test_stops_after_exactly_patience_bad_epochs(self):
        """Epoch 0 improves from +inf; every later epoch is flat, so
        training must run exactly 1 + patience epochs — the seed's off-by-one
        (`bad_epochs > patience`) allowed one epoch more."""
        for patience in (1, 2, 3):
            trainer = _trainer()
            history = trainer.fit(
                _loader(), val_loader=_loader(), epochs=20, patience=patience
            )
            assert history.num_epochs == 1 + patience, f"patience={patience}"

    def test_patience_zero_stops_at_first_bad_epoch(self):
        trainer = _trainer()
        history = trainer.fit(_loader(), val_loader=_loader(), epochs=20, patience=0)
        assert history.num_epochs == 2  # epoch 0 improves, epoch 1 is bad -> stop

    def test_improving_run_is_not_cut_short(self):
        """An improving epoch resets the counter; patience must not trigger."""

        class _ShrinkingModel(_ConstantModel):
            def __init__(self):
                super().__init__()
                self._epoch = 0

            def forward(self, x):
                return x * 0.0 + self.weight + 1.0 + 10.0 / (1.0 + self._epoch)

        model = _ShrinkingModel()
        trainer = Trainer(model, SGD(model.parameters(), lr=1e-12), scaler=None)

        def _bump(epoch, loss, val):
            model._epoch += 1

        history = trainer.fit(
            _loader(), val_loader=_loader(), epochs=5, patience=1, callback=_bump
        )
        assert history.num_epochs == 5
        assert history.val_maes == sorted(history.val_maes, reverse=True)

    def test_no_early_stop_without_patience(self):
        trainer = _trainer()
        history = trainer.fit(_loader(), val_loader=_loader(), epochs=4, patience=None)
        assert history.num_epochs == 4


class TestSchedulerWiring:
    """``Trainer.fit(..., scheduler=)``: one step per epoch, lr history, resume."""

    def test_step_lr_steps_once_per_epoch(self):
        from repro.optim import StepLR

        trainer = _trainer(lr=1.0)
        scheduler = StepLR(trainer.optimizer, step_size=1, gamma=0.5)
        trainer.fit(_loader(), epochs=3, scheduler=scheduler)
        assert scheduler.epoch == 3
        assert trainer.optimizer.lr == 0.125

    def test_history_records_each_epochs_effective_lr(self):
        from repro.optim import StepLR

        trainer = _trainer(lr=1.0)
        scheduler = StepLR(trainer.optimizer, step_size=1, gamma=0.1)
        history = trainer.fit(_loader(), epochs=3, scheduler=scheduler)
        # the recorded lr is the one the epoch *trained* with (pre-step)
        np.testing.assert_allclose(history.lrs, [1.0, 0.1, 0.01])

    def test_lrs_recorded_without_scheduler(self):
        trainer = _trainer(lr=0.5)
        history = trainer.fit(_loader(), epochs=2)
        assert history.lrs == [0.5, 0.5]

    def test_plateau_scheduler_receives_validation_mae(self):
        from repro.optim import ReduceLROnPlateau

        trainer = _trainer(lr=1e-30)  # vanishing lr: val MAE never improves
        scheduler = ReduceLROnPlateau(trainer.optimizer, factor=0.5, patience=0,
                                      min_lr=0.0)
        trainer.fit(_loader(), val_loader=_loader(1), epochs=3, scheduler=scheduler)
        # first epoch sets best; the next two are bad -> two halvings
        assert trainer.optimizer.lr == 0.25e-30

    def test_plateau_without_val_loader_raises(self):
        import pytest

        from repro.optim import ReduceLROnPlateau

        trainer = _trainer()
        scheduler = ReduceLROnPlateau(trainer.optimizer)
        with pytest.raises(ValueError):
            trainer.fit(_loader(), epochs=1, scheduler=scheduler)

    def test_scheduler_round_trips_through_bundle(self, tmp_path):
        from repro.optim import CosineAnnealingLR
        from repro.utils.checkpoint import load_bundle, save_bundle

        trainer = _trainer(lr=1.0)
        scheduler = CosineAnnealingLR(trainer.optimizer, t_max=10)
        trainer.fit(_loader(), epochs=4, scheduler=scheduler)
        path = save_bundle(trainer.model, tmp_path / "bundle", scheduler=scheduler)

        resumed_trainer = _trainer(lr=1.0)
        resumed = CosineAnnealingLR(resumed_trainer.optimizer, t_max=10)
        record = load_bundle(path).scheduler_state
        assert record["type"] == "CosineAnnealingLR"
        resumed.load_state_dict(record["state"])
        assert resumed.epoch == 4
        assert resumed_trainer.optimizer.lr == trainer.optimizer.lr

        # continuing for the remaining epochs matches an uninterrupted run
        resumed_trainer.fit(_loader(), epochs=6, scheduler=resumed)
        fresh_trainer = _trainer(lr=1.0)
        fresh = CosineAnnealingLR(fresh_trainer.optimizer, t_max=10)
        fresh_trainer.fit(_loader(), epochs=10, scheduler=fresh)
        assert resumed_trainer.optimizer.lr == fresh_trainer.optimizer.lr


class _LiveGraphProbe:
    """Wraps a forward: on each call, asserts the previous training call's
    output array was freed (with the cycle collector off, so only reference
    counts can free it), then records a weak reference to the new one."""

    def __init__(self, forward):
        self.forward = forward
        self.previous = None
        self.calls = 0

    def __call__(self, *args, **kwargs):
        if self.previous is not None:
            assert self.previous() is None, "the previous step's graph is still reachable"
        output = self.forward(*args, **kwargs)
        self.previous = weakref.ref(output.data) if output.requires_grad else None
        self.calls += 1
        return output

    def __enter__(self):
        self.gc_was_enabled = gc.isenabled()
        gc.disable()
        return self

    def __exit__(self, *exc):
        if self.gc_was_enabled:
            gc.enable()


class TestStepGraphRelease:
    def test_train_epoch_frees_each_step_graph_before_the_next(self, monkeypatch):
        from repro.core import SAGDFN, SAGDFNConfig
        from repro.optim import Adam

        model = SAGDFN(SAGDFNConfig(num_nodes=10, history=3, horizon=2, embedding_dim=4,
                                    num_significant=5, top_k=3, hidden_size=4,
                                    num_heads=2, ffn_hidden=4))
        trainer = Trainer(model, Adam(model.parameters()), scaler=None)
        probe = _LiveGraphProbe(model.forecaster.forward)
        monkeypatch.setattr(model.forecaster, "forward", probe)
        rng = np.random.default_rng(0)
        loader = [(rng.normal(size=(2, 3, 10, 2)), rng.random((2, 2, 10, 1)) + 1.0)
                  for _ in range(3)]
        with probe:
            assert np.isfinite(trainer.train_epoch(loader))
        assert probe.calls == 3

    def test_measure_cost_frees_each_step_graph_before_the_next(self, monkeypatch):
        from repro.evaluation import measure_cost

        model = _ConstantModel()
        probe = _LiveGraphProbe(model.forward)
        monkeypatch.setattr(model, "forward", probe)
        with probe:
            measure_cost("constant", model, _loader(num_batches=3))
        assert probe.calls == 6  # three training and three inference batches

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="glibc malloc only")
    def test_freed_step_graphs_are_not_faulted_back_in(self):
        """At glibc's starting malloc thresholds an N=200 step graph freed at
        the end of a step was trimmed from the heap and faulted back in by the
        next step (~2,200 minor faults per step); ``train_epoch`` keeps it."""
        script = (
            "import resource\n"
            "import numpy as np\n"
            "from repro.core import SAGDFN, SAGDFNConfig, Trainer\n"
            "from repro.optim import Adam\n"
            "model = SAGDFN(SAGDFNConfig(num_nodes=200, history=6, horizon=6, embedding_dim=8,\n"
            "    num_significant=16, top_k=8, hidden_size=16, num_heads=2, ffn_hidden=8))\n"
            "trainer = Trainer(model, Adam(model.parameters()), scaler=None)\n"
            "rng = np.random.default_rng(0)\n"
            "batch = (rng.normal(size=(8, 6, 200, 2)), rng.random((8, 6, 200, 1)) + 1.0)\n"
            "trainer.train_epoch([batch] * 2)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "trainer.train_epoch([batch] * 4)\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert float(result.stdout) < 200  # ~15 measured
