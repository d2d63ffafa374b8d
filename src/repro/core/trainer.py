"""Training loop implementing Algorithm 2 of the paper.

The trainer is deliberately model-agnostic: every forecaster in this
repository (SAGDFN and the neural baselines) exposes the same
``forward(history) -> predictions`` interface, so the exact same loop is used
for the comparison tables, which mirrors the "minimum modifications" protocol
of the paper's evaluation.

Conventions (inherited from DCRNN / Graph WaveNet and followed by the paper):

* inputs are z-score normalised, targets stay in original units;
* the loss is the *masked* MAE of Eq. 11, treating zero targets as missing;
* gradients are clipped to a maximum global norm of 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.loader import DataLoader
from repro.data.scalers import StandardScaler
from repro.nn.loss import masked_mae, masked_pinball
from repro.nn.module import Module
from repro.optim import Optimizer, clip_grad_norm
from repro.tensor import Tensor, no_grad
from repro.utils.heap import keep_freed_heap
from repro.utils.logging import get_logger
from repro.utils.timer import Timer


@dataclass
class TrainingHistory:
    """Per-epoch record of the optimisation.

    ``lrs[i]`` is the learning rate the optimiser used *during* epoch ``i``
    (captured before any scheduler step for that epoch).
    """

    train_losses: list[float] = field(default_factory=list)
    val_maes: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    lrs: list[float] = field(default_factory=list)

    @property
    def num_epochs(self) -> int:
        return len(self.train_losses)


class Trainer:
    """End-to-end trainer (Algorithm 2).

    Parameters
    ----------
    model:
        Any :class:`~repro.nn.module.Module` mapping a history tensor of
        shape ``(B, h, N, C)`` to predictions of shape ``(B, f, N, 1)`` in
        *normalised* units.  If the model has a ``refresh_graph`` method it is
        called before every iteration (SAGDFN's neighbour re-sampling).
    optimizer:
        Optimiser over ``model.parameters()``.
    scaler:
        The :class:`~repro.data.scalers.StandardScaler` fit on the training
        targets; predictions are inverse-transformed before the loss so that
        optimisation happens in original units.
    max_grad_norm:
        Global gradient-norm clip (the paper's code uses 5).
    null_value:
        Target value treated as missing by the masked loss (0 for traffic).
    quantiles:
        Quantile levels of a probabilistic head.  When set — or when the
        model's config declares ``quantiles`` — training optimises the
        masked pinball loss over all heads, and evaluation adds coverage /
        pinball / interval-width metrics (point metrics score the median
        head).  ``None`` keeps the point-forecast masked MAE.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        scaler: StandardScaler | None = None,
        max_grad_norm: float = 5.0,
        null_value: float | None = 0.0,
        log_every: int = 0,
        quantiles: tuple[float, ...] | None = None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.scaler = scaler
        self.max_grad_norm = max_grad_norm
        self.null_value = null_value
        if quantiles is None:
            quantiles = getattr(getattr(model, "config", None), "quantiles", None)
        self.quantiles = None if quantiles is None else tuple(float(q) for q in quantiles)
        self.log_every = log_every
        self.logger = get_logger("repro.trainer")
        self.history = TrainingHistory()
        self._iteration = 0

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _denormalise(self, predictions: Tensor) -> Tensor:
        if self.scaler is None:
            return predictions
        return predictions * self.scaler.std_ + self.scaler.mean_

    def _batch_dtype(self):
        """The model's parameter dtype (``None``: no parameters), which batches are cast to."""
        parameters = self.model.parameters()
        return parameters[0].dtype if parameters else None

    # ------------------------------------------------------------------ #
    # Training / evaluation
    # ------------------------------------------------------------------ #
    def train_epoch(self, loader: DataLoader) -> float:
        """Run one epoch; returns the average training loss (masked MAE)."""
        self.model.train()
        keep_freed_heap()
        losses = []
        for batch in loader:
            losses.append(self._train_step(batch))
            self._iteration += 1
            if self.log_every and self._iteration % self.log_every == 0:
                self.logger.info("iteration %d loss %.4f", self._iteration, losses[-1])
        return float(np.mean(losses)) if losses else float("nan")

    def _train_step(self, batch) -> float:
        """One optimiser step on ``(batch_x, batch_y)``; returns its loss.

        The step's autograd graph dies with this frame, before the next
        step builds its own.
        """
        batch_x, batch_y = batch
        dtype = self._batch_dtype()
        if hasattr(self.model, "refresh_graph"):
            self.model.refresh_graph(self._iteration)
        self.model.zero_grad()
        predictions = self._denormalise(self.model(Tensor(batch_x, dtype=dtype)))
        targets = Tensor(batch_y, dtype=dtype)
        if self.quantiles is not None:
            loss = masked_pinball(predictions, targets, self.quantiles, null_value=self.null_value)
        else:
            loss = masked_mae(predictions, targets, null_value=self.null_value)
        loss.backward()
        clip_grad_norm(self.model.parameters(), self.max_grad_norm)
        self.optimizer.step()
        return float(loss.data)

    def evaluate(self, loader: DataLoader) -> dict[str, float]:
        """Compute masked MAE / RMSE / MAPE over every batch of ``loader``.

        Metrics are accumulated batch-by-batch with
        :class:`~repro.evaluation.streaming.StreamingMetrics`, so evaluation
        memory stays bounded by one batch regardless of the dataset size.
        The model's train/eval mode is restored on exit, so evaluating a
        model that was already in eval mode does not silently re-enable
        dropout/batch-norm updates for subsequent callers.
        """
        from repro.evaluation.streaming import StreamingMetrics

        was_training = self.model.training
        self.model.eval()
        stream = StreamingMetrics(null_value=self.null_value, quantiles=self.quantiles)
        dtype = self._batch_dtype()
        try:
            with no_grad():
                for batch_x, batch_y in loader:
                    output = self._denormalise(self.model(Tensor(batch_x, dtype=dtype)))
                    stream.update(output.data, batch_y)
        finally:
            self.model.train(was_training)
        return stream.compute()

    def fit(
        self,
        train_loader: DataLoader,
        val_loader: DataLoader | None = None,
        epochs: int = 10,
        patience: int | None = None,
        callback: Callable[[int, float, dict[str, float] | None], None] | None = None,
        scheduler=None,
    ) -> TrainingHistory:
        """Optimise for up to ``epochs`` epochs with optional early stopping.

        ``scheduler`` optionally takes a learning-rate scheduler from
        :mod:`repro.optim.lr_scheduler`; it is stepped once per epoch after
        validation (:class:`~repro.optim.lr_scheduler.ReduceLROnPlateau`
        receives the epoch's validation MAE, and therefore requires a
        ``val_loader``).  Each epoch's effective learning rate is recorded
        in ``history.lrs``, and the scheduler's state survives a
        checkpoint/resume round trip via
        ``save_bundle(..., scheduler=scheduler)``.
        """
        from repro.optim import ReduceLROnPlateau

        if isinstance(scheduler, ReduceLROnPlateau) and val_loader is None:
            raise ValueError("ReduceLROnPlateau requires a val_loader to monitor")
        best_val = float("inf")
        best_state = None
        bad_epochs = 0
        for epoch in range(epochs):
            self.history.lrs.append(float(self.optimizer.lr))
            timer = Timer().start()
            train_loss = self.train_epoch(train_loader)
            elapsed = timer.stop()
            self.history.train_losses.append(train_loss)
            self.history.epoch_seconds.append(elapsed)

            val_metrics = None
            if val_loader is not None:
                val_metrics = self.evaluate(val_loader)
                self.history.val_maes.append(val_metrics["mae"])
                if val_metrics["mae"] < best_val - 1e-9:
                    best_val = val_metrics["mae"]
                    best_state = self.model.state_dict()
                    bad_epochs = 0
                else:
                    bad_epochs += 1
            if scheduler is not None:
                if isinstance(scheduler, ReduceLROnPlateau):
                    scheduler.step(val_metrics["mae"])
                else:
                    scheduler.step()
            if callback is not None:
                callback(epoch, train_loss, val_metrics)
            if self.log_every:
                message = f"epoch {epoch} train {train_loss:.4f}"
                if val_metrics is not None:
                    message += f" val_mae {val_metrics['mae']:.4f}"
                self.logger.info(message)
            # Stop once the validation MAE has failed to improve for
            # ``patience`` consecutive epochs (``bad_epochs > 0`` keeps an
            # improving epoch from tripping the ``patience=0`` edge case).
            if (
                patience is not None
                and val_loader is not None
                and bad_epochs > 0
                and bad_epochs >= patience
            ):
                break
        if best_state is not None:
            self.model.load_state_dict(best_state)
        return self.history
