"""Computation-cost profiling (Table X): parameter counts, training and inference time."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.loader import DataLoader
from repro.nn.loss import masked_mae
from repro.nn.module import Module
from repro.optim import Adam, clip_grad_norm
from repro.tensor import Tensor, no_grad
from repro.utils.heap import keep_freed_heap
from repro.utils.timer import Timer


@dataclass(frozen=True)
class CostReport:
    """Cost profile of one model (the columns of Table X)."""

    model: str
    num_parameters: int
    train_seconds_per_epoch: float
    inference_seconds: float


def _train_step(model: Module, optimizer: Adam, iteration: int, batch_x, batch_y) -> None:
    """One timed training step; its autograd graph dies on return."""
    if hasattr(model, "refresh_graph"):
        model.refresh_graph(iteration)
    model.zero_grad()
    loss = masked_mae(model(Tensor(batch_x)), Tensor(batch_y), null_value=None)
    loss.backward()
    clip_grad_norm(model.parameters(), 5.0)
    optimizer.step()


def measure_cost(
    name: str,
    model: Module,
    loader: DataLoader,
    max_batches: int | None = None,
    learning_rate: float = 1e-3,
) -> CostReport:
    """Measure parameters, one training pass and one inference pass of ``model``.

    ``max_batches`` limits the measurement to the first few batches (the cost
    per batch is extrapolated to the full epoch), keeping the Table X
    benchmark affordable on CPU.
    """
    parameters = model.num_parameters()
    optimizer = Adam(model.parameters(), lr=learning_rate)

    train_timer = Timer()
    measured_batches = 0
    model.train()
    keep_freed_heap()
    for batch_index, (batch_x, batch_y) in enumerate(loader):
        if max_batches is not None and batch_index >= max_batches:
            break
        with train_timer:
            _train_step(model, optimizer, batch_index, batch_x, batch_y)
        measured_batches += 1
    per_batch = train_timer.total / max(measured_batches, 1)
    train_seconds_per_epoch = per_batch * len(loader)

    inference_timer = Timer()
    model.eval()
    with no_grad():
        for batch_index, (batch_x, _) in enumerate(loader):
            if max_batches is not None and batch_index >= max_batches:
                break
            with inference_timer:
                model(Tensor(batch_x))
    model.train()
    inference_per_batch = inference_timer.total / max(measured_batches, 1)
    inference_seconds = inference_per_batch * len(loader)

    return CostReport(
        model=name,
        num_parameters=parameters,
        train_seconds_per_epoch=train_seconds_per_epoch,
        inference_seconds=inference_seconds,
    )
