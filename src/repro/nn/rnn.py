"""Recurrent cells and sequence layers (GRU / LSTM).

The paper's forecasting module is a GRU whose dense matrix multiplications
are replaced by the fast graph convolution (``OneStepFastGConv``); the plain
cells here are used by the LSTM/GRU baselines and as reference behaviour in
tests.
"""

from __future__ import annotations

import numpy as np

from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.tensor import Tensor, concat


class GRUCell(Module):
    """Gated Recurrent Unit cell (Cho et al., 2014).

    Implements the update/reset-gate recurrence of Eq. 10 of the paper with
    ordinary matrix multiplications; the SAGDFN variant substitutes the graph
    convolution operator for each ``Linear``.
    """

    def __init__(self, input_size: int, hidden_size: int, seed: int | None = None):
        super().__init__()
        base = 0 if seed is None else seed
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.reset_gate = Linear(input_size + hidden_size, hidden_size, seed=base)
        self.update_gate = Linear(input_size + hidden_size, hidden_size, seed=base + 1)
        self.candidate = Linear(input_size + hidden_size, hidden_size, seed=base + 2)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        combined = concat([x, h], axis=-1)
        reset = self.reset_gate(combined).sigmoid()
        update = self.update_gate(combined).sigmoid()
        candidate = self.candidate(concat([x, reset * h], axis=-1)).tanh()
        return update * h + (1.0 - update) * candidate

    def initial_state(self, batch_size: int) -> Tensor:
        dtype = self.update_gate.weight.dtype
        return Tensor(np.zeros((batch_size, self.hidden_size)), dtype=dtype)


class LSTMCell(Module):
    """Long Short-Term Memory cell (Hochreiter & Schmidhuber, 1997)."""

    def __init__(self, input_size: int, hidden_size: int, seed: int | None = None):
        super().__init__()
        base = 0 if seed is None else seed
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.input_gate = Linear(input_size + hidden_size, hidden_size, seed=base)
        self.forget_gate = Linear(input_size + hidden_size, hidden_size, seed=base + 1)
        self.cell_gate = Linear(input_size + hidden_size, hidden_size, seed=base + 2)
        self.output_gate = Linear(input_size + hidden_size, hidden_size, seed=base + 3)

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        h, c = state
        combined = concat([x, h], axis=-1)
        i = self.input_gate(combined).sigmoid()
        f = self.forget_gate(combined).sigmoid()
        g = self.cell_gate(combined).tanh()
        o = self.output_gate(combined).sigmoid()
        c_next = f * c + i * g
        h_next = o * c_next.tanh()
        return h_next, c_next

    def initial_state(self, batch_size: int) -> tuple[Tensor, Tensor]:
        dtype = self.forget_gate.weight.dtype
        zeros = np.zeros((batch_size, self.hidden_size))
        return Tensor(zeros.copy(), dtype=dtype), Tensor(zeros.copy(), dtype=dtype)


class GRU(Module):
    """Single-layer GRU unrolled over the time axis of a ``(B, T, F)`` input."""

    def __init__(self, input_size: int, hidden_size: int, seed: int | None = None):
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, seed=seed)
        self.hidden_size = hidden_size

    def forward(self, x: Tensor, h: Tensor | None = None) -> tuple[Tensor, Tensor]:
        """Return ``(outputs, final_state)`` with outputs shaped ``(B, T, H)``."""
        batch, steps, _ = x.shape
        if h is None:
            h = self.cell.initial_state(batch)
        outputs = []
        for t in range(steps):
            h = self.cell(x[:, t, :], h)
            outputs.append(h)
        from repro.tensor import stack

        return stack(outputs, axis=1), h


class LSTM(Module):
    """Single-layer LSTM unrolled over the time axis of a ``(B, T, F)`` input."""

    def __init__(self, input_size: int, hidden_size: int, seed: int | None = None):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, seed=seed)
        self.hidden_size = hidden_size

    def forward(
        self, x: Tensor, state: tuple[Tensor, Tensor] | None = None
    ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        batch, steps, _ = x.shape
        if state is None:
            state = self.cell.initial_state(batch)
        h, c = state
        outputs = []
        for t in range(steps):
            h, c = self.cell(x[:, t, :], (h, c))
            outputs.append(h)
        from repro.tensor import stack

        return stack(outputs, axis=1), (h, c)
