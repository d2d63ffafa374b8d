"""Raw-ndarray serving kernel for the frozen-graph recurrence.

:class:`FrozenRecurrenceKernel` runs the recurrence of
:meth:`repro.core.encoder_decoder.SAGDFNEncoderDecoder.forward` (Eq. 10)
without a tape: each cell step is :func:`repro.core.gconv._cell_step_`, the
forward of the training op, on a preallocated per-batch-size workspace
reused across requests.  Each cell keeps one feature-major stack
``(J·(C+H) + 1, B, N)`` of row blocks ``[x_0, h_0, x_1, h_1, …, 1]`` (the
:mod:`repro.core.gconv` docstring spells out the hops and the two gemms),
and its hidden state lives in, and is updated over, the ``h_0`` rows.

The kernel snapshots the cells' weights at construction (the
:class:`~repro.serve.service.ForecastService` owns its model, so the
parameters are frozen for the service's lifetime).  It is the service's only
request path; the autograd forward, which runs the same cell step, is the
reference it is tested against (≤ 1e-10 relative in float64).  Only
inference is supported: no teacher forcing, no gradients.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.gconv import _CellWeights, _Graph, _cell_step_

# Workspaces are keyed by batch size; retain at most this many before
# evicting the least recently used (long-lived services see ragged batch
# sizes from micro-batching and loader tails — memory must not climb with
# every distinct size ever requested).
_MAX_WORKSPACES = 4


class _Workspace:
    """Preallocated per-batch-size buffers, all feature-major ``(·, B, N)``."""

    def __init__(self, kernel: "FrozenRecurrenceKernel", batch: int) -> None:
        n = kernel.num_nodes
        h = kernel.hidden_dim
        hops = kernel.hops
        dtype = kernel.dtype

        def stack(cell: _CellWeights) -> np.ndarray:
            rows = np.empty((hops * (cell.input_dim + h) + 1, batch, n), dtype)
            rows[-1] = 1.0
            return rows

        # One stack per cell; the decoder's hidden rows are copied from the
        # encoder's once per request.
        self.encoder_stacks = [stack(cell) for cell in kernel.encoder]
        self.decoder_stacks = [stack(cell) for cell in kernel.decoder]
        self.r_stack = np.empty((hops * h, batch, n), dtype)
        self.gates = np.empty((3 * h, batch, n), dtype)
        self.scratch = np.empty((h, batch, n), dtype)
        self.gather = None
        if kernel.graph.index_set is not None:
            widest = max(cell.input_dim for cell in kernel.encoder + kernel.decoder) + h
            self.gather = np.empty((widest, batch, len(kernel.graph.index_set)), dtype)
        # Full-width predictions: one row per quantile head for
        # probabilistic forecasters (prediction_dim == output_dim otherwise).
        self.predictions = np.empty((kernel.horizon, kernel.prediction_dim, batch, n), dtype)


class FrozenRecurrenceKernel:
    """No-grad fused recurrence over a frozen graph.

    Parameters
    ----------
    forecaster:
        A :class:`~repro.core.encoder_decoder.SAGDFNEncoderDecoder` whose
        parameters are frozen for this kernel's lifetime.
    adjacency:
        The frozen slim ``(N, M)`` adjacency (or dense ``(N, N)`` support).
    index_set:
        Frozen significant-neighbour indices, ``None`` for dense supports.
    degree_scale:
        The ``(N, 1)`` degree normalisation ``(D + I)^{-1}``.
    """

    def __init__(
        self,
        forecaster,
        adjacency: np.ndarray,
        index_set: np.ndarray | None,
        degree_scale: np.ndarray,
    ) -> None:
        self.horizon = forecaster.horizon
        self.output_dim = forecaster.output_dim
        self.hidden_dim = forecaster.hidden_dim
        # Quantile heads: the decoder projects prediction_dim rows per
        # step; only the feedback slice (the head closest to the median)
        # re-enters the recurrence.
        self.prediction_dim = forecaster.prediction_dim
        self._feedback_start = forecaster.feedback_index * self.output_dim
        self.encoder = [_CellWeights(cell) for cell in forecaster.encoder_cells]
        self.decoder = [_CellWeights(cell) for cell in forecaster.decoder_cells]
        self.hops = forecaster.encoder_cells[0].gates.diffusion_steps
        self.dtype = self.encoder[0].projection.dtype
        # degree_scale becomes (N,): it broadcasts over the nodes-fastest
        # (C, B, N) states.
        self.graph = _Graph(
            np.asarray(adjacency, dtype=self.dtype),
            None if index_set is None else np.asarray(index_set, dtype=np.int64),
            np.ascontiguousarray(degree_scale, dtype=self.dtype).reshape(-1),
        )
        self.num_nodes = self.graph.adjacency.shape[0]
        self._workspaces: dict[int, _Workspace] = {}
        # Batch sizes exempt from LRU eviction (see pin_workspace): a
        # cluster worker pins its steady-state micro-batch size so ragged
        # loader tails can never evict the hot workspace.
        self._pinned: set[int] = set()
        # The workspace is mutated in place per request; one forward at a
        # time keeps concurrent ``ForecastService.predict`` callers correct
        # (the preallocation gain dwarfs an uncontended lock acquisition).
        self._lock = threading.Lock()

    def pin_workspace(self, batch: int) -> None:
        """Preallocate the workspace for ``batch`` and exempt it from eviction.

        Serving-cluster workers call this once per process with their
        batcher's ``max_batch``: the first steady-state request then pays no
        allocation, and the LRU (which only counts *unpinned* sizes against
        ``_MAX_WORKSPACES``) can never drop the hot buffer when ragged batch
        sizes churn the cache.
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        with self._lock:
            if batch not in self._workspaces:
                self._workspaces[batch] = _Workspace(self, batch)
            self._pinned.add(batch)

    def _step(
        self,
        cells: list[_CellWeights],
        stacks: list[np.ndarray],
        ws: _Workspace,
        x: np.ndarray,
        prediction_out: np.ndarray | None,
    ) -> None:
        """One time step through the stacked cells, updating the hidden rows.

        ``x`` is the first cell's ``(C, B, N)`` input; each stacked layer
        takes the hidden state of the layer below.  ``prediction_out`` is
        skipped when ``None`` (encoder steps discard predictions).
        """
        current = x
        for cell, stack in zip(cells, stacks):
            np.copyto(stack[: cell.input_dim], current)
            hidden = stack[cell.input_dim : cell.input_dim + cell.hidden_dim]
            _cell_step_(cell, self.graph, stack, ws.r_stack, ws.gates, hidden, ws.scratch,
                        ws.gather)
            current = hidden
        if prediction_out is not None:
            np.matmul(cells[-1].projection, current.transpose(1, 0, 2),
                      out=prediction_out.transpose(1, 0, 2))

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def __call__(self, history: np.ndarray) -> np.ndarray:
        """Forecast ``horizon`` steps from ``history`` of shape ``(B, h, N, C)``."""
        history = np.asarray(history, dtype=self.dtype)
        if history.ndim != 4:
            raise ValueError(
                f"history must be (batch, steps, nodes, channels), got {history.shape}"
            )
        batch, steps, num_nodes, channels = history.shape
        if steps < 1:
            raise ValueError(f"history has no time steps, got shape {history.shape}")
        if num_nodes != self.num_nodes:
            raise ValueError(
                f"history has {num_nodes} nodes, frozen graph has {self.num_nodes}"
            )
        if channels != self.encoder[0].input_dim:
            raise ValueError(
                f"history has {channels} channels, encoder expects "
                f"{self.encoder[0].input_dim}"
            )
        if batch == 0:
            return np.empty((0, self.horizon, num_nodes, self.prediction_dim), self.dtype)
        with self._lock:
            ws = self._workspaces.get(batch)
            if ws is None:
                unpinned = [b for b in self._workspaces if b not in self._pinned]
                if len(unpinned) >= _MAX_WORKSPACES:
                    self._workspaces.pop(unpinned[0])
                ws = self._workspaces[batch] = _Workspace(self, batch)
            elif batch not in self._pinned:
                # LRU: re-insert so the oldest unpinned key stays first
                self._workspaces[batch] = self._workspaces.pop(batch)

            h = self.hidden_dim
            # Feature-major view of the request: (T, C, B, N).
            history_fm = np.ascontiguousarray(history.transpose(1, 3, 0, 2))
            for cell, stack in zip(self.encoder, ws.encoder_stacks):
                stack[cell.input_dim : cell.input_dim + h] = 0.0
            for t in range(steps):
                self._step(self.encoder, ws.encoder_stacks, ws, history_fm[t], None)

            for enc, dec, enc_stack, dec_stack in zip(
                self.encoder, self.decoder, ws.encoder_stacks, ws.decoder_stacks
            ):
                np.copyto(dec_stack[dec.input_dim : dec.input_dim + h],
                          enc_stack[enc.input_dim : enc.input_dim + h])
            current_input = history_fm[-1, : self.output_dim]
            feedback = slice(self._feedback_start, self._feedback_start + self.output_dim)
            for step in range(self.horizon):
                self._step(self.decoder, ws.decoder_stacks, ws, current_input,
                           ws.predictions[step])
                # Quantile heads feed only the median rows back.
                current_input = ws.predictions[step][feedback]
            # Back to batch-major (B, horizon, N, P); always a copy so the
            # caller never aliases the reused workspace.
            return ws.predictions.transpose(2, 0, 3, 1).copy()
