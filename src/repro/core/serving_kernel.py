"""Raw-ndarray serving kernel for the frozen-graph fused recurrence.

:class:`FrozenRecurrenceKernel` runs the recurrence of
:meth:`repro.core.encoder_decoder.SAGDFNEncoderDecoder.forward` (Eq. 10) on
plain NumPy arrays: no autograd ``Tensor`` wrapping, no graph construction,
and a preallocated per-batch-size workspace reused across requests with
``out=`` matmuls, so neither allocation nor Python-level tensor machinery
sits in the per-step loop.

Every state is **feature-major** ``(C, B, N)``: channels first, nodes
fastest, so each channel row is one contiguous run of ``B·N`` values and
every elementwise op (sigmoid, tanh, the blend, the reset product) is a
contiguous pass.  Each cell keeps one stack of shape ``(J·(C+H) + 1, B, N)``
whose row blocks are ``[x_0, h_0, x_1, h_1, …, 1]`` — the row order of
``cell.gates.hop_weights`` — and the cell's hidden state lives in its
``h_0`` rows.  Per cell and time step:

* **Diffusion hop** — gather the ``M`` significant-neighbour columns of hop
  block ``j``, then a ``(C, M) @ Aᵀ (M, N)`` gemm writes block ``j+1`` in
  place, followed by ``+= block_j`` and ``*= (D + I)^{-1}``.  The input
  ``x`` is diffused together with ``h`` by the same gemm.
* **Gates** — a ``(3H, K) @ (K, N)`` gemm over the whole stack yields
  reset, update and the candidate's input side as contiguous row blocks;
  the trailing ones row folds in every bias, and the candidate's weights
  carry zero rows under the ``h`` rows.
* **Candidate** — a second ``(H, J·H)`` gemm over the diffused
  ``r ⊙ h`` stack supplies the candidate's hidden side.

Every gemm is one NumPy call over the ``B`` windows of the batch, which
NumPy runs as ``B`` BLAS calls of batch 1's size (the window's rows are a
strided ``(·, N)`` slice of the ``(·, B, N)`` state).  A batch then costs
``B`` batch-1 gemms whatever the BLAS threading policy: a single
``(·, B·N)`` gemm crosses OpenBLAS's multithreading threshold at small
``N`` and hands parts of every gate row to other cores, which made the
elementwise passes that read those rows slower than the gemm saved.

The kernel snapshots the cells' weights at construction (the
:class:`~repro.serve.service.ForecastService` owns its model, so the
parameters are frozen for the service's lifetime).  Outputs match the
autograd forward to BLAS summation-order precision (≤ 1e-10 relative in
float64; the sigmoid drops the reference's upper input clamp at +60, which
changes saturated gates by < 1e-26).  It is the service's only request
path; the autograd forward is the reference it is tested against.

Only inference is supported: no teacher forcing, no gradients.
"""

from __future__ import annotations

import threading

import numpy as np

# Workspaces are keyed by batch size; retain at most this many before
# evicting the least recently used (long-lived services see ragged batch
# sizes from micro-batching and loader tails — memory must not climb with
# every distinct size ever requested).
_MAX_WORKSPACES = 4


def _stack_with_bias(hop_blocks: list[np.ndarray], bias: np.ndarray) -> np.ndarray:
    """Vertically stack per-hop weight blocks and append the bias row.

    Matches a state stack ``[s_0 | s_1 | … | 1]`` whose trailing channel is
    the constant one, so a single gemm applies every hop *and* adds the
    bias.
    """
    return np.ascontiguousarray(np.concatenate(hop_blocks + [bias[None, :]], axis=0))


def _diffusion_aggregate_(adjacency_t, gathered, previous, scale, out) -> None:
    """One raw in-place diffusion hop over feature-major ndarray states.

    ``out = (gathered @ adjacency_t + previous) * scale`` where ``gathered``
    is the ``(C, B, M)`` neighbour gather of ``previous`` (``previous``
    itself for a dense support), ``adjacency_t`` the transposed ``(M, N)``
    adjacency, ``previous`` / ``out`` contiguous ``(C, B, N)`` arrays and
    ``scale`` the ``(N,)`` degree normalisation.  The gemm runs per window.
    """
    np.matmul(gathered.transpose(1, 0, 2), adjacency_t, out=out.transpose(1, 0, 2))
    out += previous
    out *= scale


def _fused_gru_gates_(gates: np.ndarray) -> None:
    """In-place sigmoid over the fused reset/update gates."""
    # In-place 1 / (1 + exp(-max(x, -60))).  The reference
    # ``Tensor.sigmoid`` clips to [-60, 60]; the lower bound is what
    # prevents ``exp`` overflow, and dropping the upper bound changes
    # saturated gates by less than 1e-26 — far below the serving
    # kernel's 1e-10 equivalence envelope.
    np.maximum(gates, -60.0, out=gates)
    np.negative(gates, out=gates)
    np.exp(gates, out=gates)
    gates += 1.0
    np.reciprocal(gates, out=gates)


def _fused_gru_update_(hidden: np.ndarray, update: np.ndarray,
                       candidate: np.ndarray, scratch: np.ndarray) -> None:
    """In-place blend ``hidden = u·hidden + (1-u)·tanh(candidate)``.

    ``candidate`` holds the pre-activation on entry and is clobbered;
    ``scratch`` is a same-shaped scratch buffer.
    """
    np.tanh(candidate, out=candidate)
    np.subtract(1.0, update, out=scratch)
    scratch *= candidate
    hidden *= update
    hidden += scratch


class _CellWeights:
    """Contiguous, pre-transposed snapshot of one cell's parameters.

    ``gates`` is the ``(3H, K)`` weight of the stack gemm: reset and update
    rows are ``_stack_with_bias(gates.hop_weights, bias).T``; the candidate's
    input-side rows follow, zero under each hop's ``h`` rows.  ``cand_h`` is
    the ``(H, J·H)`` hidden-side candidate weight over the ``r ⊙ h`` stack,
    and ``projection`` the ``(P, H)`` prediction head.
    """

    __slots__ = ("input_dim", "gates", "cand_h", "projection")

    def __init__(self, cell) -> None:
        in_dim = cell.input_dim
        self.input_dim = in_dim
        gates = _stack_with_bias([w.data for w in cell.gates.hop_weights],
                                 cell.gates.bias.data)
        cand_x = _stack_with_bias(
            [np.concatenate([w.data[:in_dim], np.zeros_like(w.data[in_dim:])])
             for w in cell.candidate.hop_weights],
            cell.candidate.bias.data,
        )
        self.gates = np.ascontiguousarray(np.concatenate([gates, cand_x], axis=1).T)
        self.cand_h = np.ascontiguousarray(
            np.concatenate([w.data[in_dim:] for w in cell.candidate.hop_weights]).T
        )
        self.projection = np.ascontiguousarray(cell.projection.data.T)


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
        if kernel.index_set is not None:
            widest = max(cell.input_dim for cell in kernel.encoder + kernel.decoder) + h
            self.gather = np.empty((widest, batch, len(kernel.index_set)), dtype)
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
        self.prediction_dim = getattr(forecaster, "prediction_dim", forecaster.output_dim)
        feedback_index = getattr(forecaster, "feedback_index", 0)
        self._feedback_start = feedback_index * self.output_dim
        self.encoder = [_CellWeights(cell) for cell in forecaster.encoder_cells]
        self.decoder = [_CellWeights(cell) for cell in forecaster.decoder_cells]
        self.hops = forecaster.encoder_cells[0].gates.diffusion_steps
        self.dtype = self.encoder[0].projection.dtype
        # Transposed adjacency: the hop gemm is (C, M) @ (M, N) per window.
        self.adjacency_t = np.ascontiguousarray(np.asarray(adjacency, dtype=self.dtype).T)
        self.num_nodes = self.adjacency_t.shape[1]
        self.index_set = None if index_set is None else np.asarray(index_set, dtype=np.int64)
        # (N,): broadcasts over the nodes-fastest (C, B, N) states.
        self.degree_scale = np.ascontiguousarray(degree_scale, dtype=self.dtype).reshape(-1)
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

    # ------------------------------------------------------------------ #
    # Building blocks
    # ------------------------------------------------------------------ #
    def _diffuse(self, stack: np.ndarray, width: int, ws: _Workspace) -> None:
        """Fill hop blocks ``1 … J-1`` of ``stack`` from block 0.

        Blocks are ``width`` rows each.  Mirrors
        ``FastGraphConv.diffusion_states``:
        ``s_j = (A · gather(s_{j-1}) + s_{j-1}) * scale``.
        """
        for j in range(1, self.hops):
            previous = stack[(j - 1) * width : j * width]
            if self.index_set is None:
                gathered = previous
            else:
                gathered = ws.gather[:width]
                np.take(previous, self.index_set, axis=-1, out=gathered)
            _diffusion_aggregate_(self.adjacency_t, gathered, previous,
                                  self.degree_scale, stack[j * width : (j + 1) * width])

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
        h = self.hidden_dim
        gates, r_stack, scratch = ws.gates, ws.r_stack, ws.scratch
        current = x
        for cell, stack in zip(cells, stacks):
            width = cell.input_dim + h
            np.copyto(stack[: cell.input_dim], current)
            hidden = stack[cell.input_dim : width]
            self._diffuse(stack, width, ws)
            # transpose(1, 0, 2): one gemm per window (module docstring).
            np.matmul(cell.gates, stack.transpose(1, 0, 2), out=gates.transpose(1, 0, 2))
            _fused_gru_gates_(gates[: 2 * h])
            np.multiply(gates[:h], hidden, out=r_stack[:h])
            self._diffuse(r_stack, h, ws)
            np.matmul(cell.cand_h, r_stack.transpose(1, 0, 2),
                      out=scratch.transpose(1, 0, 2))
            candidate = gates[2 * h :]
            candidate += scratch
            _fused_gru_update_(hidden, gates[h : 2 * h], candidate, scratch)
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
