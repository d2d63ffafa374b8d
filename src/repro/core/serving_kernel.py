"""Raw-ndarray serving kernel for the frozen-graph fused recurrence.

:class:`FrozenRecurrenceKernel` runs the recurrence of
:meth:`repro.core.encoder_decoder.SAGDFNEncoderDecoder.forward` (Eq. 10) on
plain NumPy arrays, with the channel-wise linearity of the diffusion
exploited to split every hop weight into input-side and hidden-side row
blocks: no autograd ``Tensor`` wrapping, no graph construction, and a
preallocated per-batch-size workspace reused across requests with ``out=``
matmuls, so neither allocation nor Python-level tensor machinery sits in the
per-step loop.

Three layout decisions carry the speedup:

* **Node-major states** ``(N, B, C)`` — the batch and channel axes fold
  together as gemm columns, so the ``O(N·M)`` neighbour aggregation is a
  single ``(N, M) @ (M, B·C)`` BLAS call per hop instead of a
  batch-size-long loop of small gemms, and gemm efficiency *grows* with the
  batch (which is what bends the serve throughput-vs-batch curve upward).
* **Input-side precompute** — the encoder's input diffusion states are
  computed for the whole history before the loop (one batched BLAS call per
  hop) and stored hop-stacked with a constant ones channel, so the per-step
  input contribution (gate *and* bias) is one small gemm.
* **Hop-stacked x-side weights with folded biases** — the per-step loop
  applies ``[x_0 | x_1 | 1] @ [W_0; W_1; b]`` in one call; only the hidden
  and reset-scaled hidden states are diffused inside the loop.

The kernel snapshots the cells' weights at construction (the
:class:`~repro.serve.service.ForecastService` owns its model, so the
parameters are frozen for the service's lifetime).  Outputs match the
autograd forward to BLAS summation-order precision (≤ 1e-10 relative in
float64; the sigmoid drops the reference's upper input clamp at +60, which
changes saturated gates by < 1e-26).  Pass ``use_kernel=False`` to the
service for bit-parity with the trainer forward.

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


def _diffusion_aggregate_(adjacency, gathered, previous, scale, out,
                          gemm_out=None) -> None:
    """One raw in-place diffusion hop over node-major ndarray states.

    ``out = (adjacency @ gathered + previous) * scale`` where ``gathered`` is
    ``(M, B, C)`` (or ``(T, M, B, C)`` for the batched whole-history
    precompute) and ``previous`` / ``out`` are matching ``(…, N, B, C)``
    arrays.  The matmul folds batch and channels into one gemm-column axis.
    When ``out`` is a strided view (the hop blocks of an x-stack),
    ``gemm_out`` supplies a contiguous scratch the gemm lands in first.
    """
    rows = adjacency.shape[0]
    cols = gathered.shape[-2] * gathered.shape[-1]
    if gathered.ndim == 4:
        # Whole-sequence precompute: one batched gemm over (T, M, B·C).
        steps = gathered.shape[0]
        np.matmul(
            adjacency,
            gathered.reshape(steps, -1, cols),
            out=out.reshape(steps, rows, cols),
        )
        out += previous
        out *= scale
        return
    target = out if gemm_out is None else gemm_out
    np.matmul(adjacency, gathered.reshape(-1, cols), out=target.reshape(rows, cols))
    if gemm_out is None:
        out += previous
    else:
        np.add(gemm_out, previous, out=out)
    out *= scale


def _fused_gru_gates_(gates: np.ndarray) -> None:
    """In-place sigmoid over the ``(N, B, 2·hidden)`` fused gates."""
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
    """Contiguous, pre-split snapshot of one cell's parameters.

    ``gate_h[j]`` / ``cand_h[j]`` are the hidden-side row blocks of hop
    ``j`` (reset columns first, update columns second, for the gates);
    ``gate_x`` / ``cand_x`` are the hop-stacked input-side blocks with the
    bias folded in as a trailing row (see :func:`_stack_with_bias`).
    """

    __slots__ = (
        "hops", "input_dim", "hidden_dim", "output_dim",
        "gate_h", "cand_h", "gate_x", "cand_x", "projection",
    )

    def __init__(self, cell) -> None:
        in_dim = cell.input_dim
        self.hops = cell.gates.diffusion_steps
        self.input_dim = in_dim
        self.hidden_dim = cell.hidden_dim
        self.output_dim = cell.output_dim
        self.gate_h = [np.ascontiguousarray(w.data[in_dim:]) for w in cell.gates.hop_weights]
        self.cand_h = [np.ascontiguousarray(w.data[in_dim:]) for w in cell.candidate.hop_weights]
        self.gate_x = _stack_with_bias(
            [np.asarray(w.data[:in_dim]) for w in cell.gates.hop_weights],
            cell.gates.bias.data,
        )
        self.cand_x = _stack_with_bias(
            [np.asarray(w.data[:in_dim]) for w in cell.candidate.hop_weights],
            cell.candidate.bias.data,
        )
        self.projection = np.ascontiguousarray(cell.projection.data)


class _Workspace:
    """Preallocated per-batch-size scratch buffers (all node-major)."""

    def __init__(self, kernel: "FrozenRecurrenceKernel", batch: int) -> None:
        n = kernel.num_nodes
        h = kernel.hidden_dim
        hops = kernel.hops
        dtype = kernel.dtype
        m = kernel.adjacency.shape[-1]
        # Input widths diffused inside the step loop: every decoder layer,
        # and encoder layers above the first (their inputs are the hidden
        # states of the layer below).  The first encoder layer's input
        # states are precomputed once per request.  Each x-stack carries the
        # hop-stacked states plus the constant ones channel that folds the
        # gate/candidate biases into the x-side gemm.
        x_widths = sorted(
            {cell.input_dim for cell in kernel.decoder}
            | {cell.input_dim for cell in kernel.encoder[1:]}
        )
        self.x_stacks = {}
        self.x_scratch = {}
        self.x_dense_gather = {}
        for width in x_widths:
            stack = np.empty((n, batch, hops * width + 1), dtype)
            stack[..., -1] = 1.0
            self.x_stacks[width] = stack
            self.x_scratch[width] = np.empty((n, batch, width), dtype)
            if kernel.index_set is None:
                # Dense supports gather the full strided hop block; give the
                # contiguous copy its own buffer (x_scratch holds the gemm
                # output of the same iteration).
                self.x_dense_gather[width] = np.empty((n, batch, width), dtype)
        gather_widths = sorted(set(x_widths) | {h}) if kernel.index_set is not None else []
        self.gather = {
            width: np.empty((m, batch, width), dtype) for width in gather_widths
        }
        # One hidden-state stack per layer; the layer's hidden state lives
        # permanently in ``h_states[layer][0]`` (the hop-0 diffusion state),
        # shared by the encoder and decoder phases.
        self.h_states = [
            np.empty((hops, n, batch, h), dtype) for _ in kernel.encoder
        ]
        self.r_states = np.empty((hops, n, batch, h), dtype)
        self.gates = np.empty((n, batch, 2 * h), dtype)
        self.scratch_2h = np.empty((n, batch, 2 * h), dtype)
        self.scratch_h = np.empty((n, batch, h), dtype)
        self.update = np.empty((n, batch, h), dtype)
        self.candidate = np.empty((n, batch, h), dtype)
        self.decoder_input = np.empty((n, batch, kernel.output_dim), dtype)
        # Full-width predictions: one column per quantile head for
        # probabilistic forecasters (prediction_dim == output_dim otherwise).
        self.predictions = np.empty(
            (kernel.horizon, n, batch, kernel.prediction_dim), dtype
        )


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
        # Quantile heads: the decoder projects prediction_dim columns per
        # step; only the feedback slice (the head closest to the median)
        # re-enters the recurrence.
        self.prediction_dim = getattr(forecaster, "prediction_dim", forecaster.output_dim)
        feedback_index = getattr(forecaster, "feedback_index", 0)
        self._feedback_start = feedback_index * self.output_dim
        self.encoder = [_CellWeights(cell) for cell in forecaster.encoder_cells]
        self.decoder = [_CellWeights(cell) for cell in forecaster.decoder_cells]
        self.hops = self.encoder[0].hops
        self.dtype = self.encoder[0].projection.dtype
        self.adjacency = np.ascontiguousarray(adjacency, dtype=self.dtype)
        self.num_nodes = self.adjacency.shape[0]
        self.index_set = None if index_set is None else np.asarray(index_set, dtype=np.int64)
        # (N, 1, 1): broadcasts over the node-major (N, B, C) states.
        self.degree_scale = np.ascontiguousarray(
            degree_scale, dtype=self.dtype
        ).reshape(self.num_nodes, 1, 1)
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
    def _diffuse(self, states: np.ndarray, ws: _Workspace) -> None:
        """Fill ``states[1:]`` from ``states[0]`` (shape ``(hops, N, B, C)``).

        Mirrors ``FastGraphConv.diffusion_states``:
        ``s_j = (A · gather(s_{j-1}) + s_{j-1}) * scale``, with the
        aggregation flattened to one ``(N, M) @ (M, B·C)`` gemm.
        """
        hops = states.shape[0]
        for j in range(1, hops):
            previous = states[j - 1]
            current = states[j]
            if self.index_set is None:
                gathered = previous
            else:
                gathered = ws.gather[states.shape[-1]]
                np.take(previous, self.index_set, axis=0, out=gathered)
            _diffusion_aggregate_(
                self.adjacency, gathered, previous, self.degree_scale, current
            )

    def _diffuse_into_stack(self, stack: np.ndarray, hops: int, width: int,
                            ws: _Workspace) -> None:
        """Diffuse ``stack[..., :width]`` into the following hop blocks.

        ``stack`` is an x-stack ``(N, B, hops·width + 1)`` whose hop-0 block
        is already filled; hop blocks are strided views, so the aggregation
        gemm lands in a contiguous scratch first.
        """
        if hops == 1:
            return
        target = ws.x_scratch[width]
        for j in range(1, hops):
            previous = stack[..., (j - 1) * width : j * width]
            current = stack[..., j * width : (j + 1) * width]
            if self.index_set is None:
                gathered = ws.x_dense_gather[width]
                np.copyto(gathered, previous)
            else:
                gathered = ws.gather[width]
                np.take(previous, self.index_set, axis=0, out=gathered)
            _diffusion_aggregate_(
                self.adjacency, gathered, previous, self.degree_scale, current,
                gemm_out=target,
            )

    def _diffuse_batched(self, states: np.ndarray) -> None:
        """Diffusion over a whole sequence: states shaped ``(hops, T, N, B, C)``.

        The once-per-request encoder input precompute; allocates its gather
        temporary (amortised over all steps) and runs one gemm per history
        step per hop.
        """
        hops = states.shape[0]
        for j in range(1, hops):
            previous = states[j - 1]
            current = states[j]
            if self.index_set is None:
                gathered = previous
            else:
                gathered = np.take(previous, self.index_set, axis=1)
            _diffusion_aggregate_(
                self.adjacency, gathered, previous, self.degree_scale, current
            )

    @staticmethod
    def _project(states: np.ndarray, weights: list[np.ndarray], out: np.ndarray,
                 scratch: np.ndarray) -> None:
        """``out = Σ_j states[j] @ weights[j]`` with flat ``out=`` gemms."""
        rows = states.shape[1] * states.shape[2]
        width = out.shape[-1]
        np.matmul(states[0].reshape(rows, -1), weights[0], out=out.reshape(rows, width))
        flat_scratch = scratch.reshape(rows, width)
        for j in range(1, len(weights)):
            np.matmul(states[j].reshape(rows, -1), weights[j], out=flat_scratch)
            out += scratch

    def _step(
        self,
        cells: list[_CellWeights],
        ws: _Workspace,
        x: np.ndarray | None,
        x_stack: np.ndarray | None,
        prediction_out: np.ndarray | None,
    ) -> None:
        """One time step through the stacked cells, updating the hidden states.

        ``x_stack`` carries the hop-stacked input states with the trailing
        ones channel ``(N, B, hops·C + 1)`` for the first cell (encoder
        steps use the request precompute); when ``None`` they are diffused
        on the fly from ``x`` (decoder steps), and stacked layers always
        diffuse the hidden state of the layer below.  ``prediction_out`` is
        skipped when ``None`` (encoder steps discard predictions).
        """
        hidden_dim = self.hidden_dim
        scratch_2h = ws.scratch_2h
        scratch_h = ws.scratch_h
        current = x
        for layer, cell in enumerate(cells):
            h_states = ws.h_states[layer]
            hidden = h_states[0]
            # Input-side states (precomputed for the first encoder layer).
            if layer == 0 and x_stack is not None:
                layer_x = x_stack
            else:
                width = cell.input_dim
                layer_x = ws.x_stacks[width]
                layer_x[..., :width] = current
                self._diffuse_into_stack(layer_x, cell.hops, width, ws)
            rows = layer_x.shape[0] * layer_x.shape[1]
            # Hidden-side diffusion states, shared by both fused gates.
            self._diffuse(h_states, ws)
            gates = ws.gates
            self._project(h_states, cell.gate_h, gates, scratch_2h)
            np.matmul(layer_x.reshape(rows, -1), cell.gate_x,
                      out=scratch_2h.reshape(rows, 2 * hidden_dim))
            gates += scratch_2h
            _fused_gru_gates_(gates)
            reset = gates[..., :hidden_dim]
            # ``update`` is read three times below; one contiguous copy is
            # cheaper than three strided traversals of the gates view.
            np.copyto(ws.update, gates[..., hidden_dim:])
            update = ws.update
            # Candidate: diffusion states of the reset-scaled hidden state.
            r_states = ws.r_states
            np.multiply(reset, hidden, out=r_states[0])
            self._diffuse(r_states, ws)
            candidate = ws.candidate
            self._project(r_states, cell.cand_h, candidate, scratch_h)
            np.matmul(layer_x.reshape(rows, -1), cell.cand_x,
                      out=scratch_h.reshape(rows, hidden_dim))
            candidate += scratch_h
            _fused_gru_update_(hidden, update, candidate, scratch_h)
            current = hidden
        if prediction_out is not None:
            rows = self.num_nodes * current.shape[1]
            np.matmul(
                current.reshape(rows, hidden_dim),
                cells[-1].projection,
                out=prediction_out.reshape(rows, cells[-1].output_dim),
            )

    def _precompute_encoder_inputs(self, history: np.ndarray) -> np.ndarray:
        """Diffuse and hop-stack the input states of every encoder step.

        ``history`` arrives node-major ``(T, N, B, C)``; the ``J - 1``
        aggregation hops run as one batched BLAS call per hop over the whole
        history instead of ``T`` per-step ones.  Returns per-step x-stacks
        ``(T, N, B, hops·C + 1)`` (trailing ones channel for the folded
        biases) — memory stays at input scale, so the precompute never
        dominates the workspace even for large batches.
        """
        steps, n, batch, channels = history.shape
        states = np.empty((self.hops, steps, n, batch, channels), self.dtype)
        states[0] = history
        self._diffuse_batched(states)
        stacks = np.empty((steps, n, batch, self.hops * channels + 1), self.dtype)
        for j in range(self.hops):
            stacks[..., j * channels : (j + 1) * channels] = states[j]
        stacks[..., -1] = 1.0
        return stacks

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
        if num_nodes != self.num_nodes:
            raise ValueError(
                f"history has {num_nodes} nodes, frozen graph has {self.num_nodes}"
            )
        if channels != self.encoder[0].input_dim:
            raise ValueError(
                f"history has {channels} channels, encoder expects "
                f"{self.encoder[0].input_dim}"
            )
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

            # Node-major view of the request: (T, N, B, C).
            history_nm = np.ascontiguousarray(history.transpose(1, 2, 0, 3))
            input_stacks = self._precompute_encoder_inputs(history_nm)
            for h_states in ws.h_states:
                h_states[0][...] = 0.0
            for t in range(steps):
                self._step(self.encoder, ws, None, input_stacks[t], None)

            np.copyto(ws.decoder_input, history_nm[-1, :, :, : self.output_dim])
            current_input: np.ndarray = ws.decoder_input
            feedback = slice(self._feedback_start, self._feedback_start + self.output_dim)
            for step in range(self.horizon):
                self._step(self.decoder, ws, current_input, None, ws.predictions[step])
                # Quantile heads feed only the median columns back (a view —
                # the x-stack fill copies from it anyway).
                current_input = ws.predictions[step][..., feedback]
            # Back to batch-major (B, horizon, N, output_dim); always a copy
            # so the caller never aliases the reused workspace
            # (ascontiguousarray would skip the copy for singleton
            # batch/output axes).
            return ws.predictions.transpose(2, 0, 1, 3).copy()
