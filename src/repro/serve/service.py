"""The :class:`ForecastService`: checkpoint-to-prediction serving runtime."""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.core.config import SAGDFNConfig
from repro.core.model import SAGDFN
from repro.core.serving_kernel import FrozenRecurrenceKernel
from repro.data.scalers import StandardScaler
from repro.tensor import no_grad
from repro.utils.checkpoint import load_bundle, rehydrate_model, rehydrate_scaler


def request_shapes(config: SAGDFNConfig) -> tuple[tuple, tuple]:
    """The ``(h, N, C)`` window and ``(f, N, output_dim·Q)`` prediction of one request."""
    return (
        (config.history, config.num_nodes, config.encoder_input_width),
        (config.horizon, config.num_nodes, config.output_dim * config.num_quantiles),
    )


@dataclass
class FrozenGraph:
    """Graph artefacts cached once at service start-up.

    Attributes
    ----------
    adjacency:
        The slim ``(N, M)`` adjacency ``A_s`` (or a dense ``(N, N)`` support
        for predefined-graph models), as produced by SNS + sparse attention.
    index_set:
        The frozen significant-neighbour indices ``I`` (``None`` for dense
        supports).
    degree_scale:
        The ``(N, 1)`` degree normalisation ``(D + I)^{-1}`` of Eq. 9.
    """

    adjacency: np.ndarray
    index_set: np.ndarray | None
    degree_scale: np.ndarray

    @classmethod
    def from_model(cls, model: SAGDFN) -> "FrozenGraph":
        """Run SNS + attention once on ``model`` and capture the artefacts."""
        with no_grad():
            adjacency = model.slim_adjacency().data
        index_set = None
        if not model.config.use_predefined_graph:
            index_set = np.asarray(model.index_set, dtype=np.int64)
        degree_scale = 1.0 / (adjacency.sum(axis=-1, keepdims=True) + 1.0)
        return cls(
            adjacency=adjacency,
            index_set=index_set,
            degree_scale=degree_scale.astype(adjacency.dtype, copy=False),
        )


@dataclass
class _ServingState:
    """One generation of frozen serving artefacts, swapped as a unit.

    Everything :meth:`ForecastService.predict` needs lives in this holder
    so a drift-triggered hot swap is a single attribute store (atomic under
    the GIL): in-flight requests that already read the holder finish on the
    old kernel — drained, never interrupted — while new requests pick up the
    fresh generation.
    """

    frozen: FrozenGraph
    kernel: FrozenRecurrenceKernel
    generation: int


class ForecastService:
    """Serve forecast requests from a trained SAGDFN at high throughput.

    The slim adjacency, index set and degree scales are computed once in
    ``__init__`` (the frozen graph a converged SAGDFN serves from) and every
    :meth:`predict` call runs only the Eq. 9–10 recurrence through the
    no-grad :class:`~repro.core.serving_kernel.FrozenRecurrenceKernel` — no
    re-sampling, no attention, no gradient tape.  Its output matches the
    autograd forecaster over the same frozen graph to ≤ 1e-10 relative in
    float64 (BLAS summation-order noise; ~1e-7 in float32).

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.model.SAGDFN`; any other model raises
        ``TypeError``.
    scaler:
        The fitted target scaler; predictions are returned in original
        units (``prediction * std + mean``), matching ``Trainer.evaluate``.
    chunk_size / memory_budget_mb:
        Large-``N`` memory knobs applied to the model's SNS sampler and
        attention *before* the graph is frozen, overriding whatever the
        checkpoint was trained with — serving hardware rarely matches
        training hardware.  The chunked SNS/attention paths are
        bit-identical to the unchunked ones, so the frozen graph never
        changes.  The serving kernel needs no block size: its preallocated
        workspace is already bounded by ``O(B·N·J·hidden)``.  ``None``
        leaves the model's own setting untouched.  Like ``model.eval()`` and
        the graph freeze, the override mutates the passed model **in
        place** — the service takes ownership; do not keep training (or
        build differently-tuned services) over the same instance.
    """

    def __init__(
        self,
        model: SAGDFN,
        scaler: StandardScaler | None = None,
        chunk_size: int | None = None,
        memory_budget_mb: float | None = None,
    ):
        if not isinstance(model, SAGDFN):
            raise TypeError(
                f"ForecastService serves SAGDFN models, got {type(model).__name__}"
            )
        self.model = model
        self.scaler = scaler
        self._apply_memory_knobs(model, chunk_size, memory_budget_mb)
        self.config = asdict(model.config)
        self.quantiles = model.config.quantiles
        self.mask_input = bool(model.config.mask_input)
        self.window_shape, self.prediction_shape = request_shapes(model.config)
        # The width MicroBatcher validates at submit time, mask channel included.
        self.expected_channels = self.window_shape[-1]
        model.eval()

        self._pinned_batches: set[int] = set()
        if model.index_set is None and not model.config.use_predefined_graph:
            # No converged index set came with the model/bundle (a
            # predefined-graph model has none by design).  Sample one
            # as if training had converged (explore=False) so the frozen
            # graph is at least deterministic, and say so loudly.
            from repro.utils.logging import get_logger

            get_logger("repro.serve").warning(
                "model has no frozen significant-neighbour index set; "
                "sampling one at load time — serve a converged checkpoint "
                "for the paper's frozen-graph regime"
            )
            model.refresh_graph(iteration=model.config.convergence_iteration)
        self._state = self._freeze_state(generation=0)
        self.num_requests = 0
        # predict() runs concurrently under the multi-threaded/async front
        # door; the read-modify-write counter increment must not race.
        self._counter_lock = threading.Lock()
        # Serialises swap_index_set callers; predict() never takes it — the
        # hot path only ever reads the (atomically replaced) state holder.
        self._swap_lock = threading.Lock()

    def _freeze_state(self, generation: int) -> _ServingState:
        """Run the cold-load freeze path and package it as one generation.

        Both ``__init__`` and :meth:`swap_index_set` come through here, so a
        hot-swapped generation is built by *exactly* the code a cold start
        runs — the bit-parity guarantee between the two is structural, not
        coincidental.
        """
        frozen = FrozenGraph.from_model(self.model)
        kernel = FrozenRecurrenceKernel(
            self.model.forecaster, frozen.adjacency, frozen.index_set, frozen.degree_scale
        )
        for batch in sorted(self._pinned_batches):
            kernel.pin_workspace(batch)
        return _ServingState(frozen=frozen, kernel=kernel, generation=generation)

    # ------------------------------------------------------------------ #
    # Generation state (read-only views of the current holder)
    # ------------------------------------------------------------------ #
    @property
    def frozen(self) -> FrozenGraph:
        """The current generation's frozen graph."""
        return self._state.frozen

    @property
    def generation(self) -> int:
        """Monotonic counter bumped by every :meth:`swap_index_set`."""
        return self._state.generation

    def swap_index_set(self, index_set: np.ndarray) -> int:
        """Hot-swap the frozen graph to ``index_set``; returns the new generation.

        Re-runs the cold-load freeze path (slim adjacency over the model's
        node embeddings restricted to ``index_set``, degree scales, and a
        fresh :class:`~repro.core.serving_kernel.FrozenRecurrenceKernel`
        that snapshots the cells' hop weights) and
        publishes the result as one atomic state swap.  The output of the
        new generation is bit-identical to a cold-started service loaded
        with the same index set.  In-flight :meth:`predict` calls that
        already picked up the old generation complete on it undisturbed;
        the old kernel is garbage-collected once they drain.
        """
        index_set = np.asarray(index_set, dtype=np.int64).ravel()
        num_nodes = self.model.config.num_nodes
        if index_set.min() < 0 or index_set.max() >= num_nodes:
            raise ValueError(
                f"index_set entries must lie in [0, {num_nodes}), "
                f"got range [{index_set.min()}, {index_set.max()}]"
            )
        if np.unique(index_set).size != index_set.size:
            raise ValueError("index_set must not contain duplicate node ids")
        with self._swap_lock:
            self.model._index_set = index_set
            self._state = self._freeze_state(generation=self._state.generation + 1)
            return self._state.generation

    @property
    def index_set(self) -> np.ndarray | None:
        """The current generation's frozen index set (``None`` for dense supports)."""
        return self._state.frozen.index_set

    def pin_batch_size(self, batch: int) -> None:
        """Preallocate and pin the serving-kernel workspace for ``batch``.

        Cluster workers call this once at start-up with their micro-batcher's
        ``max_batch`` so the steady-state batch size neither pays first-
        request allocation nor is ever evicted by the workspace LRU.  Pins
        are remembered across drift hot-swaps: every generation's fresh
        kernel re-pins the same batch sizes.
        """
        self._pinned_batches.add(int(batch))
        self._state.kernel.pin_workspace(batch)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _apply_memory_knobs(
        model: SAGDFN, chunk_size: int | None, memory_budget_mb: float | None
    ) -> None:
        """Override the sampler's and attention's large-N chunking knobs.

        A budget-only override clears any ``chunk_size`` the checkpoint was
        trained with — ``chunk_size`` takes precedence inside the modules, so
        leaving it set would silently ignore the requested budget.  Invalid
        values are rejected before any module is touched, with the modules'
        own messages.
        """
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 (or None)")
        if memory_budget_mb is not None and memory_budget_mb <= 0:
            raise ValueError("memory_budget_mb must be positive (or None)")
        if chunk_size is None and memory_budget_mb is None:
            return
        for target in (model.sampler, model.attention):
            if chunk_size is not None:
                target.chunk_size = chunk_size
                if memory_budget_mb is not None:
                    target.memory_budget_mb = memory_budget_mb
            else:
                target.chunk_size = None
                target.memory_budget_mb = memory_budget_mb

    @classmethod
    def from_checkpoint(
        cls,
        path: str | Path,
        chunk_size: int | None = None,
        memory_budget_mb: float | None = None,
    ) -> "ForecastService":
        """Rehydrate a service from a serving bundle written by ``save_bundle``.

        The bundle alone is enough: model config, parameters, scaler
        statistics and the SNS sampler state all come out of the archive.
        ``chunk_size`` / ``memory_budget_mb`` override the bundled model's
        large-N memory knobs for this host (see :class:`ForecastService`).
        """
        return cls.from_bundle(load_bundle(path), chunk_size, memory_budget_mb)

    @classmethod
    def from_bundle(cls, bundle, chunk_size: int | None = None,
                    memory_budget_mb: float | None = None) -> "ForecastService":
        """Build a service from a bundle already returned by ``load_bundle``."""
        return cls(cls._build_model(bundle), scaler=rehydrate_scaler(bundle),
                   chunk_size=chunk_size, memory_budget_mb=memory_budget_mb)

    # The rehydration lives in repro.utils.checkpoint so cluster workers can
    # rebuild a forecaster without importing the service first.
    _build_model = staticmethod(rehydrate_model)

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def predict(self, history: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Forecast a batch of normalised histories ``(B, h, N, C)``.

        Returns predictions of shape ``(B, f, N, 1)`` in original units
        (inverse-transformed with the bundled scaler) — or ``(B, f, N, Q)``
        for a quantile-head model, one column per level of
        ``self.quantiles``.  ``mask`` optionally supplies the observation
        mask ``(B, h, N)`` of a mask-aware model (1 = observed); it is
        appended as the trailing input channel, exactly as the training data
        layer does.  A mask-aware request may equally arrive with the mask
        already in ``history``'s last channel, in which case ``mask`` must
        be omitted.
        """
        history = np.asarray(history)
        if history.ndim != 4:
            raise ValueError(
                f"history must be (batch, steps, nodes, channels), got shape {history.shape}"
            )
        if history.shape[1] == 0:
            raise ValueError(f"history has no time steps, got shape {history.shape}")
        if mask is not None:
            if not self.mask_input:
                raise ValueError("model was not trained with mask_input; drop the mask")
            mask = np.asarray(mask)
            if mask.shape != history.shape[:3]:
                raise ValueError(
                    f"mask must be (batch, steps, nodes) = {history.shape[:3]}, "
                    f"got {mask.shape}"
                )
            history = np.concatenate(
                [history, mask[..., None].astype(history.dtype, copy=False)], axis=-1
            )
        # One holder read: a concurrent swap_index_set publishes a complete
        # new generation, so this request runs entirely on one generation.
        # The kernel returns a fresh array, so un-scaling may work in place;
        # the statistics are cast to its dtype first, as Tensor arithmetic does.
        output = self._state.kernel(history)
        if self.scaler is not None:
            output *= output.dtype.type(self.scaler.std_)
            output += output.dtype.type(self.scaler.mean_)
        with self._counter_lock:
            self.num_requests += history.shape[0]
        return output

    def predict_one(self, window: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Forecast a single history window ``(h, N, C)`` → ``(f, N, ·)``."""
        window = np.asarray(window)
        if window.ndim != 3:
            raise ValueError(f"window must be (steps, nodes, channels), got {window.shape}")
        if mask is not None:
            mask = np.asarray(mask)[None]
        return self.predict(window[None], mask=mask)[0]

    def evaluate(self, loader, null_value: float | None = 0.0) -> dict[str, float]:
        """Streaming masked metrics of the served model over ``loader``.

        Uses the same :class:`~repro.evaluation.streaming.StreamingMetrics`
        accumulator as ``Trainer.evaluate`` — quantile heads included —
        but through the frozen-graph forward; memory stays bounded by one
        batch.
        """
        from repro.evaluation.streaming import StreamingMetrics

        stream = StreamingMetrics(null_value=null_value, quantiles=self.quantiles)
        for batch_x, batch_y in loader:
            stream.update(self.predict(batch_x), batch_y)
        return stream.compute()
