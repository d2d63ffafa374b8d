"""Stateful online serving: sessions, incremental scalers, drift hot-swap.

The one-shot :class:`~repro.serve.ForecastService` answers requests from a
graph frozen at load time.  Real deployments see an unbounded observation
feed instead: scalers go stale and the frozen significant-neighbour index
set drifts away from the live correlation structure.  This module adds the
stateful half of the serving stack:

* :class:`StreamingSession` — a rolling per-client history ring.  Clients
  ``push`` observations in **original units**; the session normalises the
  target channel with the shared scaler, zero-imputes missing entries in
  normalised space (mean-imputation in original units — exactly what the
  training data layer does) and forecasts on demand once the window fills.
  Forecasts are scored against the observations that subsequently arrive,
  into a per-session :class:`~repro.evaluation.streaming.StreamingMetrics`.
* :class:`DriftMonitor` — re-runs
  :class:`~repro.core.sampling.SignificantNeighborsSampling` over the
  pooled recent history (each node's recent normalised trace is its
  "embedding", through the same chunked ``memory_budget_mb`` ranking path
  training uses), compares the fresh index set to the frozen one with
  :func:`~repro.core.sampling.index_set_overlap`, and hot-swaps the serving
  target (``swap_index_set``) when overlap drops below the configured
  threshold.
* :class:`SessionManager` — owns the shared scaler, the session registry
  and the drift monitor; every push feeds all three.

Both swap targets implement the same two-member protocol —
``swap_index_set(index_set) -> generation`` and ``generation`` — so a
manager drives a single-process :class:`~repro.serve.ForecastService` and a
multi-worker :class:`~repro.serve.ServingCluster` identically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.sampling import SignificantNeighborsSampling, index_set_overlap
from repro.evaluation.streaming import StreamingMetrics
from repro.serve.cluster import ServingCluster
from repro.serve.service import ForecastService
from repro.utils.checkpoint import load_bundle

_CLUSTER_SCALER_ERROR = (
    "update_scaler needs a single-process target: cluster workers un-scale "
    "forecasts with the bundle's frozen scaler statistics"
)


@dataclass
class DriftConfig:
    """Knobs of the online drift monitor (persisted in serving bundles).

    Attributes
    ----------
    overlap_threshold:
        Swap when ``index_set_overlap(frozen, fresh) < threshold``.  ``0``
        never swaps; a value ``> 1`` swaps on every eligible check (the
        forced-drift setting used by smoke tests).
    min_history:
        Pooled timesteps required before a drift check may run at all —
        re-sampling over a few rows would compare noise to the frozen set.
    check_every:
        Observed timesteps between automatic checks
        (:meth:`DriftMonitor.maybe_check`).
    cooldown:
        Observed timesteps after a swap during which further checks may
        measure but not swap — lets the history window refill with
        post-swap data before the next decision.
    history_window:
        Length of the pooled recent-history ring the re-sampling runs over.
    memory_budget_mb:
        Scratch budget handed to the re-sampling SNS ranking (the chunked
        large-``N`` path); ``None`` uses the single full-``N`` block.
    """

    overlap_threshold: float = 0.5
    min_history: int = 64
    check_every: int = 32
    cooldown: int = 64
    history_window: int = 256
    memory_budget_mb: float | None = None

    def __post_init__(self) -> None:
        if self.overlap_threshold < 0.0:
            raise ValueError("overlap_threshold must be >= 0")
        for name in ("min_history", "check_every", "history_window"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        if self.history_window < self.min_history:
            raise ValueError("history_window must be >= min_history")


@dataclass
class DriftReport:
    """Outcome of one :meth:`DriftMonitor.check_now` call."""

    checked: bool
    overlap: float | None
    swapped: bool
    generation: int
    timesteps: int
    threshold: float


class DriftMonitor:
    """Background re-sampling job that hot-swaps the serving graph on drift.

    Feeds each node's pooled recent normalised trace — an ``(N, T)`` matrix
    — into a dedicated :class:`SignificantNeighborsSampling` as the node
    "embeddings" (``explore=False``, so the fresh index set is
    deterministic for a given history), measures the overlap against the
    currently frozen set, and calls ``target.swap_index_set(fresh)`` when
    the overlap falls below ``config.overlap_threshold``.

    ``target`` is anything with ``swap_index_set`` / ``generation`` — a
    :class:`~repro.serve.ForecastService` or a
    :class:`~repro.serve.ServingCluster`.  Checks run synchronously from
    :meth:`maybe_check` / :meth:`check_now`, or from the optional
    :meth:`start` background thread.
    """

    def __init__(
        self,
        target,
        sampler: SignificantNeighborsSampling,
        frozen_index_set: np.ndarray,
        config: DriftConfig | None = None,
    ):
        self.target = target
        self.sampler = sampler
        self.frozen_index_set = np.asarray(frozen_index_set, dtype=np.int64).copy()
        self.config = config or DriftConfig()
        self.num_checks = 0
        self.num_swaps = 0
        self.last_report: DriftReport | None = None
        num_nodes = sampler.num_nodes
        self._history = np.zeros((self.config.history_window, num_nodes), dtype=np.float64)
        self._rows_seen = 0
        self._since_check = 0
        # A fresh monitor may swap on its very first eligible check.
        self._since_swap = self.config.cooldown
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    @classmethod
    def from_model_config(
        cls, target, model_config: dict, frozen_index_set: np.ndarray,
        config: DriftConfig | None = None,
    ) -> "DriftMonitor":
        """Build the re-sampling SNS from a bundle/model config dict."""
        config = config or DriftConfig()
        sampler = SignificantNeighborsSampling(
            num_nodes=int(model_config["num_nodes"]),
            num_significant=int(model_config["num_significant"]),
            top_k=int(model_config["top_k"]),
            seed=int(model_config.get("seed", 0) or 0),
            memory_budget_mb=config.memory_budget_mb,
        )
        return cls(target, sampler, frozen_index_set, config=config)

    # ------------------------------------------------------------------ #
    # Feed + checks
    # ------------------------------------------------------------------ #
    def observe(self, values: np.ndarray) -> None:
        """Append ``(T, N)`` normalised (and imputed) rows to the pooled ring."""
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if values.shape[1] != self._history.shape[1]:
            raise ValueError(
                f"expected rows of {self._history.shape[1]} nodes, got {values.shape[1]}"
            )
        window = self._history.shape[0]
        with self._lock:
            for row in values[-window:]:
                self._history[self._rows_seen % window] = row
                self._rows_seen += 1
            steps = values.shape[0]
            self._since_check += steps
            self._since_swap += steps

    def maybe_check(self) -> DriftReport | None:
        """Run :meth:`check_now` when ``check_every`` timesteps have passed."""
        with self._lock:
            due = self._since_check >= self.config.check_every
        return self.check_now() if due else None

    def _snapshot(self) -> np.ndarray:
        window = self._history.shape[0]
        if self._rows_seen < window:
            return self._history[: self._rows_seen].copy()
        pos = self._rows_seen % window
        return np.concatenate([self._history[pos:], self._history[:pos]])

    def check_now(self) -> DriftReport:
        """Re-sample over recent history; swap the target if drift crossed.

        Measuring is always allowed once ``min_history`` rows pooled; the
        swap itself additionally honours the post-swap ``cooldown``.
        """
        config = self.config
        with self._lock:
            timesteps = min(self._rows_seen, self._history.shape[0])
            if timesteps < config.min_history:
                report = DriftReport(
                    checked=False, overlap=None, swapped=False,
                    generation=int(self.target.generation),
                    timesteps=timesteps, threshold=config.overlap_threshold,
                )
                self.last_report = report
                return report
            features = self._snapshot().T  # (N, T): one recent trace per node
            self._since_check = 0
            may_swap = self._since_swap >= config.cooldown
        fresh = np.asarray(self.sampler.sample(features, explore=False), dtype=np.int64)
        overlap = index_set_overlap(self.frozen_index_set, fresh)
        swapped = False
        if overlap < config.overlap_threshold and may_swap:
            generation = int(self.target.swap_index_set(fresh))
            swapped = True
            with self._lock:
                self.frozen_index_set = fresh.copy()
                self._since_swap = 0
        else:
            generation = int(self.target.generation)
        report = DriftReport(
            checked=True, overlap=overlap, swapped=swapped,
            generation=generation, timesteps=timesteps,
            threshold=config.overlap_threshold,
        )
        with self._lock:
            self.num_checks += 1
            self.num_swaps += int(swapped)
            self.last_report = report
        return report

    # ------------------------------------------------------------------ #
    # Optional background job
    # ------------------------------------------------------------------ #
    def start(self, interval_s: float = 1.0) -> None:
        """Run :meth:`check_now` every ``interval_s`` on a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("drift monitor already started")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval_s):
                self.check_now()

        self._thread = threading.Thread(target=loop, name="drift-monitor", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop the background thread (no-op when not started)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None


class StreamingSession:
    """A rolling per-client observation window over one serving target.

    Clients push observations in original units; :meth:`forecast` assembles
    the normalised ``(history, N, C)`` window the model expects.  Every
    forecast is held as *pending* and scored against the next ``horizon``
    pushed observations into :attr:`metrics`, so live accuracy is available
    without a separate evaluation pass.
    """

    def __init__(
        self,
        predict_fn,
        history: int,
        horizon: int,
        num_nodes: int,
        width: int,
        scaler=None,
        mask_input: bool = False,
        quantiles: tuple[float, ...] | None = None,
        null_value: float | None = 0.0,
    ):
        if width < 1:
            raise ValueError("width must cover at least the target channel")
        self._predict = predict_fn
        self.history = int(history)
        self.horizon = int(horizon)
        self.num_nodes = int(num_nodes)
        self.width = int(width)  # channels excluding the appended mask
        self.scaler = scaler
        self.mask_input = bool(mask_input)
        self.null_value = null_value
        self._values = np.zeros((self.history, self.num_nodes, self.width), dtype=np.float64)
        self._mask = (
            np.ones((self.history, self.num_nodes), dtype=np.float64)
            if self.mask_input
            else None
        )
        self._rows_seen = 0
        self._pending: list[list] = []  # [forecast (f, N, ·), [actual rows (N,)]]
        self.metrics = StreamingMetrics(null_value=null_value, quantiles=quantiles)
        self.num_forecasts = 0
        self._lock = threading.Lock()

    @property
    def ready(self) -> bool:
        """Whether the history ring has filled once."""
        return self._rows_seen >= self.history

    @property
    def rows_seen(self) -> int:
        return self._rows_seen

    def push(
        self,
        values: np.ndarray,
        covariates: np.ndarray | None = None,
        mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fold ``(T, N)`` raw observations into the ring.

        ``covariates`` supplies the ``width - 1`` non-target channels
        (time-of-day encodings, declared exogenous inputs) as
        ``(T, N, width - 1)``; required when the model consumes them.
        ``mask`` (``(T, N)``, nonzero = observed) is only accepted for
        mask-aware models; unobserved entries are zero-imputed in
        normalised space, exactly like the training data layer.  Returns
        the normalised (imputed) target rows — the drift monitor's feed.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[None]
        if values.ndim != 2 or values.shape[1] != self.num_nodes:
            raise ValueError(
                f"values must be (steps, {self.num_nodes}), got shape {values.shape}"
            )
        steps = values.shape[0]
        if self.width > 1:
            if covariates is None:
                raise ValueError(
                    f"model consumes {self.width - 1} covariate channels; "
                    "pass covariates=(steps, nodes, channels)"
                )
            covariates = np.asarray(covariates, dtype=np.float64)
            if covariates.shape != (steps, self.num_nodes, self.width - 1):
                raise ValueError(
                    f"covariates must be {(steps, self.num_nodes, self.width - 1)}, "
                    f"got {covariates.shape}"
                )
        elif covariates is not None:
            raise ValueError("model consumes no covariate channels; drop covariates")
        if mask is not None:
            if not self.mask_input:
                raise ValueError("model was not trained with mask_input; drop the mask")
            mask = np.asarray(mask)
            if mask.shape != (steps, self.num_nodes):
                raise ValueError(
                    f"mask must be (steps, nodes) = {(steps, self.num_nodes)}, "
                    f"got {mask.shape}"
                )
        elif self.mask_input:
            mask = np.ones((steps, self.num_nodes))

        normalised = (
            np.asarray(self.scaler.transform(values), dtype=np.float64)
            if self.scaler is not None
            else values
        )
        if mask is not None:
            # Zero in normalised space is the training mean — the imputation
            # convention of the training loader for masked entries.
            normalised = np.where(mask != 0, normalised, 0.0)

        with self._lock:
            for step in range(steps):
                row = self._rows_seen % self.history
                self._values[row, :, 0] = normalised[step]
                if self.width > 1:
                    self._values[row, :, 1:] = covariates[step]
                if self._mask is not None:
                    self._mask[row] = mask[step] != 0
                self._rows_seen += 1
            self._score_pending(values, mask)
        return normalised

    def _score_pending(self, values: np.ndarray, mask: np.ndarray | None) -> None:
        """Feed raw rows to pending forecasts; score the ones that complete."""
        if self.null_value is not None and mask is not None:
            values = np.where(mask != 0, values, self.null_value)
        done = []
        for entry in self._pending:
            forecast, actual_rows = entry
            for row in values:
                if len(actual_rows) < self.horizon:
                    actual_rows.append(row)
            if len(actual_rows) >= self.horizon:
                done.append(entry)
        for entry in done:
            forecast, actual_rows = entry
            actual = np.stack(actual_rows)[..., None]  # (f, N, 1)
            self.metrics.update(forecast[None], actual[None])
            self._pending.remove(entry)

    def window(self) -> np.ndarray:
        """The assembled ``(history, N, width)`` normalised window, oldest first."""
        with self._lock:
            if not self.ready:
                raise RuntimeError(
                    f"session history not yet full ({self._rows_seen} of "
                    f"{self.history} rows pushed)"
                )
            pos = self._rows_seen % self.history
            return np.concatenate([self._values[pos:], self._values[:pos]])

    def mask_window(self) -> np.ndarray | None:
        """The ``(history, N)`` observation mask aligned with :meth:`window`."""
        if self._mask is None:
            return None
        with self._lock:
            pos = self._rows_seen % self.history
            return np.concatenate([self._mask[pos:], self._mask[:pos]])

    def forecast(self) -> np.ndarray:
        """Forecast ``(horizon, N, ·)`` in original units from the current ring.

        Raises ``RuntimeError`` until ``history`` rows have been pushed.
        The forecast is also queued for scoring against the observations
        that arrive next (see :attr:`metrics`).

        Fault tolerance: the session mutates nothing until the predict
        succeeds, so a failed forward (a cluster worker dying mid-stream, a
        typed overload/deadline error) raises to the caller and leaves the
        history ring, pending-score queue and counters exactly as they
        were — the next :meth:`forecast` on the recovered pool serves the
        same window.
        """
        window = self.window()
        mask = self.mask_window()
        output = np.asarray(self._predict(window, mask))
        with self._lock:
            self._pending.append([output, []])
            self.num_forecasts += 1
        return output


class SessionManager:
    """Session registry + shared scaler + drift monitor over one target.

    Parameters
    ----------
    target:
        A :class:`~repro.serve.ForecastService` or
        :class:`~repro.serve.ServingCluster`.  The manager reads the model
        config, the scaler sessions normalise through, the request shapes
        and the frozen index set off it.
    drift:
        A :class:`DriftConfig` (or its dict form, e.g. from a bundle's
        ``drift`` record) enabling the drift monitor; ``None`` disables it.
    update_scaler:
        When ``True``, every push also ``partial_fit``\\ s the target's
        scaler (mask-aware), so normalisation tracks the live feed.  Off by
        default: a moving scaler trades bit-reproducibility for freshness.
        Single-process only: a :class:`~repro.serve.ServingCluster`'s
        workers un-scale with the bundle's statistics, so a cluster target
        raises ``ValueError``.
    null_value:
        Missing-value convention of the live accuracy metrics.
    max_sessions:
        Session-registry capacity.  Beyond it the least-recently-used
        session is evicted (its metrics are merged into the manager's
        evicted accumulator first, so :meth:`metrics` never loses scored
        forecasts).  ``None`` keeps the registry unbounded — an endless
        stream of one-shot clients will then grow RSS forever.
    session_ttl_s:
        Idle time after which a session is evicted on the next registry
        access (same metrics-preserving drop).  ``None`` disables the TTL.
    clock:
        Monotonic time source for TTL/LRU bookkeeping (injectable for
        deterministic tests).
    """

    def __init__(
        self,
        target,
        drift: DriftConfig | dict | None = None,
        update_scaler: bool = False,
        null_value: float | None = 0.0,
        max_sessions: int | None = None,
        session_ttl_s: float | None = None,
        clock=time.monotonic,
    ):
        if max_sessions is not None and max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if session_ttl_s is not None and session_ttl_s <= 0:
            raise ValueError("session_ttl_s must be > 0")
        if update_scaler and isinstance(target, ServingCluster):
            raise ValueError(_CLUSTER_SCALER_ERROR)
        self.target = target
        # Both forecast one (h, N, C) window: the cluster through predict.
        self._predict_window = (
            target.predict if isinstance(target, ServingCluster) else target.predict_one
        )
        self.config = dict(target.config)
        self.scaler = target.scaler
        self.update_scaler = bool(update_scaler)
        self.null_value = null_value
        self.history, self.num_nodes, channels = target.window_shape
        self.horizon = target.prediction_shape[0]
        self.mask_input = bool(target.mask_input)
        # Sessions push every window channel except the mask, which they track.
        self.width = channels - int(self.mask_input)
        quantiles = self.config.get("quantiles")
        self.quantiles = None if quantiles is None else tuple(float(q) for q in quantiles)
        if isinstance(drift, dict):
            drift = DriftConfig(**drift)
        self.monitor: DriftMonitor | None = None
        if drift is not None:
            if target.index_set is None:
                raise ValueError(
                    "drift monitoring requires a frozen-graph target with an "
                    "index set to compare against"
                )
            self.monitor = DriftMonitor.from_model_config(
                target, self.config, target.index_set, config=drift
            )
        # Insertion order doubles as the LRU order: a touched session is
        # re-inserted at the end, so the first key is always the coldest.
        self._sessions: dict[str, StreamingSession] = {}
        self._last_used: dict[str, float] = {}
        self._lock = threading.Lock()
        self.max_sessions = max_sessions
        self.session_ttl_s = session_ttl_s
        self._clock = clock
        self.num_evicted = 0
        self._evicted_metrics = StreamingMetrics(
            null_value=null_value, quantiles=self.quantiles
        )

    @classmethod
    def from_checkpoint(
        cls,
        path,
        workers: int = 0,
        drift: DriftConfig | dict | None = None,
        update_scaler: bool = False,
        null_value: float | None = 0.0,
        max_sessions: int | None = None,
        session_ttl_s: float | None = None,
        **target_kwargs,
    ) -> "SessionManager":
        """Build a manager (and its target) from one read of a serving bundle.

        ``workers == 0`` serves through a single-process
        :class:`~repro.serve.ForecastService`; ``workers >= 1`` through a
        :class:`~repro.serve.ServingCluster`, which refuses
        ``update_scaler`` before any worker spawns.  The monitor starts from
        the bundle's recorded ``drift`` record: a dict overrides only the
        keys it names, a :class:`DriftConfig` replaces the record, and no
        record and no ``drift`` disable monitoring.
        """
        if workers:
            if update_scaler:
                raise ValueError(_CLUSTER_SCALER_ERROR)
            target = ServingCluster(path, workers=workers, **target_kwargs)
            recorded = target.drift
        else:
            bundle = load_bundle(path)
            target = ForecastService.from_bundle(bundle, **target_kwargs)
            recorded = bundle.drift
        if not isinstance(drift, DriftConfig):
            drift = {**(recorded or {}), **(drift or {})} or None
        return cls(
            target,
            drift=drift,
            update_scaler=update_scaler,
            null_value=null_value,
            max_sessions=max_sessions,
            session_ttl_s=session_ttl_s,
        )

    # ------------------------------------------------------------------ #
    # Session plumbing
    # ------------------------------------------------------------------ #
    def _evict_locked(self, client_id: str) -> None:
        """Drop one session, merging its scored metrics first (lock held)."""
        session = self._sessions.pop(client_id)
        self._last_used.pop(client_id, None)
        self._evicted_metrics.merge(session.metrics)
        self.num_evicted += 1

    def _sweep_locked(self, protect: str | None = None) -> None:
        """Apply TTL then LRU-capacity eviction (lock held).

        ``protect`` exempts the session being touched right now — the
        client asking for it must never have it evicted out from under
        them, even at capacity.
        """
        now = self._clock()
        if self.session_ttl_s is not None:
            expired = [
                client_id for client_id, last in self._last_used.items()
                if client_id != protect and now - last > self.session_ttl_s
            ]
            for client_id in expired:
                self._evict_locked(client_id)
        if self.max_sessions is not None:
            while len(self._sessions) > self.max_sessions:
                coldest = next(
                    (cid for cid in self._sessions if cid != protect), None
                )
                if coldest is None:
                    break
                self._evict_locked(coldest)

    def _touch_locked(self, client_id: str) -> None:
        """Mark ``client_id`` most-recently-used (lock held)."""
        session = self._sessions.pop(client_id)
        self._sessions[client_id] = session  # re-insert at the LRU tail
        self._last_used[client_id] = self._clock()

    def session(self, client_id: str) -> StreamingSession:
        """Get or lazily create the session of ``client_id``.

        Registry bounds apply here: idle sessions past ``session_ttl_s``
        are dropped, and with ``max_sessions`` reached the least-recently-
        used session makes room — both merge the evicted session's metrics
        into the manager before the drop.
        """
        with self._lock:
            session = self._sessions.get(client_id)
            if session is None:
                session = StreamingSession(
                    self._predict_window,
                    history=self.history,
                    horizon=self.horizon,
                    num_nodes=self.num_nodes,
                    width=self.width,
                    scaler=self.scaler,
                    mask_input=self.mask_input,
                    quantiles=self.quantiles,
                    null_value=self.null_value,
                )
                self._sessions[client_id] = session
            self._touch_locked(client_id)
            self._sweep_locked(protect=client_id)
            return session

    def __len__(self) -> int:
        return len(self._sessions)

    def push_observations(
        self,
        client_id: str,
        values: np.ndarray,
        covariates: np.ndarray | None = None,
        mask: np.ndarray | None = None,
    ) -> DriftReport | None:
        """Feed observations to one session, the scaler and the drift monitor.

        Returns the :class:`DriftReport` when this push triggered a due
        drift check, else ``None``.
        """
        session = self.session(client_id)
        if self.update_scaler and self.scaler is not None:
            rows = np.atleast_2d(np.asarray(values, dtype=np.float64))
            sample_mask = None if mask is None else np.asarray(mask).reshape(rows.shape)
            self.scaler.partial_fit(rows, sample_mask=sample_mask)
        normalised = session.push(values, covariates=covariates, mask=mask)
        if self.monitor is not None:
            self.monitor.observe(normalised)
            return self.monitor.maybe_check()
        return None

    def forecast(self, client_id: str) -> np.ndarray:
        """Forecast from ``client_id``'s current window (original units)."""
        with self._lock:
            session = self._sessions.get(client_id)
            if session is not None:
                self._touch_locked(client_id)
        if session is None:
            raise KeyError(f"unknown session {client_id!r}; push observations first")
        return session.forecast()

    @property
    def generation(self) -> int:
        """The target's current serving-graph generation."""
        return int(getattr(self.target, "generation", 0))

    def metrics(self) -> dict[str, float]:
        """Live accuracy over every session, evicted sessions included.

        Eviction merges a dropped session's accumulator into the manager
        before the drop, so the aggregate never loses scored forecasts.
        """
        merged = StreamingMetrics(null_value=self.null_value, quantiles=self.quantiles)
        with self._lock:
            sessions = list(self._sessions.values())
            merged.merge(self._evicted_metrics)
        for session in sessions:
            merged.merge(session.metrics)
        return merged.compute()
