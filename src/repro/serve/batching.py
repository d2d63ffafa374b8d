"""Micro-batching admission queue for the forecast service.

Concurrent clients each submit a single history window into one
:class:`AdmissionQueue`; consumers take batches of up to ``max_batch``
requests (waiting at most ``max_wait_ms`` for stragglers after the first)
and resolve them with **one** batched forward, which amortises the
per-call graph-convolution overhead.  :class:`MicroBatcher` is the queue
plus one consumer thread over a ``predict_fn``;
:class:`~repro.serve.ServingCluster` runs one puller per worker process
over the same queue.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np


class Overloaded(RuntimeError):
    """Raised at submit time when the pending queue is at its watermark.

    Typed rejection is admission control: under overload the server sheds
    new work immediately instead of queueing it unboundedly and serving it
    long after its deadline.  Callers can catch this and retry later or
    surface it.
    """


class DeadlineExceeded(RuntimeError):
    """Set on a future whose request expired before its batch ran.

    The take step sheds expired requests *before* the kernel forward, so a
    deadline miss costs a queue pop, never a wasted inference.
    """


@dataclass
class BatchStats:
    """Running counters of a queue's consumers (O(1) memory, server-lifetime safe).

    Batches whose forward raised are counted too (in ``num_batches`` /
    ``num_requests`` as well as ``num_failed_batches``), so the counters
    reflect every batch a consumer actually formed, not just the lucky ones.

    :meth:`record` is lock-guarded: the counters are fed from consumer
    threads (one per worker in the serving cluster) but read from arbitrary
    threads, and the read-modify-write increments would otherwise race and
    undercount.
    """

    num_requests: int = 0
    num_batches: int = 0
    max_batch_size: int = 0
    num_failed_batches: int = 0
    num_expired: int = 0
    num_rejected: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, batch_size: int, failed: bool = False) -> None:
        with self._lock:
            self.num_requests += batch_size
            self.num_batches += 1
            if batch_size > self.max_batch_size:
                self.max_batch_size = batch_size
            if failed:
                self.num_failed_batches += 1

    def record_expired(self, count: int = 1) -> None:
        """Count requests shed at their deadline before reaching the kernel."""
        with self._lock:
            self.num_expired += count

    def record_rejected(self, count: int = 1) -> None:
        """Count requests rejected at the pending-queue watermark."""
        with self._lock:
            self.num_rejected += count

    @property
    def mean_batch_size(self) -> float:
        return self.num_requests / self.num_batches if self.num_batches else 0.0


class Request(NamedTuple):
    """One admitted window, its client's future and its absolute deadline."""

    window: np.ndarray
    future: Future
    deadline: float | None


class AdmissionQueue:
    """The request queue every consumer pulls batches from.

    Parameters
    ----------
    max_batch:
        Largest batch one take may return.
    max_wait_ms:
        How long a take waits for additional requests after the first one
        of a batch arrives.  ``0`` disables coalescing delay (batches only
        form from already-queued requests).
    expected_channels:
        Total per-window channel width the consumer expects (observation-
        mask channel *included* for mask-aware models).  When set, every
        :meth:`submit` validates the window width after any ``mask``
        concatenation — a ``(h, N, C)`` window for a mask-aware model would
        otherwise silently misread its last data channel as the mask.
        ``None`` disables the check.
    mask_input:
        Whether the consumer serves a mask-aware model, i.e. whether the
        trailing channel of each window is the observation mask.  Only
        meaningful together with ``expected_channels``; gates the ``mask``
        argument of :meth:`submit`.
    max_pending:
        Admission-control watermark: the largest number of requests that
        may wait in the queue at once.  :meth:`submit` raises
        :class:`Overloaded` beyond it instead of queueing unboundedly.
        ``None`` (the default) keeps the queue unbounded.
    """

    def __init__(
        self,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        expected_channels: int | None = None,
        mask_input: bool = False,
        max_pending: int | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if expected_channels is not None and expected_channels < 1:
            raise ValueError("expected_channels must be >= 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.expected_channels = expected_channels
        self.mask_input = bool(mask_input)
        self.max_pending = max_pending
        self.stats = BatchStats()
        self._requests: deque[Request] = deque()
        # Guards _requests and _closed.  A submission either lands before
        # close() (and a consumer, or the final fail_pending, resolves it)
        # or deterministically raises — never a Future on a dead queue.
        self._ready = threading.Condition()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #
    def _validate(self, window: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
        """Apply the mask contract and width check; returns the final window."""
        if window.ndim != 3:
            raise ValueError(
                f"window must be (steps, nodes, channels), got shape {window.shape}"
            )
        if mask is not None:
            if self.expected_channels is not None and not self.mask_input:
                raise ValueError(
                    "mask= was given but the served model was not trained "
                    "with mask_input; drop the mask"
                )
            mask = np.asarray(mask)
            if mask.shape != window.shape[:2]:
                raise ValueError(
                    f"mask must be (steps, nodes) = {window.shape[:2]}, "
                    f"got {mask.shape}"
                )
            window = np.concatenate(
                [window, mask[..., None].astype(window.dtype, copy=False)], axis=-1
            )
        if (self.expected_channels is not None
                and window.shape[-1] != self.expected_channels):
            hint = ""
            if self.mask_input and mask is None \
                    and window.shape[-1] == self.expected_channels - 1:
                hint = (
                    " — the served model is mask-aware: pass mask=(steps, nodes) "
                    "to submit(), or pre-concatenate the observation mask as "
                    "the trailing channel"
                )
            raise ValueError(
                f"window has {window.shape[-1]} channels, the served model "
                f"expects {self.expected_channels}{hint}"
            )
        return window

    @property
    def pending(self) -> int:
        """Requests admitted but not yet taken by a consumer."""
        with self._ready:
            return len(self._requests)

    def submit(self, window: np.ndarray, mask: np.ndarray | None = None,
               deadline_s: float | None = None) -> Future:
        """Enqueue one history window ``(h, N, C)``; resolves to ``(f, N, ·)``.

        ``mask`` optionally supplies the observation mask ``(h, N)`` of a
        mask-aware model (1 = observed); it is appended as the trailing
        input channel before batching, exactly as
        :meth:`ForecastService.predict` does.  A mask-aware request may
        equally arrive with the mask already concatenated, in which case
        ``mask`` must be omitted.  When the queue knows the served
        model's channel width (see ``expected_channels``), mis-shaped
        windows raise ``ValueError`` here instead of being silently
        misread by the model.

        ``deadline_s`` bounds how long the request may queue: if its batch
        has not started ``deadline_s`` seconds from now, the future fails
        with :class:`DeadlineExceeded` *without* running the kernel.

        Raises :class:`Overloaded` when ``max_pending`` requests are
        already queued, and ``RuntimeError`` once :meth:`close` has begun —
        late submissions are rejected deterministically instead of being
        dropped.
        """
        window = self._validate(np.asarray(window), mask)
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be > 0")
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        with self._ready:
            if self._closed:
                raise RuntimeError(
                    f"cannot submit to a closed {type(self).__name__}"
                )
            queued = len(self._requests)
            if self.max_pending is not None and queued >= self.max_pending:
                self.stats.record_rejected()
                raise Overloaded(
                    f"{queued} request(s) already pending "
                    f"(watermark {self.max_pending}); shedding new work"
                )
            future: Future = Future()
            self._requests.append(Request(window, future, deadline))
            self._ready.notify()
        return future

    def predict(self, window: np.ndarray, mask: np.ndarray | None = None,
                timeout: float | None = None,
                deadline_s: float | None = None) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(window, mask=mask,
                           deadline_s=deadline_s).result(timeout=timeout)

    def close(self) -> None:
        """Stop accepting requests; consumers drain what is queued, then stop."""
        with self._ready:
            self._closed = True
            self._ready.notify_all()

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #
    def _claim(self, batch: list[Request]) -> list[Request]:
        """Claim ``batch``'s futures and shed its expired requests.

        A client that cancelled while queued is skipped (set_result on a
        CANCELLED future raises); a claimed future is RUNNING and can no
        longer be cancelled — a requeued one already is.  Expired requests
        fail here, so a deadline miss never costs a kernel inference.
        """
        live, expired = [], 0
        now = time.monotonic()
        for request in batch:
            if not (request.future.running()
                    or request.future.set_running_or_notify_cancel()):
                continue
            if request.deadline is not None and now > request.deadline:
                request.future.set_exception(DeadlineExceeded(
                    "request deadline expired while queued; the batch was "
                    "shed before running the kernel"
                ))
                expired += 1
            else:
                live.append(request)
        if expired:
            self.stats.record_expired(expired)
        return live

    def take(self) -> list[Request] | None:
        """Block for the next batch of live requests; ``None`` once closed and empty.

        Waits for a first request, grows the batch until it is full or
        ``max_wait_ms`` has passed, then claims it (see :meth:`_claim`).
        """
        while True:
            with self._ready:
                while not self._requests:
                    if self._closed:
                        return None
                    self._ready.wait()
                batch = [self._requests.popleft()]
                stop_at = time.monotonic() + self.max_wait_ms / 1000.0
                while len(batch) < self.max_batch:
                    if self._requests:
                        batch.append(self._requests.popleft())
                        continue
                    remaining = stop_at - time.monotonic()
                    if remaining <= 0 or self._closed:
                        break
                    self._ready.wait(remaining)
            live = self._claim(batch)
            if live:
                return live

    def resolve(self, batch: list[Request],
                outcome: np.ndarray | BaseException) -> None:
        """Settle every future of a taken batch and record it.

        ``outcome`` is the batched forward's ``(B, f, N, ·)`` predictions
        (row ``i`` answers request ``i``) or the exception it raised, which
        every waiting client then sees.
        """
        failed = isinstance(outcome, BaseException)
        for i, request in enumerate(batch):
            if failed:
                request.future.set_exception(outcome)
            else:
                request.future.set_result(outcome[i])
        self.stats.record(len(batch), failed=failed)

    def requeue(self, batch: list[Request]) -> None:
        """Put a taken batch that never started back at the head of the queue.

        Each request keeps its original deadline, and the watermark does
        not apply: the work was already admitted.
        """
        with self._ready:
            self._requests.extendleft(reversed(batch))
            self._ready.notify_all()

    def fail_pending(self, error: BaseException) -> None:
        """Fail every queued request with ``error`` (no consumer is left)."""
        with self._ready:
            batch = list(self._requests)
            self._requests.clear()
        live = self._claim(batch)
        if live:
            self.resolve(live, error)


class MicroBatcher(AdmissionQueue):
    """Coalesce single-window forecast requests into batched forwards.

    An :class:`AdmissionQueue` with one consumer thread that runs every
    taken batch through ``predict_fn``.

    Parameters
    ----------
    predict_fn:
        Batched inference function mapping ``(B, h, N, C)`` histories to
        ``(B, f, N, 1)`` predictions — typically
        :meth:`repro.serve.ForecastService.predict`.
    max_batch / max_wait_ms / expected_channels / mask_input / max_pending:
        The queue's knobs (see :class:`AdmissionQueue`).

    Use as a context manager, or call :meth:`close` to drain and stop::

        with MicroBatcher(service.predict, max_batch=32, max_wait_ms=2) as mb:
            futures = [mb.submit(w) for w in windows]
            results = [f.result() for f in futures]

    :meth:`for_service` wires ``expected_channels`` / ``mask_input``
    straight from a :class:`~repro.serve.service.ForecastService`.
    """

    def __init__(
        self,
        predict_fn: Callable[[np.ndarray], np.ndarray],
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        expected_channels: int | None = None,
        mask_input: bool = False,
        max_pending: int | None = None,
    ):
        super().__init__(max_batch, max_wait_ms, expected_channels,
                         mask_input, max_pending)
        self.predict_fn = predict_fn
        self._worker = threading.Thread(target=self._run, name="microbatcher", daemon=True)
        self._worker.start()

    @classmethod
    def for_service(cls, service, **kwargs) -> "MicroBatcher":
        """A batcher over ``service.predict`` with the scenario contract wired.

        Reads the expected window width (mask channel included) and the
        mask-awareness flag off the
        :class:`~repro.serve.service.ForecastService`, so mis-shaped windows
        are rejected at submit time instead of being silently misread.
        """
        return cls(
            service.predict,
            expected_channels=getattr(service, "expected_channels", None),
            mask_input=getattr(service, "mask_input", False),
            **kwargs,
        )

    def close(self) -> None:
        """Stop accepting requests, drain the queue and join the worker.

        Safe to call from several threads: every caller joins the worker, so
        no close() returns while the drain is still mutating stats.
        """
        super().close()
        self._worker.join()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run(self) -> None:
        while (batch := self.take()) is not None:
            try:
                outcome = self.predict_fn(
                    np.stack([request.window for request in batch])
                )
            except Exception as error:  # propagate to every waiting client
                outcome = error
            self.resolve(batch, outcome)
