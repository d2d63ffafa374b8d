"""Multi-worker serving cluster: replicated kernels behind one front door.

One :class:`~repro.serve.service.ForecastService` is bounded by one core:
the frozen-recurrence kernel saturates a single process, so heavy traffic
needs *replicas*.  :class:`ServingCluster` runs a pool of worker processes,
each rehydrating its own :class:`~repro.core.serving_kernel.FrozenRecurrenceKernel`
from the **same** checkpoint bundle (every replica is bit-identically the
same forecaster — the bundle carries config, parameters, SNS candidates and
the frozen index set), and fans requests over them:

* **Shared-memory ring buffers** — each worker owns a request ring and a
  response ring backed by :mod:`multiprocessing.shared_memory`, two slots
  of ``max_batch`` windows/predictions each.  ``(B, h, N, C)`` batches
  cross the process boundary as raw buffer copies; only a tiny
  ``(seq, slot, batch)`` header travels over the control pipe, so nothing
  is ever pickled on the hot path.  Every response carries a CRC-32 of its
  ring slot, so a corrupted copy is a typed :class:`RingCorruptionError`,
  never a silently wrong forecast.
* **One admission queue, pulled** — every submitted window lands in one
  :class:`~repro.serve.batching.AdmissionQueue`.  Each worker has a puller
  thread that takes the next micro-batch whenever its worker is live and
  idle, so dispatch follows queue depth and a request binds to a worker
  only when its batch is written into a ring slot.
* **An asyncio front door** — :meth:`submit` returns a
  :class:`concurrent.futures.Future`; :meth:`predict_async` /
  :meth:`serve_async` wrap them for ``await``-style fan-out/gather.
* **Liveness and supervision** — workers heartbeat over the control pipe
  and exit when the parent disappears; a puller detects its worker's death
  mid-batch (pipe EOF, process exit, or request timeout).  A batch the dead
  worker never started goes back to the head of the queue for any live
  puller; a batch that may have executed (a timeout) fails its futures
  with a typed :class:`ClusterError` — at-most-once.  A supervisor thread
  respawns dead workers from the bundle with exponential backoff, and a
  respawned worker catches up to the newest hot-swapped graph before its
  puller takes work again; a crash-looping worker (``max_crash_loop``
  rapid failures) is *parked* and the cluster degrades to the surviving
  pool.  Every timing of this machinery is one module constant,
  :data:`SUPERVISION`.  Queued work fails only when no puller can ever run
  again (every slot parked, or no live worker left to drain it at
  :meth:`close`), so pending futures never hang.  :meth:`health` reports
  the whole picture as a structured :class:`ClusterHealth` snapshot.
* **Admission control** — ``submit(..., deadline_s=)`` sheds requests whose
  deadline expires while queued *before* they reach a kernel, and
  ``max_pending`` bounds the queue, rejecting excess work with a typed
  :class:`~repro.serve.batching.Overloaded` error instead of queueing
  unboundedly.
* **Deterministic fault injection** — a seeded
  :class:`~repro.serve.faults.FaultPlan` schedules worker kills, stalls,
  ring corruption and slow batches at exact job ordinals, so chaos
  scenarios replay identically run after run.  The default is a no-op.

Shared-memory transport is **same-host only**: workers must run on the
machine that created the rings.  The pool replicates the full graph for
throughput; sharding a huge graph across nodes is a separate axis.

Typical use::

    with ServingCluster("bundle.npz", workers=4, max_batch=32) as cluster:
        futures = [cluster.submit(w) for w in windows]
        results = [f.result() for f in futures]

or through asyncio::

    async with_cluster():
        predictions = await cluster.serve_async(windows)
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import threading
import time
import traceback
import zlib
from concurrent.futures import Future
from dataclasses import asdict, dataclass
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from repro.core.config import SAGDFNConfig
from repro.serve.batching import AdmissionQueue, BatchStats
from repro.serve.faults import FaultInjector, FaultPlan, corrupt_ring_slot
from repro.serve.service import ForecastService, request_shapes
from repro.utils.checkpoint import load_bundle, rehydrate_scaler

# BLAS pools are capped per worker *before* the child imports numpy: a
# replica that grabs every core starves its peers and flattens the scaling
# curve the pool exists to bend.
_BLAS_THREADS = 1
_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Every worker starts in a clean interpreter: fresh BLAS pools, no locks
# inherited from the parent's threads.
_START_METHOD = "spawn"

# Ring depth per worker.  A worker has at most one batch in flight, so two
# slots keep the next dispatch's write away from the response still being
# copied out.
_RING_SLOTS = 2


@dataclass(frozen=True)
class Supervision:
    """How the cluster polices and replaces its workers (times in seconds).

    ``request_timeout_s`` is the hard deadline of one batched round-trip:
    a worker that exceeds it is declared dead and its batch is *not*
    retried (the late worker may still complete the forward — at-most-once),
    unlike a batch lost to process death, which goes back to the queue.
    ``start_timeout_s`` bounds each worker's rehydrate-and-ready handshake.
    An idle worker heartbeats every ``heartbeat_interval_s`` (also how often
    an orphaned worker checks that its parent still exists) and is declared
    dead once its last heartbeat is older than ``heartbeat_timeout_s``.  The
    supervisor polls every ``supervise_interval_s``.  A slot's first
    consecutive failure is respawned at once, since one death is not a crash
    loop; the n-th (n ≥ 2) waits ``restart_backoff_s * 2**(n-2)``, capped at
    ``restart_backoff_ceiling_s``, before the respawn.  After
    ``max_crash_loop`` consecutive failures, each within
    ``rapid_fail_window_s`` of its spawn, the slot is parked: no further
    respawns, and the cluster degrades to the surviving pool.  A worker that
    stays up longer than the window resets its failure count.
    """

    request_timeout_s: float
    start_timeout_s: float
    heartbeat_interval_s: float
    heartbeat_timeout_s: float
    supervise_interval_s: float
    restart_backoff_s: float
    restart_backoff_ceiling_s: float
    max_crash_loop: int
    rapid_fail_window_s: float


# A cluster reads this once, at construction; tests shorten it with
# ``monkeypatch.setattr(cluster, "SUPERVISION", dataclasses.replace(...))``.
SUPERVISION = Supervision(
    request_timeout_s=120.0,
    start_timeout_s=120.0,
    heartbeat_interval_s=1.0,
    heartbeat_timeout_s=5.0,
    supervise_interval_s=0.2,
    restart_backoff_s=0.5,
    restart_backoff_ceiling_s=8.0,
    max_crash_loop=3,
    rapid_fail_window_s=30.0,
)


class ClusterError(RuntimeError):
    """A serving-cluster failure (configuration, startup, or no live workers)."""


class WorkerDiedError(ClusterError):
    """A worker process died (or stopped responding) with requests in flight.

    ``may_have_executed`` distinguishes the two failure classes the retry
    policy cares about: a worker whose *process is gone* (pipe EOF, exit)
    can never deliver its result, so the batch goes back to the queue; a
    worker that merely *timed out while still running* may complete the
    forward late, so at-most-once forbids retrying it.
    """

    def __init__(self, message: str, may_have_executed: bool = False):
        super().__init__(message)
        self.may_have_executed = may_have_executed


class RingCorruptionError(ClusterError):
    """A response failed its ring CRC check — the shared-memory copy is bad.

    The request *did* execute (the worker computed and checksummed a real
    prediction), so it is never re-dispatched; the caller sees the typed
    error instead of silently wrong numbers.
    """


@dataclass
class WorkerHealth:
    """Liveness snapshot of one worker slot."""

    worker_id: int
    state: str  # "live" | "down" | "parked"
    pid: int | None
    restarts: int
    consecutive_failures: int
    backoff_remaining_s: float
    heartbeat_age_s: float | None

    def to_dict(self) -> dict:
        record = asdict(self)
        record["backoff_remaining_s"] = round(self.backoff_remaining_s, 3)
        if self.heartbeat_age_s is not None:
            record["heartbeat_age_s"] = round(self.heartbeat_age_s, 3)
        return record


@dataclass
class ClusterHealth:
    """Structured cluster-wide health: pool strength, restarts, backlog.

    ``redispatches`` counts batches put back on the queue after their
    worker died before starting them; ``pending`` is the queue's depth.
    """

    num_workers: int
    num_alive: int
    num_parked: int
    total_restarts: int
    redispatches: int
    generation: int
    pending: int
    workers: list

    @property
    def degraded(self) -> bool:
        """True when any worker slot is down or parked."""
        return self.num_alive < self.num_workers

    def to_dict(self) -> dict:
        return {**asdict(self), "degraded": self.degraded,
                "workers": [worker.to_dict() for worker in self.workers]}


def _ring_geometry(bundle) -> tuple[tuple, tuple, np.dtype]:
    """Window/prediction shapes and dtype of one request, read off a bundle.

    The parent sizes both shared-memory rings with it before any worker
    exists, and each worker views them through the same call on the bundle
    it rehydrates.
    """
    if bundle.model_type != "SAGDFN":
        raise ClusterError(
            f"cannot serve a {bundle.model_type or 'untyped'} bundle: "
            "cluster workers serve SAGDFN bundles only"
        )
    return (*request_shapes(SAGDFNConfig(**bundle.config)), np.dtype(bundle.dtype))


def _ring_view(shm: shared_memory.SharedMemory, max_batch: int,
               shape: tuple, dtype: np.dtype) -> np.ndarray:
    """The ``(slots, max_batch, *shape)`` array over one ring's shared memory."""
    return np.ndarray((_RING_SLOTS, max_batch) + tuple(shape), dtype=dtype,
                      buffer=shm.buf)


def _create_ring(max_batch: int, shape: tuple,
                 dtype: np.dtype) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    """A fresh parent-owned ring and its array view."""
    size = _RING_SLOTS * max_batch * int(np.prod(shape)) * dtype.itemsize
    shm = shared_memory.SharedMemory(create=True, size=max(1, size))
    return shm, _ring_view(shm, max_batch, shape, dtype)


def _worker_main(
    bundle_path: str,
    conn,
    request_name: str,
    response_name: str,
    max_batch: int,
    heartbeat_interval_s: float,
    service_kwargs: dict,
    fault_schedule: dict | None = None,
) -> None:
    """Worker process: rehydrate the bundle once, then serve ring batches.

    Exits on a ``stop`` message, on control-pipe EOF, or when the parent
    process disappears between heartbeats — an orphaned worker must never
    linger on a serving host.

    ``fault_schedule`` (``{job_ordinal: FaultEvent}``) drives deterministic
    chaos: a scheduled *kill* SIGKILLs the process before serving that job,
    *stall*/*slow* sleep before the forward, and *corrupt* overwrites the
    response ring slot after the CRC was computed, so the parent observes a
    checksum mismatch.  ``None`` (production) injects nothing.
    """
    request_shm = response_shm = None
    try:
        # The parent verified this file's digest; the replica need not re-hash it.
        bundle = load_bundle(bundle_path, verify_digest=False)
        service = ForecastService.from_bundle(bundle, **service_kwargs)
        # Pin the steady-state workspace: the batcher's max_batch is the
        # size every saturated batch arrives at.
        service.pin_batch_size(max_batch)
        window_shape, prediction_shape, dtype = _ring_geometry(bundle)
        # Attach-only: ownership (and the unlink) stays with the parent.
        # The resource tracker is shared with the parent under spawn, so
        # the child must neither unlink nor unregister the rings.
        request_shm = shared_memory.SharedMemory(name=request_name)
        response_shm = shared_memory.SharedMemory(name=response_name)
        requests = _ring_view(request_shm, max_batch, window_shape, dtype)
        responses = _ring_view(response_shm, max_batch, prediction_shape, dtype)
        injector = FaultInjector(fault_schedule)
        conn.send(("ready", os.getpid()))
    except Exception:
        try:
            conn.send(("fatal", traceback.format_exc()))
        finally:
            for shm in (request_shm, response_shm):
                if shm is not None:
                    shm.close()
        return

    parent = multiprocessing.parent_process()
    try:
        while True:
            try:
                if not conn.poll(heartbeat_interval_s):
                    if parent is not None and not parent.is_alive():
                        break  # orphaned
                    conn.send(("hb", time.monotonic()))
                    continue
                message = conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                break
            kind = message[0]
            if kind == "stop":
                break
            if kind == "ping":
                conn.send(("hb", time.monotonic()))
                continue
            if kind == "swap":
                # Drift hot-swap.  The message loop is serial, so any batch
                # dispatched before this message has already completed on
                # the old generation — the old kernel drains, it is never
                # interrupted.  Control-plane pickling of the index set is
                # fine: swaps are rare and tiny compared to request batches.
                _, seq, index_set = message
                try:
                    generation = service.swap_index_set(
                        np.asarray(index_set, dtype=np.int64)
                    )
                    reply = ("swapped", seq, int(generation))
                except Exception:
                    reply = ("err", seq, traceback.format_exc(limit=8))
                try:
                    conn.send(reply)
                except (BrokenPipeError, OSError):
                    break
                continue
            _, seq, slot, batch = message
            event = injector.next_event()
            if event is not None and event.kind == "kill":
                # Scheduled chaos: die exactly as a crashed worker would —
                # no reply, no cleanup, SIGKILL semantics.
                os.kill(os.getpid(), signal.SIGKILL)
            if event is not None and event.kind in ("stall", "slow"):
                # A stall also starves the heartbeat: the worker is wedged
                # before the forward, exactly like a hung kernel.
                time.sleep(event.duration_s)
            try:
                predictions = service.predict(requests[slot, :batch])
                responses[slot, :batch] = predictions
                checksum = zlib.crc32(
                    np.ascontiguousarray(responses[slot, :batch]).tobytes()
                )
                if event is not None and event.kind == "corrupt":
                    corrupt_ring_slot(responses[slot, :batch])
                reply = ("ok", seq, slot, batch, checksum)
            except Exception:
                reply = ("err", seq, traceback.format_exc(limit=8))
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        request_shm.close()
        response_shm.close()
        conn.close()


class _WorkerChannel:
    """Parent-side handle of one worker: rings, control pipe, liveness."""

    def __init__(self, worker_id: int, bundle_path: str, max_batch: int,
                 geometry: tuple, supervision: Supervision, service_kwargs: dict,
                 fault_schedule: dict | None = None):
        self.worker_id = worker_id
        self.max_batch = max_batch
        self.supervision = supervision
        self.alive = False
        self.last_heartbeat: float | None = None
        self._seq = 0
        self._dispatch_lock = threading.Lock()
        # Optional instrumentation: called as trace("dispatch"|"complete",
        # seq, slot, batch) around every ring round-trip.  Tests use it to
        # assert the no-slot-reuse-while-unread invariant under wraparound.
        self.trace = None
        # Spawn parameters kept for supervised respawn.
        self._bundle_path = str(bundle_path)
        self._service_kwargs = service_kwargs
        # Supervisor bookkeeping (owned by the cluster's supervisor thread).
        self.restarts = 0
        self.consecutive_failures = 0
        self.parked = False
        self.next_restart_at: float | None = None
        self.started_at: float | None = None

        # If anything past the first allocation fails (the second ring, the
        # pipe, the spawn itself), shutdown() releases what exists before
        # re-raising — a failed worker slot must never leak shared-memory
        # segments or a half-started process.
        self.request_shm = self.response_shm = None
        self.conn = None
        self.process = None
        window_shape, prediction_shape, dtype = geometry
        try:
            self.request_shm, self.request_view = _create_ring(
                max_batch, window_shape, dtype)
            self.response_shm, self.response_view = _create_ring(
                max_batch, prediction_shape, dtype)
            self._spawn(fault_schedule)
        except Exception:
            self.shutdown()
            raise

    def _spawn(self, fault_schedule: dict | None = None) -> None:
        """Create the control pipe and start a fresh worker process."""
        ctx = multiprocessing.get_context(_START_METHOD)
        self.conn, child_conn = ctx.Pipe(duplex=True)
        # The heartbeat interval travels as an argument: a spawned child
        # re-imports this module and would not see a patched SUPERVISION.
        self.process = ctx.Process(
            target=_worker_main,
            name=f"repro-serve-worker-{self.worker_id}",
            args=(self._bundle_path, child_conn, self.request_shm.name,
                  self.response_shm.name, self.max_batch,
                  self.supervision.heartbeat_interval_s, self._service_kwargs,
                  fault_schedule),
            daemon=True,
        )
        # Cap the replica's BLAS pool before numpy is imported in the child
        # (the env is captured at spawn time).
        saved_env = {var: os.environ.get(var) for var in _BLAS_ENV_VARS}
        os.environ.update(dict.fromkeys(_BLAS_ENV_VARS, str(_BLAS_THREADS)))
        try:
            self.process.start()
        finally:
            for var, value in saved_env.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
        child_conn.close()  # the child's end lives in the child now

    # ------------------------------------------------------------------ #
    def wait_ready(self) -> None:
        """Block until the worker reports ready (or fail descriptively)."""
        timeout_s = self.supervision.start_timeout_s
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ClusterError(
                    f"worker {self.worker_id} did not come up within "
                    f"{timeout_s:.0f} s"
                )
            if self.conn.poll(min(0.2, remaining)):
                try:
                    message = self.conn.recv()
                except (EOFError, OSError) as error:
                    raise ClusterError(
                        f"worker {self.worker_id} closed its control pipe "
                        "during startup"
                    ) from error
                if message[0] == "ready":
                    self.alive = True
                    self.last_heartbeat = time.monotonic()
                    self.started_at = time.monotonic()
                    return
                if message[0] == "fatal":
                    raise ClusterError(
                        f"worker {self.worker_id} failed to rehydrate the "
                        f"bundle:\n{message[1]}"
                    )
            elif not self.process.is_alive():
                raise ClusterError(
                    f"worker {self.worker_id} exited during startup "
                    f"(exitcode {self.process.exitcode})"
                )

    @property
    def alive(self) -> bool:
        """Ready, not since found dead, and the process still exists."""
        return self._alive and self.process.is_alive()

    @alive.setter
    def alive(self, value: bool) -> None:
        self._alive = value

    def poll_liveness(self) -> bool:
        """Idle-path death detection; returns whether the worker is alive.

        Non-blocking on the dispatch lock: a worker with a batch in flight
        is policed by :meth:`predict`'s own timeout, so a busy channel is
        simply reported as alive.  When idle, drains heartbeats (and any
        stale replies of abandoned round-trips), then checks pipe EOF,
        process exit, and heartbeat staleness.
        """
        if not self.alive:
            return False
        if not self._dispatch_lock.acquire(blocking=False):
            return True
        try:
            intact = True
            try:
                while intact and self.conn.poll(0):
                    message = self.conn.recv()
                    if message[0] == "hb":
                        self.last_heartbeat = time.monotonic()
                    # a "fatal" report means the worker is gone; stale
                    # ok/err replies of a timed-out dispatch are dropped
                    # here so they never alias a later round-trip
                    intact = message[0] != "fatal"
            except (EOFError, BrokenPipeError, OSError):
                intact = False
            self.alive = intact and (
                self.last_heartbeat is None
                or time.monotonic() - self.last_heartbeat
                <= self.supervision.heartbeat_timeout_s
            )
            return self.alive
        finally:
            self._dispatch_lock.release()

    def _round_trip(self, message: tuple, action: str) -> tuple:
        """Send one control message and wait for its reply (dispatch lock held).

        ``message[1]`` is the sequence number the reply must echo; stale
        replies of superseded round-trips are skipped.  Returns the matching
        ``ok``/``swapped`` reply.  ``action`` ("batch" or "swap") names the
        round-trip in errors: a closed pipe, EOF, process exit or ``fatal``
        report is a :class:`WorkerDiedError`; a timeout is one with
        ``may_have_executed=True``; an ``err`` reply is a ``RuntimeError``.
        """
        seq = message[1]
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError) as error:
            self.alive = False
            raise WorkerDiedError(
                f"worker {self.worker_id} control pipe is closed"
            ) from error
        timeout_s = self.supervision.request_timeout_s
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.alive = False
                raise WorkerDiedError(
                    f"worker {self.worker_id} did not answer within "
                    f"{timeout_s:.0f} s ({action} in flight)",
                    may_have_executed=True,
                )
            if not self.conn.poll(min(0.1, remaining)):
                if not self.process.is_alive():
                    self.alive = False
                    raise WorkerDiedError(
                        f"worker {self.worker_id} died mid-{action} "
                        f"(exitcode {self.process.exitcode})"
                    )
                continue
            try:
                reply = self.conn.recv()
            except (EOFError, OSError) as error:
                self.alive = False
                raise WorkerDiedError(
                    f"worker {self.worker_id} died mid-{action} "
                    "(control pipe EOF)"
                ) from error
            kind = reply[0]
            if kind == "hb":
                self.last_heartbeat = reply[1]
                continue
            if kind == "fatal":
                self.alive = False
                raise WorkerDiedError(
                    f"worker {self.worker_id} aborted:\n{reply[1]}"
                )
            # A reply proves liveness: a busy worker never idles long
            # enough to send a heartbeat.
            self.last_heartbeat = time.monotonic()
            if reply[1] != seq:
                continue  # stale answer from a superseded round-trip
            if kind == "err":
                raise RuntimeError(
                    f"worker {self.worker_id} {action} failed:\n{reply[2]}"
                )
            return reply

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """One batched round-trip through the rings (serialised per worker)."""
        batch = windows.shape[0]
        with self._dispatch_lock:
            if not self.alive:
                raise WorkerDiedError(f"worker {self.worker_id} is not alive")
            self._seq += 1
            seq = self._seq
            slot = seq % _RING_SLOTS
            if self.trace is not None:
                self.trace("dispatch", seq, slot, batch)
            self.request_view[slot, :batch] = windows  # dtype cast included
            _, _, r_slot, r_batch, checksum = self._round_trip(
                ("job", seq, slot, batch), "batch"
            )
            result = np.array(self.response_view[r_slot, :r_batch], copy=True)
            if zlib.crc32(np.ascontiguousarray(result).tobytes()) != checksum:
                raise RingCorruptionError(
                    f"worker {self.worker_id} response failed its ring CRC "
                    f"check (slot {r_slot}, batch {r_batch}): the "
                    "shared-memory copy is corrupt; the request executed and "
                    "is not retried"
                )
            if self.trace is not None:
                self.trace("complete", seq, slot, batch)
            return result

    def _swap(self, index_set: np.ndarray) -> None:
        """Hot-swap round-trip; the caller holds the dispatch lock."""
        if not self.alive:
            raise WorkerDiedError(f"worker {self.worker_id} is not alive")
        self._seq += 1
        self._round_trip(
            ("swap", self._seq, np.asarray(index_set, dtype=np.int64)), "swap"
        )

    def swap(self, index_set: np.ndarray) -> None:
        """Hot-swap this worker's frozen graph.

        Serialised against :meth:`predict` by the dispatch lock, so the
        swap message is only sent between batch round-trips — the worker
        never sees it with one of *our* batches outstanding, and batches
        dispatched before the swap complete on the old generation (the
        worker processes its control pipe serially).
        """
        with self._dispatch_lock:
            self._swap(index_set)

    def _close_process(self, join_timeout_s: float = 10.0) -> None:
        """Stop the worker process and close the pipe (never raises).

        Either may be missing, or the process never started, when the
        constructor failed part-way.
        """
        try:
            self.conn.send(("stop",))
        except Exception:
            pass
        if self.process is not None and self.process.pid is not None:
            self.process.join(join_timeout_s)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(2.0)
                if self.process.is_alive():
                    self.process.kill()
                    self.process.join(2.0)
        try:
            self.conn.close()
        except Exception:
            pass

    def respawn(self, fault_schedule: dict | None = None,
                index_set: np.ndarray | None = None) -> None:
        """Replace a dead worker with a fresh process on the same rings.

        The rings are parent-owned and intact across a worker death, so the
        replacement simply re-attaches to them.  ``index_set`` (the newest
        hot-swapped graph, if any) is applied before the dispatch lock is
        released: holding it for the whole dispose-spawn-ready-catch-up
        sequence keeps any :meth:`predict` from observing a half-replaced
        channel or the bundle's stale graph.
        """
        with self._dispatch_lock:
            self.alive = False
            self._close_process(join_timeout_s=2.0)
            self._spawn(fault_schedule)
            self.wait_ready()
            if index_set is not None:
                try:
                    self._swap(index_set)
                except Exception:
                    self.alive = False
                    raise

    def shutdown(self, join_timeout_s: float = 10.0) -> None:
        """Stop the worker and release the rings (idempotent, never raises).

        Also the cleanup of a half-built channel: whatever the constructor
        did not get to create is ``None`` and skipped.
        """
        self.alive = False
        self._close_process(join_timeout_s)
        for shm in (self.request_shm, self.response_shm):
            if shm is None:
                continue
            try:
                shm.close()
                shm.unlink()
            except Exception:
                pass


class ServingCluster:
    """A pool of bundle-replica worker processes behind an async front door.

    Parameters
    ----------
    bundle_path:
        A serving bundle written by :func:`repro.utils.save_bundle`.  Every
        worker rehydrates its own :class:`ForecastService` from this file
        (see :func:`repro.utils.checkpoint.rehydrate_model`), so all
        replicas produce bit-identical predictions.
    workers:
        Number of worker processes.  Throughput scales with workers until
        the host runs out of cores.
    max_batch / max_wait_ms:
        Micro-batching knobs of the admission queue (see
        :class:`~repro.serve.batching.AdmissionQueue`); ``max_batch`` is
        also the ring-slot capacity, and the workspace size each worker
        pins.
    max_pending:
        Admission watermark of the queue: :meth:`submit` raises
        :class:`~repro.serve.batching.Overloaded` while this many requests
        wait for a puller.  ``None`` keeps the queue unbounded.
    chunk_size / memory_budget_mb:
        Forwarded to every worker's :class:`ForecastService`.
    fault_plan:
        A :class:`~repro.serve.faults.FaultPlan` scheduling deterministic
        worker kills/stalls/corruption/slow batches for chaos testing.
        ``None`` (production) injects nothing.

    Every worker runs with one BLAS thread in a spawned interpreter, and a
    supervisor thread always polices the pool with the timings of
    :data:`SUPERVISION`, read once here.  Submitting returns :class:`concurrent.futures.Future`\\ s; asyncio
    callers use :meth:`predict_async` / :meth:`serve_async`.  Use as a
    context manager (or call :meth:`close`) — shutdown lets the live
    pullers drain the queue, so in-flight futures resolve or fail
    deterministically, then stops the processes and unlinks the shared
    memory.
    """

    def __init__(
        self,
        bundle_path: str | Path,
        workers: int = 2,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        max_pending: int | None = None,
        chunk_size: int | None = None,
        memory_budget_mb: float | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if fault_plan is not None and fault_plan.workers < workers:
            raise ValueError(
                f"fault plan covers {fault_plan.workers} worker(s) but the "
                f"cluster has {workers}"
            )
        self.bundle_path = Path(bundle_path)
        bundle = load_bundle(self.bundle_path)
        geometry = _ring_geometry(bundle)
        self.window_shape, self.prediction_shape, _ = geometry
        self.expected_channels = self.window_shape[-1]
        # What the bundle says, for callers that need it without a re-read.
        self.config = bundle.config
        self.scaler = rehydrate_scaler(bundle)
        self.drift = bundle.drift
        self.mask_input = bool(self.config.get("mask_input", False))
        self.index_set = (
            None
            if bundle.index_set is None
            else np.asarray(bundle.index_set, dtype=np.int64)
        )
        self._generation = 0
        self._swap_lock = threading.Lock()
        self.supervision = SUPERVISION
        self.fault_plan = fault_plan

        service_kwargs = {"chunk_size": chunk_size, "memory_budget_mb": memory_budget_mb}
        self._queue = AdmissionQueue(
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            expected_channels=self.expected_channels,
            mask_input=self.mask_input,
            max_pending=max_pending,
        )
        self._channels: list[_WorkerChannel] = []
        self._pullers: list[threading.Thread] = []
        self._live_pullers = workers  # guarded by _lifecycle
        self._lifecycle = threading.Lock()
        self._closed = False
        # Wakes pullers waiting on a down worker: notified after a respawn,
        # a park and close().  Also guards the redispatch counter.
        self._pool_changed = threading.Condition()
        self._redispatches = 0
        self._stop_supervisor = threading.Event()
        try:
            for worker_id in range(workers):
                schedule = (
                    fault_plan.schedule_for(worker_id)
                    if fault_plan is not None else None
                )
                self._channels.append(
                    _WorkerChannel(
                        worker_id, str(self.bundle_path), max_batch, geometry,
                        self.supervision, service_kwargs, schedule,
                    )
                )
            for channel in self._channels:
                channel.wait_ready()
        except Exception:
            for channel in self._channels:
                channel.shutdown()
            raise
        self._supervisor = threading.Thread(
            target=self._supervise, name="cluster-supervisor", daemon=True
        )
        self._supervisor.start()
        for channel in self._channels:
            puller = threading.Thread(
                target=self._pull, args=(channel,),
                name=f"cluster-puller-{channel.worker_id}", daemon=True,
            )
            self._pullers.append(puller)
            puller.start()

    # ------------------------------------------------------------------ #
    # Pulling
    # ------------------------------------------------------------------ #
    def _notify_pool(self) -> None:
        with self._pool_changed:
            self._pool_changed.notify_all()

    def _await_turn(self, channel: _WorkerChannel) -> bool:
        """Wait until ``channel`` may take work; ``False`` once it never will.

        A live channel has caught up to the newest generation: a respawn
        applies it under the dispatch lock before any batch can reach the
        new process.  A down channel waits for its respawn, unless the slot
        is parked or the cluster is closing.
        """
        with self._pool_changed:
            while not channel.alive:
                if channel.parked or self._closed:
                    return False
                self._pool_changed.wait()
            return True

    def _pull(self, channel: _WorkerChannel) -> None:
        """One worker's consumer loop over the shared admission queue."""
        try:
            while self._await_turn(channel):
                batch = self._queue.take()
                if batch is None:
                    return  # closed and drained
                try:
                    outcome = channel.predict(
                        np.stack([request.window for request in batch])
                    )
                except WorkerDiedError as error:
                    if not error.may_have_executed:
                        # The worker never started the batch: any live
                        # puller may serve it, within its deadlines.
                        self._queue.requeue(batch)
                        with self._pool_changed:
                            self._redispatches += 1
                        continue
                    outcome = ClusterError(
                        f"batch of {len(batch)} timed out on worker "
                        f"{channel.worker_id} and may still execute; not "
                        f"re-dispatching (at-most-once): {error}"
                    )
                except Exception as error:  # CRC failure, worker err reply
                    outcome = error
                self._queue.resolve(batch, outcome)
        finally:
            self._retire_puller()

    def _retire_puller(self) -> None:
        """The last puller out fails whatever is still queued."""
        with self._lifecycle:
            self._live_pullers -= 1
            last = self._live_pullers == 0
        if last:
            self._queue.close()
            self._queue.fail_pending(ClusterError(
                "no live worker left to serve the request"
            ))

    # ------------------------------------------------------------------ #
    # Supervision
    # ------------------------------------------------------------------ #
    def _register_failure(self, channel: _WorkerChannel, now: float) -> None:
        """Schedule a backoff restart, or park a crash-looping worker."""
        supervision = self.supervision
        if (channel.started_at is not None
                and now - channel.started_at > supervision.rapid_fail_window_s):
            # The worker served fine for a while before dying: not a crash
            # loop, start the backoff ladder from the bottom again.
            channel.consecutive_failures = 0
        channel.consecutive_failures += 1
        if channel.consecutive_failures >= supervision.max_crash_loop:
            channel.parked = True
            channel.next_restart_at = None
            self._notify_pool()
            return
        # One death is not a crash loop: the first respawn goes at once.
        delay = 0.0 if channel.consecutive_failures == 1 else min(
            supervision.restart_backoff_s * 2 ** (channel.consecutive_failures - 2),
            supervision.restart_backoff_ceiling_s,
        )
        channel.next_restart_at = now + delay

    def _respawn_channel(self, channel: _WorkerChannel) -> None:
        """One supervised respawn attempt, including generation catch-up.

        The swap lock is held throughout, so a broadcast either finishes
        before the respawn reads the newest index set or starts after the
        replacement is live and caught up.
        """
        schedule = None
        if self.fault_plan is not None and self.fault_plan.repeat_on_respawn:
            schedule = self.fault_plan.schedule_for(channel.worker_id)
        with self._swap_lock:
            # A replacement spawned after a hot-swap must serve the
            # *current* graph, not the bundle's frozen one.
            catch_up = self.index_set if self._generation > 0 else None
            channel.respawn(schedule, catch_up)
        channel.restarts += 1
        channel.next_restart_at = None
        self._notify_pool()

    def _supervise(self) -> None:
        """Detect dead workers and respawn them with backoff + circuit breaker."""
        while not self._stop_supervisor.wait(
                self.supervision.supervise_interval_s):
            for channel in self._channels:
                if self._closed or self._stop_supervisor.is_set():
                    return
                if channel.parked:
                    continue
                try:
                    if channel.alive and channel.poll_liveness():
                        continue
                    now = time.monotonic()
                    if channel.next_restart_at is None:
                        self._register_failure(channel, now)
                    if channel.parked or now < channel.next_restart_at:
                        continue
                    try:
                        self._respawn_channel(channel)
                    except Exception:
                        self._register_failure(channel, time.monotonic())
                except Exception:
                    # The supervisor must survive anything (a channel torn
                    # down under it during close(), a poll on a dead pipe).
                    continue

    def health(self) -> ClusterHealth:
        """Structured liveness snapshot of the pool (JSON-safe via to_dict)."""
        now = time.monotonic()
        workers = []
        for channel in self._channels:
            if channel.parked:
                state = "parked"
            elif channel.alive:
                state = "live"
            else:
                state = "down"
            backoff_remaining = 0.0
            if not channel.alive and channel.next_restart_at is not None:
                backoff_remaining = max(0.0, channel.next_restart_at - now)
            heartbeat_age = None
            if channel.alive and channel.last_heartbeat is not None:
                heartbeat_age = max(0.0, now - channel.last_heartbeat)
            workers.append(WorkerHealth(
                worker_id=channel.worker_id,
                state=state,
                pid=channel.process.pid,
                restarts=channel.restarts,
                consecutive_failures=channel.consecutive_failures,
                backoff_remaining_s=backoff_remaining,
                heartbeat_age_s=heartbeat_age,
            ))
        return ClusterHealth(
            num_workers=len(self._channels),
            num_alive=sum(1 for w in workers if w.state == "live"),
            num_parked=sum(1 for w in workers if w.state == "parked"),
            total_restarts=sum(w.restarts for w in workers),
            redispatches=self._redispatches,
            generation=self._generation,
            pending=self._queue.pending,
            workers=workers,
        )

    # ------------------------------------------------------------------ #
    # Front door
    # ------------------------------------------------------------------ #
    def submit(self, window: np.ndarray, mask: np.ndarray | None = None,
               deadline_s: float | None = None) -> Future:
        """Enqueue one ``(h, N, C)`` window; resolves to ``(f, N, ·)``.

        ``mask`` and ``deadline_s`` follow the
        :meth:`~repro.serve.batching.AdmissionQueue.submit` contract, and
        so does the typed :class:`~repro.serve.batching.Overloaded`
        rejection at the ``max_pending`` watermark.  A submission is
        accepted while any worker can still pull it, even one that is down
        waiting for its respawn.  Raises ``RuntimeError`` after
        :meth:`close` and :class:`ClusterError` once no worker can ever
        serve again.
        """
        with self._lifecycle:
            if self._closed:
                raise RuntimeError("cannot submit to a closed ServingCluster")
            if not self._live_pullers:
                raise ClusterError("no live workers in the cluster")
            return self._queue.submit(window, mask=mask,
                                      deadline_s=deadline_s)

    def predict(self, window: np.ndarray, mask: np.ndarray | None = None,
                timeout: float | None = None,
                deadline_s: float | None = None) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(window, mask=mask,
                           deadline_s=deadline_s).result(timeout=timeout)

    async def predict_async(self, window: np.ndarray,
                            mask: np.ndarray | None = None,
                            deadline_s: float | None = None) -> np.ndarray:
        """Awaitable single-window forecast (asyncio front door)."""
        return await asyncio.wrap_future(
            self.submit(window, mask=mask, deadline_s=deadline_s)
        )

    async def serve_async(self, windows: np.ndarray,
                          masks: np.ndarray | None = None,
                          deadline_s: float | None = None) -> np.ndarray:
        """Fan ``(R, h, N, C)`` requests across the pool and gather ``(R, f, N, ·)``.

        Submission happens up front (so micro-batches can coalesce across
        the whole burst); the gather preserves request order.
        """
        futures = [
            self.submit(window, mask=None if masks is None else masks[i],
                        deadline_s=deadline_s)
            for i, window in enumerate(windows)
        ]
        results = await asyncio.gather(
            *(asyncio.wrap_future(future) for future in futures)
        )
        return np.stack(results)

    # ------------------------------------------------------------------ #
    # Drift hot-swap
    # ------------------------------------------------------------------ #
    def swap_index_set(self, index_set: np.ndarray) -> int:
        """Broadcast a frozen-graph hot-swap to every live worker.

        Implements the same protocol as
        :meth:`ForecastService.swap_index_set`, so a
        :class:`~repro.serve.online.DriftMonitor` drives both targets
        identically.  Workers process their control pipe serially, so every
        batch dispatched before the broadcast completes on the old
        generation; batches dispatched after it serve from the new one.  A
        worker that dies mid-swap is marked dead like any other death — the
        swap succeeds as long as one worker remains, and raises
        :class:`ClusterError` otherwise.  A supervised respawn re-applies
        the newest index set before the replacement takes work, so a swap
        is never silently undone by a restart.  Returns the cluster's new
        generation, the count of completed broadcasts.
        """
        with self._lifecycle:
            if self._closed:
                raise RuntimeError("cannot swap a closed ServingCluster")
        index_set = np.asarray(index_set, dtype=np.int64).ravel()
        with self._swap_lock:
            swapped = 0
            for channel in self._channels:
                try:  # a down worker raises too, and catches up on respawn
                    channel.swap(index_set)
                except WorkerDiedError:
                    continue
                swapped += 1
            if not swapped:
                raise ClusterError("no live worker survived the swap broadcast")
            self._generation += 1
            self.index_set = index_set.copy()
            return self._generation

    @property
    def generation(self) -> int:
        """Serving-graph generation of the newest completed swap."""
        return self._generation

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        return len(self._channels)

    @property
    def alive_workers(self) -> int:
        return sum(1 for channel in self._channels if channel.alive)

    @property
    def parked_workers(self) -> int:
        return sum(1 for channel in self._channels if channel.parked)

    @property
    def stats(self) -> BatchStats:
        """Batching counters of the cluster's admission queue."""
        return self._queue.stats

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Drain in-flight requests, stop the workers, release the rings.

        Safe to call repeatedly and from several threads.  The live
        pullers serve every future already submitted before the processes
        are stopped; whatever no live worker is left to serve fails with a
        descriptive :class:`ClusterError`.  Late :meth:`submit` calls raise
        deterministically.
        """
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
        self._stop_supervisor.set()
        self._supervisor.join(timeout=10.0)
        self._queue.close()
        self._notify_pool()
        for puller in self._pullers:
            puller.join()
        for channel in self._channels:
            channel.shutdown()

    def __enter__(self) -> "ServingCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # best-effort: never leak processes or shm
        try:
            self.close()
        except Exception:
            pass
