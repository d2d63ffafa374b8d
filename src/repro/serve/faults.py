"""Deterministic fault injection for the serving cluster.

Chaos scenarios — worker kills, heartbeat stalls, ring-slot corruption,
slow batches — are reproducible schedules, not flaky sleeps.  A
:class:`FaultPlan` turns a seed into a fixed per-worker schedule keyed by
the ordinal of each job the worker serves; the worker consumes the
schedule through a :class:`FaultInjector` at well-defined seams in its
message loop.  The default (no plan) is a no-op, so production paths pay
nothing.

The schedule is computed once in the parent from ``numpy``'s seeded
generator and shipped to workers as plain picklable data, so two runs
with the same seed inject byte-identical failure sequences regardless of
scheduling noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultPlan", "FaultInjector"]

#: Supported fault kinds, in the order ordinals are assigned to them.
FAULT_KINDS = ("kill", "stall", "corrupt", "slow")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: *worker_id* fails on its *request_index*-th job.

    ``request_index`` counts the jobs a worker serves (0-based), not the
    cluster-wide sequence number — the schedule stays deterministic no
    matter how the workers' pulls from the shared queue interleave.
    """

    worker_id: int
    request_index: int
    kind: str
    duration_s: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.worker_id < 0 or self.request_index < 0:
            raise ValueError("worker_id and request_index must be >= 0")
        if self.duration_s < 0:
            raise ValueError("duration_s must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of faults across cluster workers.

    For each worker, ``kills + stalls + corruptions + slow`` distinct job
    ordinals are drawn without replacement from ``range(horizon)`` and
    assigned to kinds in the fixed order of :data:`FAULT_KINDS`.  The same
    ``(workers, seed, horizon, counts)`` always yields the same schedule.
    """

    workers: int
    seed: int = 0
    horizon: int = 32
    kills_per_worker: int = 1
    stalls_per_worker: int = 0
    corruptions_per_worker: int = 0
    slow_batches_per_worker: int = 0
    stall_s: float = 0.25
    slow_s: float = 0.05
    #: When True a respawned worker replays the same schedule; the default
    #: injects each worker's faults once so the pool can recover.
    repeat_on_respawn: bool = False
    events: tuple = field(init=False, default=())

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        counts = (self.kills_per_worker, self.stalls_per_worker,
                  self.corruptions_per_worker, self.slow_batches_per_worker)
        if any(c < 0 for c in counts):
            raise ValueError("per-worker fault counts must be >= 0")
        total = sum(counts)
        if total > self.horizon:
            raise ValueError(
                f"cannot place {total} faults in a horizon of {self.horizon} jobs"
            )
        rng = np.random.default_rng(self.seed)
        durations = {"kill": 0.0, "stall": self.stall_s,
                     "corrupt": 0.0, "slow": self.slow_s}
        events = []
        for worker_id in range(self.workers):
            ordinals = rng.choice(self.horizon, size=total, replace=False)
            cursor = 0
            for kind, count in zip(FAULT_KINDS, counts):
                for _ in range(count):
                    events.append(FaultEvent(
                        worker_id=worker_id,
                        request_index=int(ordinals[cursor]),
                        kind=kind,
                        duration_s=durations[kind],
                    ))
                    cursor += 1
        events.sort(key=lambda e: (e.worker_id, e.request_index))
        object.__setattr__(self, "events", tuple(events))

    def schedule_for(self, worker_id: int) -> dict:
        """Return ``{request_index: FaultEvent}`` for one worker.

        The mapping is plain picklable data, safe to ship through a spawn
        context into the worker process.
        """
        return {e.request_index: e for e in self.events
                if e.worker_id == worker_id}

    def summary(self) -> dict:
        """JSON-safe description of the plan for bench reports."""
        by_kind = {kind: 0 for kind in FAULT_KINDS}
        for event in self.events:
            by_kind[event.kind] += 1
        return {
            "workers": self.workers,
            "seed": self.seed,
            "horizon": self.horizon,
            "events": len(self.events),
            "by_kind": by_kind,
            "repeat_on_respawn": self.repeat_on_respawn,
        }


class FaultInjector:
    """Consumes a per-worker schedule as the worker serves jobs.

    Lives inside the worker process.  ``next_event()`` is called once per
    served job and returns the :class:`FaultEvent` scheduled for that
    ordinal, or ``None``.  With an empty schedule every call is a cheap
    dict miss — the production fast path.
    """

    def __init__(self, schedule: dict | None = None):
        self._schedule = dict(schedule) if schedule else {}
        self._served = 0

    def next_event(self):
        event = self._schedule.get(self._served)
        self._served += 1
        return event

    @property
    def served(self) -> int:
        return self._served

    @property
    def pending(self) -> int:
        """Faults still scheduled at or after the current ordinal."""
        return sum(1 for index in self._schedule if index >= self._served)


def corrupt_ring_slot(view: np.ndarray) -> None:
    """Overwrite a response-ring slot in place to simulate shm corruption.

    Called *after* the worker computed the reply checksum, so the parent's
    CRC verification observes a payload/checksum mismatch end to end.
    """
    view.fill(np.nan)
