"""Inference serving layer: frozen-graph forecasting at request time.

SAGDFN freezes its significant-neighbour index set after convergence
iteration ``r`` (Algorithm 2), which means a *trained* model's graph
artefacts — the slim adjacency ``A_s``, the index set ``I`` and the degree
normalisation ``(D + I)^{-1}`` — are constants at serving time.  This
package exploits that:

* :class:`ForecastService` rehydrates a forecaster from a single checkpoint
  bundle (:func:`repro.utils.checkpoint.save_bundle`), runs SNS + sparse
  attention **once** at load time, and answers forecast requests with only
  the encoder–decoder forward under ``no_grad``.
* :class:`MicroBatcher` coalesces concurrent requests (up to
  ``max_batch`` / ``max_wait_ms``) into one batched forward, trading a few
  milliseconds of queueing delay for much higher throughput.
* :class:`ServingCluster` replicates the frozen kernel across worker
  processes (shared-memory request rings, one admission queue that every
  worker's puller takes micro-batches from, an asyncio front door) for
  multi-core throughput on one host — with a supervisor that respawns dead
  workers (exponential backoff, crash-loop circuit breaker), requeueing of
  batches a dead worker never started, per-request deadlines and a bounded
  admission watermark (typed :class:`Overloaded` / :class:`DeadlineExceeded`
  shedding), CRC-checked response rings, and a deterministic
  :class:`FaultPlan` chaos harness (:mod:`repro.serve.faults`).
* :mod:`repro.serve.online` adds the stateful half: per-client
  :class:`StreamingSession` history rings behind a :class:`SessionManager`,
  incremental scaler updates, and a :class:`DriftMonitor` that re-runs SNS
  over recent history and hot-swaps the frozen kernel
  (``swap_index_set`` on either target) when the index-set overlap drops
  below threshold.
* ``python -m repro.serve`` is the command-line entry point
  (``--workers N`` routes through the cluster, ``--online`` replays a
  stream through sessions).
"""

from repro.serve.batching import (
    BatchStats,
    DeadlineExceeded,
    MicroBatcher,
    Overloaded,
)
from repro.serve.cluster import (
    ClusterError,
    ClusterHealth,
    RingCorruptionError,
    ServingCluster,
    WorkerDiedError,
    WorkerHealth,
)
from repro.serve.faults import FaultEvent, FaultPlan
from repro.serve.online import (
    DriftConfig,
    DriftMonitor,
    DriftReport,
    SessionManager,
    StreamingSession,
)
from repro.serve.service import ForecastService, FrozenGraph

__all__ = [
    "ForecastService",
    "FrozenGraph",
    "MicroBatcher",
    "BatchStats",
    "Overloaded",
    "DeadlineExceeded",
    "ServingCluster",
    "ClusterError",
    "WorkerDiedError",
    "RingCorruptionError",
    "ClusterHealth",
    "WorkerHealth",
    "FaultPlan",
    "FaultEvent",
    "DriftConfig",
    "DriftMonitor",
    "DriftReport",
    "SessionManager",
    "StreamingSession",
]
