"""Fault-tolerance tests: supervision, admission control, fault injection.

Three layers of guarantees:

* **Determinism of the harness** — a :class:`FaultPlan` is a pure function
  of its seed, so two runs inject byte-identical failure sequences.
* **Admission control** — deadlines shed queued work *before* the kernel
  runs, and the pending watermark rejects with a typed
  :class:`Overloaded`; neither path may ever hang a Future.
* **Supervised recovery** — a seeded chaos soak SIGKILLs every worker at
  least once during a concurrent burst: every future must resolve with a
  result or a typed error, surviving batch-1 results must stay
  bit-identical to a single-process service, and the supervisor must
  respawn the pool to full strength (with a circuit breaker parking
  crash-looping slots instead of spinning forever).
"""

import threading
import time
import types

import numpy as np
import pytest

from repro.core import SAGDFN, SAGDFNConfig
from repro.serve import (
    ClusterError,
    DeadlineExceeded,
    FaultPlan,
    ForecastService,
    MicroBatcher,
    Overloaded,
    RingCorruptionError,
    ServingCluster,
)
from repro.serve import cluster as cluster_mod
from repro.serve.faults import FAULT_KINDS, FaultEvent, FaultInjector
from repro.utils import load_bundle, save_bundle
from repro.utils.checkpoint import rehydrate_model


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A frozen-graph bundle small enough for fast worker start-up."""
    config = SAGDFNConfig(
        num_nodes=6, history=4, horizon=3, embedding_dim=8,
        num_significant=4, top_k=3, hidden_size=10,
        num_heads=2, ffn_hidden=8, seed=0,
    )
    model = SAGDFN(config)
    model.refresh_graph(0)
    path = save_bundle(model, tmp_path_factory.mktemp("faults") / "bundle")
    return path, config


@pytest.fixture(scope="module")
def windows(bundle):
    _, config = bundle
    rng = np.random.default_rng(11)
    return rng.normal(size=(12, config.history, config.num_nodes,
                            config.input_dim))


# Respawn timings short enough for a test to watch a worker come back.
FAST_RESPAWN = dict(supervise_interval_s=0.02, restart_backoff_s=0.05,
                    restart_backoff_ceiling_s=0.4)


def _wait_for(predicate, timeout_s=60.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


# --------------------------------------------------------------------- #
# FaultPlan determinism
# --------------------------------------------------------------------- #
class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        kwargs = dict(workers=3, seed=42, horizon=16, kills_per_worker=1,
                      stalls_per_worker=2, corruptions_per_worker=1,
                      slow_batches_per_worker=1)
        assert FaultPlan(**kwargs).events == FaultPlan(**kwargs).events

    def test_different_seed_different_schedule(self):
        a = FaultPlan(workers=2, seed=0, horizon=32, kills_per_worker=2)
        b = FaultPlan(workers=2, seed=1, horizon=32, kills_per_worker=2)
        assert a.events != b.events

    def test_every_worker_gets_its_quota(self):
        plan = FaultPlan(workers=4, seed=7, horizon=8, kills_per_worker=1,
                         stalls_per_worker=1)
        for worker_id in range(4):
            schedule = plan.schedule_for(worker_id)
            kinds = sorted(event.kind for event in schedule.values())
            assert kinds == ["kill", "stall"]
            assert all(0 <= index < 8 for index in schedule)

    def test_ordinals_distinct_within_worker(self):
        plan = FaultPlan(workers=2, seed=3, horizon=6, kills_per_worker=2,
                         corruptions_per_worker=2, slow_batches_per_worker=2)
        for worker_id in range(2):
            ordinals = [e.request_index for e in plan.events
                        if e.worker_id == worker_id]
            assert len(ordinals) == len(set(ordinals)) == 6

    def test_summary_is_json_safe(self):
        import json

        plan = FaultPlan(workers=2, seed=0, horizon=8, kills_per_worker=1,
                         stalls_per_worker=1)
        summary = json.loads(json.dumps(plan.summary()))
        assert summary["workers"] == 2
        assert summary["events"] == 4
        assert summary["by_kind"]["kill"] == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            FaultPlan(workers=0)
        with pytest.raises(ValueError, match="horizon"):
            FaultPlan(workers=1, horizon=2, kills_per_worker=2,
                      stalls_per_worker=2)
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(worker_id=0, request_index=0, kind="explode")
        with pytest.raises(ValueError, match=">= 0"):
            FaultEvent(worker_id=0, request_index=0, kind="stall",
                       duration_s=-1.0)

    def test_injector_consumes_ordinals(self):
        plan = FaultPlan(workers=1, seed=5, horizon=4, kills_per_worker=0,
                         stalls_per_worker=1)
        injector = FaultInjector(plan.schedule_for(0))
        fired = [injector.next_event() for _ in range(4)]
        assert sum(event is not None for event in fired) == 1
        assert injector.served == 4
        assert injector.pending == 0

    def test_empty_injector_is_noop(self):
        injector = FaultInjector(None)
        assert injector.next_event() is None
        assert injector.pending == 0

    def test_kinds_are_stable(self):
        # The bench report and the worker seams key off this order.
        assert FAULT_KINDS == ("kill", "stall", "corrupt", "slow")

    def test_plan_smaller_than_pool_rejected(self, bundle):
        path, _ = bundle
        with pytest.raises(ValueError, match="fault plan"):
            ServingCluster(path, workers=2,
                           fault_plan=FaultPlan(workers=1))


# --------------------------------------------------------------------- #
# Admission control (no worker processes: pure MicroBatcher)
# --------------------------------------------------------------------- #
class TestAdmissionControl:
    def _gated_batcher(self, **kwargs):
        started = threading.Event()
        release = threading.Event()
        calls = []

        def predict_fn(batch):
            calls.append(batch.shape[0])
            started.set()
            release.wait(30)
            return batch * 2.0

        batcher = MicroBatcher(predict_fn, max_batch=1, max_wait_ms=0.0,
                               **kwargs)
        return batcher, started, release, calls

    def test_deadline_sheds_before_kernel(self):
        batcher, started, release, calls = self._gated_batcher()
        window = np.ones((4, 3, 2))
        try:
            blocker = batcher.submit(window)
            assert started.wait(10)  # the worker is inside the forward
            doomed = batcher.submit(window, deadline_s=0.05)
            time.sleep(0.15)  # let the deadline lapse while queued
            release.set()
            assert np.array_equal(blocker.result(timeout=10), window * 2.0)
            with pytest.raises(DeadlineExceeded, match="before running"):
                doomed.result(timeout=10)
            # The shed request never reached the kernel.
            assert calls == [1]
            assert batcher.stats.num_expired == 1
            assert batcher.pending == 0
        finally:
            release.set()
            batcher.close()

    def test_unexpired_deadline_serves_normally(self):
        with MicroBatcher(lambda b: b + 1.0, max_batch=4,
                          max_wait_ms=0.5) as batcher:
            window = np.zeros((4, 3, 2))
            result = batcher.predict(window, deadline_s=30.0, timeout=10)
            assert np.array_equal(result, window + 1.0)
            assert batcher.stats.num_expired == 0

    def test_invalid_deadline_rejected_at_submit(self):
        with MicroBatcher(lambda b: b, max_batch=1) as batcher:
            with pytest.raises(ValueError, match="deadline_s"):
                batcher.submit(np.ones((4, 3, 2)), deadline_s=0.0)

    def test_watermark_rejects_with_typed_overloaded(self):
        batcher, started, release, _ = self._gated_batcher(max_pending=2)
        window = np.ones((4, 3, 2))
        try:
            blocker = batcher.submit(window)
            assert started.wait(10)
            queued = [batcher.submit(window) for _ in range(2)]
            with pytest.raises(Overloaded, match="watermark"):
                batcher.submit(window)
            assert batcher.stats.num_rejected == 1
            assert batcher.pending == 2
            release.set()
            for future in [blocker] + queued:
                assert future.result(timeout=10).shape == window.shape
            # Drained: the watermark admits new work again.
            assert batcher.pending == 0
            batcher.submit(window).result(timeout=10)
        finally:
            release.set()
            batcher.close()

    def test_invalid_watermark_rejected(self):
        with pytest.raises(ValueError, match="max_pending"):
            MicroBatcher(lambda b: b, max_pending=0)

    def test_cluster_sheds_when_every_worker_is_saturated(self, bundle,
                                                          windows):
        """With ``max_pending=1`` and a burst far deeper than the pool can
        queue, some submissions must be rejected with the cluster-level
        typed ``Overloaded`` — and everything admitted must resolve."""
        path, _ = bundle
        with ServingCluster(path, workers=2, max_batch=1, max_wait_ms=0.0,
                            max_pending=1) as cluster:
            cluster.predict(windows[0], timeout=60)  # warm both ends
            futures, rejected = [], 0
            for _ in range(30):
                for window in windows:
                    try:
                        futures.append(cluster.submit(window))
                    except Overloaded:
                        rejected += 1
            for future in futures:
                assert future.result(timeout=60).shape[0] == windows.shape[1] - 1
            assert rejected > 0
            assert rejected + len(futures) == 30 * len(windows)


# --------------------------------------------------------------------- #
# Fault survival: the standard two-kill plan over a pulled queue
# --------------------------------------------------------------------- #
@pytest.fixture(
    scope="module",
    params=[
        {"max_wait_ms": 0.0},
        {"max_wait_ms": 2.0, "deadline_s": 120.0},
    ],
    ids=["no-wait", "wait-2ms-deadline"],
)
def two_kill_burst(request, bundle):
    """64 concurrent submissions through a 2-worker cluster, under the
    production supervision timings, while ``FaultPlan(workers=2, seed=0,
    horizon=16, kills_per_worker=1)`` SIGKILLs each worker once.  Returns
    the windows, each request's outcome (its prediction, its exception, or
    ``"unresolved"``) and the health."""
    from concurrent.futures import TimeoutError as FutureTimeoutError

    path, config = bundle
    params = dict(request.param)
    deadline_s = params.pop("deadline_s", None)
    plan = FaultPlan(workers=2, seed=0, horizon=16, kills_per_worker=1)
    burst = np.random.default_rng(5).normal(
        size=(64, config.history, config.num_nodes, config.input_dim)
    )
    outcomes = []
    with ServingCluster(path, workers=2, max_batch=1, fault_plan=plan,
                        **params) as cluster:
        futures = [cluster.submit(window, deadline_s=deadline_s)
                   for window in burst]
        for future in futures:
            try:
                outcomes.append(future.result(timeout=120))
            except FutureTimeoutError:
                outcomes.append("unresolved")
            except Exception as error:  # noqa: BLE001 - asserted typed
                outcomes.append(error)
        health = cluster.health()
    return burst, outcomes, health


class TestFaultSurvival:
    def test_two_kills_lose_at_most_two_of_64(self, two_kill_burst):
        _, outcomes, _ = two_kill_burst
        ok = [o for o in outcomes if isinstance(o, np.ndarray)]
        failures = [o for o in outcomes if isinstance(o, BaseException)]
        assert len(ok) >= 62
        assert not any(isinstance(o, str) for o in outcomes)  # unresolved
        assert all(isinstance(error, ClusterError) for error in failures)

    def test_survivors_are_bit_identical(self, bundle, two_kill_burst):
        path, _ = bundle
        burst, outcomes, _ = two_kill_burst
        service = ForecastService.from_checkpoint(path)
        for window, outcome in zip(burst, outcomes):
            if isinstance(outcome, np.ndarray):
                assert np.array_equal(outcome,
                                      service.predict(window[None])[0])

    def test_each_killed_batch_is_requeued(self, two_kill_burst):
        """A SIGKILLed worker never started its batch, so each kill puts
        exactly one batch back on the queue instead of failing it."""
        _, _, health = two_kill_burst
        assert health.redispatches == 2


# --------------------------------------------------------------------- #
# Supervised recovery + chaos soak
# --------------------------------------------------------------------- #
class TestSupervisedRecovery:
    def test_chaos_soak_kill_every_worker_during_burst(self, bundle, windows,
                                                       supervision):
        """The acceptance soak: a seeded plan SIGKILLs each of two workers
        once during a concurrent burst.  Every future resolves (result or
        typed error), successful batch-1 answers are bit-identical to the
        single-process service, and the pool respawns to full strength."""
        path, _ = bundle
        plan = FaultPlan(workers=2, seed=0, horizon=4, kills_per_worker=1)
        service = ForecastService.from_checkpoint(path)
        reference = [service.predict(window[None])[0] for window in windows]
        supervision(request_timeout_s=60.0, **FAST_RESPAWN)
        with ServingCluster(path, workers=2, max_batch=1, max_wait_ms=0.0,
                            fault_plan=plan) as cluster:
            futures = []
            for _ in range(4):  # 48 submissions: both kill ordinals < 4 fire
                for index, window in enumerate(windows):
                    futures.append((index, cluster.submit(window)))
            successes, failures = 0, []
            for index, future in futures:
                try:
                    result = future.result(timeout=120)
                except (ClusterError, RingCorruptionError) as error:
                    failures.append(error)
                else:
                    successes += 1
                    assert np.array_equal(result, reference[index])
            assert successes > 0
            # Every failure is typed — nothing hung, nothing leaked a bare
            # exception from the pipe layer.
            assert all(isinstance(e, ClusterError) for e in failures)
            # The supervisor restores the full pool.
            assert _wait_for(lambda: cluster.alive_workers == 2,
                             timeout_s=120.0)
            health = cluster.health()
            assert health.num_alive == 2
            assert health.num_parked == 0
            assert health.total_restarts >= 2  # each worker died once
            assert not health.degraded
            # And the recovered pool still answers bit-identically.
            assert np.array_equal(cluster.predict(windows[0], timeout=60),
                                  reference[0])

    def test_respawned_worker_serves_current_generation(self, bundle,
                                                        windows, supervision):
        """A worker respawned after a hot-swap must serve the swapped
        graph, not the bundle's frozen one."""
        from itertools import combinations

        path, config = bundle
        bundle_data = load_bundle(path)
        frozen = np.sort(np.asarray(bundle_data.index_set))
        fresh = None
        for combo in combinations(range(config.num_nodes), frozen.size):
            candidate = np.asarray(combo, dtype=np.int64)
            if not np.array_equal(candidate, frozen):
                fresh = candidate
                break
        cold = rehydrate_model(bundle_data)
        cold._index_set = fresh.copy()
        ref_fresh = ForecastService(cold).predict(windows[0][None])[0]

        supervision(**FAST_RESPAWN)
        with ServingCluster(path, workers=1, max_batch=1,
                            max_wait_ms=0.0) as cluster:
            assert cluster.swap_index_set(fresh) == 1
            assert np.array_equal(cluster.predict(windows[0], timeout=60),
                                  ref_fresh)
            cluster._channels[0].process.kill()
            assert _wait_for(
                lambda: cluster.alive_workers == 1
                and cluster._channels[0].restarts >= 1,
                timeout_s=120.0,
            )
            assert np.array_equal(cluster.predict(windows[0], timeout=60),
                                  ref_fresh)
            assert cluster.health().total_restarts >= 1

    def test_window_submitted_while_down_waits_for_catch_up(self, bundle,
                                                            windows,
                                                            supervision):
        """A window submitted while the only worker is down is accepted and
        served by the respawned worker only after it caught up to the
        hot-swapped graph: bit-equal to a cold start on the fresh set."""
        from itertools import combinations

        path, config = bundle
        bundle_data = load_bundle(path)
        frozen = np.sort(np.asarray(bundle_data.index_set))
        fresh = next(
            np.asarray(combo, dtype=np.int64)
            for combo in combinations(range(config.num_nodes), frozen.size)
            if not np.array_equal(combo, frozen)
        )
        cold = rehydrate_model(bundle_data)
        cold._index_set = fresh.copy()
        ref_fresh = ForecastService(cold).predict(windows[0][None])[0]

        supervision(supervise_interval_s=0.02, restart_backoff_s=0.5,
                    restart_backoff_ceiling_s=1.0)
        with ServingCluster(path, workers=1, max_batch=1,
                            max_wait_ms=0.0) as cluster:
            assert cluster.swap_index_set(fresh) == 1
            cluster._channels[0].process.kill()
            assert _wait_for(lambda: cluster.alive_workers == 0,
                             timeout_s=60.0)
            future = cluster.submit(windows[0])
            assert np.array_equal(future.result(timeout=120), ref_fresh)
            assert cluster._channels[0].restarts == 1

    def test_first_respawn_does_not_wait_the_backoff(self, bundle, windows,
                                                     supervision):
        """One death is not a crash loop: with a 30 s backoff, a killed
        worker is live again long before the backoff would have elapsed."""
        path, _ = bundle
        supervision(supervise_interval_s=0.05, restart_backoff_s=30.0,
                    restart_backoff_ceiling_s=60.0)
        with ServingCluster(path, workers=1, max_batch=1,
                            max_wait_ms=0.0) as cluster:
            channel = cluster._channels[0]
            killed_at = time.monotonic()
            channel.process.kill()
            assert _wait_for(lambda: channel.restarts == 1 and channel.alive,
                             timeout_s=20.0)
            assert time.monotonic() - killed_at < 20.0
            assert cluster.predict(windows[0], timeout=60).shape[0] == 3

    def test_backoff_ladder_starts_at_the_second_failure(self, supervision):
        supervision(restart_backoff_s=0.5, restart_backoff_ceiling_s=1.5,
                    max_crash_loop=5)
        cluster = types.SimpleNamespace(supervision=cluster_mod.SUPERVISION,
                                        _notify_pool=lambda: None)
        channel = types.SimpleNamespace(started_at=None, consecutive_failures=0,
                                        parked=False, next_restart_at=None)
        delays = []
        for _ in range(4):
            ServingCluster._register_failure(cluster, channel, 100.0)
            delays.append(channel.next_restart_at - 100.0)
        assert delays == [0.0, 0.5, 1.0, 1.5]
        ServingCluster._register_failure(cluster, channel, 100.0)
        assert channel.parked and channel.next_restart_at is None

    def test_crash_loop_parks_worker_and_pool_degrades(self, bundle,
                                                       windows, supervision):
        """A slot whose respawns keep failing is parked by the circuit
        breaker; the cluster keeps serving on the surviving worker."""
        path, _ = bundle
        supervision(supervise_interval_s=0.02, restart_backoff_s=0.02,
                    restart_backoff_ceiling_s=0.1, max_crash_loop=2)
        with ServingCluster(path, workers=2, max_batch=2,
                            max_wait_ms=0.5) as cluster:
            cluster.predict(windows[0], timeout=60)
            victim = cluster._channels[0]

            def failing_respawn(*args, **kwargs):
                raise RuntimeError("injected respawn failure")

            victim.respawn = failing_respawn
            victim.process.kill()
            assert _wait_for(lambda: victim.parked, timeout_s=60.0)
            health = cluster.health()
            assert health.num_parked == 1
            assert cluster.parked_workers == 1
            assert health.degraded
            parked = [w for w in health.workers if w.state == "parked"]
            assert parked and parked[0].worker_id == victim.worker_id
            # The survivor still serves, and parked slots stay parked.
            for window in windows[:4]:
                assert cluster.predict(window, timeout=60).shape[0] == 3
            assert cluster.alive_workers == 1

    def test_corruption_outcomes_are_run_deterministic(self, bundle,
                                                       windows):
        """Same seed, same corruption outcome: a 1-worker sequential run
        hits the CRC mismatch on the same request index both times, and
        every other answer is bitwise identical across the runs."""
        path, _ = bundle
        plan = FaultPlan(workers=1, seed=9, horizon=4, kills_per_worker=0,
                         corruptions_per_worker=1)

        def run_once():
            outcomes = []
            with ServingCluster(path, workers=1, max_batch=1,
                                max_wait_ms=0.0, fault_plan=plan) as cluster:
                for window in windows[:6]:
                    try:
                        result = cluster.predict(window, timeout=60)
                    except RingCorruptionError:
                        outcomes.append("corrupt")
                    else:
                        outcomes.append(result.tobytes())
            return outcomes

        first, second = run_once(), run_once()
        assert first == second
        assert first.count("corrupt") == 1

    def test_corrupted_response_is_not_retried(self, bundle, windows):
        """CRC failure means the request *executed*: at-most-once forbids a
        re-dispatch even with a healthy peer available."""
        path, _ = bundle
        plan = FaultPlan(workers=2, seed=9, horizon=1, kills_per_worker=0,
                         corruptions_per_worker=1)
        with ServingCluster(path, workers=2, max_batch=1, max_wait_ms=0.0,
                            fault_plan=plan) as cluster:
            outcomes = {"ok": 0, "corrupt": 0}
            before = cluster.health().redispatches
            # A burst deep enough that both workers pull some of it.
            for future in [cluster.submit(window) for window in windows]:
                try:
                    future.result(timeout=60)
                except RingCorruptionError as error:
                    assert "not retried" in str(error)
                    outcomes["corrupt"] += 1
                else:
                    outcomes["ok"] += 1
            # horizon=1 puts both corruptions on ordinal 0: each worker's
            # first job comes back damaged, and neither was re-dispatched.
            assert outcomes == {"ok": len(windows) - 2, "corrupt": 2}
            assert cluster.health().redispatches == before

    def test_timed_out_batch_is_never_requeued(self, bundle, windows,
                                               supervision):
        """A batch whose worker timed out may still execute: it fails with a
        typed error and never goes back to the queue, even with a peer.
        ``max_crash_loop=1`` parks the timed-out slot on its first death."""
        path, _ = bundle
        plan = FaultPlan(workers=2, seed=0, horizon=1, kills_per_worker=0,
                         stalls_per_worker=1, stall_s=1.5)
        supervision(request_timeout_s=0.5, max_crash_loop=1)
        with ServingCluster(path, workers=2, max_batch=1, max_wait_ms=0.0,
                            fault_plan=plan) as cluster:
            before = cluster.health().redispatches
            with pytest.raises(ClusterError, match="at-most-once"):
                cluster.predict(windows[0], timeout=60)
            assert cluster.health().redispatches == before
            assert cluster.alive_workers == 1
            assert _wait_for(lambda: cluster.parked_workers == 1)

    def test_stall_and_slow_faults_delay_but_serve(self, bundle, windows):
        path, _ = bundle
        plan = FaultPlan(workers=1, seed=2, horizon=2, kills_per_worker=0,
                         stalls_per_worker=1, slow_batches_per_worker=1,
                         stall_s=0.2, slow_s=0.1)
        service = ForecastService.from_checkpoint(path)
        with ServingCluster(path, workers=1, max_batch=1, max_wait_ms=0.0,
                            fault_plan=plan) as cluster:
            start = time.monotonic()
            for window in windows[:2]:
                assert np.array_equal(
                    cluster.predict(window, timeout=60),
                    service.predict(window[None])[0],
                )
            assert time.monotonic() - start >= 0.3  # both delays were real

    def test_partial_startup_releases_every_ring(self, bundle, monkeypatch):
        """Worker k of N failing during start-up must stop the already
        started workers and unlink every shared-memory ring."""
        from multiprocessing import shared_memory

        path, _ = bundle
        created = []
        original_init = cluster_mod._WorkerChannel.__init__

        def spying_init(self, *args, **kwargs):
            created.append(self)
            original_init(self, *args, **kwargs)

        def failing_wait(self):
            raise ClusterError(
                f"worker {self.worker_id} injected startup failure"
            )

        monkeypatch.setattr(cluster_mod._WorkerChannel, "__init__",
                            spying_init)
        monkeypatch.setattr(cluster_mod._WorkerChannel, "wait_ready",
                            failing_wait)
        with pytest.raises(ClusterError, match="injected startup failure"):
            ServingCluster(path, workers=2, max_batch=2, max_wait_ms=1.0)
        assert len(created) == 2
        for channel in created:
            assert not channel.process.is_alive()
            for shm in (channel.request_shm, channel.response_shm):
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=shm.name)

    def test_failed_spawn_releases_the_half_built_channel(self, bundle,
                                                          monkeypatch):
        """A channel whose spawn fails is torn down by the same shutdown()
        as a running one: both of its rings are unlinked."""
        from multiprocessing import shared_memory

        path, _ = bundle
        created = []
        original_init = cluster_mod._WorkerChannel.__init__

        def spying_init(self, *args, **kwargs):
            created.append(self)
            original_init(self, *args, **kwargs)

        def failing_spawn(self, fault_schedule=None):
            raise OSError("injected spawn failure")

        monkeypatch.setattr(cluster_mod._WorkerChannel, "__init__",
                            spying_init)
        monkeypatch.setattr(cluster_mod._WorkerChannel, "_spawn",
                            failing_spawn)
        with pytest.raises(OSError, match="injected spawn failure"):
            ServingCluster(path, workers=2, max_batch=2)
        assert len(created) == 1
        for shm in (created[0].request_shm, created[0].response_shm):
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=shm.name)

    def test_busy_worker_is_not_declared_dead(self, bundle, windows,
                                              supervision):
        """Replies count as liveness: a worker kept busy by back-to-back
        requests never idles long enough to send a heartbeat, yet must not
        be killed for heartbeat staleness between batches."""
        path, _ = bundle
        ok, failed = [0, 0], []
        supervision(heartbeat_interval_s=0.1, heartbeat_timeout_s=0.5,
                    supervise_interval_s=0.05)
        with ServingCluster(path, workers=1, max_batch=2,
                            max_wait_ms=1.0) as cluster:
            stop_at = time.monotonic() + 3.0

            def client(slot):
                while time.monotonic() < stop_at:
                    try:
                        cluster.predict(windows[slot], timeout=60)
                    except Exception as error:  # noqa: BLE001 - counted
                        failed.append(repr(error))
                    else:
                        ok[slot] += 1

            threads = [threading.Thread(target=client, args=(slot,))
                       for slot in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            health = cluster.health()
        assert not any(thread.is_alive() for thread in threads)
        assert failed == []
        assert min(ok) > 0
        assert health.total_restarts == 0

    def test_idle_worker_heartbeats_at_the_patched_interval(self, bundle,
                                                            supervision):
        """The heartbeat interval reaches the spawned worker as an argument:
        a child that kept the module's 1 s default would miss a 0.5 s
        staleness bound and be restarted."""
        path, _ = bundle
        supervision(heartbeat_interval_s=0.1, heartbeat_timeout_s=0.5,
                    supervise_interval_s=0.05)
        with ServingCluster(path, workers=1, max_batch=1) as cluster:
            time.sleep(2.0)
            health = cluster.health()
        assert health.num_alive == 1
        assert health.total_restarts == 0

    def test_health_snapshot_is_json_safe(self, bundle, windows):
        import json

        path, _ = bundle
        with ServingCluster(path, workers=2, max_batch=2,
                            max_wait_ms=1.0) as cluster:
            cluster.predict(windows[0], timeout=60)
            health = json.loads(json.dumps(cluster.health().to_dict()))
            assert health["num_workers"] == 2
            assert health["num_alive"] == 2
            assert health["num_parked"] == 0
            assert len(health["workers"]) == 2
            assert all(w["state"] == "live" for w in health["workers"])
