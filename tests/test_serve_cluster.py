"""Tests for the multi-worker serving cluster.

Covers the two guarantees the cluster must never break:

* **Bit parity** — every worker rehydrates the same bundle, so a
  4-worker cluster answers batch-1 requests bit-identically to a
  single-process :class:`ForecastService` on the same bundle.
* **Determinism under faults** — a worker killed mid-batch, a cluster
  with no survivors, or a shutdown with requests in flight must resolve
  or fail every Future descriptively; nothing may hang.

Worker start-up goes through ``multiprocessing`` spawn, so the suite
keeps models tiny and reuses one module-scoped 4-worker cluster for the
non-destructive tests.
"""

import asyncio
import inspect
import threading
import time
from itertools import combinations

import numpy as np
import pytest

from repro.core import SAGDFN, SAGDFNConfig
from repro.serve import ClusterError, ForecastService, ServingCluster
from repro.serve.__main__ import main as serve_main
from repro.utils import load_bundle, save_bundle
from repro.utils.checkpoint import rehydrate_model


def _different_index_set(frozen, num_nodes):
    """The first same-sized index set that differs from ``frozen``."""
    frozen = np.sort(np.asarray(frozen))
    for combo in combinations(range(num_nodes), frozen.size):
        candidate = np.asarray(combo, dtype=np.int64)
        if not np.array_equal(candidate, frozen):
            return candidate
    raise AssertionError("no alternative index set exists")


def _cold_service(bundle_data, index_set):
    """A cold-started single-process service frozen on ``index_set``."""
    model = rehydrate_model(bundle_data)
    model._index_set = np.asarray(index_set, dtype=np.int64).copy()
    return ForecastService(model)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A frozen-graph SAGDFN bundle small enough for fast worker start-up."""
    config = SAGDFNConfig(
        num_nodes=6, history=4, horizon=3, embedding_dim=8,
        num_significant=4, top_k=3, hidden_size=10,
        num_heads=2, ffn_hidden=8, seed=0,
    )
    model = SAGDFN(config)
    model.refresh_graph(0)
    path = save_bundle(model, tmp_path_factory.mktemp("cluster") / "bundle")
    return path, config


@pytest.fixture(scope="module")
def windows(bundle):
    _, config = bundle
    rng = np.random.default_rng(7)
    return rng.normal(size=(12, config.history, config.num_nodes,
                            config.input_dim))


@pytest.fixture(scope="module")
def cluster4(bundle):
    path, _ = bundle
    with ServingCluster(path, workers=4, max_batch=4, max_wait_ms=1.0) as cluster:
        yield cluster


class TestClusterServing:
    def test_four_workers_match_single_process_bitwise(self, bundle, windows,
                                                       cluster4):
        """Batch-1 requests through the 4-worker cluster are bit-identical
        to ``service.predict`` on the same bundle (same batch size, same
        rehydrated replica — nothing on the path may perturb a ulp)."""
        path, _ = bundle
        service = ForecastService.from_checkpoint(path)
        for window in windows:
            served = cluster4.predict(window, timeout=60)
            reference = service.predict(window[None])[0]
            assert np.array_equal(served, reference)

    def test_concurrent_burst_is_served_in_order(self, bundle, windows,
                                                 cluster4):
        path, _ = bundle
        service = ForecastService.from_checkpoint(path)
        before = cluster4.stats.num_requests
        futures = [cluster4.submit(window) for window in windows]
        results = np.stack([future.result(timeout=60) for future in futures])
        reference = service.predict(windows)
        assert np.allclose(results, reference, atol=1e-9)
        assert cluster4.stats.num_requests - before == len(windows)

    def test_async_front_door_gathers_in_order(self, bundle, windows,
                                               cluster4):
        path, _ = bundle
        service = ForecastService.from_checkpoint(path)
        results = asyncio.run(cluster4.serve_async(windows))
        assert np.allclose(results, service.predict(windows), atol=1e-9)

    def test_burst_spreads_over_every_worker(self, cluster4, windows):
        """Every worker's puller takes part of a concurrent burst (counted
        per worker through the channel trace hook; clients keep the burst
        going until each worker has served, so a starved thread scheduler
        delays the test instead of failing it)."""
        dispatches = {channel.worker_id: 0 for channel in cluster4._channels}

        def counter(worker_id):
            def trace(kind, seq, slot, batch):
                if kind == "dispatch":
                    dispatches[worker_id] += 1
            return trace

        for channel in cluster4._channels:
            channel.trace = counter(channel.worker_id)
        stop_at = time.monotonic() + 60.0

        def client(window):
            cluster4.predict(window, timeout=60)
            while min(dispatches.values()) == 0 and time.monotonic() < stop_at:
                cluster4.predict(window, timeout=60)

        threads = []
        for window in windows:
            for _ in range(2):
                threads.append(threading.Thread(target=client, args=(window,)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for channel in cluster4._channels:
            channel.trace = None
        assert all(count > 0 for count in dispatches.values())

    def test_mask_for_maskless_bundle_is_rejected(self, cluster4, windows):
        with pytest.raises(ValueError, match="mask"):
            cluster4.submit(windows[0], mask=np.ones(windows[0].shape[:2]))

    def test_wrong_channel_width_is_rejected(self, cluster4, windows):
        wrong = np.ones(windows[0].shape[:2] + (windows[0].shape[-1] + 3,))
        with pytest.raises(ValueError, match="channel"):
            cluster4.submit(wrong)

    def test_invalid_configuration(self, bundle):
        path, _ = bundle
        with pytest.raises(ValueError):
            ServingCluster(path, workers=0)

    def test_keeps_what_the_bundle_said(self, cluster4, bundle):
        path, config = bundle
        record = load_bundle(path)
        assert cluster4.config == record.config
        assert cluster4.scaler is None and cluster4.drift is None
        assert np.array_equal(cluster4.index_set, record.index_set)
        assert cluster4.window_shape == (config.history, config.num_nodes,
                                         config.encoder_input_width)
        assert cluster4.prediction_shape == (config.horizon, config.num_nodes, 1)

    def test_non_sagdfn_bundle_fails_before_any_worker_spawns(
            self, tmp_path, monkeypatch):
        from repro.baselines import build_baseline
        from repro.serve import cluster as cluster_module

        path = save_bundle(build_baseline("GRU", 5, 2, 4, 3, hidden_size=8),
                           tmp_path / "gru")

        def no_spawn(self, *args, **kwargs):
            raise AssertionError("a worker was started")

        monkeypatch.setattr(cluster_module._WorkerChannel, "__init__", no_spawn)
        with pytest.raises(ClusterError, match="SAGDFN"):
            ServingCluster(path, workers=1)

    def test_constructor_takes_only_deployment_settings(self):
        # timings live in cluster.SUPERVISION, not in the constructor
        assert list(inspect.signature(ServingCluster).parameters) == [
            "bundle_path", "workers", "max_batch", "max_wait_ms",
            "max_pending", "chunk_size", "memory_budget_mb", "fault_plan",
        ]


class TestClusterFaults:
    def test_worker_killed_mid_service_redispatches(self, bundle, windows,
                                                    supervision):
        """SIGKILL one of two workers, then serve a burst: every request
        must still resolve (dead-worker batches re-dispatch to the live
        peer) and the cluster must record the death, parking the slot
        (``max_crash_loop=1``)."""
        path, _ = bundle
        supervision(request_timeout_s=30.0, max_crash_loop=1)
        with ServingCluster(path, workers=2, max_batch=4,
                            max_wait_ms=1.0) as cluster:
            service = ForecastService.from_checkpoint(path)
            cluster.predict(windows[0], timeout=60)  # warm both ends
            cluster._channels[0].process.kill()
            cluster._channels[0].process.join(10.0)
            futures = [cluster.submit(window) for window in windows]
            results = np.stack([future.result(timeout=60) for future in futures])
            assert np.allclose(results, service.predict(windows), atol=1e-9)
            assert cluster.alive_workers == 1
            deadline = time.monotonic() + 30.0
            while not cluster.parked_workers and time.monotonic() < deadline:
                time.sleep(0.02)
            assert cluster.parked_workers == 1
            # Later submits route straight to the survivor.
            assert np.array_equal(
                cluster.predict(windows[0], timeout=60),
                service.predict(windows[0][None])[0],
            )

    def test_no_surviving_worker_fails_futures_descriptively(self, bundle,
                                                             windows,
                                                             supervision):
        path, _ = bundle
        supervision(request_timeout_s=30.0, max_crash_loop=1)
        with ServingCluster(path, workers=1, max_batch=4,
                            max_wait_ms=1.0) as cluster:
            cluster.predict(windows[0], timeout=60)
            cluster._channels[0].process.kill()
            cluster._channels[0].process.join(10.0)
            future = cluster.submit(windows[0])
            with pytest.raises(ClusterError, match="no live worker"):
                future.result(timeout=60)
            # With the death recorded, submit itself now fails fast.
            with pytest.raises(ClusterError, match="no live workers"):
                cluster.submit(windows[0])
            assert cluster.parked_workers == 1

    def test_close_with_inflight_requests_resolves_everything(self, bundle,
                                                              windows):
        path, _ = bundle
        cluster = ServingCluster(path, workers=2, max_batch=4, max_wait_ms=1.0)
        futures = [cluster.submit(window) for window in windows]
        cluster.close()  # drains before stopping the workers
        for future in futures:
            assert future.done()
            assert future.result(timeout=1).shape[0] == windows.shape[1] - 1
        with pytest.raises(RuntimeError, match="closed"):
            cluster.submit(windows[0])

    def test_close_stops_workers_and_unlinks_shared_memory(self, bundle,
                                                           windows):
        from multiprocessing import shared_memory

        path, _ = bundle
        cluster = ServingCluster(path, workers=2, max_batch=4, max_wait_ms=1.0)
        names = [channel.request_shm.name for channel in cluster._channels]
        names += [channel.response_shm.name for channel in cluster._channels]
        processes = [channel.process for channel in cluster._channels]
        cluster.predict(windows[0], timeout=60)
        cluster.close()
        cluster.close()  # idempotent
        for process in processes:
            assert not process.is_alive()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestRingWraparound:
    def test_sustained_load_wraps_slots_without_reuse_while_unread(
            self, bundle, windows):
        """Serve far more requests than ``slots x max_batch`` through one
        worker and use the channel trace hook to prove the ring invariant:
        a slot is never re-dispatched while its previous response is still
        unread.  Sequential batch-1 requests stay bit-identical to the
        single-process service; the concurrent burst (which coalesces into
        larger micro-batches) stays within float64 round-off of it."""
        path, _ = bundle
        events = []
        with ServingCluster(path, workers=1, max_batch=2,
                            max_wait_ms=0.5) as cluster:
            channel = cluster._channels[0]
            channel.trace = (
                lambda kind, seq, slot, batch: events.append((kind, seq, slot))
            )
            service = ForecastService.from_checkpoint(path)
            for window in windows:  # 12 sequential requests > 2 x 2 capacity
                served = cluster.predict(window, timeout=60)
                assert np.array_equal(served, service.predict(window[None])[0])
            futures = [cluster.submit(window) for window in windows]
            results = np.stack([future.result(timeout=60) for future in futures])
            assert np.allclose(results, service.predict(windows), atol=1e-9)

        outstanding = {}
        dispatches_per_slot = {}
        for kind, seq, slot in events:
            if kind == "dispatch":
                assert outstanding.get(slot) is None, (
                    f"slot {slot} re-dispatched while seq "
                    f"{outstanding[slot]} was still unread"
                )
                outstanding[slot] = seq
                dispatches_per_slot[slot] = dispatches_per_slot.get(slot, 0) + 1
            else:
                assert kind == "complete"
                assert outstanding.get(slot) == seq
                outstanding[slot] = None
        assert sum(dispatches_per_slot.values()) >= len(windows)
        assert max(dispatches_per_slot.values()) > 1  # the ring really wrapped


class TestClusterHotSwap:
    def test_swap_broadcast_matches_cold_start_bitwise(self, bundle, windows):
        path, config = bundle
        bundle_data = load_bundle(path)
        fresh = _different_index_set(bundle_data.index_set, config.num_nodes)
        with ServingCluster(path, workers=2, max_batch=4,
                            max_wait_ms=1.0) as cluster:
            before = cluster.predict(windows[0], timeout=60)
            assert cluster.generation == 0
            assert cluster.swap_index_set(fresh) == 1
            assert cluster.generation == 1
            assert np.array_equal(cluster.index_set, fresh)
            assert cluster.alive_workers == 2
            cold = _cold_service(bundle_data, fresh)
            for window in windows[:4]:
                assert np.array_equal(
                    cluster.predict(window, timeout=60),
                    cold.predict(window[None])[0],
                )
            assert not np.array_equal(
                cluster.predict(windows[0], timeout=60), before
            )

    def test_inflight_requests_during_swap_complete_on_one_generation(
            self, bundle, windows):
        """Clients hammering a 2-worker cluster across three hot-swaps:
        every request resolves without error, and each answer is bitwise
        one of the two per-generation cold-start references (``max_batch=1``
        keeps every request a batch of one, so bitwise comparison holds)."""
        path, config = bundle
        bundle_data = load_bundle(path)
        # keep the original order — the frozen kernel is order-significant
        frozen = np.asarray(bundle_data.index_set, dtype=np.int64)
        fresh = _different_index_set(frozen, config.num_nodes)
        window = windows[0]
        ref_frozen = _cold_service(bundle_data, frozen).predict(window[None])[0]
        ref_fresh = _cold_service(bundle_data, fresh).predict(window[None])[0]

        with ServingCluster(path, workers=2, max_batch=1,
                            max_wait_ms=0.5) as cluster:
            outputs, errors = [], []
            stop = threading.Event()

            def client():
                try:
                    while not stop.is_set() and len(outputs) < 200:
                        outputs.append(cluster.predict(window, timeout=60))
                except Exception as exc:  # noqa: BLE001 - asserted empty
                    errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(3)]
            for thread in threads:
                thread.start()
            for index_set in (fresh, frozen, fresh):
                cluster.swap_index_set(index_set)
            stop.set()
            for thread in threads:
                thread.join()

            assert not errors
            assert outputs
            assert cluster.generation == 3
            assert cluster.alive_workers == 2
            for output in outputs:
                assert (np.array_equal(output, ref_frozen)
                        or np.array_equal(output, ref_fresh))

    def test_swap_rejected_after_close(self, bundle):
        path, config = bundle
        cluster = ServingCluster(path, workers=1, max_batch=2, max_wait_ms=1.0)
        fresh = _different_index_set(cluster.index_set, config.num_nodes)
        cluster.close()
        with pytest.raises(RuntimeError, match="closed"):
            cluster.swap_index_set(fresh)


class TestClusterCLI:
    def test_workers_flag_routes_through_cluster(self, bundle, tmp_path,
                                                 capsys):
        path, _ = bundle
        output = tmp_path / "predictions.npy"
        code = serve_main([str(path), "--workers", "2", "--requests", "6",
                           "--max-batch", "3", "--output", str(output)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "2-worker cluster" in printed
        assert "served 6 requests" in printed
        assert np.load(output).shape[0] == 6

    def test_cluster_cli_matches_single_process_cli(self, bundle, tmp_path):
        path, _ = bundle
        single = tmp_path / "single.npy"
        clustered = tmp_path / "clustered.npy"
        assert serve_main([str(path), "--requests", "5", "--seed", "3",
                           "--output", str(single)]) == 0
        assert serve_main([str(path), "--workers", "2", "--requests", "5",
                           "--seed", "3", "--output", str(clustered)]) == 0
        assert np.allclose(np.load(single), np.load(clustered), atol=1e-9)

    def test_typed_cluster_failures_are_counted_not_raised(
            self, bundle, monkeypatch, capsys):
        """A future failed with a ClusterError is counted as failed on the
        admission line (never as served), and the CLI exits 1."""
        from concurrent.futures import Future

        def failed_submit(self, window, mask=None, deadline_s=None):
            future = Future()
            future.set_exception(ClusterError("injected worker loss"))
            return future

        monkeypatch.setattr(ServingCluster, "submit", failed_submit)
        path, _ = bundle
        code = serve_main([str(path), "--workers", "2", "--requests", "3"])
        printed = capsys.readouterr().out
        assert code == 1
        assert "served 0 requests" in printed
        assert "3 failed" in printed

    def test_invalid_workers_flag(self, bundle):
        path, _ = bundle
        with pytest.raises(SystemExit, match="--workers"):
            serve_main([str(path), "--workers", "0"])

    @pytest.mark.parametrize("flag, value",
                             [("--max-batch", "0"), ("--max-wait-ms", "-1")])
    def test_invalid_batching_flag_is_not_reported_as_a_bundle_error(
            self, bundle, flag, value):
        path, _ = bundle
        with pytest.raises(SystemExit, match=f"^{flag} must be"):
            serve_main([str(path), "--workers", "2", flag, value])
