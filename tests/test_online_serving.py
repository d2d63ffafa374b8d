"""Stateful online serving: sessions, incremental scalers, drift hot-swap.

Covers the three cross-layer guarantees of the online stack:

* **Incremental scalers** — ``StandardScaler.partial_fit`` over any chunking
  of a dataset matches a single ``fit`` to <= 1e-10 relative (Chan's
  parallel-variance merge), mask-aware, and a bundle-rehydrated scaler
  continues exactly where the saved one stopped.
* **Hot-swap bit-parity** — ``swap_index_set`` re-runs the cold-load freeze
  path, so a hot-swapped service answers bit-identically to a cold-started
  service loaded with the same index set, and in-flight requests during a
  swap always complete on exactly one generation.
* **Sessions + drift** — per-client history rings assemble the same window
  the batch data layer would, live metrics merge across sessions, and the
  drift monitor's overlap/cooldown state machine drives the swap.
"""

import inspect

import numpy as np
import pytest

from repro.core import SAGDFN, SAGDFNConfig
from repro.core.sampling import index_set_overlap
from repro.data.scalers import StandardScaler
from repro.evaluation.streaming import StreamingMetrics
from repro.serve import DriftConfig, DriftMonitor, ForecastService, SessionManager
from repro.serve.__main__ import main as serve_main
from repro.serve.online import StreamingSession
from repro.utils import load_bundle, save_bundle
from repro.utils.checkpoint import rehydrate_model, rehydrate_scaler

NODES = 8


def _tiny_config(**overrides):
    defaults = dict(
        num_nodes=NODES, input_dim=1, history=4, horizon=3, embedding_dim=6,
        num_significant=4, top_k=3, hidden_size=8, num_heads=2, ffn_hidden=4,
        seed=0,
    )
    defaults.update(overrides)
    return SAGDFNConfig(**defaults)


def _frozen_model(**overrides):
    model = SAGDFN(_tiny_config(**overrides))
    model.refresh_graph(10**6)
    return model


def _fresh_index_set(num_nodes, size, avoid, seed=11):
    """A valid index set deliberately different from ``avoid``."""
    rng = np.random.default_rng(seed)
    while True:
        candidate = np.sort(rng.choice(num_nodes, size=size, replace=False))
        if not np.array_equal(candidate, np.sort(np.asarray(avoid))):
            return candidate.astype(np.int64)


class _StubTarget:
    """Minimal swap-protocol implementation for drift-monitor unit tests."""

    def __init__(self):
        self.generation = 0
        self.swaps = []

    def swap_index_set(self, index_set):
        self.generation += 1
        self.swaps.append(np.asarray(index_set, dtype=np.int64).copy())
        return self.generation


class TestPartialFit:
    def test_chunked_partial_fit_matches_fit(self, rng):
        values = rng.normal(loc=13.0, scale=4.5, size=(1000, NODES))
        reference = StandardScaler().fit(values)
        incremental = StandardScaler()
        for chunk in np.array_split(values, 13):
            incremental.partial_fit(chunk)
        assert incremental.count_ == reference.count_ == values.size
        assert abs(incremental.mean_ - reference.mean_) <= 1e-10 * abs(reference.mean_)
        assert abs(incremental.std_ - reference.std_) <= 1e-10 * reference.std_

    def test_single_partial_fit_equals_fit_exactly(self, rng):
        values = rng.normal(size=(64, NODES))
        assert StandardScaler().partial_fit(values).mean_ == StandardScaler().fit(values).mean_

    def test_mask_aware_partial_fit_matches_masked_fit(self, rng):
        values = rng.normal(loc=5.0, size=(300, NODES))
        mask = rng.random(values.shape) > 0.3
        reference = StandardScaler().fit(values, sample_mask=mask)
        incremental = StandardScaler()
        for value_chunk, mask_chunk in zip(np.array_split(values, 7),
                                           np.array_split(mask, 7)):
            incremental.partial_fit(value_chunk, sample_mask=mask_chunk)
        assert incremental.count_ == reference.count_ == int(mask.sum())
        assert abs(incremental.mean_ - reference.mean_) <= 1e-10 * abs(reference.mean_)
        assert abs(incremental.std_ - reference.std_) <= 1e-10 * reference.std_

    def test_transform_roundtrip_after_partial_fit(self, rng):
        values = rng.normal(loc=-2.0, scale=3.0, size=(128, NODES))
        scaler = StandardScaler()
        for chunk in np.array_split(values, 4):
            scaler.partial_fit(chunk)
        assert np.allclose(scaler.inverse_transform(scaler.transform(values)), values)


class TestBundleV3:
    def test_v3_bundle_round_trips_drift_and_scaler_provenance(self, tmp_path, rng):
        model = _frozen_model()
        scaler = StandardScaler().fit(rng.normal(loc=7.0, size=(100, NODES)))
        drift = DriftConfig(overlap_threshold=0.4, min_history=16,
                            check_every=8, cooldown=4, history_window=32)
        path = save_bundle(model, tmp_path / "v3", scaler=scaler, drift=drift)
        bundle = load_bundle(path)
        assert bundle.version == 3
        assert bundle.drift["overlap_threshold"] == 0.4
        assert bundle.drift["check_every"] == 8
        assert bundle.scaler_state["count"] == 100 * NODES
        assert bundle.scaler_state["m2"] == pytest.approx(scaler._m2)
        # DriftConfig round-trips through its dict form
        assert DriftConfig(**bundle.drift) == drift

    def test_drift_record_accepts_plain_dict(self, tmp_path):
        model = _frozen_model()
        path = save_bundle(model, tmp_path / "d", drift={"overlap_threshold": 0.25})
        assert load_bundle(path).drift == {"overlap_threshold": 0.25}

    def test_rehydrated_scaler_supports_partial_fit(self, tmp_path, rng):
        model = _frozen_model()
        scaler = StandardScaler().fit(rng.normal(size=(50, NODES)))
        path = save_bundle(model, tmp_path / "s", scaler=scaler)
        revived = rehydrate_scaler(load_bundle(path))
        assert revived.count_ == scaler.count_
        revived.partial_fit(rng.normal(size=(10, NODES)))
        assert revived.count_ == scaler.count_ + 10 * NODES

class TestIndexSetOverlap:
    def test_identical_sets_overlap_fully(self):
        assert index_set_overlap([1, 3, 5], [5, 3, 1]) == 1.0

    def test_disjoint_sets_overlap_zero(self):
        assert index_set_overlap([0, 1], [2, 3]) == 0.0

    def test_partial_overlap_is_fraction_of_frozen(self):
        assert index_set_overlap([0, 1, 2, 3], [2, 3, 9, 10]) == 0.5

    def test_empty_frozen_set_counts_as_full_overlap(self):
        assert index_set_overlap([], [1, 2]) == 1.0

    def test_duplicates_are_collapsed(self):
        assert index_set_overlap([1, 1, 2], [1, 2, 2]) == 1.0


class TestHotSwap:
    def test_swap_bumps_generation_and_changes_output(self, rng):
        service = ForecastService(_frozen_model())
        window = rng.normal(size=(1, 4, NODES, 1))
        before = service.predict(window)
        fresh = _fresh_index_set(NODES, service.frozen.index_set.size,
                                 service.frozen.index_set)
        assert service.generation == 0
        assert service.swap_index_set(fresh) == 1
        assert service.generation == 1
        assert np.array_equal(service.frozen.index_set, fresh)
        assert not np.array_equal(service.predict(window), before)

    def test_hot_swap_is_bit_identical_to_cold_start(self, tmp_path, rng):
        model = _frozen_model()
        scaler = StandardScaler().fit(np.abs(rng.normal(5.0, 2.0, size=(64, NODES))))
        path = save_bundle(model, tmp_path / "swap", scaler=scaler)
        hot = ForecastService.from_checkpoint(path)
        fresh = _fresh_index_set(NODES, hot.frozen.index_set.size,
                                 hot.frozen.index_set)
        hot.swap_index_set(fresh)

        bundle = load_bundle(path)
        cold_model = rehydrate_model(bundle)
        cold_model._index_set = fresh.copy()
        cold = ForecastService(cold_model, scaler=rehydrate_scaler(bundle))

        window = rng.normal(size=(2, 4, NODES, 1))
        assert np.array_equal(hot.predict(window), cold.predict(window))

    def test_swap_back_restores_original_outputs_bitwise(self, rng):
        service = ForecastService(_frozen_model())
        original = service.frozen.index_set.copy()
        window = rng.normal(size=(1, 4, NODES, 1))
        before = service.predict(window)
        fresh = _fresh_index_set(NODES, original.size, original)
        service.swap_index_set(fresh)
        service.swap_index_set(original)
        assert service.generation == 2
        assert np.array_equal(service.predict(window), before)

    def test_swap_validates_range_and_duplicates(self):
        service = ForecastService(_frozen_model())
        size = service.frozen.index_set.size
        with pytest.raises(ValueError, match=r"lie in \[0"):
            service.swap_index_set(np.arange(NODES, NODES + size))
        with pytest.raises(ValueError, match="duplicate"):
            service.swap_index_set(np.zeros(size, dtype=np.int64))

    def test_inflight_requests_during_swap_complete_on_one_generation(self, rng):
        import threading

        service = ForecastService(_frozen_model())
        original = service.frozen.index_set.copy()
        fresh = _fresh_index_set(NODES, original.size, original)
        window = rng.normal(size=(1, 4, NODES, 1))
        ref_original = service.predict(window)
        service.swap_index_set(fresh)
        ref_fresh = service.predict(window)
        service.swap_index_set(original)

        outputs, errors = [], []
        go = threading.Event()

        def client():
            go.wait()
            try:
                for _ in range(30):
                    outputs.append(service.predict(window))
            except Exception as exc:  # noqa: BLE001 - the test asserts none
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        go.set()
        for index_set in (fresh, original, fresh, original):
            service.swap_index_set(index_set)
        for thread in threads:
            thread.join()

        assert not errors
        assert len(outputs) == 120
        for output in outputs:
            assert (np.array_equal(output, ref_original)
                    or np.array_equal(output, ref_fresh))


class TestDriftMonitor:
    def _monitor(self, target=None, frozen=(0, 1, 2, 3), **config):
        defaults = dict(min_history=8, check_every=8, cooldown=0,
                        history_window=16)
        defaults.update(config)
        return DriftMonitor.from_model_config(
            target or _StubTarget(),
            {"num_nodes": NODES, "num_significant": 4, "top_k": 3, "seed": 0},
            np.asarray(frozen, dtype=np.int64),
            config=DriftConfig(**defaults),
        )

    def test_below_min_history_measures_nothing(self, rng):
        monitor = self._monitor(min_history=8)
        monitor.observe(rng.normal(size=(4, NODES)))
        report = monitor.check_now()
        assert report.checked is False
        assert report.overlap is None
        assert report.swapped is False

    def test_forced_threshold_swaps_and_updates_frozen_set(self, rng):
        target = _StubTarget()
        monitor = self._monitor(target, overlap_threshold=1.01)
        monitor.observe(rng.normal(size=(8, NODES)))
        report = monitor.check_now()
        assert report.checked and report.swapped
        assert target.generation == 1
        assert np.array_equal(monitor.frozen_index_set, target.swaps[0])

    def test_zero_threshold_never_swaps(self, rng):
        target = _StubTarget()
        monitor = self._monitor(target, overlap_threshold=0.0)
        monitor.observe(rng.normal(size=(16, NODES)))
        assert monitor.check_now().swapped is False
        assert target.generation == 0

    def test_cooldown_blocks_consecutive_swaps(self, rng):
        target = _StubTarget()
        monitor = self._monitor(target, overlap_threshold=1.01, cooldown=12)
        monitor.observe(rng.normal(size=(12, NODES)))  # >= cooldown: may swap
        assert monitor.check_now().swapped is True
        monitor.observe(rng.normal(size=(4, NODES)))  # inside the cooldown
        report = monitor.check_now()
        assert report.checked is True and report.swapped is False
        monitor.observe(rng.normal(size=(8, NODES)))  # cooldown elapsed
        assert monitor.check_now().swapped is True
        assert target.generation == 2

    def test_reported_overlap_matches_manual_recomputation(self, rng):
        monitor = self._monitor(overlap_threshold=0.0)
        history = rng.normal(size=(16, NODES))
        monitor.observe(history)
        report = monitor.check_now()
        fresh = monitor.sampler.sample(history.T, explore=False)
        assert report.overlap == index_set_overlap([0, 1, 2, 3], fresh)

    def test_maybe_check_honours_cadence(self, rng):
        monitor = self._monitor(check_every=8, min_history=8)
        monitor.observe(rng.normal(size=(7, NODES)))
        assert monitor.maybe_check() is None
        monitor.observe(rng.normal(size=(1, NODES)))
        report = monitor.maybe_check()
        assert report is not None and report.checked
        assert monitor.maybe_check() is None  # counter reset by the check

    def test_observe_rejects_wrong_node_count(self):
        monitor = self._monitor()
        with pytest.raises(ValueError, match="nodes"):
            monitor.observe(np.zeros((2, NODES + 1)))

    def test_background_thread_runs_checks(self, rng):
        import time

        monitor = self._monitor(overlap_threshold=0.0)
        monitor.observe(rng.normal(size=(16, NODES)))
        monitor.start(interval_s=0.01)
        try:
            deadline = time.time() + 5.0
            while monitor.num_checks == 0 and time.time() < deadline:
                time.sleep(0.01)
        finally:
            monitor.stop()
        assert monitor.num_checks >= 1
        with pytest.raises(RuntimeError, match="started"):
            monitor.start()
            monitor.start()
        monitor.stop()


class TestStreamingSession:
    def _stub_session(self, **overrides):
        defaults = dict(history=4, horizon=3, num_nodes=NODES, width=1)
        defaults.update(overrides)
        horizon, nodes = defaults["horizon"], defaults["num_nodes"]
        calls = []

        def predict(window, mask):
            calls.append((window, mask))
            return np.zeros((horizon, nodes, 1))

        session = StreamingSession(predict, **defaults)
        return session, calls

    def test_forecast_before_window_fills_raises(self, rng):
        session, _ = self._stub_session()
        session.push(rng.normal(size=(3, NODES)))
        assert not session.ready
        with pytest.raises(RuntimeError, match="not yet full"):
            session.forecast()

    def test_window_holds_latest_history_rows_oldest_first(self, rng):
        scaler = StandardScaler().fit(rng.normal(loc=10.0, size=(50, NODES)))
        session, _ = self._stub_session(scaler=scaler)
        values = rng.normal(loc=10.0, size=(7, NODES))
        session.push(values)
        assert session.ready and session.rows_seen == 7
        expected = scaler.transform(values[-4:])
        assert np.allclose(session.window()[..., 0], expected)

    def test_push_shape_validation(self, rng):
        session, _ = self._stub_session()
        with pytest.raises(ValueError, match="values must be"):
            session.push(rng.normal(size=(2, NODES + 1)))
        with pytest.raises(ValueError, match="no covariate"):
            session.push(rng.normal(size=(2, NODES)),
                         covariates=rng.normal(size=(2, NODES, 1)))
        with pytest.raises(ValueError, match="mask_input"):
            session.push(rng.normal(size=(2, NODES)), mask=np.ones((2, NODES)))

    def test_covariate_channels_required_and_assembled(self, rng):
        session, _ = self._stub_session(width=2)
        with pytest.raises(ValueError, match="covariate"):
            session.push(rng.normal(size=(2, NODES)))
        covariates = rng.normal(size=(5, NODES, 1))
        session.push(rng.normal(size=(5, NODES)), covariates=covariates)
        assert np.allclose(session.window()[..., 1:], covariates[-4:])

    def test_masked_entries_are_zero_imputed_in_normalised_space(self, rng):
        scaler = StandardScaler().fit(rng.normal(loc=4.0, size=(50, NODES)))
        session, calls = self._stub_session(scaler=scaler, mask_input=True)
        values = rng.normal(loc=4.0, size=(4, NODES))
        mask = np.ones((4, NODES))
        mask[1, 2] = mask[3, 5] = 0
        session.push(values, mask=mask)
        window = session.window()[..., 0]
        assert window[1, 2] == 0.0 and window[3, 5] == 0.0
        observed = mask != 0
        assert np.allclose(window[observed], scaler.transform(values)[observed])
        session.forecast()
        (_, mask_arg), = calls
        assert np.array_equal(mask_arg, mask)

    def test_forecast_matches_direct_service_predict(self, rng):
        model = _frozen_model()
        scaler = StandardScaler().fit(np.abs(rng.normal(6.0, 2.0, size=(64, NODES))))
        service = ForecastService(model, scaler=scaler)
        session = StreamingSession(
            service.predict_one, history=4, horizon=3, num_nodes=NODES,
            width=1, scaler=scaler,
        )
        values = np.abs(rng.normal(6.0, 2.0, size=(6, NODES)))
        session.push(values)
        forecast = session.forecast()
        assert np.array_equal(forecast, service.predict_one(session.window()))
        assert forecast.shape == (3, NODES, 1)

    def test_live_metrics_score_completed_forecasts(self, rng):
        session, _ = self._stub_session()
        session.push(np.abs(rng.normal(3.0, 1.0, size=(4, NODES))))
        session.forecast()
        assert np.isnan(session.metrics.compute()["mae"])  # nothing scored yet
        session.push(np.abs(rng.normal(3.0, 1.0, size=(3, NODES))))
        scored = session.metrics.compute()
        assert scored["mae"] > 0  # stub predicts zeros against positive truth
        assert session.num_forecasts == 1


class TestSessionManager:
    @pytest.fixture
    def bundle_path(self, tmp_path, rng):
        model = _frozen_model()
        scaler = StandardScaler().fit(np.abs(rng.normal(5.0, 2.0, size=(128, NODES))))
        drift = DriftConfig(overlap_threshold=0.3, min_history=8,
                            check_every=8, cooldown=0, history_window=16)
        return save_bundle(model, tmp_path / "manager", scaler=scaler, drift=drift)

    def test_from_checkpoint_adopts_bundle_drift_config(self, bundle_path):
        manager = SessionManager.from_checkpoint(bundle_path)
        assert manager.monitor is not None
        assert manager.monitor.config.overlap_threshold == 0.3
        assert manager.monitor.config.check_every == 8
        assert manager.scaler is manager.target.scaler

    def test_push_forecast_roundtrip_and_metrics(self, bundle_path, rng):
        manager = SessionManager.from_checkpoint(bundle_path)
        stream = np.abs(rng.normal(5.0, 2.0, size=(10, NODES)))
        for row in stream[:6]:
            manager.push_observations("client-a", row[None])
        forecast = manager.forecast("client-a")
        assert forecast.shape == (3, NODES, 1)
        for row in stream[6:]:
            manager.push_observations("client-a", row[None])
        metrics = manager.metrics()
        assert metrics["mae"] > 0
        assert len(manager) == 1

    def test_forced_drift_threshold_triggers_hot_swap(self, bundle_path, rng):
        manager = SessionManager.from_checkpoint(
            bundle_path,
            drift={"overlap_threshold": 1.01, "min_history": 8,
                   "check_every": 8, "cooldown": 0, "history_window": 16},
        )
        assert manager.generation == 0
        reports = []
        for row in np.abs(rng.normal(5.0, 2.0, size=(8, NODES))):
            report = manager.push_observations("client", row[None])
            if report is not None:
                reports.append(report)
        assert len(reports) == 1
        assert reports[0].swapped is True
        assert manager.generation == 1

    def test_metrics_merge_across_sessions(self, bundle_path, rng):
        manager = SessionManager.from_checkpoint(bundle_path)
        for client in ("a", "b"):
            for row in np.abs(rng.normal(5.0, 2.0, size=(4, NODES))):
                manager.push_observations(client, row[None])
            manager.forecast(client)
            for row in np.abs(rng.normal(5.0, 2.0, size=(3, NODES))):
                manager.push_observations(client, row[None])
        merged = manager.metrics()
        singles = [manager.session(c).metrics.compute() for c in ("a", "b")]
        assert merged["mae"] == pytest.approx(
            np.average([s["mae"] for s in singles],
                       weights=[1, 1]), rel=1e-9,
        )

    def test_forecast_for_unknown_client_raises(self, bundle_path):
        manager = SessionManager.from_checkpoint(bundle_path)
        with pytest.raises(KeyError, match="unknown session"):
            manager.forecast("nobody")

    def test_update_scaler_extends_bundle_scaler(self, bundle_path, rng):
        manager = SessionManager.from_checkpoint(bundle_path, update_scaler=True)
        count_before = manager.scaler.count_
        manager.push_observations("c", np.abs(rng.normal(5.0, 2.0, size=(2, NODES))))
        assert manager.scaler.count_ == count_before + 2 * NODES

    def test_constructor_takes_only_the_target_and_session_settings(self):
        # config and scaler come off the target, which read the bundle
        assert list(inspect.signature(SessionManager).parameters) == [
            "target", "drift", "update_scaler", "null_value",
            "max_sessions", "session_ttl_s", "clock",
        ]

    def test_reads_config_scaler_and_index_set_off_the_target(self, bundle_path):
        service = ForecastService.from_checkpoint(bundle_path)
        manager = SessionManager(service, drift=DriftConfig(min_history=8))
        assert manager.config == service.config
        assert manager.scaler is service.scaler
        assert manager.width == service.expected_channels == 1
        assert np.array_equal(manager.monitor.frozen_index_set, service.index_set)

    def test_drift_dict_overrides_only_the_keys_it_names(self, bundle_path):
        manager = SessionManager.from_checkpoint(
            bundle_path, drift={"overlap_threshold": 0.9})
        config = manager.monitor.config
        assert config.overlap_threshold == 0.9
        # the rest is the bundle's record, not the DriftConfig defaults
        assert (config.min_history, config.check_every, config.history_window) == (8, 8, 16)

    def test_drift_config_replaces_the_bundle_record(self, bundle_path):
        manager = SessionManager.from_checkpoint(
            bundle_path, drift=DriftConfig(overlap_threshold=0.9))
        assert manager.monitor.config == DriftConfig(overlap_threshold=0.9)

    def test_bundle_is_read_once_per_target_kind(self, bundle_path, monkeypatch):
        import repro.serve.cluster as cluster_module
        import repro.serve.online as online_module

        calls = []
        real_load = online_module.load_bundle

        def counting_load(*args, **kwargs):
            calls.append(args)
            return real_load(*args, **kwargs)

        for module in (online_module, cluster_module):
            monkeypatch.setattr(module, "load_bundle", counting_load)
        SessionManager.from_checkpoint(bundle_path)
        assert len(calls) == 1
        manager = SessionManager.from_checkpoint(bundle_path, workers=1, max_batch=1)
        try:
            assert len(calls) == 2  # workers load their own copy
            assert manager.monitor.config.check_every == 8  # the bundle's record
            assert manager.scaler.mean_ == load_bundle(bundle_path).scaler_state["mean"]
        finally:
            manager.target.close()

    def test_update_scaler_over_a_cluster_is_refused_before_spawning(
            self, bundle_path, monkeypatch):
        # workers un-scale with the bundle's statistics, not the manager's
        from repro.serve.cluster import ServingCluster

        def no_spawn(self, *args, **kwargs):
            raise AssertionError("a cluster was started")

        monkeypatch.setattr(ServingCluster, "__init__", no_spawn)
        with pytest.raises(ValueError, match="update_scaler"):
            SessionManager.from_checkpoint(bundle_path, workers=2, update_scaler=True)
        with pytest.raises(ValueError, match="update_scaler"):
            SessionManager(ServingCluster.__new__(ServingCluster), update_scaler=True)


class _FakeClock:
    """Deterministic monotonic time source for TTL/LRU tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestSessionEviction:
    @pytest.fixture
    def bundle_path(self, tmp_path, rng):
        model = _frozen_model()
        scaler = StandardScaler().fit(
            np.abs(rng.normal(5.0, 2.0, size=(128, NODES)))
        )
        return save_bundle(model, tmp_path / "evict", scaler=scaler)

    def _manager(self, bundle_path, clock, **kwargs):
        service = ForecastService.from_checkpoint(bundle_path)
        return SessionManager(service, clock=clock, **kwargs)

    def test_lru_eviction_caps_registry(self, bundle_path):
        clock = _FakeClock()
        manager = self._manager(bundle_path, clock, max_sessions=2)
        for client in ("a", "b", "c"):
            manager.session(client)
            clock.advance(1.0)
        assert len(manager) == 2
        assert manager.num_evicted == 1
        assert set(manager._sessions) == {"b", "c"}  # "a" was coldest

    def test_touch_refreshes_lru_order(self, bundle_path):
        clock = _FakeClock()
        manager = self._manager(bundle_path, clock, max_sessions=2)
        manager.session("a")
        clock.advance(1.0)
        manager.session("b")
        clock.advance(1.0)
        manager.session("a")  # refresh: "b" is now the coldest
        clock.advance(1.0)
        manager.session("c")
        assert set(manager._sessions) == {"a", "c"}

    def test_own_session_never_evicted_under_caller(self, bundle_path):
        clock = _FakeClock()
        manager = self._manager(bundle_path, clock, max_sessions=1)
        first = manager.session("a")
        assert manager.session("a") is first  # repeat touch, no self-evict
        manager.session("b")
        assert set(manager._sessions) == {"b"}
        assert manager.num_evicted == 1

    def test_ttl_evicts_idle_sessions(self, bundle_path):
        clock = _FakeClock()
        manager = self._manager(bundle_path, clock, session_ttl_s=10.0)
        manager.session("idle")
        clock.advance(5.0)
        manager.session("fresh")
        clock.advance(6.0)  # "idle" is 11 s stale, "fresh" only 6 s
        manager.session("fresh")
        assert set(manager._sessions) == {"fresh"}
        assert manager.num_evicted == 1

    def test_evicted_metrics_survive_in_manager(self, bundle_path, rng):
        clock = _FakeClock()
        manager = self._manager(bundle_path, clock, max_sessions=1)
        stream = np.abs(rng.normal(5.0, 2.0, size=(7, NODES)))
        for row in stream[:4]:
            manager.push_observations("scored", row[None])
        manager.forecast("scored")
        for row in stream[4:]:  # horizon rows score the forecast
            manager.push_observations("scored", row[None])
        before = manager.metrics()
        assert before["mae"] > 0
        clock.advance(1.0)
        manager.session("newcomer")  # evicts "scored" at capacity
        assert manager.num_evicted == 1
        assert set(manager._sessions) == {"newcomer"}
        after = manager.metrics()
        assert after["mae"] == pytest.approx(before["mae"], rel=1e-12)
        assert after["rmse"] == pytest.approx(before["rmse"], rel=1e-12)

    def test_unbounded_by_default(self, bundle_path):
        clock = _FakeClock()
        manager = self._manager(bundle_path, clock)
        for index in range(32):
            manager.session(f"client-{index}")
            clock.advance(1000.0)
        assert len(manager) == 32
        assert manager.num_evicted == 0

    def test_bounds_validated(self, bundle_path):
        clock = _FakeClock()
        with pytest.raises(ValueError, match="max_sessions"):
            self._manager(bundle_path, clock, max_sessions=0)
        with pytest.raises(ValueError, match="session_ttl_s"):
            self._manager(bundle_path, clock, session_ttl_s=0.0)

    def test_from_checkpoint_wires_bounds(self, bundle_path):
        manager = SessionManager.from_checkpoint(
            bundle_path, max_sessions=3, session_ttl_s=60.0
        )
        assert manager.max_sessions == 3
        assert manager.session_ttl_s == 60.0


class TestStreamingMetricsMerge:
    def test_merge_equals_single_accumulator(self, rng):
        prediction = rng.normal(size=(6, 3, NODES, 1))
        target = np.abs(rng.normal(size=(6, 3, NODES, 1))) + 0.5
        whole = StreamingMetrics()
        whole.update(prediction, target)
        left, right = StreamingMetrics(), StreamingMetrics()
        left.update(prediction[:2], target[:2])
        right.update(prediction[2:], target[2:])
        merged = left.merge(right)
        assert merged is left
        for key, value in whole.compute().items():
            assert merged.compute()[key] == pytest.approx(value, rel=1e-12)

    def test_merge_into_empty_and_with_empty(self, rng):
        prediction = rng.normal(size=(2, 3, NODES, 1))
        target = np.abs(rng.normal(size=(2, 3, NODES, 1))) + 0.5
        loaded = StreamingMetrics()
        loaded.update(prediction, target)
        empty = StreamingMetrics()
        assert empty.merge(loaded).compute() == loaded.compute()
        assert loaded.merge(StreamingMetrics()).compute() == loaded.compute()

    def test_merge_rejects_mismatched_conventions(self):
        with pytest.raises(ValueError, match="masking or quantiles"):
            StreamingMetrics(null_value=0.0).merge(StreamingMetrics(null_value=None))
        with pytest.raises(ValueError, match="masking or quantiles"):
            StreamingMetrics(quantiles=(0.5,)).merge(StreamingMetrics())

    def test_nan_null_values_compare_equal(self):
        a = StreamingMetrics(null_value=float("nan"))
        b = StreamingMetrics(null_value=float("nan"))
        a.merge(b)  # must not raise


# The online paths read the bundle inside SessionManager.from_checkpoint.
SERVE_MODES = [[], ["--online"], ["--online", "--workers", "2"]]
SERVE_MODE_IDS = ["one-shot", "online", "online-cluster"]


class TestServeCLIErrors:
    """The serve entry point must fail with a one-line error, not a traceback."""

    @pytest.fixture
    def bundle_path(self, tmp_path):
        model = _frozen_model()
        return save_bundle(model, tmp_path / "cli")

    @pytest.mark.parametrize("mode", SERVE_MODES, ids=SERVE_MODE_IDS)
    def test_missing_bundle_exits_with_one_line_error(self, tmp_path, mode):
        missing = tmp_path / "nope.npz"
        with pytest.raises(SystemExit) as excinfo:
            serve_main([str(missing), *mode])
        message = str(excinfo.value)
        assert message == f"error: checkpoint bundle not found: {missing}"

    @pytest.mark.parametrize("mode", SERVE_MODES, ids=SERVE_MODE_IDS)
    def test_corrupt_bundle_exits_with_one_line_error(self, tmp_path, mode):
        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(b"this is not a numpy archive")
        with pytest.raises(SystemExit) as excinfo:
            serve_main([str(corrupt), *mode])
        message = str(excinfo.value)
        assert message.startswith(f"error: cannot load checkpoint bundle {corrupt}")
        assert "\n" not in message

    def test_wrong_input_channel_width_exits_with_one_line_error(
            self, bundle_path, tmp_path, rng):
        wrong = tmp_path / "wrong.npy"
        np.save(wrong, rng.normal(size=(2, 4, NODES, 7)))
        with pytest.raises(SystemExit) as excinfo:
            serve_main([str(bundle_path), "--input", str(wrong)])
        message = str(excinfo.value)
        assert "7 channels" in message and "expects" in message
        assert "\n" not in message

    def test_missing_bundle_subprocess_has_no_traceback(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "repro.serve", str(tmp_path / "absent.npz")],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"},
            cwd=repo_root,
        )
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert result.stderr.strip() == (
            f"error: checkpoint bundle not found: {tmp_path / 'absent.npz'}"
        )


class TestOnlineCLI:
    @pytest.fixture
    def bundle_path(self, tmp_path, rng):
        model = _frozen_model()
        scaler = StandardScaler().fit(np.abs(rng.normal(5.0, 2.0, size=(128, NODES))))
        return save_bundle(model, tmp_path / "online-cli", scaler=scaler,
                           drift=DriftConfig(min_history=8, check_every=8,
                                             cooldown=0, history_window=16))

    def test_online_replay_with_forced_drift_swaps(self, bundle_path, tmp_path,
                                                   capsys):
        output = tmp_path / "forecasts.npy"
        code = serve_main([
            str(bundle_path), "--online", "--steps", "32",
            "--drift-threshold", "1.01", "--forecast-every", "4",
            "--output", str(output),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "replayed 32 steps" in printed
        assert "drift check(s)" in printed
        swaps = int(printed.rsplit("drift check(s), ", 1)[1].split(" swap")[0])
        assert swaps >= 1
        forecasts = np.load(output)
        assert forecasts.shape[1:] == (3, NODES, 1)
        assert forecasts.shape[0] >= 1

    def test_online_cluster_forwards_the_memory_knobs(self, bundle_path,
                                                      monkeypatch):
        from repro.serve.cluster import ServingCluster

        seen = {}
        original_init = ServingCluster.__init__

        def spying_init(self, *args, **kwargs):
            seen.update(kwargs)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(ServingCluster, "__init__", spying_init)
        assert serve_main([
            str(bundle_path), "--online", "--steps", "8", "--workers", "2",
            "--chunk-size", "4", "--memory-budget-mb", "64",
        ]) == 0
        assert seen["chunk_size"] == 4
        assert seen["memory_budget_mb"] == 64.0

    def test_online_cluster_refuses_update_scaler_before_spawning(
            self, bundle_path, monkeypatch):
        from repro.serve.cluster import ServingCluster

        def no_spawn(self, *args, **kwargs):
            raise AssertionError("a cluster was started")

        monkeypatch.setattr(ServingCluster, "__init__", no_spawn)
        with pytest.raises(SystemExit) as excinfo:
            serve_main([str(bundle_path), "--online", "--workers", "2",
                        "--update-scaler"])
        message = str(excinfo.value)
        assert message.startswith("error: --update-scaler") and "\n" not in message

    def test_rejected_stream_closes_the_cluster(self, bundle_path, tmp_path,
                                                monkeypatch):
        from repro.serve.cluster import ServingCluster

        live_after_close = []
        original_close = ServingCluster.close

        def spying_close(self):
            original_close(self)
            live_after_close.append(self.alive_workers)

        monkeypatch.setattr(ServingCluster, "close", spying_close)
        wrong = tmp_path / "wrong_stream.npy"
        np.save(wrong, np.ones((16, NODES + 1)))
        with pytest.raises(SystemExit, match="--stream must be"):
            serve_main([str(bundle_path), "--online", "--workers", "2",
                        "--stream", str(wrong)])
        assert live_after_close[:1] == [0]

    def test_online_rejects_no_freeze(self, bundle_path, capsys):
        # the online path only ever serves the frozen graph: the flag is gone
        with pytest.raises(SystemExit) as exit_info:
            serve_main([str(bundle_path), "--online", "--no-freeze"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --no-freeze" in capsys.readouterr().err
