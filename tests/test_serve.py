"""Tests for the frozen-graph inference service and the micro-batching queue."""

import inspect
import logging
import threading
import time
from dataclasses import asdict

import numpy as np
import pytest

from repro.baselines import build_baseline
from repro.core import SAGDFN, SAGDFNConfig, Trainer
from repro.data.synthetic.traffic import TrafficConfig, generate_traffic_dataset
from repro.experiments.common import prepare_data_from_series, small_sagdfn_config
from repro.optim import Adam
from repro.serve import BatchStats, ForecastService, MicroBatcher
from repro.serve.__main__ import main as serve_main
from repro.tensor import Tensor, no_grad
from repro.utils import save_bundle, save_checkpoint


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A briefly-trained SAGDFN, its data, and a serving bundle on disk."""
    series = generate_traffic_dataset(TrafficConfig(num_nodes=8, num_steps=160, seed=5))
    data = prepare_data_from_series(series, history=4, horizon=3, batch_size=8,
                                    seed=0, name="serve_tiny")
    config = small_sagdfn_config(data, num_significant=6, top_k=4,
                                 convergence_iteration=3, hidden_size=12)
    model = SAGDFN(config)
    trainer = Trainer(model, Adam(model.parameters(), lr=5e-3), scaler=data.scaler)
    trainer.fit(data.train_loader, epochs=1)
    model.refresh_graph(config.convergence_iteration + 1)  # freeze the index set
    bundle_path = save_bundle(model, tmp_path_factory.mktemp("serve") / "bundle",
                              scaler=data.scaler, metadata={"epochs": 1})
    return model, trainer, data, bundle_path


def _trainer_forward(model, scaler, batch_x):
    """The exact Trainer.evaluate per-batch forward."""
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            out = model(Tensor(batch_x)) * scaler.std_ + scaler.mean_
        return out.data
    finally:
        model.train(was_training)


class TestForecastService:
    def test_frozen_predictions_match_trainer_forward(self, trained):
        model, _, data, _ = trained
        service = ForecastService(model, scaler=data.scaler)
        assert service.frozen is not None
        for batch_x, _ in data.test_loader:
            reference = _trainer_forward(model, data.scaler, batch_x)
            assert np.abs(service.predict(batch_x) - reference).max() < 1e-6

    def test_from_checkpoint_matches_live_model(self, trained):
        model, _, data, bundle_path = trained
        live = ForecastService(model, scaler=data.scaler)
        rehydrated = ForecastService.from_checkpoint(bundle_path)
        assert rehydrated.frozen is not None
        assert np.array_equal(rehydrated.frozen.index_set, live.frozen.index_set)
        assert np.allclose(rehydrated.frozen.adjacency, live.frozen.adjacency)
        batch_x, _ = next(iter(data.test_loader))
        assert np.allclose(rehydrated.predict(batch_x), live.predict(batch_x))

    def test_streaming_evaluate_matches_trainer(self, trained):
        model, trainer, data, bundle_path = trained
        service = ForecastService.from_checkpoint(bundle_path)
        served = service.evaluate(data.test_loader)
        reference = trainer.evaluate(data.test_loader)
        for key in ("mae", "rmse", "mape"):
            assert served[key] == pytest.approx(reference[key], rel=1e-9)

    def test_non_sagdfn_model_is_refused(self):
        model = build_baseline("GRU", 5, 2, 4, 3, hidden_size=8)
        with pytest.raises(TypeError, match="GRU"):
            ForecastService(model)

    def test_settable_values_are_scaler_and_memory_knobs(self):
        init = inspect.signature(ForecastService.__init__).parameters
        assert list(init) == ["self", "model", "scaler", "chunk_size", "memory_budget_mb"]
        load = inspect.signature(ForecastService.from_checkpoint).parameters
        assert list(load) == ["path", "chunk_size", "memory_budget_mb"]

    def test_config_is_the_models_config(self, trained):
        model, _, data, bundle_path = trained
        expected = asdict(model.config)
        assert ForecastService(model, scaler=data.scaler).config == expected
        assert ForecastService.from_checkpoint(bundle_path).config == expected

    def test_predict_one_and_validation(self, trained):
        model, _, data, _ = trained
        service = ForecastService(model, scaler=data.scaler)
        batch_x, _ = next(iter(data.test_loader))
        single = service.predict_one(batch_x[0])
        assert np.allclose(single, service.predict(batch_x[:1])[0])
        with pytest.raises(ValueError):
            service.predict(batch_x[0])  # missing batch dimension
        with pytest.raises(ValueError):
            service.predict_one(batch_x)  # extra batch dimension

    def test_empty_requests(self, trained):
        """An empty batch is served as an empty forecast; a history without
        time steps is refused with its shape named."""
        _, _, data, bundle_path = trained
        service = ForecastService.from_checkpoint(bundle_path)
        batch_x, _ = next(iter(data.test_loader))
        _, steps, nodes, channels = batch_x.shape
        empty = service.predict(batch_x[:0])
        assert empty.shape == (0, service.config["horizon"], nodes, 1)
        assert empty.dtype == service.predict(batch_x[:1]).dtype
        with pytest.raises(ValueError, match=rf"\(2, 0, {nodes}, {channels}\)"):
            service.predict(batch_x[:2, :0])

    def test_request_counter(self, trained):
        model, _, data, _ = trained
        service = ForecastService(model, scaler=data.scaler)
        batch_x, _ = next(iter(data.test_loader))
        service.predict(batch_x)
        service.predict_one(batch_x[0])
        assert service.num_requests == batch_x.shape[0] + 1

    @pytest.mark.parametrize("predefined", [True, False], ids=["predefined", "sagdfn"])
    def test_missing_index_set_warning(self, caplog, predefined):
        """A predefined-graph model has no index set by design and loads
        quietly; a SAGDFN without one still warns that it samples one."""
        config = SAGDFNConfig(num_nodes=8, history=3, horizon=2, num_significant=4,
                              top_k=3, hidden_size=6, num_heads=2, ffn_hidden=4,
                              use_predefined_graph=predefined)
        adjacency = np.random.default_rng(0).random((8, 8)) if predefined else None
        model = SAGDFN(config, predefined_adjacency=adjacency)
        assert model.index_set is None
        logger = logging.getLogger("repro.serve")  # does not propagate to caplog
        logger.addHandler(caplog.handler)
        try:
            ForecastService(model)
        finally:
            logger.removeHandler(caplog.handler)
        warnings = [record for record in caplog.records
                    if "no frozen significant-neighbour index set" in record.getMessage()]
        assert [record.levelname for record in warnings] == ([] if predefined
                                                             else ["WARNING"])
        assert (model.index_set is None) == predefined

    def test_frozen_graph_skips_attention(self, trained, monkeypatch):
        """After freezing, requests must not re-run SNS or the attention."""
        model, _, data, _ = trained
        service = ForecastService(model, scaler=data.scaler)

        def _fail(*args, **kwargs):
            raise AssertionError("attention re-ran during a frozen-graph request")

        monkeypatch.setattr(model.attention, "forward", _fail)
        monkeypatch.setattr(model.sampler, "sample", _fail)
        batch_x, _ = next(iter(data.test_loader))
        service.predict(batch_x)  # must not touch the patched paths


class TestMicroBatcher:
    def test_results_match_direct_prediction_in_order(self, trained):
        model, _, data, _ = trained
        service = ForecastService(model, scaler=data.scaler)
        batch_x, _ = next(iter(data.test_loader))
        direct = service.predict(batch_x)
        with MicroBatcher(service.predict, max_batch=3, max_wait_ms=20.0) as batcher:
            futures = [batcher.submit(window) for window in batch_x]
            results = np.stack([future.result(timeout=30) for future in futures])
        assert np.allclose(results, direct)
        assert batcher.stats.num_requests == batch_x.shape[0]

    def test_coalesces_up_to_max_batch(self, trained):
        model, _, data, _ = trained
        service = ForecastService(model, scaler=data.scaler)
        batch_x, _ = next(iter(data.test_loader))
        batcher = MicroBatcher(service.predict, max_batch=4, max_wait_ms=200.0)
        try:
            futures = [batcher.submit(window) for window in batch_x[:8]]
            for future in futures:
                future.result(timeout=30)
            assert batcher.stats.max_batch_size <= 4
            assert batcher.stats.num_batches >= 2
            assert batcher.stats.mean_batch_size > 1.0
        finally:
            batcher.close()

    def test_concurrent_clients(self, trained):
        model, _, data, _ = trained
        service = ForecastService(model, scaler=data.scaler)
        batch_x, _ = next(iter(data.test_loader))
        direct = service.predict(batch_x)
        results = {}

        def client(i):
            results[i] = batcher.predict(batch_x[i], timeout=30)

        with MicroBatcher(service.predict, max_batch=8, max_wait_ms=10.0) as batcher:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(batch_x.shape[0])]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for i in range(batch_x.shape[0]):
            assert np.allclose(results[i], direct[i])

    def test_prediction_errors_propagate_to_futures(self):
        def broken(batch):
            raise RuntimeError("model exploded")

        with MicroBatcher(broken, max_batch=2, max_wait_ms=1.0) as batcher:
            future = batcher.submit(np.zeros((2, 3, 1)))
            with pytest.raises(RuntimeError, match="model exploded"):
                future.result(timeout=30)

    def test_failed_batches_are_recorded_in_stats(self):
        def broken(batch):
            raise RuntimeError("model exploded")

        batcher = MicroBatcher(broken, max_batch=4, max_wait_ms=50.0)
        try:
            futures = [batcher.submit(np.zeros((1, 1, 1))) for _ in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError):
                    future.result(timeout=30)
        finally:
            batcher.close()
        stats = batcher.stats
        assert stats.num_requests == 3
        assert stats.num_batches >= 1
        assert stats.num_failed_batches == stats.num_batches
        assert stats.mean_batch_size > 0

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(lambda batch: batch, max_batch=2, max_wait_ms=0.0)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(np.zeros((1, 1, 1)))
        batcher.close()  # idempotent

    def test_submit_close_race_never_drops_a_future(self):
        """Hammer submit() against close(): every submission must either be
        rejected with RuntimeError or produce a Future that resolves — a
        Future that never resolves means the window landed on a dead queue."""
        for round_ in range(20):
            batcher = MicroBatcher(lambda batch: batch * 2.0, max_batch=4,
                                   max_wait_ms=0.0)
            outcomes = []

            def client():
                try:
                    outcomes.append(batcher.submit(np.ones((1, 1, 1))))
                except RuntimeError:
                    outcomes.append(None)

            threads = [threading.Thread(target=client) for _ in range(8)]
            for thread in threads:
                thread.start()
            batcher.close()
            for thread in threads:
                thread.join()
            for future in outcomes:
                if future is not None:
                    assert np.allclose(future.result(timeout=5), 2.0)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda batch: batch, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda batch: batch, max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda batch: batch, expected_channels=0)

    def test_cancelled_future_does_not_kill_worker(self):
        """Regression: a Future cancelled while queued used to blow up the
        worker thread with InvalidStateError at set_result time, silently
        killing the batcher for every later request."""
        entered = threading.Event()
        release = threading.Event()

        def slow(batch):
            entered.set()
            release.wait(timeout=30)
            return batch * 2.0

        batcher = MicroBatcher(slow, max_batch=4, max_wait_ms=0.0)
        try:
            blocker = batcher.submit(np.ones((1, 1, 1)))
            assert entered.wait(timeout=10)
            # Three requests queue behind the in-flight batch; cancel the
            # middle one before the worker ever sees it.
            queued = [batcher.submit(np.ones((1, 1, 1))) for _ in range(3)]
            assert queued[1].cancel()
            release.set()
            assert np.allclose(blocker.result(timeout=30), 2.0)
            assert np.allclose(queued[0].result(timeout=30), 2.0)
            assert np.allclose(queued[2].result(timeout=30), 2.0)
            assert queued[1].cancelled()
            # The worker thread must have survived the cancelled Future.
            follow_up = batcher.submit(np.ones((1, 1, 1)))
            assert np.allclose(follow_up.result(timeout=30), 2.0)
            assert batcher.stats.num_requests == 4  # cancelled one not served
        finally:
            release.set()
            batcher.close()

    def test_fully_cancelled_batch_is_skipped(self):
        entered = threading.Event()
        release = threading.Event()

        def slow(batch):
            entered.set()
            release.wait(timeout=30)
            return batch

        batcher = MicroBatcher(slow, max_batch=2, max_wait_ms=0.0)
        try:
            blocker = batcher.submit(np.ones((1, 1, 1)))
            assert entered.wait(timeout=10)
            queued = [batcher.submit(np.ones((1, 1, 1))) for _ in range(2)]
            for future in queued:
                assert future.cancel()
            release.set()
            blocker.result(timeout=30)
            follow_up = batcher.submit(np.ones((1, 1, 1)))
            follow_up.result(timeout=30)
            assert batcher.stats.num_requests == 2
        finally:
            release.set()
            batcher.close()


class TestBatchStatsThreadSafety:
    def test_record_is_thread_safe(self):
        """Regression: unguarded ``num_requests += batch`` dropped counts
        under concurrent recording."""
        stats = BatchStats()
        rounds, threads_n = 2000, 8

        def hammer():
            for _ in range(rounds):
                stats.record(1)

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.num_requests == rounds * threads_n
        assert stats.num_batches == rounds * threads_n


class TestMaskThroughBatcher:
    def _make(self, expected_channels, mask_input, calls):
        def fn(batch):
            calls.append(batch)
            return batch

        return MicroBatcher(fn, max_batch=4, max_wait_ms=1.0,
                            expected_channels=expected_channels,
                            mask_input=mask_input)

    def test_mask_is_concatenated_as_trailing_channel(self):
        calls = []
        window = np.random.default_rng(0).normal(size=(4, 5, 2))
        mask = np.ones((4, 5))
        mask[1, 2] = 0.0
        with self._make(3, True, calls) as batcher:
            result = batcher.predict(window, mask=mask, timeout=30)
        assert result.shape == (4, 5, 3)
        assert np.array_equal(result[..., :2], window)
        assert np.array_equal(result[..., 2], mask)

    def test_pre_concatenated_mask_window_is_accepted(self):
        calls = []
        window = np.ones((4, 5, 3))
        with self._make(3, True, calls) as batcher:
            assert batcher.predict(window, timeout=30).shape == (4, 5, 3)

    def test_missing_mask_channel_is_rejected_with_hint(self):
        calls = []
        with self._make(3, True, calls) as batcher:
            with pytest.raises(ValueError, match="mask"):
                batcher.submit(np.ones((4, 5, 2)))

    def test_mask_for_maskless_model_is_rejected(self):
        calls = []
        with self._make(2, False, calls) as batcher:
            with pytest.raises(ValueError, match="mask"):
                batcher.submit(np.ones((4, 5, 2)), mask=np.ones((4, 5)))

    def test_wrong_channel_width_is_rejected(self):
        calls = []
        with self._make(2, False, calls) as batcher:
            with pytest.raises(ValueError, match="channel"):
                batcher.submit(np.ones((4, 5, 7)))

    def test_wrong_mask_shape_is_rejected(self):
        calls = []
        with self._make(3, True, calls) as batcher:
            with pytest.raises(ValueError, match="mask"):
                batcher.submit(np.ones((4, 5, 2)), mask=np.ones((4, 4)))

    def test_for_service_validates_against_bundle_config(self, trained):
        """for_service() wires the service's scenario width into the batcher:
        the trained bundle is mask-less, so masks are rejected and the
        declared width is enforced."""
        _, _, data, bundle_path = trained
        service = ForecastService.from_checkpoint(bundle_path)
        batch_x, _ = next(iter(data.test_loader))
        assert service.expected_channels == batch_x.shape[-1]
        direct = service.predict(batch_x)
        with MicroBatcher.for_service(service, max_batch=4,
                                      max_wait_ms=5.0) as batcher:
            futures = [batcher.submit(window) for window in batch_x]
            results = np.stack([future.result(timeout=30) for future in futures])
            with pytest.raises(ValueError, match="mask"):
                batcher.submit(batch_x[0], mask=np.ones(batch_x[0].shape[:2]))
            wrong = np.ones(batch_x[0].shape[:2] + (batch_x.shape[-1] + 1,))
            with pytest.raises(ValueError, match="channel"):
                batcher.submit(wrong)
        assert np.allclose(results, direct)


class TestServiceCounterThreadSafety:
    def test_request_counter_survives_concurrent_predicts(self, trained):
        """Regression: ``self.num_requests += batch`` raced across the
        MicroBatcher worker and direct callers, losing requests."""
        model, _, data, _ = trained
        service = ForecastService(model, scaler=data.scaler)
        batch_x, _ = next(iter(data.test_loader))
        window = np.ascontiguousarray(batch_x[:1])
        rounds, threads_n = 20, 6

        def hammer():
            for _ in range(rounds):
                service.predict(window)

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert service.num_requests == rounds * threads_n


class TestServeCLI:
    def test_synthetic_requests_roundtrip(self, trained, tmp_path, capsys):
        _, _, _, bundle_path = trained
        output = tmp_path / "predictions.npy"
        code = serve_main([str(bundle_path), "--requests", "6", "--max-batch", "3",
                           "--output", str(output)])
        assert code == 0
        printed = capsys.readouterr().out
        assert f"loaded {bundle_path} in " in printed
        assert "served 6 requests" in printed
        predictions = np.load(output)
        assert predictions.shape[0] == 6

    # Every path reads the bundle once: the online CLI takes the config and
    # drift record off the manager's target, which read it.
    @pytest.mark.parametrize("mode, loads", [
        ([], 1),
        (["--workers", "2"], 1),
        (["--online", "--steps", "8"], 1),
        (["--online", "--steps", "8", "--workers", "2"], 1),
    ], ids=["single", "cluster", "online", "online-cluster"])
    def test_bundle_loads_per_path(self, trained, monkeypatch, capsys, mode, loads):
        import repro.serve.__main__ as main_module
        import repro.serve.cluster as cluster_module
        import repro.serve.online as online_module
        import repro.serve.service as service_module
        import repro.utils.checkpoint as checkpoint_module

        _, _, _, bundle_path = trained
        calls = []
        load_bundle = checkpoint_module.load_bundle

        def counting_load_bundle(*args, **kwargs):
            calls.append(args)
            return load_bundle(*args, **kwargs)

        # Counted in this process only: spawned workers load their own copy.
        for module in (checkpoint_module, service_module, cluster_module,
                       online_module, main_module):
            monkeypatch.setattr(module, "load_bundle", counting_load_bundle)
        assert serve_main([str(bundle_path), "--requests", "2", *mode]) == 0
        assert len(calls) == loads
        assert str(bundle_path) in capsys.readouterr().out

    def test_input_file_requests(self, trained, tmp_path, capsys):
        model, _, data, bundle_path = trained
        batch_x, _ = next(iter(data.test_loader))
        request_path = tmp_path / "requests.npy"
        np.save(request_path, batch_x)
        output = tmp_path / "out.npy"
        code = serve_main([str(bundle_path), "--input", str(request_path),
                           "--output", str(output)])
        assert code == 0
        service = ForecastService(model, scaler=data.scaler)
        assert np.allclose(np.load(output), service.predict(batch_x), atol=1e-6)

    def test_input_file_ignores_requests_flag(self, trained, tmp_path):
        """Regression: ``--input reqs.npy --requests 0`` used to exit even
        though --requests only sizes the synthetic workload."""
        _, _, data, bundle_path = trained
        batch_x, _ = next(iter(data.test_loader))
        request_path = tmp_path / "requests.npy"
        np.save(request_path, batch_x)
        output = tmp_path / "out.npy"
        code = serve_main([str(bundle_path), "--input", str(request_path),
                           "--requests", "0", "--output", str(output)])
        assert code == 0
        assert np.load(output).shape[0] == batch_x.shape[0]

    @pytest.mark.parametrize("mode", [[], ["--workers", "2"]], ids=["single", "cluster"])
    def test_no_freeze_is_refused(self, trained, mode, capsys):
        # every mode serves the frozen graph: the flag is gone, not ignored
        _, _, _, bundle_path = trained
        with pytest.raises(SystemExit) as exit_info:
            serve_main([str(bundle_path), *mode, "--no-freeze"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --no-freeze" in capsys.readouterr().err

    # The library's rules (chunk >= 1, budget > 0, threshold >= 0, the
    # other two >= 1), checked at parse time on every path.
    @pytest.mark.parametrize("flag, value", [
        ("--chunk-size", "0"),
        ("--memory-budget-mb", "0"),
        ("--memory-budget-mb", "nan"),
        ("--drift-threshold", "-0.5"),
        ("--drift-check-every", "0"),
        ("--drift-min-history", "-3"),
    ])
    @pytest.mark.parametrize("mode", [
        [], ["--workers", "2"], ["--online"], ["--online", "--workers", "2"],
    ], ids=["single", "cluster", "online", "online-cluster"])
    def test_bad_knob_is_a_one_line_usage_error(self, trained, monkeypatch, capsys,
                                                mode, flag, value):
        import repro.serve.__main__ as main_module
        import repro.serve.cluster as cluster_module
        import repro.serve.online as online_module
        import repro.serve.service as service_module

        _, _, _, bundle_path = trained
        touched = []
        for module in (service_module, cluster_module, online_module, main_module):
            monkeypatch.setattr(module, "load_bundle",
                                lambda *args, **kwargs: touched.append("load"))
        monkeypatch.setattr(cluster_module._WorkerChannel, "_spawn",
                            lambda *args, **kwargs: touched.append("spawn"))
        with pytest.raises(SystemExit) as exit_info:
            serve_main([str(bundle_path), *mode, flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"error: argument {flag}: must be " in err
        assert "Traceback" not in err
        assert touched == []

    def test_synthetic_zero_requests_is_still_rejected(self, trained):
        _, _, _, bundle_path = trained
        with pytest.raises(SystemExit, match="--requests"):
            serve_main([str(bundle_path), "--requests", "0"])

    def test_plain_checkpoint_is_rejected(self, trained, tmp_path):
        """Non-bundle archives exit with a one-line error, not a traceback."""
        model, _, _, _ = trained
        plain = save_checkpoint(model, tmp_path / "plain")
        with pytest.raises(SystemExit, match="not a serving bundle") as excinfo:
            serve_main([str(plain)])
        assert str(excinfo.value).startswith("error: ")
        assert "\n" not in str(excinfo.value)