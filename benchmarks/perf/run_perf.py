"""Micro-benchmark runner for the large-graph hot paths and their CI gates.

``SECTIONS`` is the one table of the report: per section, the function that
times it, the JSON keys it must carry and the ``--assert-*`` gates that read
it.  ``--section NAME [NAME ...]`` picks sections (default: all).  All are
float32 except ``results``; the serving sections run at ``max(--sizes)``.

* ``results`` — attention forward + one cell-step op forward per N, f32 and f64; no gate.
* ``scaling`` — chunked SNS + attention peak memory per N; ``--assert-scaling-peak-mb``.
* ``recurrence`` — autograd forward, forward + backward and serving kernel per N;
  ``--assert-train-over-kernel``, and the kernel's batch-1/8/32 curve at the largest N;
  ``--assert-serve-batch-growth``.
* ``cluster`` — ServingCluster burst per worker count; ``--assert-cluster-efficiency``.
* ``online`` — session replay and drift hot-swap; ``--assert-swap-parity``.
* ``faults`` — 2-worker burst with each worker killed once; ``--assert-fault-recovery``.

The report is written before validation and the gates, so a failing gate
still leaves its JSON: ``BENCH_<section>.json`` at the repo root for one
section, ``BENCH_attention.json`` (the committed record) otherwise::

    PYTHONPATH=src python benchmarks/perf/run_perf.py                 # N = 200, 2000
    PYTHONPATH=src python benchmarks/perf/run_perf.py --smoke         # N = 200 only
    PYTHONPATH=src python benchmarks/perf/run_perf.py --section scaling \\
        --scaling-sizes 2000 --assert-scaling-peak-mb 96              # large-N smoke
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path
from typing import Callable, NamedTuple

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.core import (SAGDFN, OneStepFastGConvCell, SAGDFNConfig,
                        SignificantNeighborsSampling, SparseSpatialMultiHeadAttention)
from repro.nn.module import Parameter
from repro.serve import ForecastService
from repro.tensor import Tensor, default_dtype, no_grad
from repro.utils import save_bundle

SCHEMA_VERSION = 12
DTYPE = "float32"
DEFAULT_SIZES = (200, 2000)
SCALING_SIZES = (500, 2000, 5000, 10000)
SCALING_EQUIVALENCE_MAX_N = 10_000  # run the unchunked twin up to this N
SERVE_BATCH_SIZES = (1, 8, 32)
CLUSTER_WORKERS = (1, 2, 4)
RECURRENCE_HISTORY = 12
RECURRENCE_HORIZON = 12
FAULT_WORKERS = 2
FAULT_SEED = 0
SWAPS_PER_FORECAST = 1  # hot swaps run alongside each timed during-swap forecast


def _peak_rss_mb() -> float:
    """Process RSS high watermark in MiB (monotone; Linux reports KiB)."""
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return usage / (1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0)


def _traced_peak_mb(fn) -> float:
    """Peak tracemalloc allocation (MiB) while running ``fn`` once."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _samples_ms(fn, n: int, warmup: int = 1) -> list[float]:
    """Wall times (ms) of ``n`` calls of ``fn()`` after ``warmup`` untimed ones."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(n):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    return samples


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in milliseconds."""
    return min(_samples_ms(fn, repeats))


def _p(samples, q: float) -> float:
    return float(np.percentile(samples, q))


def _rate(count: float, ms: float) -> float:
    return count / (ms / 1000.0) if ms > 0 else float("inf")


def _model(args, num_nodes: int, history: int = 6, horizon: int = 6) -> SAGDFN:
    """The bench SAGDFN at ``num_nodes`` (float32, seed 0, graph refreshed)."""
    m = min(args.m, num_nodes)
    with default_dtype(DTYPE):
        model = SAGDFN(SAGDFNConfig(
            num_nodes=num_nodes, history=history, horizon=horizon,
            embedding_dim=args.embedding_dim, num_significant=m,
            top_k=max(1, int(m * 0.8)), hidden_size=args.hidden,
            num_heads=args.heads, ffn_hidden=args.ffn_hidden, seed=0,
        ))
        model.refresh_graph(0)
    return model


def _shape(model: SAGDFN) -> dict:
    config = model.config
    return {"num_nodes": int(config.num_nodes),
            "num_significant": int(config.num_significant), "dtype": DTYPE}


def _windows(rng, model: SAGDFN, count: int) -> np.ndarray:
    config = model.config
    return rng.normal(size=(count, config.history, config.num_nodes, config.input_dim))


def _warm(cluster, windows, workers: int) -> None:
    """One request per worker, so each allocates its workspace untimed."""
    for future in [cluster.submit(windows[i % len(windows)]) for i in range(workers)]:
        future.result(timeout=300)


def _burst(cluster, windows) -> tuple[dict, list[float]]:
    """Submit every window at once; count how each request resolved.

    Returns that summary and the latencies (ms) of the successful requests.
    """
    from concurrent.futures import TimeoutError as FutureTimeoutError

    from repro.serve.batching import DeadlineExceeded, Overloaded
    from repro.serve.cluster import ClusterError

    begin = time.perf_counter()
    submitted, finished, futures = [], {}, []
    for i, window in enumerate(windows):
        submitted.append(time.perf_counter())
        future = cluster.submit(window)
        future.add_done_callback(lambda f, i=i: finished.setdefault(i, time.perf_counter()))
        futures.append(future)
    ok = typed_errors = unresolved = 0
    latencies: list[float] = []
    for i, future in enumerate(futures):
        try:
            future.result(timeout=600)
        except (ClusterError, Overloaded, DeadlineExceeded):
            typed_errors += 1  # RingCorruptionError is a ClusterError
        except FutureTimeoutError:
            unresolved += 1
        else:
            ok += 1
            # Callbacks run just after result() waiters wake.
            done = finished.setdefault(i, time.perf_counter())
            latencies.append((done - submitted[i]) * 1000.0)
    elapsed = time.perf_counter() - begin
    return {
        "ok": int(ok), "typed_errors": int(typed_errors), "unresolved": int(unresolved),
        "elapsed_s": float(elapsed), "goodput_rps": _rate(ok, elapsed * 1000.0),
        "latency_p95_ms": _p(latencies, 95) if latencies else None,
    }, latencies


def bench_results(args) -> list:
    """Best-of-``--repeats`` attention and cell-step forwards per N and dtype.

    ``gconv_ms`` times one ``OneStepFastGConvCell`` step (the cell-step op
    that carries both graph convolutions of Eq. 10) at batch 1, with its
    parameters on the tape.
    """
    entries = []
    for num_nodes in args.sizes:
        m = min(args.m, num_nodes)
        for dtype in ("float32", "float64"):
            with default_dtype(dtype):
                rng = np.random.default_rng(0)
                attention = SparseSpatialMultiHeadAttention(
                    embedding_dim=args.embedding_dim, num_heads=args.heads,
                    ffn_hidden=args.ffn_hidden, seed=0,
                )
                embeddings = Parameter(rng.normal(size=(num_nodes, args.embedding_dim)),
                                       name="embeddings")
                index_set = rng.choice(num_nodes, size=m, replace=False)
                attention_ms = _time(lambda: attention(embeddings, index_set), args.repeats)

                rng = np.random.default_rng(0)
                cell = OneStepFastGConvCell(input_dim=2, hidden_dim=args.hidden,
                                            diffusion_steps=2, seed=0)
                x = Tensor(rng.normal(size=(1, num_nodes, 2)))
                hidden = Tensor(rng.normal(size=(1, num_nodes, args.hidden)))
                slim = Tensor(np.abs(rng.random((num_nodes, m))))
                index_set = rng.choice(num_nodes, size=m, replace=False)
                gconv_ms = _time(lambda: cell(x, hidden, slim, index_set), args.repeats)
            entries.append({"num_nodes": int(num_nodes), "num_significant": int(m),
                            "dtype": dtype, "attention_vectorized_ms": attention_ms,
                            "gconv_ms": gconv_ms})
            print(f"N={num_nodes:>6} M={m:>3} {dtype}: attention {attention_ms:.2f} ms, "
                  f"gconv {gconv_ms:.2f} ms", flush=True)
    return entries


def bench_scaling(args) -> dict:
    """Chunked SNS + attention forward per N: best-of wall time, tracemalloc peak.

    ``peak_rss_mb`` is the process-lifetime RSS high watermark (it cannot be
    reset), context for the whole run rather than a bound.  Up to
    ``SCALING_EQUIVALENCE_MAX_N`` the unchunked twin also runs and the index
    sets and slim adjacencies of both are compared **bitwise**.
    """
    budget, dim = args.scaling_budget_mb, args.scaling_embedding_dim
    entries = []
    with default_dtype(DTYPE):
        for num_nodes in args.scaling_sizes:
            m = min(args.m, num_nodes)
            embeddings_np = np.random.default_rng(0).normal(size=(num_nodes, dim))
            embeddings = Tensor(embeddings_np)

            def forward_with(budget_mb):
                """A forward over a fresh sampler + attention; it records its output."""
                sampler = SignificantNeighborsSampling(
                    num_nodes, m, max(1, int(m * 0.8)), seed=0, memory_budget_mb=budget_mb
                )
                attention = SparseSpatialMultiHeadAttention(
                    embedding_dim=dim, num_heads=args.heads, ffn_hidden=args.ffn_hidden,
                    seed=0, memory_budget_mb=budget_mb,
                )
                out: dict = {}

                def forward():
                    index_set = sampler.sample(embeddings_np, explore=False)
                    with no_grad():
                        out["adjacency"] = attention(embeddings, index_set).data
                    out["index_set"] = index_set

                return forward, out

            forward, chunked = forward_with(budget)
            wall_ms = _time(forward, args.repeats)
            peak_mb = _traced_peak_mb(forward)
            entry = {
                "num_nodes": int(num_nodes), "num_significant": int(m), "dtype": DTYPE,
                "wall_ms": wall_ms, "peak_mem_mb": peak_mb, "peak_rss_mb": _peak_rss_mb(),
                "within_budget": bool(peak_mb <= budget),
                "chunked_equals_unchunked": None, "unchunked_peak_mem_mb": None,
            }
            line = (f"scaling N={num_nodes:>6} M={m:>3}: {wall_ms:.1f} ms, peak "
                    f"{peak_mb:.1f} MiB (budget {budget} MiB, rss "
                    f"{entry['peak_rss_mb']:.0f} MiB)")
            if num_nodes <= SCALING_EQUIVALENCE_MAX_N:
                forward_plain, plain = forward_with(None)
                entry["unchunked_peak_mem_mb"] = _traced_peak_mb(forward_plain)
                entry["chunked_equals_unchunked"] = bool(
                    np.array_equal(chunked["index_set"], plain["index_set"])
                    and np.array_equal(chunked["adjacency"], plain["adjacency"])
                )
                line += (f", unchunked peak {entry['unchunked_peak_mem_mb']:.1f} MiB, "
                         f"bitwise-equal={entry['chunked_equals_unchunked']}")
            entries.append(entry)
            print(line, flush=True)
    return {"memory_budget_mb": float(budget), "embedding_dim": int(dim),
            "num_heads": int(args.heads), "ffn_hidden": int(args.ffn_hidden),
            "dtype": DTYPE, "results": entries}


def bench_recurrence(args) -> dict:
    """Frozen-graph encoder–decoder recurrence per N, best of ``--repeats``.

    ``forward_ms`` is the no-grad autograd forward, ``kernel_ms`` the serving
    kernel behind ``service.predict`` and ``train_ms`` forward + backward,
    all at batch 1.  The forward and the kernel run the same cell-step
    function, so ``kernel_speedup`` (forward / kernel) sits near 1; the
    gate reads ``train_ms / kernel_ms``, the price of the tape and the
    hand-written backward over a plain forward.
    At the largest N, ``serve_throughput`` is the p50 of ``max(5, repeats)``
    ``predict`` calls at batch 1 / 8 / 32.
    """
    history, horizon = RECURRENCE_HISTORY, RECURRENCE_HORIZON
    steps = history + horizon
    entries, serve_curve = [], []
    with default_dtype(DTYPE):
        for num_nodes in args.sizes:
            rng = np.random.default_rng(0)
            model = _model(args, num_nodes, history, horizon)
            service = ForecastService(model)
            frozen = service.frozen
            adjacency, degree_scale = Tensor(frozen.adjacency), Tensor(frozen.degree_scale)
            window = _windows(rng, model, 1)
            x = Tensor(window)

            def forward():
                return model.forecaster(x, adjacency, frozen.index_set,
                                        degree_scale=degree_scale)

            def train_direction():
                model.zero_grad()
                forward().sum().backward()

            with no_grad():
                module = forward().data
                forward_ms = _time(forward, args.repeats)
            kernel = service.predict(window)
            kernel_ms = _time(lambda: service.predict(window), args.repeats)
            model.train()
            train_ms = _time(train_direction, args.repeats)
            model.eval()
            entry = {
                **_shape(model), "steps": int(steps), "forward_ms": forward_ms,
                "kernel_ms": kernel_ms, "train_ms": train_ms,
                "kernel_speedup": forward_ms / kernel_ms,
                "per_step_kernel_ms": kernel_ms / steps,
                "max_rel_diff_kernel": float(np.abs(kernel - module).max()
                                             / np.abs(module).max()),
            }
            entries.append(entry)
            print(f"recurrence N={num_nodes:>6}: forward {forward_ms:.1f} ms, kernel "
                  f"{kernel_ms:.1f} ms ({entry['kernel_speedup']:.2f}x), fwd+bwd "
                  f"{train_ms:.0f} ms ({train_ms / kernel_ms:.2f}x kernel), rel diff "
                  f"{entry['max_rel_diff_kernel']:.2e}", flush=True)
            if num_nodes != max(args.sizes):
                continue
            for batch_size in SERVE_BATCH_SIZES:
                windows = _windows(rng, model, batch_size)
                # The untimed warm-up call allocates the workspace.
                p50 = _p(_samples_ms(lambda: service.predict(windows),
                                     max(5, args.repeats)), 50)
                serve_curve.append({"batch_size": int(batch_size), "latency_p50_ms": p50,
                                    "throughput_rps": _rate(batch_size, p50)})
                print(f"recurrence serve N={num_nodes:>6} batch={batch_size:>3}: p50 "
                      f"{p50:.2f} ms, {serve_curve[-1]['throughput_rps']:.1f} req/s",
                      flush=True)

    by_batch = {entry["batch_size"]: entry["throughput_rps"] for entry in serve_curve}
    growth = by_batch[8] / by_batch[1] if by_batch.get(1) and 8 in by_batch else None
    return {"history": int(history), "horizon": int(horizon),
            "hidden_size": int(args.hidden), "dtype": DTYPE, "results": entries,
            "serve_throughput": serve_curve, "throughput_batch8_over_batch1": growth}


def bench_cluster(args, max_batch: int = 8) -> dict:
    """One concurrent burst through a ServingCluster per worker count.

    ``scaling_efficiency`` is throughput over ``workers`` times the
    per-worker throughput of the smallest count: 1.0 is linear, and it falls
    once workers outnumber cores.  A failed request fails the run.
    """
    from repro.serve.cluster import ServingCluster

    rng = np.random.default_rng(0)
    model = _model(args, max(args.sizes))
    requests, entries, single_rps = args.cluster_requests, [], None
    with tempfile.TemporaryDirectory() as tmp:
        bundle_path = save_bundle(model, Path(tmp) / "bench_bundle")
        windows = _windows(rng, model, requests)
        for workers in args.cluster_workers:
            start = time.perf_counter()
            with ServingCluster(bundle_path, workers=workers, max_batch=max_batch) as cluster:
                startup_s = time.perf_counter() - start
                _warm(cluster, windows, workers)
                burst, latencies = _burst(cluster, windows)
                stats = cluster.stats
            if burst["ok"] != requests:
                raise RuntimeError(
                    f"cluster burst at {workers} worker(s): {burst['typed_errors']} "
                    f"typed error(s), {burst['unresolved']} unresolved of {requests}"
                )
            throughput = burst["goodput_rps"]
            if workers == min(args.cluster_workers):
                single_rps = throughput / workers
            entries.append({
                "workers": int(workers), "requests": int(requests),
                "startup_s": startup_s, "throughput_rps": throughput,
                "latency_p50_ms": _p(latencies, 50), "latency_p95_ms": _p(latencies, 95),
                "num_batches": int(stats.num_batches),
                "mean_batch_size": float(stats.mean_batch_size),
                "scaling_efficiency": throughput / (workers * single_rps)
                if single_rps else None,
            })
            print(f"cluster N={max(args.sizes):>6} workers={workers}: {throughput:.1f} req/s, "
                  f"p95 {entries[-1]['latency_p95_ms']:.1f} ms, efficiency "
                  f"{entries[-1]['scaling_efficiency']:.2f}", flush=True)

    by_workers = {entry["workers"]: entry["throughput_rps"] for entry in entries}
    speedup_2 = (by_workers[2] / by_workers[1]
                 if by_workers.get(1) and 2 in by_workers else None)
    return {**_shape(model), "requests": int(requests), "max_batch": int(max_batch),
            "results": entries, "throughput_workers2_over_workers1": speedup_2}


def bench_online(args) -> dict:
    """Session replay, then the drift hot-swap on the session's ForecastService.

    Swap latency is best of ``max(repeats, 2)``.  Each during-swap forecast
    runs alongside exactly ``SWAPS_PER_FORECAST`` swaps, started with it on
    another thread (an unthrottled swap loop made the p95 count how many swaps
    happened to overlap), and none may error; ``swaps_during_forecast``
    reports the swaps per forecast.  ``swap_parity`` compares the hot-swapped
    forecast **bitwise** with a cold start from the same index set.
    """
    from repro.data import StandardScaler
    from repro.serve.online import DriftConfig, SessionManager
    from repro.utils.checkpoint import load_bundle, rehydrate_model, rehydrate_scaler

    num_nodes, steps, repeats = max(args.sizes), args.online_steps, args.repeats
    samples = max(5, repeats)
    with default_dtype(DTYPE):
        rng = np.random.default_rng(0)
        model = _model(args, num_nodes)
        scaler = StandardScaler()
        scaler.fit(rng.normal(loc=3.0, scale=2.0, size=(max(steps, 64), num_nodes)))
        stream = np.abs(rng.normal(loc=3.0, scale=2.0, size=(steps, num_nodes))) + 1.0
        cov_channels = int(model.config.input_dim) - 1  # exog-free default scenario
        covariates = (rng.normal(size=(steps, num_nodes, cov_channels))
                      if cov_channels else None)

        with tempfile.TemporaryDirectory() as tmp:
            # The drift check cadence is out of range, so the push figures
            # measure the steady-state push path, not the SNS re-run.
            bundle_path = save_bundle(model, Path(tmp) / "online_bundle", scaler=scaler,
                                      drift=DriftConfig(check_every=10**6))
            manager = SessionManager.from_checkpoint(bundle_path)
            begin = time.perf_counter()
            for t in range(steps):
                manager.push_observations(
                    "bench", stream[t:t + 1],
                    covariates=None if covariates is None else covariates[t:t + 1],
                )
            push_ms = (time.perf_counter() - begin) * 1000.0
            latencies = _samples_ms(lambda: manager.forecast("bench"), samples)

            service = manager.target  # single-process ForecastService
            frozen = np.asarray(service.frozen.index_set, dtype=np.int64)
            fresh = np.sort(np.random.default_rng(1).choice(
                num_nodes, size=frozen.size, replace=False)).astype(np.int64)
            sets = itertools.cycle([fresh, np.sort(frozen)])
            swap_latency_ms = min(_samples_ms(
                lambda: service.swap_index_set(next(sets)), max(repeats, 2), warmup=0))

            window = _windows(rng, model, 1)
            errors = []

            def guarded(fn):
                try:
                    fn()
                except Exception as exc:  # diagnosed via the error count
                    errors.append(repr(exc))

            def swapper():
                for _ in range(SWAPS_PER_FORECAST):
                    guarded(lambda: service.swap_index_set(next(sets)))

            generation_before = service.generation
            during = []
            for _ in range(max(20, samples)):
                swap_thread = threading.Thread(target=swapper, daemon=True)
                swap_thread.start()
                during += _samples_ms(lambda: guarded(lambda: service.predict(window)), 1,
                                      warmup=0)
                swap_thread.join(timeout=60)
            swaps_during = (service.generation - generation_before) / len(during)

            generation = service.swap_index_set(fresh)
            hot = service.predict(window)
            bundle = load_bundle(bundle_path)
            cold_model = rehydrate_model(bundle)
            cold_model._index_set = fresh.copy()
            cold = ForecastService(cold_model, scaler=rehydrate_scaler(bundle)).predict(window)

    forecast_p50 = _p(latencies, 50)
    section = {
        **_shape(model), "history": int(model.config.history),
        "horizon": int(model.config.horizon), "steps": int(steps),
        "push_rows_per_s": _rate(steps, push_ms), "push_ms_per_step": push_ms / steps,
        "forecast_p50_ms": forecast_p50, "forecast_p95_ms": _p(latencies, 95),
        "forecast_rps": _rate(1, forecast_p50), "swap_latency_ms": swap_latency_ms,
        "forecast_during_swap_p95_ms": _p(during, 95),
        "forecast_during_swap_requests": len(during),
        "forecast_during_swap_errors": len(errors),
        "swaps_during_forecast": swaps_during,
        "swap_parity": bool(np.array_equal(hot, cold)), "generation": int(generation),
    }
    print(f"online N={num_nodes:>6}: push {section['push_rows_per_s']:.0f} rows/s, "
          f"forecast p50 {forecast_p50:.2f} ms, swap {swap_latency_ms:.1f} ms, "
          f"during-swap p95 {section['forecast_during_swap_p95_ms']:.2f} ms "
          f"({swaps_during:g} swap(s) per forecast, {len(errors)} errors), "
          f"parity={section['swap_parity']}", flush=True)
    return section


def bench_faults(args, max_batch: int = 1) -> dict:
    """One burst through a cluster, fault-free, then with each worker killed.

    ``recovery_s`` is the time after the faulted burst until the supervisor
    has the full pool live again; no request may stay unresolved.  The
    cluster runs under its production supervision timings.
    """
    from repro.serve.cluster import SUPERVISION, ServingCluster
    from repro.serve.faults import FaultPlan

    requests, workers = args.cluster_requests, FAULT_WORKERS
    rng = np.random.default_rng(0)
    model = _model(args, max(args.sizes))
    # The schedule is keyed by per-worker served *jobs*; max_batch=1 keeps
    # jobs == requests, and halving the per-worker share keeps every kill
    # inside the burst even when the workers pull uneven shares of it.
    plan = FaultPlan(workers=workers, seed=FAULT_SEED, kills_per_worker=1,
                     horizon=max(2, requests // (2 * workers)))
    with tempfile.TemporaryDirectory() as tmp:
        bundle_path = save_bundle(model, Path(tmp) / "bench_bundle")
        windows = _windows(rng, model, requests)
        with ServingCluster(bundle_path, workers=workers, max_batch=max_batch) as cluster:
            _warm(cluster, windows, workers)
            baseline, _ = _burst(cluster, windows)
        with ServingCluster(bundle_path, workers=workers, max_batch=max_batch,
                            fault_plan=plan) as cluster:
            faulted, _ = _burst(cluster, windows)
            # Respawns overlap the burst, so this is often near zero.
            recover_begin = time.perf_counter()
            while (cluster.alive_workers < workers
                   and time.perf_counter() < recover_begin + 120.0):
                time.sleep(0.02)
            recovery_s = time.perf_counter() - recover_begin
            health = cluster.health()

    print(f"faults N={max(args.sizes):>6} workers={workers}: baseline goodput "
          f"{baseline['goodput_rps']:.1f} req/s -> faulted {faulted['goodput_rps']:.1f} "
          f"req/s ({faulted['ok']} ok / {faulted['typed_errors']} typed / "
          f"{faulted['unresolved']} unresolved), recovery {recovery_s:.2f} s, "
          f"{health.total_restarts} restart(s), {health.num_parked} parked", flush=True)
    return {
        **_shape(model), "workers": int(workers), "requests": int(requests),
        "max_batch": int(max_batch), "plan": plan.summary(),
        "baseline": baseline, "faulted": faulted,
        "goodput_retention": faulted["goodput_rps"] / baseline["goodput_rps"]
        if baseline["goodput_rps"] else None,
        "recovery_s": recovery_s, "pool_restored": bool(health.num_alive == workers),
        "parked_workers": int(health.num_parked),
        "total_restarts": int(health.total_restarts),
        "redispatches": int(health.redispatches),
        "restart_backoff_s": SUPERVISION.restart_backoff_s,
        "restart_backoff_ceiling_s": SUPERVISION.restart_backoff_ceiling_s,
    }


# Gates and invariants return their section's problems; an empty list passes.


def gate_scaling_peak(section: dict, bound: float) -> list[str]:
    return [f"scaling peak {e['peak_mem_mb']:.1f} MiB at N={e['num_nodes']} exceeds "
            f"{bound} MiB" for e in section["results"] if e["peak_mem_mb"] > bound]


def gate_train_over_kernel(section: dict, bound: float) -> list[str]:
    return [f"forward + backward is {e['train_ms'] / e['kernel_ms']:.2f}x the serving "
            f"kernel at N={e['num_nodes']}, above {bound}x" for e in section["results"]
            if e["train_ms"] / e["kernel_ms"] > bound]


def gate_batch_growth(section: dict, bound: float) -> list[str]:
    growth = section["throughput_batch8_over_batch1"]
    return [f"serve throughput at batch 8 is {growth!r}x batch 1, below {bound}x"
            ] if growth is None or growth < bound else []


def gate_cluster_efficiency(section: dict, bound: float) -> list[str]:
    return [f"cluster scaling efficiency {e['scaling_efficiency']!r} at {e['workers']} "
            f"workers is below {bound}" for e in section["results"]
            if e["workers"] != 1
            and (e["scaling_efficiency"] is None or e["scaling_efficiency"] < bound)]


def gate_swap_parity(section: dict, bound: bool) -> list[str]:
    parity = [] if section["swap_parity"] else [
        "hot-swapped forecasts are not bit-identical to a cold start"]
    return parity + _swap_errors(section)


def gate_fault_recovery(section: dict, bound: bool) -> list[str]:
    problems = _unresolved(section)
    if not section["pool_restored"]:
        problems.append("the supervisor did not respawn the full pool")
    if section["parked_workers"]:
        problems.append(f"{section['parked_workers']} worker(s) were parked by the "
                        "crash-loop circuit breaker")
    if section["recovery_s"] > section["restart_backoff_ceiling_s"]:
        problems.append(f"pool recovery took {section['recovery_s']:.2f} s, beyond the "
                        f"{section['restart_backoff_ceiling_s']:.1f} s backoff ceiling")
    return problems


def _dtypes(entries: list) -> list[str]:
    return [f"unexpected dtype {e['dtype']!r}" for e in entries
            if e["dtype"] not in ("float32", "float64")]


def _diverged(section: dict) -> list[str]:
    return [f"chunked path diverged from the unchunked path at N={e['num_nodes']}"
            for e in section["results"] if e["chunked_equals_unchunked"] is False]


def _bad_workers(section: dict) -> list[str]:
    return [f"invalid worker count {e['workers']}" for e in section["results"]
            if e["workers"] < 1]


def _swap_errors(section: dict) -> list[str]:
    errors = section["forecast_during_swap_errors"]
    return [f"{errors} request(s) errored during the concurrent hot-swap; in-flight "
            "requests must always complete"] if errors else []


def _unresolved(section: dict) -> list[str]:
    return [f"{section[run]['unresolved']} request(s) never resolved in the {run} run; "
            "every future must resolve with a result or a typed error"
            for run in ("baseline", "faulted") if section[run]["unresolved"]]


class Gate(NamedTuple):
    flag: str
    check: Callable
    help: str
    type: Callable | None = float  # None: a switch without a bound

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class Section(NamedTuple):
    bench: Callable  # args -> the section's JSON value
    keys: tuple  # dotted paths from the report root; "x[]" is a non-empty list
    gates: tuple = ()
    invariant: Callable | None = None  # section -> list of problems


def _paths(prefix: str, names: str) -> tuple:
    return tuple(f"{prefix}.{name}" for name in names.split())


SECTIONS: dict[str, Section] = {
    "results": Section(
        bench_results,
        _paths("results[]", "num_nodes num_significant dtype attention_vectorized_ms "
                            "gconv_ms"),
        invariant=_dtypes,
    ),
    "scaling": Section(
        bench_scaling,
        _paths("scaling", "memory_budget_mb")
        + _paths("scaling.results[]", "num_nodes num_significant dtype wall_ms "
                 "peak_mem_mb peak_rss_mb within_budget chunked_equals_unchunked"),
        (Gate("--assert-scaling-peak-mb", gate_scaling_peak,
              "fail if any entry's tracemalloc peak exceeds this many MiB"),),
        _diverged,
    ),
    "recurrence": Section(
        bench_recurrence,
        _paths("recurrence", "history horizon throughput_batch8_over_batch1")
        + _paths("recurrence.results[]", "num_nodes dtype steps forward_ms kernel_ms "
                 "train_ms kernel_speedup per_step_kernel_ms max_rel_diff_kernel")
        + _paths("recurrence.serve_throughput[]", "batch_size latency_p50_ms "
                 "throughput_rps"),
        (Gate("--assert-train-over-kernel", gate_train_over_kernel,
              "fail if any entry's forward + backward (train_ms) exceeds this multiple "
              "of the serving kernel (kernel_ms)"),
         Gate("--assert-serve-batch-growth", gate_batch_growth,
              "fail if batch-8 serve throughput is below this multiple of batch 1")),
    ),
    "cluster": Section(
        bench_cluster,
        _paths("cluster", "num_nodes requests max_batch dtype "
                          "throughput_workers2_over_workers1")
        + _paths("cluster.results[]", "workers requests throughput_rps latency_p50_ms "
                 "latency_p95_ms scaling_efficiency num_batches mean_batch_size"),
        (Gate("--assert-cluster-efficiency", gate_cluster_efficiency,
              "fail if any multi-worker entry's scaling efficiency is below this"),),
        _bad_workers,
    ),
    "online": Section(
        bench_online,
        _paths("online", "num_nodes num_significant dtype steps push_rows_per_s "
               "push_ms_per_step forecast_p50_ms forecast_p95_ms forecast_rps "
               "swap_latency_ms forecast_during_swap_p95_ms forecast_during_swap_requests "
               "forecast_during_swap_errors swaps_during_forecast swap_parity generation"),
        (Gate("--assert-swap-parity", gate_swap_parity,
              "fail unless hot-swapped forecasts equal a cold start bitwise and no "
              "request errored during the concurrent swap", None),),
        _swap_errors,
    ),
    "faults": Section(
        bench_faults,
        _paths("faults", "num_nodes workers requests goodput_retention recovery_s "
               "pool_restored parked_workers total_restarts redispatches "
               "restart_backoff_s restart_backoff_ceiling_s")
        + _paths("faults.plan", "workers seed horizon events by_kind")
        + sum((_paths(f"faults.{run}", "ok typed_errors unresolved elapsed_s "
                      "goodput_rps latency_p95_ms") for run in ("baseline", "faulted")), ()),
        (Gate("--assert-fault-recovery", gate_fault_recovery,
              "fail unless every request resolved and the pool respawned in full, "
              "none parked, within the restart backoff ceiling", None),),
        _unresolved,
    ),
}


def _check_path(node, path: str, where: str) -> None:
    """Raise ``ValueError`` unless dotted ``path`` resolves inside ``node``."""
    head, _, rest = path.partition(".")
    name = head.removesuffix("[]")
    if not isinstance(node, dict) or name not in node:
        raise ValueError(f"{where} missing key {name!r}")
    value = node[name]
    if head.endswith("[]"):
        if not isinstance(value, list) or not value:
            raise ValueError(f"{where}.{name} must be a non-empty list")
        children = [(item, f"{where}.{name}[{i}]") for i, item in enumerate(value)]
    else:
        children = [(value, f"{where}.{name}")]
    if rest:
        for child, child_where in children:
            _check_path(child, rest, child_where)


def validate_section(name: str, section) -> None:
    """Raise ``ValueError`` if ``section`` is not a valid ``name`` section."""
    spec = SECTIONS[name]
    for path in spec.keys:
        _check_path({name: section}, path, "report")
    problems = spec.invariant(section) if spec.invariant else []
    if problems:
        raise ValueError(f"{name}: " + "; ".join(problems))


def validate_schema(report: dict, sections=tuple(SECTIONS)) -> None:
    """Raise ``ValueError`` if ``report`` is not a valid report of ``sections``."""
    for key in ("benchmark", "schema_version", "config", *sections):
        if key not in report:
            raise ValueError(f"missing top-level key {key!r}")
    if report["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"report has schema_version {report['schema_version']}, "
                         f"this runner validates version {SCHEMA_VERSION}")
    for name in sections:
        validate_section(name, report[name])


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--section", nargs="+", choices=list(SECTIONS),
                        default=list(SECTIONS), metavar="NAME",
                        help="sections to run (default: all of " + ", ".join(SECTIONS) + ")")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
                        help="node counts of the results and recurrence sections; the "
                             "serving sections run at the largest (default: 200 2000)")
    parser.add_argument("--m", type=int, default=40,
                        help="number of significant neighbours M (default: 40)")
    parser.add_argument("--heads", type=int, default=8)
    parser.add_argument("--embedding-dim", type=int, default=16)
    parser.add_argument("--ffn-hidden", type=int, default=32)
    parser.add_argument("--hidden", type=int, default=16, help="GRU/gconv hidden size")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--scaling-sizes", type=int, nargs="+", default=list(SCALING_SIZES),
                        help="node counts of the scaling section")
    parser.add_argument("--scaling-budget-mb", type=float, default=64.0,
                        help="memory budget (MiB) of the chunked scaling forward")
    parser.add_argument("--scaling-embedding-dim", type=int, default=64,
                        help="embedding width of the scaling section")
    parser.add_argument("--cluster-workers", type=int, nargs="+",
                        default=list(CLUSTER_WORKERS),
                        help="worker counts of the cluster section (default: 1 2 4)")
    parser.add_argument("--cluster-requests", type=int, default=64,
                        help="requests per burst of the cluster and faults sections")
    parser.add_argument("--online-steps", type=int, default=96,
                        help="stream length replayed through the online section")
    for gate in (gate for spec in SECTIONS.values() for gate in spec.gates):
        if gate.type is None:
            parser.add_argument(gate.flag, action="store_const", const=True, help=gate.help)
        else:
            parser.add_argument(gate.flag, type=gate.type, help=gate.help)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: smallest N only, single repeat")
    parser.add_argument("--output", type=Path, default=None,
                        help="report path (default: BENCH_<section>.json at the repo "
                             "root for one section, else BENCH_attention.json)")
    args = parser.parse_args(argv)

    if any(size < 1 for size in args.sizes + args.scaling_sizes):
        parser.error("--sizes/--scaling-sizes values must be positive node counts")
    if args.m < 1 or args.repeats < 1:
        parser.error("--m and --repeats must be >= 1")
    if any(w < 1 for w in args.cluster_workers) or args.cluster_requests < 1:
        parser.error("--cluster-workers/--cluster-requests must be >= 1")
    if args.online_steps < 8:
        parser.error("--online-steps must be >= 8 (the window must fill)")
    selected = [name for name in SECTIONS if name in args.section]
    for name, spec in SECTIONS.items():
        for gate in spec.gates:
            if getattr(args, gate.dest) is not None and name not in selected:
                parser.error(f"{gate.flag} reads the {name!r} section, which "
                             "--section does not select")

    if args.smoke:
        args.sizes = [min(args.sizes)]
        args.scaling_sizes = [min(args.scaling_sizes)]
        args.cluster_workers = sorted(set(args.cluster_workers))[:2]
        args.cluster_requests = min(args.cluster_requests, 16)
        args.online_steps = min(args.online_steps, 32)
        args.repeats = 1
    single = selected[0] if len(selected) == 1 else None
    if args.output is None:
        args.output = REPO_ROOT / f"BENCH_{single or 'attention'}.json"

    report = {
        "benchmark": f"attention-{single}" if single else "attention",
        "schema_version": SCHEMA_VERSION,
        "config": {
            "num_significant": int(args.m), "num_heads": int(args.heads),
            "embedding_dim": int(args.embedding_dim), "ffn_hidden": int(args.ffn_hidden),
            "hidden_size": int(args.hidden), "repeats": int(args.repeats),
            "numpy": np.__version__,
        },
    }
    for name in selected:
        report[name] = SECTIONS[name].bench(args)

    # Written before any check, so a failing gate still leaves the per-N
    # diagnostics for the CI artifact upload.
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    validate_schema(report, selected)
    for name in selected:
        for gate in SECTIONS[name].gates:
            bound = getattr(args, gate.dest)
            if bound is None:
                continue
            problems = gate.check(report[name], bound)
            if problems:
                raise SystemExit(f"{gate.flag} failed: " + "; ".join(problems))
            print(f"{gate.flag}{'' if bound is True else f' {bound}'} ok")
    return report


if __name__ == "__main__":
    main()
