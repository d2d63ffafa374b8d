"""Micro-benchmark runner for the large-graph hot paths.

Times the three costs that dominate SAGDFN training at Table VI/VII scales
(N = 200 / 2000 / 10000 nodes):

* ``attention`` — the sparse spatial multi-head attention forward (the
  vectorised, tiled batched-matmul path) at float32 and float64;
* ``gconv`` — one :class:`FastGraphConv` forward over the slim adjacency;
* ``train_step`` — one full SAGDFN forward + backward + optimiser step;
* ``serve`` — frozen-graph :class:`~repro.serve.ForecastService` request
  latency (p50/p95) and throughput at batch sizes 1 / 8 / 32;
* ``scaling`` — the memory-bounded large-N pathway: wall time and peak
  memory (tracemalloc + RSS high watermark) of one chunked SNS + attention
  forward at N ∈ {500, 2000, 5000, 10000}, with a bit-identity check against
  the unchunked path at every N where both are run;
* ``recurrence`` — the encoder–decoder recurrence (schema v10): frozen-
  graph wall time of the no-grad autograd forward, the serving kernel and
  one forward + backward (plus the kernel's per-step time and its max
  relative deviation from the autograd forward), and the serve
  throughput-vs-batch curve of the kernel.  ``--assert-recurrence-speedup``
  / ``--assert-serve-batch-growth`` gate CI on the kernel-over-forward
  speedup and on the batch-8-vs-batch-1 throughput ratio;
* ``cluster`` — multi-worker serving (schema v6): a frozen bundle served
  through :class:`~repro.serve.ServingCluster` at ``--cluster-workers``
  (default 1/2/4), recording throughput, request-level p50/p95 latency
  under concurrent load, and per-worker-count ``scaling_efficiency``
  (throughput over ``workers ×`` the 1-worker throughput).
  ``--assert-cluster-efficiency`` gates CI on the efficiency of every
  multi-worker entry; single-core hosts plateau near ``1/workers``.
* ``online`` — stateful online serving (schema v7): replays a synthetic
  stream through a :class:`~repro.serve.SessionManager` (push and forecast
  throughput), then measures the drift hot-swap on the underlying
  :class:`~repro.serve.ForecastService` — ``swap_latency_ms``, forecast p95
  while a background thread swaps the kernel in a loop (every request must
  complete), and the bitwise ``swap_parity`` of a hot-swapped service
  against a cold start from the same index set.
  ``--assert-swap-parity`` gates CI on that bitwise check.
* ``faults`` — fault tolerance (schema v8; goodput since v10): the same
  concurrent burst is served twice through a supervised cluster,
  fault-free and under a seeded :class:`~repro.serve.FaultPlan` that
  SIGKILLs every worker once — recording goodput (successful requests per
  second) and its retention, how every request resolved (nothing may
  hang), and ``recovery_s``, the post-burst time the supervisor needed to
  respawn the pool to full strength.  ``--assert-fault-recovery`` gates CI
  on zero unresolved requests, a fully restored pool with no parked
  worker, and recovery within the restart backoff ceiling.

Results are written as JSON (default: ``BENCH_attention.json`` at the repo
root) so subsequent PRs have a perf trajectory to compare against::

    PYTHONPATH=src python benchmarks/perf/run_perf.py                 # N = 200, 2000
    PYTHONPATH=src python benchmarks/perf/run_perf.py --smoke         # CI: N = 200 only
    PYTHONPATH=src python benchmarks/perf/run_perf.py --sizes 200 2000 10000
    PYTHONPATH=src python benchmarks/perf/run_perf.py --scaling-only \\
        --scaling-sizes 2000 --assert-scaling-peak-mb 256             # large-N smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.core import (
    SAGDFN,
    SAGDFNConfig,
    SignificantNeighborsSampling,
    SparseSpatialMultiHeadAttention,
    FastGraphConv,
)
from repro.nn.loss import masked_mae
from repro.nn.module import Parameter
from repro.optim import Adam, clip_grad_norm
from repro.serve import ForecastService
from repro.tensor import Tensor, default_dtype, no_grad

SCHEMA_VERSION = 11
DEFAULT_SIZES = (200, 2000)
SCALING_SIZES = (500, 2000, 5000, 10000)
SERVE_BATCH_SIZES = (1, 8, 32)
CLUSTER_WORKERS = (1, 2, 4)
RECURRENCE_HISTORY = 12
RECURRENCE_HORIZON = 12


def _peak_rss_mb() -> float:
    """Process RSS high watermark in MiB (monotone; Linux reports KiB)."""
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    return usage / divisor


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


def _time(fn, repeats: int, warmup: int = 1) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in milliseconds."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def bench_attention(num_nodes: int, m: int, heads: int, embedding_dim: int,
                    ffn_hidden: int, repeats: int, dtype: str) -> float:
    with default_dtype(dtype):
        rng = np.random.default_rng(0)
        attention = SparseSpatialMultiHeadAttention(
            embedding_dim=embedding_dim, num_heads=heads, ffn_hidden=ffn_hidden, seed=0
        )
        embeddings = Parameter(rng.normal(size=(num_nodes, embedding_dim)), name="embeddings")
        index_set = rng.choice(num_nodes, size=m, replace=False)

        return _time(lambda: attention(embeddings, index_set), repeats)


def bench_gconv(num_nodes: int, m: int, hidden: int, repeats: int, dtype: str) -> float:
    with default_dtype(dtype):
        rng = np.random.default_rng(0)
        conv = FastGraphConv(input_dim=hidden, output_dim=hidden, diffusion_steps=2, seed=0)
        x = Tensor(rng.normal(size=(1, num_nodes, hidden)))
        slim = Tensor(np.abs(rng.random((num_nodes, m))))
        index_set = rng.choice(num_nodes, size=m, replace=False)
        return _time(lambda: conv(x, slim, index_set), repeats)


def bench_train_step(num_nodes: int, m: int, heads: int, embedding_dim: int,
                     ffn_hidden: int, hidden: int, repeats: int, dtype: str) -> float:
    with default_dtype(dtype):
        rng = np.random.default_rng(0)
        config = SAGDFNConfig(
            num_nodes=num_nodes, history=6, horizon=6, embedding_dim=embedding_dim,
            num_significant=m, top_k=max(1, int(m * 0.8)), hidden_size=hidden,
            num_heads=heads, ffn_hidden=ffn_hidden, seed=0,
        )
        model = SAGDFN(config)
        model.refresh_graph(0)
        optimizer = Adam(model.parameters(), lr=1e-3)
        x = rng.normal(size=(2, 6, num_nodes, config.input_dim))
        y = np.abs(rng.normal(size=(2, 6, num_nodes, 1))) + 1.0

        def step():
            model.zero_grad()
            loss = masked_mae(model(Tensor(x)), Tensor(y), null_value=0.0)
            loss.backward()
            clip_grad_norm(model.parameters(), 5.0)
            optimizer.step()

        return _time(step, repeats)


def bench_serve(num_nodes: int, m: int, heads: int, embedding_dim: int,
                ffn_hidden: int, hidden: int, repeats: int,
                batch_sizes=SERVE_BATCH_SIZES, dtype: str = "float32") -> dict:
    """Frozen-graph serving latency/throughput at several batch sizes.

    Builds a SAGDFN under the float32 policy, freezes its graph into a
    :class:`ForecastService` and times ``service.predict`` — the exact
    per-request hot path of ``python -m repro.serve``.
    """
    with default_dtype(dtype):
        rng = np.random.default_rng(0)
        config = SAGDFNConfig(
            num_nodes=num_nodes, history=6, horizon=6, embedding_dim=embedding_dim,
            num_significant=min(m, num_nodes), top_k=max(1, int(min(m, num_nodes) * 0.8)),
            hidden_size=hidden, num_heads=heads, ffn_hidden=ffn_hidden, seed=0,
        )
        model = SAGDFN(config)
        model.refresh_graph(0)
        service = ForecastService(model)
        samples = max(5, repeats)

        results = []
        for batch_size in batch_sizes:
            windows = rng.normal(
                size=(batch_size, config.history, num_nodes, config.input_dim)
            )
            service.predict(windows)  # warm-up
            latencies = []
            for _ in range(samples):
                start = time.perf_counter()
                service.predict(windows)
                latencies.append((time.perf_counter() - start) * 1000.0)
            p50 = float(np.percentile(latencies, 50))
            p95 = float(np.percentile(latencies, 95))
            results.append(
                {
                    "batch_size": int(batch_size),
                    "latency_p50_ms": p50,
                    "latency_p95_ms": p95,
                    "throughput_rps": batch_size / (p50 / 1000.0) if p50 > 0 else float("inf"),
                }
            )
            print(
                f"serve N={num_nodes:>6} batch={batch_size:>3}: "
                f"p50 {p50:.2f} ms, p95 {p95:.2f} ms, "
                f"{results[-1]['throughput_rps']:.1f} req/s",
                flush=True,
            )
        return {
            "num_nodes": int(num_nodes),
            "dtype": dtype,
            "frozen_graph": True,
            "samples": int(samples),
            "results": results,
        }


def bench_recurrence(sizes, m, heads, embedding_dim, ffn_hidden, hidden, repeats,
                     dtype: str = "float32", history: int = RECURRENCE_HISTORY,
                     horizon: int = RECURRENCE_HORIZON,
                     batch_sizes=SERVE_BATCH_SIZES) -> dict:
    """Encoder–decoder recurrence over a frozen graph (schema v10).

    For each ``N`` builds a SAGDFN, freezes its graph into a
    :class:`ForecastService`, and times the ``history + horizon``-step
    recurrence on the same batch-1 window:

    * ``forward_ms`` — the autograd forward under ``no_grad``;
    * ``kernel_ms`` — the raw-ndarray no-grad serving kernel behind
      ``service.predict`` (the per-request production path);
      ``kernel_speedup`` is ``forward_ms / kernel_ms``;
    * ``train_ms`` — the autograd forward *plus* backward (the training
      direction).

    ``max_rel_diff_kernel`` documents the kernel's equivalence with the
    autograd forward.  The serve throughput-vs-batch curve replays
    ``service.predict`` at growing batch sizes
    (``throughput_batch8_over_batch1`` summarises it; on a single-core host
    the curve is roughly flat because every op already saturates the core at
    batch 1).
    """
    entries = []
    serve_curve = []
    with default_dtype(dtype):
        for num_nodes in sizes:
            m_eff = min(m, num_nodes)
            rng = np.random.default_rng(0)
            config = SAGDFNConfig(
                num_nodes=num_nodes, history=history, horizon=horizon,
                embedding_dim=embedding_dim, num_significant=m_eff,
                top_k=max(1, int(m_eff * 0.8)), hidden_size=hidden,
                num_heads=heads, ffn_hidden=ffn_hidden, seed=0,
            )
            model = SAGDFN(config)
            model.refresh_graph(0)
            service = ForecastService(model)
            adjacency = service._adjacency_tensor
            degree_scale = service._degree_scale_tensor
            index_set = service.frozen.index_set
            window = rng.normal(size=(1, history, num_nodes, config.input_dim))
            x = Tensor(window)

            def forward():
                return model.forecaster(x, adjacency, index_set, degree_scale=degree_scale)

            with no_grad():
                module = forward().data
                forward_ms = _time(forward, repeats)
            kernel = service.predict(window)
            kernel_ms = _time(lambda: service.predict(window), repeats)

            def train_direction():
                model.zero_grad()
                forward().sum().backward()

            model.train()
            train_ms = _time(train_direction, repeats)
            model.eval()
            steps = history + horizon
            entry = {
                "num_nodes": int(num_nodes),
                "num_significant": int(m_eff),
                "dtype": dtype,
                "steps": int(steps),
                "forward_ms": forward_ms,
                "kernel_ms": kernel_ms,
                "train_ms": train_ms,
                "kernel_speedup": forward_ms / kernel_ms,
                "per_step_kernel_ms": kernel_ms / steps,
                "max_rel_diff_kernel": float(
                    np.abs(kernel - module).max() / np.abs(module).max()
                ),
            }
            entries.append(entry)
            print(
                f"recurrence N={num_nodes:>6} M={m_eff:>3} {dtype}: "
                f"forward {forward_ms:.1f} ms, kernel {kernel_ms:.1f} ms "
                f"({entry['kernel_speedup']:.2f}x), train fwd+bwd "
                f"{train_ms:.0f} ms, kernel rel diff "
                f"{entry['max_rel_diff_kernel']:.2e}",
                flush=True,
            )

            if num_nodes == max(sizes):
                samples = max(5, repeats)
                for batch_size in batch_sizes:
                    windows = rng.normal(
                        size=(batch_size, history, num_nodes, config.input_dim)
                    )
                    service.predict(windows)  # warm-up (allocates the workspace)
                    latencies = []
                    for _ in range(samples):
                        start = time.perf_counter()
                        service.predict(windows)
                        latencies.append((time.perf_counter() - start) * 1000.0)
                    p50 = float(np.percentile(latencies, 50))
                    serve_curve.append(
                        {
                            "batch_size": int(batch_size),
                            "latency_p50_ms": p50,
                            "throughput_rps": batch_size / (p50 / 1000.0)
                            if p50 > 0 else float("inf"),
                        }
                    )
                    print(
                        f"recurrence serve N={num_nodes:>6} batch={batch_size:>3}: "
                        f"p50 {p50:.2f} ms, "
                        f"{serve_curve[-1]['throughput_rps']:.1f} req/s",
                        flush=True,
                    )

    by_batch = {entry["batch_size"]: entry["throughput_rps"] for entry in serve_curve}
    growth = None
    if 1 in by_batch and 8 in by_batch and by_batch[1] > 0:
        growth = by_batch[8] / by_batch[1]
    return {
        "history": int(history),
        "horizon": int(horizon),
        "hidden_size": int(hidden),
        "dtype": dtype,
        "results": entries,
        "serve_throughput": serve_curve,
        "throughput_batch8_over_batch1": growth,
    }


def bench_scaling(sizes, m, heads, embedding_dim, ffn_hidden, repeats,
                  memory_budget_mb, equivalence_max_n, dtype: str = "float32") -> dict:
    """Memory-bounded SNS + attention forward at growing N.

    Each entry times one chunked forward (index-set sampling followed by the
    node-tiled attention under ``no_grad``) and records its tracemalloc peak
    — ``peak_mem_mb``, the per-entry number the ``--assert-scaling-peak-mb``
    gate checks.  ``peak_rss_mb`` is the *process-lifetime* RSS high
    watermark at that point (``ru_maxrss`` cannot be reset on Linux), so it
    is context for the whole run — it includes every earlier bench section
    and the deliberately unbounded unchunked comparison runs — not a bound
    on the chunked forward itself.  At every ``N <= equivalence_max_n`` the
    unchunked path is also run and the two index sets / slim adjacencies are
    compared **bitwise** — the chunked pathway's core guarantee.
    """
    entries = []
    with default_dtype(dtype):
        for num_nodes in sizes:
            m_eff = min(m, num_nodes)
            top_k = max(1, int(m_eff * 0.8))
            rng = np.random.default_rng(0)
            embeddings_np = rng.normal(size=(num_nodes, embedding_dim))
            sampler = SignificantNeighborsSampling(
                num_nodes, m_eff, top_k, seed=0, memory_budget_mb=memory_budget_mb
            )
            attention = SparseSpatialMultiHeadAttention(
                embedding_dim=embedding_dim, num_heads=heads, ffn_hidden=ffn_hidden,
                seed=0, memory_budget_mb=memory_budget_mb,
            )
            embeddings = Tensor(embeddings_np)
            result: dict = {}

            def forward(sampler=sampler, attention=attention, result=result):
                index_set = sampler.sample(embeddings_np, explore=False)
                with no_grad():
                    adjacency = attention(embeddings, index_set)
                result["index_set"], result["adjacency"] = index_set, adjacency.data

            wall_ms = _time(forward, repeats)
            peak_mem_mb = _traced_peak_mb(forward)

            entry = {
                "num_nodes": int(num_nodes),
                "num_significant": int(m_eff),
                "dtype": dtype,
                "wall_ms": wall_ms,
                "peak_mem_mb": peak_mem_mb,
                "peak_rss_mb": _peak_rss_mb(),
                "within_budget": bool(peak_mem_mb <= memory_budget_mb),
                "chunked_equals_unchunked": None,
                "unchunked_peak_mem_mb": None,
            }

            if num_nodes <= equivalence_max_n:
                plain_sampler = SignificantNeighborsSampling(num_nodes, m_eff, top_k, seed=0)
                plain_attention = SparseSpatialMultiHeadAttention(
                    embedding_dim=embedding_dim, num_heads=heads, ffn_hidden=ffn_hidden,
                    seed=0,
                )
                plain: dict = {}

                def forward_plain():
                    index_set = plain_sampler.sample(embeddings_np, explore=False)
                    with no_grad():
                        adjacency = plain_attention(embeddings, index_set)
                    plain["index_set"], plain["adjacency"] = index_set, adjacency.data

                entry["unchunked_peak_mem_mb"] = _traced_peak_mb(forward_plain)
                entry["chunked_equals_unchunked"] = bool(
                    np.array_equal(result["index_set"], plain["index_set"])
                    and np.array_equal(result["adjacency"], plain["adjacency"])
                )

            entries.append(entry)
            equal = entry["chunked_equals_unchunked"]
            print(
                f"scaling N={num_nodes:>6} M={m_eff:>3}: {wall_ms:.1f} ms, "
                f"peak {peak_mem_mb:.1f} MiB (budget {memory_budget_mb} MiB, "
                f"rss {entry['peak_rss_mb']:.0f} MiB)"
                + (f", unchunked peak {entry['unchunked_peak_mem_mb']:.1f} MiB, "
                   f"bitwise-equal={equal}" if equal is not None else ""),
                flush=True,
            )
    return {
        "memory_budget_mb": float(memory_budget_mb),
        "embedding_dim": int(embedding_dim),
        "num_heads": int(heads),
        "ffn_hidden": int(ffn_hidden),
        "dtype": dtype,
        "results": entries,
    }


def bench_cluster(num_nodes, m, heads, embedding_dim, ffn_hidden, hidden,
                  workers_list=CLUSTER_WORKERS, requests: int = 64,
                  max_batch: int = 8, dtype: str = "float32",
                  history: int = 6, horizon: int = 6) -> dict:
    """Multi-worker serving throughput and scaling efficiency (schema v6).

    Freezes one SAGDFN into a bundle, then serves the same ``requests``
    synthetic windows through a :class:`~repro.serve.ServingCluster` at
    each worker count.  All windows are submitted up front (concurrent
    load — the asyncio-front-door pattern), so per-request latency
    includes queueing in the admission queue, which is what a caller
    of a saturated cluster actually observes.  ``scaling_efficiency`` is
    ``throughput / (workers * single_worker_throughput)`` — 1.0 is ideal
    linear scaling; a single-core host pins every worker to the same core
    and lands near ``1/workers``, so gates on this number belong on
    multi-core CI/bench boxes.
    """
    import tempfile

    from repro.serve.cluster import ServingCluster
    from repro.utils import save_bundle

    m_eff = min(m, num_nodes)
    with default_dtype(dtype):
        rng = np.random.default_rng(0)
        config = SAGDFNConfig(
            num_nodes=num_nodes, history=history, horizon=horizon,
            embedding_dim=embedding_dim, num_significant=m_eff,
            top_k=max(1, int(m_eff * 0.8)), hidden_size=hidden,
            num_heads=heads, ffn_hidden=ffn_hidden, seed=0,
        )
        model = SAGDFN(config)
        model.refresh_graph(0)

    entries = []
    single_rps = None
    with tempfile.TemporaryDirectory() as tmp:
        bundle_path = save_bundle(model, Path(tmp) / "bench_bundle")
        windows = rng.normal(
            size=(requests, history, num_nodes, config.input_dim)
        )
        for workers in workers_list:
            start_cluster = time.perf_counter()
            with ServingCluster(bundle_path, workers=workers,
                                max_batch=max_batch) as cluster:
                startup_s = time.perf_counter() - start_cluster
                # Warm every worker (first forward allocates the pinned
                # workspace) before the timed burst.
                for future in [cluster.submit(windows[i % requests])
                               for i in range(workers)]:
                    future.result(timeout=300)
                latencies: list[float] = []
                begin = time.perf_counter()
                futures = []
                for window in windows:
                    submitted = time.perf_counter()
                    future = cluster.submit(window)
                    future.add_done_callback(
                        lambda f, s=submitted: latencies.append(
                            (time.perf_counter() - s) * 1000.0
                        )
                    )
                    futures.append(future)
                for future in futures:
                    future.result(timeout=600)
                elapsed = time.perf_counter() - begin
                stats = cluster.stats
            throughput = requests / elapsed if elapsed > 0 else float("inf")
            entry = {
                "workers": int(workers),
                "requests": int(requests),
                "startup_s": startup_s,
                "throughput_rps": throughput,
                "latency_p50_ms": float(np.percentile(latencies, 50)),
                "latency_p95_ms": float(np.percentile(latencies, 95)),
                "num_batches": int(stats.num_batches),
                "mean_batch_size": float(stats.mean_batch_size),
            }
            if workers == min(workers_list):
                # Per-worker baseline (= the 1-worker throughput when the
                # sweep starts at 1, the usual case).
                single_rps = throughput / workers
            entry["scaling_efficiency"] = (
                throughput / (workers * single_rps)
                if single_rps and single_rps > 0 else None
            )
            entries.append(entry)
            print(
                f"cluster N={num_nodes:>6} workers={workers}: "
                f"{throughput:.1f} req/s, p50 {entry['latency_p50_ms']:.1f} ms, "
                f"p95 {entry['latency_p95_ms']:.1f} ms, "
                f"efficiency {entry['scaling_efficiency']:.2f} "
                f"(startup {startup_s:.1f} s)",
                flush=True,
            )

    by_workers = {entry["workers"]: entry["throughput_rps"] for entry in entries}
    speedup_2 = None
    if 1 in by_workers and 2 in by_workers and by_workers[1] > 0:
        speedup_2 = by_workers[2] / by_workers[1]
    return {
        "num_nodes": int(num_nodes),
        "num_significant": int(m_eff),
        "requests": int(requests),
        "max_batch": int(max_batch),
        "dtype": dtype,
        "results": entries,
        "throughput_workers2_over_workers1": speedup_2,
    }


def bench_online(num_nodes, m, heads, embedding_dim, ffn_hidden, hidden,
                 repeats, steps: int = 96, dtype: str = "float32",
                 history: int = 6, horizon: int = 6) -> dict:
    """Stateful online serving: session throughput and hot-swap cost (schema v7).

    Freezes one SAGDFN into a v3 bundle (scaler statistics + drift record),
    replays a synthetic stream through a
    :class:`~repro.serve.SessionManager` (``push_rows_per_s``, forecast
    latency once the window has filled), then measures the cost and safety
    of the drift hot-swap on the underlying
    :class:`~repro.serve.ForecastService`:

    * ``swap_latency_ms`` — best-of-``repeats`` wall time of
      ``swap_index_set``, i.e. one re-run of the cold-load freeze path
      (slim adjacency + kernel rebuild) behind the atomic state flip;
    * ``forecast_during_swap_*`` — forecast p95 while a background thread
      swaps the kernel in a loop; every request must complete
      (``errors == 0``) because a forward only ever sees one complete
      generation;
    * ``swap_parity`` — the hot-swapped service's forecast compared
      **bitwise** against a cold-started service built from the same bundle
      with the same index set (the ``--assert-swap-parity`` CI gate).
    """
    import tempfile
    import threading

    from repro.data import StandardScaler
    from repro.serve.online import DriftConfig, SessionManager
    from repro.utils import save_bundle
    from repro.utils.checkpoint import load_bundle, rehydrate_model, rehydrate_scaler

    m_eff = min(m, num_nodes)
    with default_dtype(dtype):
        rng = np.random.default_rng(0)
        config = SAGDFNConfig(
            num_nodes=num_nodes, history=history, horizon=horizon,
            embedding_dim=embedding_dim, num_significant=m_eff,
            top_k=max(1, int(m_eff * 0.8)), hidden_size=hidden,
            num_heads=heads, ffn_hidden=ffn_hidden, seed=0,
        )
        model = SAGDFN(config)
        model.refresh_graph(0)
        scaler = StandardScaler()
        scaler.fit(rng.normal(loc=3.0, scale=2.0, size=(max(steps, 64), num_nodes)))
        stream = np.abs(rng.normal(loc=3.0, scale=2.0, size=(steps, num_nodes))) + 1.0
        cov_channels = int(config.input_dim) - 1  # exog-free default scenario
        covariates = (rng.normal(size=(steps, num_nodes, cov_channels))
                      if cov_channels else None)

        with tempfile.TemporaryDirectory() as tmp:
            bundle_path = save_bundle(
                model, Path(tmp) / "online_bundle", scaler=scaler,
                # Record a drift config (v3 provenance) but push the check
                # cadence out of range so the throughput numbers measure the
                # steady-state push path, not the SNS re-run.
                drift=DriftConfig(check_every=10**6),
            )
            manager = SessionManager.from_checkpoint(bundle_path)

            begin = time.perf_counter()
            for t in range(steps):
                manager.push_observations(
                    "bench", stream[t:t + 1],
                    covariates=None if covariates is None
                    else covariates[t:t + 1],
                )
            push_elapsed = time.perf_counter() - begin
            push_rows_per_s = (steps / push_elapsed
                               if push_elapsed > 0 else float("inf"))

            samples = max(5, repeats)
            manager.forecast("bench")  # warm-up (allocates the workspace)
            latencies = []
            for _ in range(samples):
                start = time.perf_counter()
                manager.forecast("bench")
                latencies.append((time.perf_counter() - start) * 1000.0)
            forecast_p50 = float(np.percentile(latencies, 50))
            forecast_p95 = float(np.percentile(latencies, 95))

            service = manager.target  # single-process ForecastService
            frozen = np.asarray(service.frozen.index_set, dtype=np.int64)
            swap_rng = np.random.default_rng(1)
            fresh = np.sort(
                swap_rng.choice(num_nodes, size=frozen.size, replace=False)
            ).astype(np.int64)
            sets = [fresh, np.sort(frozen)]

            swap_times = []
            for i in range(max(repeats, 2)):
                start = time.perf_counter()
                service.swap_index_set(sets[i % 2])
                swap_times.append((time.perf_counter() - start) * 1000.0)
            swap_latency_ms = float(min(swap_times))

            window = rng.normal(
                size=(1, history, num_nodes, config.input_dim)
            )
            stop = threading.Event()
            swap_errors: list[str] = []

            def swapper():
                i = 0
                while not stop.is_set():
                    try:
                        service.swap_index_set(sets[i % 2])
                    except Exception as exc:  # diagnosed via the error count
                        swap_errors.append(repr(exc))
                        return
                    i += 1

            generation_before = service.generation
            swap_thread = threading.Thread(target=swapper, daemon=True)
            swap_thread.start()
            during = []
            predict_errors = 0
            for _ in range(max(20, samples)):
                start = time.perf_counter()
                try:
                    service.predict(window)
                except Exception:
                    predict_errors += 1
                during.append((time.perf_counter() - start) * 1000.0)
            stop.set()
            swap_thread.join(timeout=60)
            swaps_during = service.generation - generation_before
            during_p95 = float(np.percentile(during, 95))

            generation = service.swap_index_set(fresh)
            hot = service.predict(window)
            bundle = load_bundle(bundle_path)
            cold_model = rehydrate_model(bundle)
            cold_model._index_set = fresh.copy()
            cold_service = ForecastService(
                cold_model, scaler=rehydrate_scaler(bundle)
            )
            cold = cold_service.predict(window)
            parity = bool(np.array_equal(hot, cold))

    errors = int(predict_errors + len(swap_errors))
    print(
        f"online N={num_nodes:>6} M={m_eff:>3}: push {push_rows_per_s:.0f} rows/s, "
        f"forecast p50 {forecast_p50:.2f} ms p95 {forecast_p95:.2f} ms, "
        f"swap {swap_latency_ms:.1f} ms, during-swap p95 {during_p95:.2f} ms "
        f"({swaps_during} swaps, {errors} errors), parity={parity}",
        flush=True,
    )
    return {
        "num_nodes": int(num_nodes),
        "num_significant": int(m_eff),
        "dtype": dtype,
        "history": int(history),
        "horizon": int(horizon),
        "steps": int(steps),
        "push_rows_per_s": push_rows_per_s,
        "push_ms_per_step": push_elapsed * 1000.0 / steps,
        "forecast_p50_ms": forecast_p50,
        "forecast_p95_ms": forecast_p95,
        "forecast_rps": 1000.0 / forecast_p50 if forecast_p50 > 0 else float("inf"),
        "swap_latency_ms": swap_latency_ms,
        "forecast_during_swap_p95_ms": during_p95,
        "forecast_during_swap_requests": len(during),
        "forecast_during_swap_errors": errors,
        "swaps_during_forecast": int(swaps_during),
        "swap_parity": parity,
        "generation": int(generation),
    }


def bench_faults(num_nodes, m, heads, embedding_dim, ffn_hidden, hidden,
                 workers: int = 2, requests: int = 32, max_batch: int = 1,
                 seed: int = 0, dtype: str = "float32",
                 history: int = 6, horizon: int = 6,
                 restart_backoff_s: float = 0.1,
                 restart_backoff_ceiling_s: float = 8.0) -> dict:
    """Throughput and recovery under a standard kill schedule (schema v8).

    Runs the same concurrent burst twice through a supervised
    :class:`~repro.serve.ServingCluster`: once fault-free (the baseline)
    and once under a seeded :class:`~repro.serve.FaultPlan` that SIGKILLs
    every worker once.  Records the goodput (successful requests per
    second) of each run and how much of it the faulted run retains, how
    every request resolved (``unresolved`` must be zero —
    nothing may hang), and how long after the burst the supervisor needed
    to respawn the pool to full strength.  ``recovery_s`` is gated against
    ``restart_backoff_ceiling_s`` by ``--assert-fault-recovery``.
    """
    import tempfile
    from concurrent.futures import TimeoutError as FutureTimeoutError

    from repro.serve.batching import DeadlineExceeded, Overloaded
    from repro.serve.cluster import ClusterError, ServingCluster
    from repro.serve.faults import FaultPlan
    from repro.utils import save_bundle

    m_eff = min(m, num_nodes)
    with default_dtype(dtype):
        rng = np.random.default_rng(0)
        config = SAGDFNConfig(
            num_nodes=num_nodes, history=history, horizon=horizon,
            embedding_dim=embedding_dim, num_significant=m_eff,
            top_k=max(1, int(m_eff * 0.8)), hidden_size=hidden,
            num_heads=heads, ffn_hidden=ffn_hidden, seed=0,
        )
        model = SAGDFN(config)
        model.refresh_graph(0)

    plan = FaultPlan(
        workers=workers, seed=seed,
        # The schedule is keyed by per-worker served *jobs*; max_batch=1
        # keeps jobs == requests, and halving the per-worker share keeps
        # every kill ordinal inside the burst even when the workers pull
        # uneven shares of it.
        horizon=max(2, requests // (2 * workers)),
        kills_per_worker=1,
    )

    def burst(cluster, windows):
        begin = time.perf_counter()
        submitted, finished, futures = [], {}, []
        for i, window in enumerate(windows):
            submitted.append(time.perf_counter())
            future = cluster.submit(window)
            future.add_done_callback(
                lambda f, i=i: finished.setdefault(i, time.perf_counter())
            )
            futures.append(future)
        ok = typed_errors = unresolved = 0
        latencies: list[float] = []  # successful requests only
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
            "ok": int(ok),
            "typed_errors": int(typed_errors),
            "unresolved": int(unresolved),
            "elapsed_s": float(elapsed),
            "goodput_rps": ok / elapsed if elapsed > 0 else float("inf"),
            "latency_p95_ms": float(np.percentile(latencies, 95))
            if latencies else None,
        }

    with tempfile.TemporaryDirectory() as tmp:
        bundle_path = save_bundle(model, Path(tmp) / "bench_bundle")
        windows = rng.normal(
            size=(requests, history, num_nodes, config.input_dim)
        )
        supervisor_kwargs = dict(
            workers=workers, max_batch=max_batch,
            supervise=True, supervise_interval_s=0.05,
            restart_backoff_s=restart_backoff_s,
            restart_backoff_ceiling_s=restart_backoff_ceiling_s,
        )
        with ServingCluster(bundle_path, **supervisor_kwargs) as cluster:
            for future in [cluster.submit(windows[i % requests])
                           for i in range(workers)]:
                future.result(timeout=300)
            baseline = burst(cluster, windows)

        with ServingCluster(bundle_path, fault_plan=plan,
                            **supervisor_kwargs) as cluster:
            faulted = burst(cluster, windows)
            # Recovery: time after the burst until the supervisor has the
            # full pool live again (respawns overlap the burst, so this is
            # often near zero).
            recover_begin = time.perf_counter()
            deadline = recover_begin + 120.0
            while (cluster.alive_workers < workers
                   and time.perf_counter() < deadline):
                time.sleep(0.02)
            recovery_s = time.perf_counter() - recover_begin
            health = cluster.health()
            pool_restored = health.num_alive == workers

    retention = (
        faulted["goodput_rps"] / baseline["goodput_rps"]
        if baseline["goodput_rps"] else None
    )
    print(
        f"faults N={num_nodes:>6} workers={workers}: baseline goodput "
        f"{baseline['goodput_rps']:.1f} req/s -> faulted "
        f"{faulted['goodput_rps']:.1f} req/s "
        f"({faulted['ok']} ok / {faulted['typed_errors']} typed / "
        f"{faulted['unresolved']} unresolved), recovery {recovery_s:.2f} s, "
        f"{health.total_restarts} restart(s), {health.num_parked} parked",
        flush=True,
    )
    return {
        "num_nodes": int(num_nodes),
        "num_significant": int(m_eff),
        "workers": int(workers),
        "requests": int(requests),
        "max_batch": int(max_batch),
        "dtype": dtype,
        "plan": plan.summary(),
        "baseline": baseline,
        "faulted": faulted,
        "goodput_retention": retention,
        "recovery_s": recovery_s,
        "pool_restored": bool(pool_restored),
        "parked_workers": int(health.num_parked),
        "total_restarts": int(health.total_restarts),
        "redispatches": int(health.redispatches),
        "restart_backoff_s": float(restart_backoff_s),
        "restart_backoff_ceiling_s": float(restart_backoff_ceiling_s),
    }


def run(sizes, m, heads, embedding_dim, ffn_hidden, hidden, repeats,
        train_step_max_n, scaling_sizes=SCALING_SIZES, scaling_budget_mb=64.0,
        scaling_embedding_dim=64, scaling_equivalence_max_n=10_000,
        recurrence_sizes=None, cluster_workers=CLUSTER_WORKERS,
        cluster_requests=64, online_steps=96) -> dict:
    results = []
    for num_nodes in sizes:
        m_eff = min(m, num_nodes)
        for dtype in ("float32", "float64"):
            entry = {
                "num_nodes": int(num_nodes),
                "num_significant": int(m_eff),
                "dtype": dtype,
                "attention_vectorized_ms": bench_attention(
                    num_nodes, m_eff, heads, embedding_dim, ffn_hidden, repeats, dtype
                ),
            }
            entry["gconv_ms"] = bench_gconv(num_nodes, m_eff, hidden, repeats, dtype)
            if num_nodes <= train_step_max_n:
                entry["train_step_ms"] = bench_train_step(
                    num_nodes, m_eff, heads, embedding_dim, ffn_hidden, hidden,
                    repeats, dtype
                )
            results.append(entry)
            print(
                f"N={num_nodes:>6} M={m_eff:>3} {dtype}: "
                f"attention {entry['attention_vectorized_ms']:.2f} ms, "
                f"gconv {entry['gconv_ms']:.2f} ms, "
                f"train step {entry.get('train_step_ms', float('nan')):.2f} ms",
                flush=True,
            )

    # Serving hot path: frozen-graph latency/throughput on the largest
    # benchmarked graph that still allows a full train step (the serving
    # forward itself is the same cost at any N, scaled by the bench sizes).
    serve_n = min(max(sizes), train_step_max_n)
    serve = bench_serve(serve_n, min(m, serve_n), heads, embedding_dim,
                        ffn_hidden, hidden, repeats)

    # Large-N pathway: wall time + peak memory of the chunked SNS/attention
    # forward, with the bitwise chunked-vs-unchunked check.
    scaling = bench_scaling(scaling_sizes, m, heads, scaling_embedding_dim,
                            ffn_hidden, repeats, scaling_budget_mb,
                            scaling_equivalence_max_n)

    # Recurrence: autograd forward vs serving kernel, one forward + backward,
    # and the kernel's throughput-vs-batch curve.
    if recurrence_sizes is None:
        recurrence_sizes = [max(sizes)]
    recurrence = bench_recurrence(recurrence_sizes, m, heads, embedding_dim,
                                  ffn_hidden, hidden, repeats)

    # Multi-worker serving: throughput vs worker count at the serve size.
    cluster = bench_cluster(serve_n, m, heads, embedding_dim, ffn_hidden,
                            hidden, workers_list=cluster_workers,
                            requests=cluster_requests)

    # Stateful online serving: session throughput + hot-swap cost/parity.
    online = bench_online(serve_n, m, heads, embedding_dim, ffn_hidden,
                          hidden, repeats, steps=online_steps)

    # Fault tolerance: throughput retention and pool recovery under the
    # standard kill schedule.
    faults = bench_faults(serve_n, m, heads, embedding_dim, ffn_hidden,
                          hidden, requests=cluster_requests)

    return {
        "benchmark": "attention",
        "schema_version": SCHEMA_VERSION,
        "config": {
            "num_significant": int(m),
            "num_heads": int(heads),
            "embedding_dim": int(embedding_dim),
            "ffn_hidden": int(ffn_hidden),
            "hidden_size": int(hidden),
            "repeats": int(repeats),
            "numpy": np.__version__,
        },
        "serve": serve,
        "scaling": scaling,
        "recurrence": recurrence,
        "cluster": cluster,
        "online": online,
        "faults": faults,
        "results": results,
    }


def validate_scaling(section: dict) -> None:
    """Raise ``ValueError`` if ``section`` is not a valid scaling section."""
    if not isinstance(section, dict) or not section.get("results"):
        raise ValueError("scaling section must hold a non-empty results list")
    if "memory_budget_mb" not in section:
        raise ValueError("scaling section missing key 'memory_budget_mb'")
    for entry in section["results"]:
        for key in ("num_nodes", "num_significant", "dtype", "wall_ms",
                    "peak_mem_mb", "peak_rss_mb", "within_budget",
                    "chunked_equals_unchunked"):
            if key not in entry:
                raise ValueError(f"scaling entry missing key {key!r}: {entry}")
        if entry["chunked_equals_unchunked"] is False:
            raise ValueError(
                f"chunked path diverged from the unchunked path at "
                f"N={entry['num_nodes']}"
            )


def validate_recurrence(section: dict) -> None:
    """Raise ``ValueError`` if ``section`` is not a valid recurrence section."""
    if not isinstance(section, dict) or not section.get("results"):
        raise ValueError("recurrence section must hold a non-empty results list")
    for key in ("history", "horizon", "serve_throughput",
                "throughput_batch8_over_batch1"):
        if key not in section:
            raise ValueError(f"recurrence section missing key {key!r}")
    for entry in section["results"]:
        for key in ("num_nodes", "dtype", "steps", "forward_ms", "kernel_ms",
                    "train_ms", "kernel_speedup", "per_step_kernel_ms",
                    "max_rel_diff_kernel"):
            if key not in entry:
                raise ValueError(f"recurrence entry missing key {key!r}: {entry}")
    for entry in section["serve_throughput"]:
        for key in ("batch_size", "latency_p50_ms", "throughput_rps"):
            if key not in entry:
                raise ValueError(f"recurrence serve entry missing key {key!r}: {entry}")


def validate_cluster(section: dict) -> None:
    """Raise ``ValueError`` if ``section`` is not a valid cluster section."""
    if not isinstance(section, dict) or not section.get("results"):
        raise ValueError("cluster section must hold a non-empty results list")
    for key in ("num_nodes", "requests", "max_batch", "dtype",
                "throughput_workers2_over_workers1"):
        if key not in section:
            raise ValueError(f"cluster section missing key {key!r}")
    for entry in section["results"]:
        for key in ("workers", "requests", "throughput_rps", "latency_p50_ms",
                    "latency_p95_ms", "scaling_efficiency", "num_batches",
                    "mean_batch_size"):
            if key not in entry:
                raise ValueError(f"cluster entry missing key {key!r}: {entry}")
        if entry["workers"] < 1:
            raise ValueError(f"cluster entry has invalid workers: {entry}")


def validate_online(section: dict) -> None:
    """Raise ``ValueError`` if ``section`` is not a valid online section."""
    if not isinstance(section, dict):
        raise ValueError("online section must be a dict")
    for key in ("num_nodes", "num_significant", "dtype", "steps",
                "push_rows_per_s", "push_ms_per_step", "forecast_p50_ms",
                "forecast_p95_ms", "forecast_rps", "swap_latency_ms",
                "forecast_during_swap_p95_ms", "forecast_during_swap_requests",
                "forecast_during_swap_errors", "swaps_during_forecast",
                "swap_parity", "generation"):
        if key not in section:
            raise ValueError(f"online section missing key {key!r}")
    if section["forecast_during_swap_errors"]:
        raise ValueError(
            f"{section['forecast_during_swap_errors']} request(s) errored "
            "during the concurrent hot-swap; in-flight requests must always "
            "complete"
        )


def validate_faults(section: dict) -> None:
    """Raise ``ValueError`` if ``section`` is not a valid faults section."""
    if not isinstance(section, dict):
        raise ValueError("faults section must be a dict")
    for key in ("num_nodes", "workers", "requests", "plan", "baseline",
                "faulted", "goodput_retention", "recovery_s",
                "pool_restored", "parked_workers", "total_restarts",
                "redispatches", "restart_backoff_s",
                "restart_backoff_ceiling_s"):
        if key not in section:
            raise ValueError(f"faults section missing key {key!r}")
    for name in ("baseline", "faulted"):
        entry = section[name]
        for key in ("ok", "typed_errors", "unresolved", "elapsed_s",
                    "goodput_rps", "latency_p95_ms"):
            if key not in entry:
                raise ValueError(
                    f"faults {name} entry missing key {key!r}: {entry}"
                )
        if entry["unresolved"]:
            raise ValueError(
                f"{entry['unresolved']} request(s) never resolved in the "
                f"{name} run; every future must resolve with a result or a "
                "typed error"
            )
    plan = section["plan"]
    for key in ("workers", "seed", "horizon", "events", "by_kind"):
        if key not in plan:
            raise ValueError(f"faults plan summary missing key {key!r}")


def validate_schema(report: dict) -> None:
    """Raise ``ValueError`` if ``report`` is not a valid benchmark report."""
    for key in ("benchmark", "schema_version", "config", "results",
                "serve", "scaling", "recurrence", "cluster", "online", "faults"):
        if key not in report:
            raise ValueError(f"missing top-level key {key!r}")
    if not isinstance(report["results"], list) or not report["results"]:
        raise ValueError("results must be a non-empty list")
    for entry in report["results"]:
        for key in ("num_nodes", "num_significant", "dtype",
                    "attention_vectorized_ms", "gconv_ms"):
            if key not in entry:
                raise ValueError(f"result entry missing key {key!r}: {entry}")
        if entry["dtype"] not in {"float32", "float64"}:
            raise ValueError(f"unexpected dtype {entry['dtype']!r}")
    serve = report["serve"]
    if not isinstance(serve, dict) or not serve.get("results"):
        raise ValueError("serve section must hold a non-empty results list")
    for entry in serve["results"]:
        for key in ("batch_size", "latency_p50_ms", "latency_p95_ms", "throughput_rps"):
            if key not in entry:
                raise ValueError(f"serve entry missing key {key!r}: {entry}")
    validate_scaling(report["scaling"])
    validate_recurrence(report["recurrence"])
    validate_cluster(report["cluster"])
    validate_online(report["online"])
    validate_faults(report["faults"])


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
                        help="node counts N to benchmark (default: 200 2000)")
    parser.add_argument("--m", type=int, default=40,
                        help="number of significant neighbours M (default: 40)")
    parser.add_argument("--heads", type=int, default=8)
    parser.add_argument("--embedding-dim", type=int, default=16)
    parser.add_argument("--ffn-hidden", type=int, default=32)
    parser.add_argument("--hidden", type=int, default=16,
                        help="GRU/gconv hidden size for the gconv and train-step benches")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--train-step-max-n", type=int, default=2000,
                        help="skip the train-step bench above this node count")
    parser.add_argument("--scaling-sizes", type=int, nargs="+",
                        default=list(SCALING_SIZES),
                        help="node counts of the large-N scaling bench")
    parser.add_argument("--scaling-budget-mb", type=float, default=64.0,
                        help="memory budget (MiB) of the chunked scaling forward")
    parser.add_argument("--scaling-embedding-dim", type=int, default=64,
                        help="embedding width of the scaling bench (larger than the "
                             "micro-bench default so the O(N*M*d) term dominates)")
    parser.add_argument("--scaling-equivalence-max-n", type=int, default=10_000,
                        help="run the unchunked path and the bitwise check up to this N")
    parser.add_argument("--scaling-only", action="store_true",
                        help="run (and write) only the scaling section")
    parser.add_argument("--assert-scaling-peak-mb", type=float, default=None,
                        help="exit non-zero if any scaling entry's tracemalloc peak "
                             "exceeds this many MiB")
    parser.add_argument("--recurrence-sizes", type=int, nargs="+", default=None,
                        help="node counts of the recurrence bench "
                             "(default: the largest of --sizes)")
    parser.add_argument("--recurrence-only", action="store_true",
                        help="run (and write) only the recurrence section")
    parser.add_argument("--assert-recurrence-speedup", type=float, default=None,
                        help="exit non-zero if the serving-kernel-vs-autograd-"
                             "forward speedup of any recurrence entry is below "
                             "this factor")
    parser.add_argument("--assert-serve-batch-growth", type=float, default=None,
                        help="exit non-zero if serve throughput at batch 8 is not "
                             "at least this multiple of the batch-1 throughput")
    parser.add_argument("--cluster-workers", type=int, nargs="+",
                        default=list(CLUSTER_WORKERS),
                        help="worker counts of the multi-worker serving bench "
                             "(default: 1 2 4)")
    parser.add_argument("--cluster-requests", type=int, default=64,
                        help="requests per worker-count of the cluster bench")
    parser.add_argument("--cluster-only", action="store_true",
                        help="run (and write) only the cluster section")
    parser.add_argument("--assert-cluster-efficiency", type=float, default=None,
                        help="exit non-zero if the scaling efficiency of any "
                             "multi-worker cluster entry is below this fraction "
                             "(meaningful on multi-core hosts only)")
    parser.add_argument("--online-steps", type=int, default=96,
                        help="stream length replayed through the online "
                             "session bench (default: 96)")
    parser.add_argument("--online-only", action="store_true",
                        help="run (and write) only the online serving section")
    parser.add_argument("--assert-swap-parity", action="store_true",
                        help="exit non-zero unless the hot-swapped service's "
                             "forecast is bit-identical to a cold start from "
                             "the same index set (and no request errored "
                             "during the concurrent swap)")
    parser.add_argument("--fault-workers", type=int, default=2,
                        help="worker count of the fault-tolerance bench "
                             "(default: 2)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="FaultPlan seed of the fault-tolerance bench")
    parser.add_argument("--faults-only", action="store_true",
                        help="run (and write) only the fault-tolerance section")
    parser.add_argument("--assert-fault-recovery", action="store_true",
                        help="exit non-zero unless the faulted burst resolved "
                             "every request, the pool respawned to full "
                             "strength with no parked worker, and recovery "
                             "stayed within the restart backoff ceiling")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: smallest N only, single repeat")
    parser.add_argument("--output", type=Path, default=None,
                        help="report path (default: BENCH_attention.json at the repo "
                             "root, or BENCH_scaling.json with --scaling-only — the "
                             "scaling-only report has a reduced schema and must not "
                             "clobber the committed full benchmark)")
    args = parser.parse_args(argv)

    if any(size < 1 for size in args.sizes + args.scaling_sizes):
        parser.error("--sizes/--scaling-sizes values must be positive node counts")
    if args.recurrence_sizes is not None and any(s < 1 for s in args.recurrence_sizes):
        parser.error("--recurrence-sizes values must be positive node counts")
    if args.m < 1 or args.repeats < 1:
        parser.error("--m and --repeats must be >= 1")
    if args.fault_workers < 1:
        parser.error("--fault-workers must be >= 1")
    if any(w < 1 for w in args.cluster_workers) or args.cluster_requests < 1:
        parser.error("--cluster-workers/--cluster-requests must be >= 1")
    if args.online_steps < 8:
        parser.error("--online-steps must be >= 8 (the window must fill)")
    only_flags = {
        "--scaling-only": args.scaling_only,
        "--recurrence-only": args.recurrence_only,
        "--cluster-only": args.cluster_only,
        "--online-only": args.online_only,
        "--faults-only": args.faults_only,
    }
    if sum(only_flags.values()) > 1:
        parser.error(" and ".join(only_flags) + " are mutually exclusive")
    # Each --assert-* gate needs its section; a *different* --X-only drops it.
    for gate, value, section_flag in (
        ("--assert-scaling-peak-mb", args.assert_scaling_peak_mb, "--scaling-only"),
        ("--assert-recurrence-speedup", args.assert_recurrence_speedup,
         "--recurrence-only"),
        ("--assert-serve-batch-growth", args.assert_serve_batch_growth,
         "--recurrence-only"),
        ("--assert-cluster-efficiency", args.assert_cluster_efficiency,
         "--cluster-only"),
        ("--assert-swap-parity", args.assert_swap_parity or None,
         "--online-only"),
        ("--assert-fault-recovery", args.assert_fault_recovery or None,
         "--faults-only"),
    ):
        other_only = any(flag for name, flag in only_flags.items()
                         if name != section_flag)
        if value is not None and other_only and not only_flags[section_flag]:
            parser.error(f"{gate} requires the section that a different "
                         f"--*-only flag excludes")

    if args.smoke:
        args.sizes = [min(args.sizes)]
        args.scaling_sizes = [min(args.scaling_sizes)]
        if args.recurrence_sizes is not None:
            args.recurrence_sizes = [min(args.recurrence_sizes)]
        args.cluster_workers = sorted(set(args.cluster_workers))[:2]
        args.cluster_requests = min(args.cluster_requests, 16)
        args.online_steps = min(args.online_steps, 32)
        args.repeats = 1

    if args.output is None:
        if args.scaling_only:
            default_name = "BENCH_scaling.json"
        elif args.recurrence_only:
            default_name = "BENCH_recurrence.json"
        elif args.cluster_only:
            default_name = "BENCH_cluster.json"
        elif args.online_only:
            default_name = "BENCH_online.json"
        elif args.faults_only:
            default_name = "BENCH_faults.json"
        else:
            default_name = "BENCH_attention.json"
        args.output = REPO_ROOT / default_name

    if args.scaling_only:
        scaling = bench_scaling(args.scaling_sizes, args.m, args.heads,
                                args.scaling_embedding_dim, args.ffn_hidden,
                                args.repeats, args.scaling_budget_mb,
                                args.scaling_equivalence_max_n)
        report = {
            "benchmark": "attention-scaling",
            "schema_version": SCHEMA_VERSION,
            "scaling": scaling,
        }
    elif args.recurrence_only:
        recurrence = bench_recurrence(
            args.recurrence_sizes or [max(args.sizes)], args.m, args.heads,
            args.embedding_dim, args.ffn_hidden, args.hidden, args.repeats,
        )
        report = {
            "benchmark": "attention-recurrence",
            "schema_version": SCHEMA_VERSION,
            "recurrence": recurrence,
        }
    elif args.cluster_only:
        cluster = bench_cluster(
            min(args.sizes), args.m, args.heads, args.embedding_dim,
            args.ffn_hidden, args.hidden,
            workers_list=args.cluster_workers,
            requests=args.cluster_requests,
        )
        report = {
            "benchmark": "attention-cluster",
            "schema_version": SCHEMA_VERSION,
            "cluster": cluster,
        }
    elif args.online_only:
        online = bench_online(
            min(args.sizes), args.m, args.heads, args.embedding_dim,
            args.ffn_hidden, args.hidden, args.repeats,
            steps=args.online_steps,
        )
        report = {
            "benchmark": "attention-online",
            "schema_version": SCHEMA_VERSION,
            "online": online,
        }
    elif args.faults_only:
        faults = bench_faults(
            min(args.sizes), args.m, args.heads, args.embedding_dim,
            args.ffn_hidden, args.hidden,
            workers=args.fault_workers,
            requests=args.cluster_requests,
            seed=args.fault_seed,
        )
        report = {
            "benchmark": "attention-faults",
            "schema_version": SCHEMA_VERSION,
            "faults": faults,
        }
    else:
        report = run(args.sizes, args.m, args.heads, args.embedding_dim,
                     args.ffn_hidden, args.hidden, args.repeats,
                     args.train_step_max_n,
                     scaling_sizes=args.scaling_sizes,
                     scaling_budget_mb=args.scaling_budget_mb,
                     scaling_embedding_dim=args.scaling_embedding_dim,
                     scaling_equivalence_max_n=args.scaling_equivalence_max_n,
                     recurrence_sizes=args.recurrence_sizes,
                     cluster_workers=args.cluster_workers,
                     cluster_requests=args.cluster_requests,
                     online_steps=args.online_steps)

    # Write the report before any gate (schema validation, the bitwise
    # divergence check inside it, the peak assertion): a failing gate in CI
    # must still leave the per-N diagnostic JSON for the artifact upload.
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.scaling_only:
        validate_scaling(report["scaling"])
    elif args.recurrence_only:
        validate_recurrence(report["recurrence"])
    elif args.cluster_only:
        validate_cluster(report["cluster"])
    elif args.online_only:
        validate_online(report["online"])
    elif args.faults_only:
        validate_faults(report["faults"])
    else:
        validate_schema(report)

    if args.assert_scaling_peak_mb is not None:
        for entry in report["scaling"]["results"]:
            if entry["peak_mem_mb"] > args.assert_scaling_peak_mb:
                raise SystemExit(
                    f"scaling peak {entry['peak_mem_mb']:.1f} MiB at "
                    f"N={entry['num_nodes']} exceeds the "
                    f"{args.assert_scaling_peak_mb} MiB assertion"
                )
        print(f"scaling peak assertion (<= {args.assert_scaling_peak_mb} MiB) ok")

    if args.assert_recurrence_speedup is not None:
        for entry in report["recurrence"]["results"]:
            if entry["kernel_speedup"] < args.assert_recurrence_speedup:
                raise SystemExit(
                    f"serving-kernel recurrence speedup "
                    f"{entry['kernel_speedup']:.2f}x at "
                    f"N={entry['num_nodes']} is below the "
                    f"{args.assert_recurrence_speedup}x assertion"
                )
        print(
            f"recurrence speedup assertion (>= {args.assert_recurrence_speedup}x) ok"
        )
    if args.assert_serve_batch_growth is not None:
        growth = report["recurrence"]["throughput_batch8_over_batch1"]
        if growth is None or growth < args.assert_serve_batch_growth:
            raise SystemExit(
                f"serve throughput at batch 8 is {growth!r}x the batch-1 "
                f"throughput, below the {args.assert_serve_batch_growth}x assertion"
            )
        print(
            f"serve batch-growth assertion (>= {args.assert_serve_batch_growth}x) ok"
        )
    if args.assert_cluster_efficiency is not None:
        for entry in report["cluster"]["results"]:
            if entry["workers"] == 1:
                continue
            efficiency = entry["scaling_efficiency"]
            if efficiency is None or efficiency < args.assert_cluster_efficiency:
                raise SystemExit(
                    f"cluster scaling efficiency {efficiency!r} at "
                    f"{entry['workers']} workers is below the "
                    f"{args.assert_cluster_efficiency} assertion"
                )
        print(
            "cluster efficiency assertion "
            f"(>= {args.assert_cluster_efficiency}) ok"
        )
    if args.assert_swap_parity:
        section = report["online"]
        if not section["swap_parity"]:
            raise SystemExit(
                "hot-swapped forecasts are not bit-identical to a cold start "
                "from the same index set"
            )
        if section["forecast_during_swap_errors"]:
            raise SystemExit(
                f"{section['forecast_during_swap_errors']} request(s) errored "
                "during the concurrent hot-swap"
            )
        print("swap parity assertion (hot == cold start, bitwise) ok")
    if args.assert_fault_recovery:
        section = report["faults"]
        problems = []
        for name in ("baseline", "faulted"):
            if section[name]["unresolved"]:
                problems.append(
                    f"{section[name]['unresolved']} request(s) never "
                    f"resolved in the {name} run"
                )
        if not section["pool_restored"]:
            problems.append("the supervisor did not respawn the pool to "
                            "full strength")
        if section["parked_workers"]:
            problems.append(
                f"{section['parked_workers']} worker(s) were parked by the "
                "crash-loop circuit breaker"
            )
        ceiling = section["restart_backoff_ceiling_s"]
        if section["recovery_s"] > ceiling:
            problems.append(
                f"pool recovery took {section['recovery_s']:.2f} s, beyond "
                f"the {ceiling:.1f} s backoff ceiling"
            )
        if problems:
            raise SystemExit("fault recovery assertion failed: "
                             + "; ".join(problems))
        print(
            "fault recovery assertion (all resolved, pool restored within "
            f"{ceiling:.1f} s) ok"
        )
    return report


if __name__ == "__main__":
    main()
