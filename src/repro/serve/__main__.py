"""Command-line forecast server: ``python -m repro.serve``.

Loads a serving bundle, answers a batch of forecast requests through the
micro-batching queue and reports latency/throughput, e.g.::

    # serve requests stored as a (R, h, N, C) .npy array
    python -m repro.serve checkpoints/sagdfn_bundle.npz \\
        --input requests.npy --output predictions.npy

    # synthetic smoke run straight from the bundle's own config
    python -m repro.serve checkpoints/sagdfn_bundle.npz --requests 32 --max-batch 8

    # multi-worker cluster: replicate the frozen kernel across processes
    python -m repro.serve checkpoints/sagdfn_bundle.npz --workers 4 --requests 256

    # stateful online serving: replay a stream through sessions, with
    # drift-triggered hot-swap of the frozen graph
    python -m repro.serve checkpoints/sagdfn_bundle.npz --online --steps 256 \\
        --drift-threshold 0.5
"""

from __future__ import annotations

import argparse
import sys
import time
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.serve.batching import MicroBatcher
from repro.serve.service import ForecastService
from repro.utils.checkpoint import load_bundle


class _Parser(argparse.ArgumentParser):
    """Argument errors are one line, ``prog: error: …`` (exit 2), without the usage block."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _bounded(kind, low, strict: bool = False):
    """An argparse ``type``: ``kind(text)``, refused unless ``>= low`` (``> low`` if strict)."""
    def parse(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low):  # NaN is refused too
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro.serve",
        description="Serve forecast requests from a SAGDFN checkpoint bundle.",
    )
    parser.add_argument("checkpoint", type=Path, help="serving bundle written by save_bundle")
    parser.add_argument("--input", type=Path, default=None,
                        help=".npy file of request windows, shape (R, h, N, C) or (h, N, C)")
    parser.add_argument("--output", type=Path, default=None,
                        help="write predictions (R, f, N, 1) to this .npy file")
    parser.add_argument("--requests", type=int, default=16,
                        help="number of synthetic requests when --input is omitted")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes; >1 replicates the frozen kernel "
                             "across a same-host ServingCluster (shared-memory "
                             "request rings, one admission queue every worker "
                             "pulls from)")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="micro-batching: largest coalesced batch")
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="micro-batching: wait for stragglers after the first request")
    parser.add_argument("--deadline-s", type=float, default=None,
                        help="admission control: per-request deadline; a request "
                             "still queued this many seconds after submission is "
                             "shed before it reaches the kernel")
    parser.add_argument("--max-pending", type=int, default=None,
                        help="admission control: pending-queue watermark "
                             "(the whole queue, shared by every worker); beyond "
                             "it new requests are rejected with a typed "
                             "Overloaded error instead of queueing")
    # The library's rules, checked at parse time: a bad value must not get
    # as far as a bundle read or a worker spawn.
    parser.add_argument("--chunk-size", type=_bounded(int, 1), default=None,
                        help="large-N memory knob: node-block size of the SNS ranking "
                             "and attention scoring at graph-freeze time")
    parser.add_argument("--memory-budget-mb", type=_bounded(float, 0, strict=True),
                        default=None,
                        help="large-N memory knob: derive the node blocks from this "
                             "scratch budget (MiB) instead of --chunk-size")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the synthetic request generator")

    online = parser.add_argument_group(
        "online serving", "stateful sessions with drift-triggered hot-swap"
    )
    online.add_argument("--online", action="store_true",
                        help="replay an observation stream through streaming "
                             "sessions instead of serving one-shot windows")
    online.add_argument("--stream", type=Path, default=None,
                        help=".npy observation stream in original units: (T, N) "
                             "target-only, (T, N, C) with covariate channels, or "
                             "(T, N, C+1) with a trailing observation mask for "
                             "mask-aware bundles; synthetic (with a mid-stream "
                             "regime change) when omitted")
    online.add_argument("--steps", type=int, default=128,
                        help="length of the synthetic stream when --stream is omitted")
    online.add_argument("--sessions", type=int, default=1,
                        help="number of client sessions the stream is replayed into")
    online.add_argument("--forecast-every", type=int, default=4,
                        help="forecast from each filled session every this many steps")
    online.add_argument("--drift-threshold", type=_bounded(float, 0), default=None,
                        help="swap when the re-sampled index-set overlap drops below "
                             "this; overrides the bundle's recorded drift config "
                             "(no monitoring when neither is present)")
    online.add_argument("--drift-check-every", type=_bounded(int, 1), default=None,
                        help="timesteps between drift checks (default: bundle drift "
                             "config, else 32)")
    online.add_argument("--drift-min-history", type=_bounded(int, 1), default=None,
                        help="pooled timesteps required before the first drift check")
    online.add_argument("--update-scaler", action="store_true",
                        help="partial_fit the bundle scaler from the live feed")
    return parser


@contextmanager
def _one_line_errors(what: str, path: Path):
    """Turn a failure to read ``what`` at ``path`` into a one-line exit."""
    try:
        yield
    except FileNotFoundError:
        raise SystemExit(f"error: {what} not found: {path}")
    except (zipfile.BadZipFile, ValueError, KeyError, EOFError, OSError) as error:
        detail = str(error).splitlines()[0] if str(error) else type(error).__name__
        raise SystemExit(f"error: cannot load {what} {path}: {detail}")


def _load_windows(args, window_shape: tuple, mask_input: bool) -> np.ndarray:
    """The ``(R, h, N, C)`` requests: ``--input``, else synthetic ones."""
    if args.input is not None:
        with _one_line_errors("--input file", args.input):
            windows = np.load(args.input)
        if windows.ndim == 3:
            windows = windows[None]
        if windows.ndim != 4:
            raise SystemExit(
                f"--input must hold (R, h, N, C) or (h, N, C) windows, got {windows.shape}"
            )
        if windows.shape[-1] != window_shape[-1]:
            raise SystemExit(
                f"error: --input windows carry {windows.shape[-1]} channels but the "
                f"bundle scenario expects {window_shape[-1]} "
                "(input_dim + exog_dim + mask)"
            )
        return windows
    windows = np.random.default_rng(args.seed).normal(
        size=(args.requests,) + tuple(window_shape)
    )
    if mask_input:
        windows[..., -1] = 1.0  # synthetic smoke requests are fully observed
    return windows


def _report(results: list, prediction_shape: tuple, elapsed: float,
            stats, output: Path | None) -> None:
    num_served = len(results)
    predictions = np.stack(results) if results else np.empty((0, *prediction_shape))
    throughput = num_served / elapsed if elapsed > 0 else float("inf")
    print(
        f"served {num_served} requests in {elapsed * 1000.0:.1f} ms "
        f"({throughput:.1f} req/s) over {stats.num_batches} batches "
        f"(mean batch {stats.mean_batch_size:.1f}, max {stats.max_batch_size})"
    )
    if output is not None:
        np.save(output, predictions)
        print(f"wrote predictions {predictions.shape} to {output}")


def _submit_and_gather(submit, windows: np.ndarray, deadline_s: float | None):
    """Submit every window, counting typed failures instead of raising.

    Returns ``(results, rejected, shed, failed)``: predictions of the
    requests that made it through, plus the counts rejected at the
    watermark (:class:`Overloaded`), shed at their deadline
    (:class:`DeadlineExceeded`) and failed by the cluster
    (:class:`ClusterError`).
    """
    from repro.serve.batching import DeadlineExceeded, Overloaded
    from repro.serve.cluster import ClusterError

    futures = []
    rejected = 0
    for window in windows:
        try:
            futures.append(submit(window, deadline_s=deadline_s))
        except Overloaded:
            rejected += 1
    results = []
    shed = failed = 0
    for future in futures:
        try:
            results.append(future.result())
        except DeadlineExceeded:
            shed += 1
        except ClusterError:
            failed += 1
    return results, rejected, shed, failed


def _report_admission(args, rejected: int, shed: int, failed: int) -> int:
    """Print the admission line when it has news; exit status 1 on failures."""
    if args.deadline_s is not None or args.max_pending is not None or failed:
        print(f"admission: {rejected} rejected (overloaded), "
              f"{shed} shed (deadline), {failed} failed")
    return 1 if failed else 0


def _serve_cluster(args) -> int:
    from repro.serve.cluster import ServingCluster

    load_start = time.perf_counter()
    with _one_line_errors("checkpoint bundle", args.checkpoint):
        cluster = ServingCluster(
            args.checkpoint,
            workers=args.workers,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_pending=args.max_pending,
            chunk_size=args.chunk_size,
            memory_budget_mb=args.memory_budget_mb,
        )
    with cluster:
        load_ms = (time.perf_counter() - load_start) * 1000.0
        print(
            f"started {cluster.workers}-worker cluster on {args.checkpoint} "
            f"in {load_ms:.1f} ms"
        )
        windows = _load_windows(args, cluster.window_shape, cluster.mask_input)
        serve_start = time.perf_counter()
        results, rejected, shed, failed = _submit_and_gather(
            cluster.submit, windows, args.deadline_s
        )
        elapsed = time.perf_counter() - serve_start
        stats = cluster.stats
        health = cluster.health()
    _report(results, cluster.prediction_shape, elapsed, stats, args.output)
    status = _report_admission(args, rejected, shed, failed)
    print(
        f"health: {health.num_alive}/{health.num_workers} workers live, "
        f"{health.num_parked} parked, {health.total_restarts} restart(s), "
        f"{health.redispatches} re-dispatch(es), generation {health.generation}"
    )
    return status


# --------------------------------------------------------------------- #
# Online (stateful) serving
# --------------------------------------------------------------------- #
def _synthetic_stream(num_nodes: int, width: int, steps: int, seed: int) -> np.ndarray:
    """A (T, N, width) original-units stream with a mid-stream regime change.

    The first half follows one set of node phase offsets, the second half a
    shuffled set — node correlation structure changes, which is exactly the
    drift the monitor's re-sampling should notice.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(steps)[:, None]
    phases = rng.uniform(0.0, 2.0 * np.pi, size=num_nodes)
    values = 50.0 + 10.0 * np.sin(0.3 * t + phases) + rng.normal(0.0, 1.0, (steps, num_nodes))
    half = steps // 2
    shuffled = rng.permutation(phases)
    values[half:] = (
        50.0
        + 10.0 * np.sin(0.3 * t[half:] + shuffled)
        + rng.normal(0.0, 1.0, (steps - half, num_nodes))
    )
    stream = np.zeros((steps, num_nodes, width))
    stream[..., 0] = values
    if width > 1:
        stream[..., 1:] = rng.random((steps, num_nodes, width - 1))
    return stream


def _load_stream(args, manager) -> tuple[np.ndarray, np.ndarray | None]:
    """Returns ``(stream (T, N, width), mask (T, N) | None)`` in original units."""
    num_nodes, width, mask_input = manager.num_nodes, manager.width, manager.mask_input
    if args.stream is None:
        return _synthetic_stream(num_nodes, width, args.steps, args.seed), None
    with _one_line_errors("--stream file", args.stream):
        raw = np.load(args.stream)
    if raw.ndim == 2:
        raw = raw[..., None]
    if raw.ndim != 3 or raw.shape[1] != num_nodes:
        raise SystemExit(
            f"error: --stream must be (T, {num_nodes}) or "
            f"(T, {num_nodes}, C), got {raw.shape}"
        )
    mask = None
    if raw.shape[-1] == width + 1 and mask_input:
        mask = raw[..., -1]
        raw = raw[..., :-1]
    if raw.shape[-1] != width:
        raise SystemExit(
            f"error: --stream carries {raw.shape[-1]} channels but the bundle "
            f"scenario expects {width} (input_dim + exog_dim"
            + (" [+ trailing mask])" if mask_input else ")")
        )
    return raw, mask


def _serve_online(args) -> int:
    from repro.serve.online import SessionManager

    if args.sessions < 1:
        raise SystemExit("--sessions must be >= 1")
    if args.forecast_every < 1:
        raise SystemExit("--forecast-every must be >= 1")
    if args.update_scaler and args.workers > 1:
        raise SystemExit("error: --update-scaler needs --workers 1: cluster workers "
                         "un-scale forecasts with the bundle's frozen scaler")
    # The flags override the bundle's recorded drift config key by key.
    drift = {key: value for key, value in (
        ("overlap_threshold", args.drift_threshold),
        ("check_every", args.drift_check_every),
        ("min_history", args.drift_min_history),
    ) if value is not None}

    load_start = time.perf_counter()
    try:
        with _one_line_errors("checkpoint bundle", args.checkpoint):
            manager = SessionManager.from_checkpoint(
                args.checkpoint,
                workers=0 if args.workers == 1 else args.workers,
                drift=drift,
                update_scaler=args.update_scaler,
                chunk_size=args.chunk_size,
                memory_budget_mb=args.memory_budget_mb,
                **(
                    {"max_batch": args.max_batch, "max_wait_ms": args.max_wait_ms}
                    if args.workers > 1 else {}
                ),
            )
    except RuntimeError as error:  # a ClusterError: the pool did not start
        raise SystemExit(f"error: cannot start online serving: {error}")
    load_ms = (time.perf_counter() - load_start) * 1000.0
    mode = f"{args.workers}-worker cluster" if args.workers > 1 else "single process"
    print(f"online serving on {args.checkpoint} ({mode}), loaded in {load_ms:.1f} ms")

    clients = [f"session-{i}" for i in range(args.sessions)]
    forecasts: list[np.ndarray] = []
    checks = swaps = 0
    try:
        stream, mask = _load_stream(args, manager)
        serve_start = time.perf_counter()
        for step in range(stream.shape[0]):
            values = stream[step, :, 0][None]
            covariates = stream[step, :, 1:][None] if manager.width > 1 else None
            step_mask = None if mask is None else mask[step][None]
            for client in clients:
                report = manager.push_observations(
                    client, values, covariates=covariates, mask=step_mask
                )
                if report is not None and report.checked:
                    checks += 1
                    swaps += int(report.swapped)
            session = manager.session(clients[0])
            if session.ready and (step + 1) % args.forecast_every == 0:
                forecasts.append(manager.forecast(clients[0]))
    finally:
        if hasattr(manager.target, "close"):
            manager.target.close()
    elapsed = time.perf_counter() - serve_start

    metrics = manager.metrics()
    mae = metrics.get("mae")
    print(
        f"replayed {stream.shape[0]} steps into {len(clients)} session(s) in "
        f"{elapsed * 1000.0:.1f} ms: {len(forecasts)} forecasts, "
        f"{checks} drift check(s), {swaps} swap(s), generation {manager.generation}"
        + (f", live mae {mae:.3f}" if mae is not None and np.isfinite(mae) else "")
    )
    if args.output is not None and forecasts:
        predictions = np.stack(forecasts)
        np.save(args.output, predictions)
        print(f"wrote predictions {predictions.shape} to {args.output}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # --requests only sizes the *synthetic* workload; with --input the
    # request count comes from the file and the flag must not reject runs.
    if args.input is None and args.requests < 1:
        raise SystemExit("--requests must be >= 1")
    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    # Checked here: inside the cluster they would read as a bundle error.
    if args.max_batch < 1:
        raise SystemExit("--max-batch must be >= 1")
    if args.max_wait_ms < 0:
        raise SystemExit("--max-wait-ms must be >= 0")
    if args.deadline_s is not None and args.deadline_s <= 0:
        raise SystemExit("--deadline-s must be > 0")
    if args.max_pending is not None and args.max_pending < 1:
        raise SystemExit("--max-pending must be >= 1")
    if args.online:
        return _serve_online(args)
    if args.workers > 1:
        return _serve_cluster(args)

    load_start = time.perf_counter()
    with _one_line_errors("checkpoint bundle", args.checkpoint):
        bundle = load_bundle(args.checkpoint)
    service = ForecastService.from_bundle(bundle, chunk_size=args.chunk_size,
                                          memory_budget_mb=args.memory_budget_mb)
    load_ms = (time.perf_counter() - load_start) * 1000.0
    print(f"loaded {args.checkpoint} in {load_ms:.1f} ms")

    windows = _load_windows(args, service.window_shape, service.mask_input)
    serve_start = time.perf_counter()
    with MicroBatcher.for_service(service, max_batch=args.max_batch,
                                  max_wait_ms=args.max_wait_ms,
                                  max_pending=args.max_pending) as batcher:
        results, rejected, shed, failed = _submit_and_gather(
            batcher.submit, windows, args.deadline_s
        )
    elapsed = time.perf_counter() - serve_start
    _report(results, service.prediction_shape, elapsed, batcher.stats, args.output)
    return _report_admission(args, rejected, shed, failed)


if __name__ == "__main__":
    sys.exit(main())
