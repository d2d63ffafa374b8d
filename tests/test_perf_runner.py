"""Schema tests for the ``benchmarks/perf`` micro-benchmark runner."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_runner():
    spec = importlib.util.spec_from_file_location(
        "run_perf", REPO_ROOT / "benchmarks" / "perf" / "run_perf.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUNNER = _load_runner()
GATES = {gate.flag: (name, gate)
         for name, spec in RUNNER.SECTIONS.items() for gate in spec.gates}

TINY = ["--sizes", "24", "--m", "6", "--heads", "2", "--embedding-dim", "4",
        "--ffn-hidden", "4", "--hidden", "4", "--repeats", "1"]
# Per section: the tiny knobs it reads and a bound each of its gates passes.
SECTION_ARGS = {
    "results": [],
    "scaling": ["--scaling-sizes", "24", "--scaling-embedding-dim", "4",
                "--assert-scaling-peak-mb", "512"],
    "recurrence": ["--assert-train-over-kernel", "1000",
                   "--assert-serve-batch-growth", "0.01"],
    "cluster": ["--cluster-workers", "1", "2", "--cluster-requests", "8",
                "--assert-cluster-efficiency", "0.01"],
    "online": ["--online-steps", "16", "--assert-swap-parity"],
    "faults": ["--cluster-requests", "16", "--assert-fault-recovery"],
}


@pytest.fixture(scope="module")
def run_perf():
    return RUNNER


@pytest.fixture(scope="module")
def tiny_report(run_perf, tmp_path_factory):
    output = tmp_path_factory.mktemp("perf") / "bench.json"
    report = run_perf.main(
        TINY + [
            "--scaling-sizes", "24", "48",
            "--scaling-embedding-dim", "4",
            "--scaling-budget-mb", "8",
            "--cluster-workers", "1", "2",
            "--cluster-requests", "8",
            "--online-steps", "16",
            "--output", str(output),
        ]
    )
    return report, output


class TestPerfRunner:
    def test_report_passes_schema_validation(self, run_perf, tiny_report):
        report, _ = tiny_report
        run_perf.validate_schema(report)

    def test_written_json_round_trips(self, tiny_report):
        report, output = tiny_report
        on_disk = json.loads(output.read_text())
        assert on_disk["benchmark"] == report["benchmark"] == "attention"
        assert on_disk["schema_version"] == report["schema_version"]
        assert len(on_disk["results"]) == len(report["results"])

    def test_both_dtypes_and_timings_present(self, tiny_report):
        report, _ = tiny_report
        dtypes = {entry["dtype"] for entry in report["results"]}
        assert dtypes == {"float32", "float64"}
        for entry in report["results"]:
            assert entry["attention_vectorized_ms"] > 0
            assert entry["gconv_ms"] > 0
            assert "attention_loop_ms" not in entry
        assert "attention_speedup_vs_seed" not in report

    def test_scaling_section_present_and_sane(self, tiny_report):
        report, _ = tiny_report
        scaling = report["scaling"]
        assert scaling["memory_budget_mb"] == 8.0
        node_counts = [entry["num_nodes"] for entry in scaling["results"]]
        assert node_counts == [24, 48]
        for entry in scaling["results"]:
            assert entry["wall_ms"] > 0
            assert entry["peak_mem_mb"] > 0
            assert entry["peak_rss_mb"] > 0
            # at test scale the unchunked path always runs: bit-identity holds
            assert entry["chunked_equals_unchunked"] is True
            assert entry["unchunked_peak_mem_mb"] > 0

    def test_scaling_peak_assertion_fails_when_exceeded(self, run_perf, tmp_path):
        with pytest.raises(SystemExit):
            run_perf.main(
                [
                    "--section", "scaling",
                    "--scaling-sizes", "24",
                    "--scaling-embedding-dim", "4",
                    "--m", "6",
                    "--heads", "2",
                    "--ffn-hidden", "4",
                    "--repeats", "1",
                    "--assert-scaling-peak-mb", "0.0001",
                    "--output", str(tmp_path / "scaling.json"),
                ]
            )

    def test_schema_validator_rejects_missing_keys(self, run_perf):
        with pytest.raises(ValueError):
            run_perf.validate_schema({"benchmark": "attention"})
        with pytest.raises(ValueError):
            run_perf.validate_schema(
                {
                    "benchmark": "attention",
                    "schema_version": 1,
                    "config": {},
                    "results": [],
                }
            )
        with pytest.raises(ValueError):
            run_perf.validate_schema(
                {
                    "benchmark": "attention",
                    "schema_version": 3,
                    "config": {},
                    "serve": {"results": []},
                    "scaling": {"memory_budget_mb": 1.0, "results": [{}]},
                    "results": [{"num_nodes": 1, "num_significant": 1, "dtype": "float32",
                                 "attention_vectorized_ms": 1.0, "gconv_ms": 1.0}],
                }
            )

    def test_schema_validator_rejects_other_versions(self, run_perf, tiny_report):
        report, _ = tiny_report
        stale = dict(report, schema_version=run_perf.SCHEMA_VERSION - 1)
        with pytest.raises(ValueError, match=rf"{run_perf.SCHEMA_VERSION - 1}.*"
                                             rf"{run_perf.SCHEMA_VERSION}"):
            run_perf.validate_schema(stale)

    def test_scaling_validator_rejects_divergence(self, run_perf):
        entry = {
            "num_nodes": 10, "num_significant": 4, "dtype": "float32",
            "wall_ms": 1.0, "peak_mem_mb": 1.0, "peak_rss_mb": 1.0,
            "within_budget": True, "chunked_equals_unchunked": False,
        }
        with pytest.raises(ValueError, match="diverged"):
            run_perf.validate_section(
                "scaling", {"memory_budget_mb": 1.0, "results": [entry]}
            )

    def test_checked_in_bench_json_is_valid(self, run_perf):
        """The committed BENCH_attention.json must satisfy the current schema."""
        path = REPO_ROOT / "BENCH_attention.json"
        report = json.loads(path.read_text())
        run_perf.validate_schema(report)
        node_counts = {entry["num_nodes"] for entry in report["results"]}
        assert {200, 2000} <= node_counts


class TestSections:
    @pytest.mark.parametrize("name", list(RUNNER.SECTIONS))
    def test_single_section_report(self, run_perf, name, tmp_path, monkeypatch):
        """One section writes a report holding only it, at its default name."""
        monkeypatch.setattr(run_perf, "REPO_ROOT", tmp_path)
        report = run_perf.main(["--section", name] + TINY + SECTION_ARGS[name])
        on_disk = json.loads((tmp_path / f"BENCH_{name}.json").read_text())
        assert on_disk == json.loads(json.dumps(report))
        assert set(on_disk) == {"benchmark", "schema_version", "config", name}
        assert on_disk["benchmark"] == f"attention-{name}"
        run_perf.validate_schema(on_disk, [name])

    @pytest.mark.parametrize("flag", list(GATES))
    def test_gate_without_its_section_is_a_parser_error(self, run_perf, flag,
                                                        tmp_path):
        name, gate = GATES[flag]
        other = next(section for section in run_perf.SECTIONS if section != name)
        argv = ["--section", other, flag] + ([] if gate.type is None else ["1"])
        with pytest.raises(SystemExit) as excinfo:
            run_perf.main(argv + ["--output", str(tmp_path / "x.json")])
        assert excinfo.value.code == 2
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [["--section", "serve"], ["--sizes", "0"], ["--m", "0"],
         ["--cluster-workers", "0"], ["--online-steps", "2"]],
        ids=["unknown-section", "sizes", "m", "cluster-workers", "online-steps"],
    )
    def test_invalid_values_are_parser_errors(self, run_perf, argv, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_perf.main(argv + ["--output", str(tmp_path / "x.json")])
        assert excinfo.value.code == 2

    def test_default_run_selects_every_section_in_table_order(self, run_perf,
                                                              tiny_report):
        report, _ = tiny_report
        assert [key for key in report if key in run_perf.SECTIONS] == list(
            run_perf.SECTIONS)
        assert "serve" not in report
        assert all("train_step_ms" not in entry for entry in report["results"])


FAULTS_OK = {
    "baseline": {"unresolved": 0}, "faulted": {"unresolved": 0},
    "pool_restored": True, "parked_workers": 0,
    "recovery_s": 0.5, "restart_backoff_ceiling_s": 8.0,
}
# Per gate: a section it passes at ``bound``, then violating variants of it.
GATE_CASES = {
    "--assert-scaling-peak-mb": (
        2.0, {"results": [{"num_nodes": 24, "peak_mem_mb": 1.0}]},
        [{"results": [{"num_nodes": 24, "peak_mem_mb": 1.0},
                      {"num_nodes": 48, "peak_mem_mb": 3.0}]}],
    ),
    "--assert-train-over-kernel": (
        5.0, {"results": [{"num_nodes": 2000, "train_ms": 400.0, "kernel_ms": 100.0},
                          {"num_nodes": 200, "train_ms": 50.0, "kernel_ms": 10.0}]},
        [{"results": [{"num_nodes": 2000, "train_ms": 810.0, "kernel_ms": 100.0}]},
         {"results": [{"num_nodes": 2000, "train_ms": 400.0, "kernel_ms": 100.0},
                      {"num_nodes": 200, "train_ms": 51.0, "kernel_ms": 10.0}]}],
    ),
    "--assert-serve-batch-growth": (
        1.5, {"throughput_batch8_over_batch1": 1.8},
        [{"throughput_batch8_over_batch1": 1.2},
         {"throughput_batch8_over_batch1": None}],
    ),
    "--assert-cluster-efficiency": (
        0.7, {"results": [{"workers": 1, "scaling_efficiency": 1.0},
                          {"workers": 2, "scaling_efficiency": 0.8}]},
        [{"results": [{"workers": 1, "scaling_efficiency": 1.0},
                      {"workers": 2, "scaling_efficiency": 0.6}]},
         {"results": [{"workers": 2, "scaling_efficiency": None}]}],
    ),
    "--assert-swap-parity": (
        True, {"swap_parity": True, "forecast_during_swap_errors": 0},
        [{"swap_parity": False, "forecast_during_swap_errors": 0},
         {"swap_parity": True, "forecast_during_swap_errors": 2}],
    ),
    "--assert-fault-recovery": (
        True, FAULTS_OK,
        [dict(FAULTS_OK, faulted={"unresolved": 3}),
         dict(FAULTS_OK, pool_restored=False),
         dict(FAULTS_OK, parked_workers=1),
         dict(FAULTS_OK, recovery_s=9.0)],
    ),
}


class TestGates:
    def test_every_gate_has_cases(self):
        assert set(GATE_CASES) == set(GATES)

    @pytest.mark.parametrize("flag", list(GATE_CASES))
    def test_gate_passes_a_holding_section(self, flag):
        bound, good, _ = GATE_CASES[flag]
        assert GATES[flag][1].check(good, bound) == []

    @pytest.mark.parametrize(
        "flag, index",
        [(flag, index) for flag, (_, _, bad) in GATE_CASES.items()
         for index in range(len(bad))],
    )
    def test_gate_rejects_a_violating_section(self, flag, index):
        bound, _, bad = GATE_CASES[flag]
        problems = GATES[flag][1].check(bad[index], bound)
        assert problems and all(isinstance(p, str) and p for p in problems)


class TestRecurrenceSection:
    def test_recurrence_section_present_and_sane(self, tiny_report):
        report, _ = tiny_report
        recurrence = report["recurrence"]
        assert report["schema_version"] == 12
        assert recurrence["history"] > 0 and recurrence["horizon"] > 0
        (entry,) = recurrence["results"]
        assert entry["num_nodes"] == 24
        assert entry["steps"] == recurrence["history"] + recurrence["horizon"]
        for key in ("forward_ms", "kernel_ms", "train_ms", "per_step_kernel_ms"):
            assert entry[key] > 0, key
        assert entry["kernel_speedup"] == entry["forward_ms"] / entry["kernel_ms"]
        # the kernel must sit inside the documented equivalence envelope
        assert entry["max_rel_diff_kernel"] <= 5e-5  # float32 bench dtype
        batch_sizes = [e["batch_size"] for e in recurrence["serve_throughput"]]
        assert batch_sizes == [1, 8, 32]
        assert recurrence["throughput_batch8_over_batch1"] > 0

    def test_train_over_kernel_assertion_fails_when_above(self, run_perf, tmp_path):
        with pytest.raises(SystemExit):
            run_perf.main(
                ["--section", "recurrence"] + TINY
                + ["--assert-train-over-kernel", "0.001",
                   "--output", str(tmp_path / "r.json")]
            )

    def test_recurrence_validator_rejects_missing_keys(self, run_perf):
        entry = {"num_nodes": 24, "dtype": "float32", "steps": 12,
                 "forward_ms": 2.0, "kernel_ms": 1.0, "train_ms": 5.0,
                 "kernel_speedup": 2.0, "per_step_kernel_ms": 0.1,
                 "max_rel_diff_kernel": 1e-7}
        serve = {"batch_size": 1, "latency_p50_ms": 1.0, "throughput_rps": 1000.0}
        good = {"history": 6, "horizon": 6, "results": [entry],
                "serve_throughput": [serve], "throughput_batch8_over_batch1": None}
        run_perf.validate_section("recurrence", good)  # must not raise
        legacy = {key: value for key, value in entry.items() if key != "forward_ms"}
        legacy.update(reference_ms=3.0, fused_ms=2.0)  # the schema-v9 layout
        with pytest.raises(ValueError, match="forward_ms"):
            run_perf.validate_section("recurrence", dict(good, results=[legacy]))


class TestClusterSection:
    def test_cluster_section_present_and_sane(self, tiny_report):
        report, _ = tiny_report
        cluster = report["cluster"]
        assert cluster["num_nodes"] == 24
        worker_counts = [entry["workers"] for entry in cluster["results"]]
        assert worker_counts == [1, 2]
        for entry in cluster["results"]:
            assert entry["throughput_rps"] > 0
            assert entry["latency_p95_ms"] >= entry["latency_p50_ms"] > 0
            assert entry["scaling_efficiency"] > 0
            assert entry["num_batches"] >= 1
        assert cluster["results"][0]["scaling_efficiency"] == pytest.approx(1.0)
        assert cluster["throughput_workers2_over_workers1"] > 0

    def test_cluster_efficiency_assertion_fails_when_below(self, run_perf,
                                                           tmp_path):
        """Superlinear threshold: no host can satisfy efficiency >= 100."""
        with pytest.raises(SystemExit, match="efficiency"):
            run_perf.main(
                ["--section", "cluster"] + TINY
                + ["--cluster-workers", "1", "2",
                   "--cluster-requests", "8",
                   "--assert-cluster-efficiency", "100",
                   "--output", str(tmp_path / "c.json")]
            )

    def test_cluster_validator_rejects_missing_keys(self, run_perf):
        section = {
            "num_nodes": 1, "requests": 8, "max_batch": 8,
            "dtype": "float32",
            "throughput_workers2_over_workers1": None,
            "results": [{"workers": 1}],
        }
        with pytest.raises(ValueError, match="non-empty"):
            run_perf.validate_section("cluster", dict(section, results=[]))
        with pytest.raises(ValueError, match="missing key"):
            run_perf.validate_section("cluster", section)


class TestOnlineSection:
    def test_online_section_present_and_sane(self, tiny_report, run_perf):
        report, _ = tiny_report
        online = report["online"]
        assert online["num_nodes"] == 24
        assert online["steps"] == 16
        assert online["push_rows_per_s"] > 0
        assert online["push_ms_per_step"] > 0
        assert online["forecast_p95_ms"] >= online["forecast_p50_ms"] > 0
        assert online["forecast_rps"] > 0
        assert online["swap_latency_ms"] > 0
        assert online["forecast_during_swap_p95_ms"] > 0
        assert online["forecast_during_swap_requests"] >= 20
        # a fixed swap count per timed forecast keeps the p95 comparable
        assert online["swaps_during_forecast"] == run_perf.SWAPS_PER_FORECAST
        # the two hard invariants of the hot-swap design
        assert online["forecast_during_swap_errors"] == 0
        assert online["swap_parity"] is True
        assert online["generation"] >= 1

    def test_online_validator_rejects_missing_keys_and_errors(self, run_perf):
        with pytest.raises(ValueError, match="missing key"):
            run_perf.validate_section("online", {"num_nodes": 24})
        good = {
            "num_nodes": 24, "num_significant": 6, "dtype": "float32",
            "steps": 16, "push_rows_per_s": 1.0, "push_ms_per_step": 1.0,
            "forecast_p50_ms": 1.0, "forecast_p95_ms": 1.0,
            "forecast_rps": 1.0, "swap_latency_ms": 1.0,
            "forecast_during_swap_p95_ms": 1.0,
            "forecast_during_swap_requests": 20,
            "forecast_during_swap_errors": 0, "swaps_during_forecast": 1,
            "swap_parity": True, "generation": 1,
        }
        run_perf.validate_section("online", good)  # must not raise
        with pytest.raises(ValueError, match="errored"):
            run_perf.validate_section(
                "online", dict(good, forecast_during_swap_errors=2)
            )


class TestFaultsSection:
    def test_faults_section_present_and_sane(self, tiny_report):
        report, _ = tiny_report
        faults = report["faults"]
        assert faults["num_nodes"] == 24
        assert faults["workers"] == 2
        assert faults["plan"]["by_kind"]["kill"] == 2  # one per worker
        for name in ("baseline", "faulted"):
            entry = faults[name]
            assert entry["unresolved"] == 0  # nothing may ever hang
            assert entry["elapsed_s"] > 0
            # goodput counts successful requests only, never typed errors
            assert entry["goodput_rps"] == entry["ok"] / entry["elapsed_s"]
        assert faults["baseline"]["typed_errors"] == 0
        assert faults["baseline"]["goodput_rps"] > 0
        assert faults["goodput_retention"] == (
            faults["faulted"]["goodput_rps"] / faults["baseline"]["goodput_rps"]
        )
        total = faults["faulted"]["ok"] + faults["faulted"]["typed_errors"]
        assert total == faults["requests"]
        assert faults["pool_restored"] is True
        assert faults["parked_workers"] == 0
        assert faults["total_restarts"] >= 2  # every worker was killed once
        assert faults["recovery_s"] >= 0
        assert (faults["recovery_s"]
                <= faults["restart_backoff_ceiling_s"] + 120)

    def test_faults_validator_rejects_missing_and_unresolved(self, run_perf):
        with pytest.raises(ValueError, match="missing key"):
            run_perf.validate_section("faults", {"num_nodes": 24})
        good = {
            "num_nodes": 24, "workers": 2, "requests": 16, "max_batch": 1,
            "plan": {"workers": 2, "seed": 0, "horizon": 4, "events": 2,
                     "by_kind": {"kill": 2}},
            "baseline": {"ok": 16, "typed_errors": 0, "unresolved": 0,
                         "elapsed_s": 1.0, "goodput_rps": 16.0,
                         "latency_p95_ms": 1.0},
            "faulted": {"ok": 10, "typed_errors": 6, "unresolved": 0,
                        "elapsed_s": 1.0, "goodput_rps": 10.0,
                        "latency_p95_ms": 1.0},
            "goodput_retention": 0.625, "recovery_s": 0.5,
            "pool_restored": True, "parked_workers": 0,
            "total_restarts": 2, "redispatches": 1,
            "restart_backoff_s": 0.1, "restart_backoff_ceiling_s": 8.0,
        }
        run_perf.validate_section("faults", good)  # must not raise
        with pytest.raises(ValueError, match="never resolved"):
            run_perf.validate_section(
                "faults", dict(good, faulted=dict(good["faulted"], unresolved=3))
            )
