"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
scale (see DESIGN.md for the per-experiment index).  The ``--paper-scale``
flag switches to the full-size configuration for users with hours of CPU/GPU
time to spare.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(autouse=True)
def record_regenerated_tables(request, capsys):
    """Persist each benchmark's printed table/figure under ``benchmarks/results/``.

    pytest captures stdout, so the regenerated tables would otherwise be
    invisible in a ``--benchmark-only`` run; that run writes them to one text
    file per benchmark (consumed by EXPERIMENTS.md).  Any other run — the
    plain test suite included — leaves the tracked files alone.  The tables
    are re-emitted either way so ``-s`` runs still show them inline.
    """
    yield
    captured = capsys.readouterr()
    if captured.out.strip():
        if request.config.getoption("benchmark_only", default=False):
            RESULTS_DIR.mkdir(exist_ok=True)
            (RESULTS_DIR / f"{request.node.name}.txt").write_text(captured.out)
        sys.stdout.write(captured.out)


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="run the experiments at the paper's full node counts and epochs (very slow)",
    )


@pytest.fixture(scope="session")
def paper_scale(request) -> bool:
    return request.config.getoption("--paper-scale")


@pytest.fixture(scope="session")
def scale(paper_scale):
    """Common scale parameters used by the table benchmarks."""
    if paper_scale:
        return {
            "num_nodes": 207,
            "large_num_nodes": 2000,
            "num_steps": 2016,
            "epochs": 20,
            "batch_size": 32,
        }
    return {
        "num_nodes": 32,
        "large_num_nodes": 40,
        "num_steps": 700,
        "epochs": 3,
        "batch_size": 16,
    }
