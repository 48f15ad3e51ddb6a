"""Shared helpers for the benchmark harness.

Every benchmark prints the paper-style table it reproduces through the
``emit`` fixture, which bypasses pytest's output capture so the rows appear
in the ``pytest benchmarks/ --benchmark-only`` log (and hence in
``bench_output.txt`` / EXPERIMENTS.md).
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--batch",
        action="store_true",
        default=False,
        help="Run only the batched-drain benchmarks (tests marked 'batch', "
        "i.e. experiment F-batch in bench_fastpath.py).",
    )
    parser.addoption(
        "--update-fastpath-baseline",
        action="store_true",
        default=False,
        help="Rewrite benchmarks/baselines/fastpath_baseline.json with the "
        "speedups measured in this run (use after an intentional change).",
    )
    parser.addoption(
        "--update-robustness-baseline",
        action="store_true",
        default=False,
        help="Rewrite benchmarks/baselines/robustness_baseline.json with "
        "the recovery metrics measured in this run (use after an "
        "intentional change to the supervisor or channel).",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "batch: batched-drain benchmarks (selected by --batch)"
    )


def pytest_collection_modifyitems(config, items):
    if not config.getoption("--batch"):
        return
    selected = [item for item in items if item.get_closest_marker("batch")]
    deselected = [item for item in items if not item.get_closest_marker("batch")]
    if deselected:
        config.hook.pytest_deselected(items=deselected)
        items[:] = selected


@pytest.fixture
def emit(capsys):
    """Print *text* to the real terminal, bypassing capture."""

    def _emit(text: str = "") -> None:
        with capsys.disabled():
            print(text)

    return _emit


def fmt_row(cells, widths) -> str:
    return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
