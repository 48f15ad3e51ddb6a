"""The PYTHONHASHSEED double-run determinism gate."""

import subprocess
import sys

import pytest

from repro.analysis.doublerun import (
    CHAOS_PLANES,
    DEFAULT_HASH_SEEDS,
    DoubleRunReport,
    digests,
    double_run,
    _child_env,
)
from repro.net.scenario import GOLDEN_SCENARIOS

# One cheap scenario keeps the subprocess tests fast; the full matrix
# runs in CI via `python -m repro.analysis.doublerun`.
SMALL = (GOLDEN_SCENARIOS[0],)

CHAOS_KEYS = {"chaos-default", "chaos-control", "chaos-switch"}


@pytest.fixture(scope="module")
def in_process():
    """The digest map a child emits, computed in this process."""
    return digests([*SMALL, *CHAOS_PLANES])


@pytest.fixture(scope="module")
def report():
    """One gate run over SMALL plus the chaos planes (two children, the
    second in reverse order)."""
    return double_run([*SMALL, *CHAOS_PLANES])


def test_digests_are_stable_in_process():
    assert digests(SMALL) == digests(SMALL)


def test_chaos_digests_cover_every_plane_and_are_stable_in_process(in_process):
    planes = digests(CHAOS_PLANES)
    assert set(planes) == CHAOS_KEYS
    assert all(len(digest) == 64 for digest in planes.values())
    assert planes.items() <= in_process.items()


def test_digests_do_not_depend_on_run_order():
    # The reversed child's property, in one process: no run leaves state
    # behind that changes the next one's bytes.
    items = [*GOLDEN_SCENARIOS[:2], "chaos-default"]
    assert digests(items) == digests(items[::-1])


def test_digest_covers_every_scenario():
    scenarios = digests(SMALL)
    assert len(scenarios) == len(SMALL)
    for digest in scenarios.values():
        assert len(digest) == 64  # SHA-256 hex


def test_double_run_passes_across_hash_seeds(report):
    assert report.ok, report.format_text()
    assert report.hash_seeds == DEFAULT_HASH_SEEDS
    first, second = (report.digests[s] for s in DEFAULT_HASH_SEEDS)
    assert first == second


def test_child_env_pins_hash_seed_and_path():
    env = _child_env(7)
    assert env["PYTHONHASHSEED"] == "7"
    assert "repro" in subprocess.run(
        [sys.executable, "-c", "import repro; print(repro.__name__)"],
        env=env, capture_output=True, text=True,
    ).stdout


def test_module_entry_point_imports_cleanly():
    # `-m` on a module its package already imported prints a "found in
    # sys.modules" RuntimeWarning; CI runs the gate with it as an error.
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.analysis.doublerun", "--help"],
        env=_child_env(0), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_child_emit_mode_prints_digest_map(report, in_process):
    # Each child's parsed `--emit` output: the golden scenarios plus the
    # three chaos planes, byte-for-byte the digests of this process.
    assert set(in_process) == set(digests(SMALL)) | CHAOS_KEYS
    for seed in DEFAULT_HASH_SEEDS:
        assert report.digests[seed] == in_process


def test_report_flags_mismatch():
    report = DoubleRunReport(
        hash_seeds=(0, 1),
        digests={0: {"s": "a"}, 1: {"s": "b"}},
        mismatches=["s"],
    )
    assert not report.ok
    assert "MISMATCH s" in report.format_text()
    assert report.to_dict()["ok"] is False


def test_report_flags_child_error():
    report = DoubleRunReport(
        hash_seeds=(0, 1),
        digests={0: {}, 1: {}},
        errors=["PYTHONHASHSEED=1 run failed (exit 1): boom"],
    )
    assert not report.ok
    assert "FAILED" in report.format_text()
