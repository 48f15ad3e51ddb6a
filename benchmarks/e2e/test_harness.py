"""Self-test of the benchmark harness (not a benchmark, and not collected by
tier-1, whose ``testpaths`` is ``tests``):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q

Every workload runs in ``--smoke`` mode (six ops, no time target), once
untraced and once traced, in child processes exactly as the driver starts
them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@lru_cache(maxsize=None)
def smoke(workload: str, trace: int, attempt: int = 0):
    """(stdout lines, detail dict) of one smoke run; *attempt* tells
    repeated runs of the same arguments apart."""
    detail_path = HERE / "out" / f"test-{workload}-{trace}-{attempt}.json"
    detail_path.parent.mkdir(exist_ok=True)
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--smoke", "--trace", str(trace), "--detail", str(detail_path)],
        capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    detail = json.loads(detail_path.read_text())
    detail_path.unlink()
    return done.stdout.strip().splitlines(), detail


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_printed_once_with_its_unit(workload, trace):
    lines, _detail = smoke(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    printed: dict[str, list[str]] = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            printed.setdefault(parts[1], []).append(parts[3])
    assert sorted(printed) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert printed[metric["name"]] == [metric["unit"]], metric["name"]

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        cell = result["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"]
        assert isinstance(cell["value"], (int, float))


@pytest.mark.parametrize("workload", ("storm_shared", "fault_recovery", "verify"))
def test_same_seed_gives_identical_counts_and_digest(workload):
    _lines, first = smoke(workload, 1, attempt=0)
    _lines, second = smoke(workload, 1, attempt=1)
    _lines, untraced = smoke(workload, 0)
    assert first["sim_digest"] == second["sim_digest"] == untraced["sim_digest"]
    assert first["counts"] == second["counts"]
    assert first["hops"] == second["hops"] == untraced["hops"]
    for name, unit in first["units"].items():
        if unit == "count":
            assert first["metrics"][name] == second["metrics"][name], name


def test_interaction_table_zeroes():
    """Layers that a workload bypasses read exactly zero there."""
    _lines, storm = smoke("storm_shared", 1)
    _lines, check = smoke("verify", 1)
    for name, value in storm["metrics"].items():
        if name.startswith(("control.supervisor.", "analysis.", "net.chaos.")):
            assert value == 0, name
    assert storm["metrics"]["net.simulator.batch_share"] == 1.0
    assert check["metrics"]["analysis.lint.calls"] > 0
    assert check["metrics"]["analysis.modelcheck.states"] > 0
    assert check["metrics"]["net.simulator.hops"] == 0
    assert check["metrics"]["ladder.fast.op_ms_p50"] is None  # nothing to replay


def test_shims_are_restored():
    import tracing
    from repro.core import compiler
    from repro.openflow.packet import Packet
    from repro.openflow.switch import Switch

    originals = (
        vars(Switch)["process"], vars(Switch)["process_batch"],
        vars(Packet)["copy"], compiler.compile_service,
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert vars(Switch)["process"] is not originals[0]
        assert compiler.compile_service is not originals[3]
    finally:
        tracer.uninstall()
    assert not tracer.missing
    assert (
        vars(Switch)["process"], vars(Switch)["process_batch"],
        vars(Packet)["copy"], compiler.compile_service,
    ) == originals
    assert Switch.process is originals[0]


def test_a_deleted_target_reads_null_and_the_rest_still_install(capsys):
    import tracing
    from repro.openflow.switch import Switch

    original = vars(Switch)["process_batch"]
    del Switch.process_batch
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.uninstall()
    finally:
        Switch.process_batch = original
    assert tracer.missing == {"Switch.process_batch"}
    assert "Switch.process_batch" in capsys.readouterr().err
    metrics = tracing.layer_metrics({}, {}, 0, tracer.missing)
    assert metrics["net.simulator.batch_segments"] is None
    assert metrics["net.simulator.batch_share"] is None
    assert metrics["openflow.switch.process_calls"] == 0


def test_a_wrong_answer_raises_failed_share():
    import oracles
    import run
    import workloads

    workloads.load_program("warm_steady")
    P = workloads.P
    network = P.simulator.Network(P.topology.ring(5))
    runtime = P.runtime.SmartSouthRuntime(network, mode="compiled")

    def honest(out):
        return workloads.judge_service(
            network, "snapshot", 0, workloads.ServiceInputs(), out
        )

    def doctored(out):
        out.links.pop()  # drop one discovered link
        return honest(out)

    ops = [
        workloads.Op("snapshot", lambda: runtime.snapshot(0), honest),
        workloads.Op("snapshot", lambda: runtime.snapshot(0), doctored),
    ]
    sample = run.Sample()
    run.run_ops(ops, sample, oracles.SimDigest())
    assert sample.attempted == 2
    assert len(sample.complaints) == 1
    assert "links" in sample.complaints[0]


def test_a_hung_op_is_failed_and_ends_the_run(monkeypatch):
    import run
    import workloads

    def hang():
        while True:
            pass

    def judge(out):
        return workloads.Verdict(out)

    monkeypatch.setattr(run, "OP_TIMEOUT_S", 1)
    ops = [
        workloads.Op("quick", lambda: 1, judge),
        workloads.Op("hung", hang, judge),
        workloads.Op("never", lambda: 1, judge),
    ]
    sample = run.Sample()
    run.run_ops(ops, sample, None)
    assert sample.hung and sample.attempted == 2
    assert len(sample.complaints) == 1 and "OpTimedOut" in sample.complaints[0]


def test_oracles_know_the_graph():
    import oracles

    # 0-1-2-3 path plus a 3-4-5-3 triangle: 1, 2 and 3 are cut vertices.
    adjacency = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2, 4, 5], 4: [3, 5], 5: [3, 4]}
    assert oracles.articulation_points(adjacency, 0) == {1, 2, 3}
    assert oracles.articulation_points(adjacency, 3) == {1, 2, 3}
    assert oracles.component(adjacency, 4) == set(range(6))
    assert oracles.canonical({frozenset({2, 1}), frozenset({3})}) == "{{1,2},{3}}"


def test_compare_flags_regressions_and_unresolved_pairs(tmp_path, capsys):
    import compare

    def report(p50: list[float], failed: float = 0.0) -> dict:
        cells = {
            m["name"]: {"values": [1.0, 1.0, 1.0]} for m in BENCHMARK["end_to_end"]
        }
        cells["op_ms_p50"] = {"values": p50}
        return {"workloads": {"w": {"end_to_end": cells, "failed_share": failed,
                                    "per_layer": {}}}}

    def verdict(a: dict, b: dict) -> tuple[int, str]:
        (tmp_path / "a.json").write_text(json.dumps(a))
        (tmp_path / "b.json").write_text(json.dumps(b))
        code = compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        return code, capsys.readouterr().out

    bound = next(m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "op_ms_p50")
    worse = 10.1 * (1 + bound) + 0.5  # beyond the bound
    steady = report([10.0, 10.1, 10.2])
    assert verdict(steady, report([10.3, 10.4, 10.5]))[0] == 0
    code, out = verdict(steady, report([worse, worse + 0.1, worse + 0.2]))
    assert code == 1 and "REGRESSION" in out
    noisy = report([10.1 * (1 - bound), 10.1, 10.1 * (1 + 2 * bound)])
    code, out = verdict(noisy, report([worse, worse + 0.1, worse + 0.2]))
    assert code == 0 and "unresolved" in out
    code, out = verdict(steady, report([10.0, 10.1, 10.2], failed=0.01))
    assert code == 1

    # setup_s may worsen by 0.2 s however small it is, and no further.
    def setup(values: list[float]) -> dict:
        made = report([10.0, 10.1, 10.2])
        made["workloads"]["w"]["end_to_end"]["setup_s"] = {"values": values}
        return made

    quick = setup([0.07, 0.08, 0.09])
    assert verdict(quick, setup([0.25, 0.26, 0.27]))[0] == 0
    code, out = verdict(quick, setup([0.30, 0.31, 0.32]))
    assert code == 1 and "REGRESSION" in out
