#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the SmartSouth reproduction.

Two commands (see README.md):

``python3 benchmarks/e2e/run.py --seed N``
    Every workload, one child process at a time: three untraced runs (the
    end-to-end metrics) and one traced run (the per-layer metrics), then
    the ROADMAP datum.  Prints every metric by name with
    its unit, writes one results file, exits 1 if any op failed.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process.  The last line of standard
    output is one JSON object: ``correct``, ``attempted``, ``failed`` and
    ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
    with ``--trace 1``).

A run is a closed loop with one caller: whole cycles of the workload's ops,
one op at a time, until ``--seconds`` is used up.  ``gc.collect()`` runs
untimed before every op.  End-to-end metrics come only from untraced runs:
``ops_per_s`` and ``op_ms_p50`` over every timed op, ``op_ms_p90`` over each
op's median across the cycles (README.md says why).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

SCHEMA = 1
DEFAULT_SECONDS = 15
#: Untraced runs per workload when running them all.
REPEATS = 3
#: An op still running after this long is interrupted, counted as failed,
#: and ends the run: the state it leaves behind is not worth measuring.
OP_TIMEOUT_S = 60
#: An untraced run keeps cycling past ``--seconds`` until it has this many
#: timed ops (ISSUE 11's floor) ...
MIN_OPS = 100
#: ... and until every op has been timed this often, so that an op's median
#: over the cycles can drop one execution a busy host slowed.
MIN_CYCLES = 3
#: Set-up is repeated and its median reported, so one slow page-in does
#: not read as a set-up regression.  The imports are repeated in fresh
#: interpreters, beside this one's own.
SETUP_REPEATS = 3
IMPORT_REPEATS = 4
#: Share of ``--seconds`` a traced run spends under the shims; the rest
#: goes to its untraced reference cycle, the ladder and tracemalloc.
TRACED_SHARE = 0.4

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("_per_s"):
        return "1/s"
    if leaf.endswith("_s"):
        return "s"
    if leaf.endswith("_ms_p50"):
        return "ms"
    if leaf.endswith("_mb"):
        return "MB"
    if leaf.startswith("us_per"):
        return "us"
    if leaf.endswith("ns_per_pkt"):
        return "ns"
    if leaf.endswith(("_share", "_ratio", "_mean", "_per_hop")):
        return "ratio"
    return "count"


def percentile(ordered: list[float], percent: int) -> float:
    """Nearest-rank percentile of an ascending list (integer arithmetic:
    ``100 * 0.9`` is not 90 in floating point)."""
    rank = max(1, (len(ordered) * percent + 99) // 100)
    return ordered[rank - 1]


# --------------------------------------------------------------------- #
# The measuring loop                                                    #
# --------------------------------------------------------------------- #


class Sample:
    """Everything one stretch of cycles produced."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kinds: list[str] = []
        self.complaints: list[str] = []
        self.cycles = 0
        #: First cycle only, so they repeat exactly for a seed.
        self.digest = ""
        self.hops = 0
        self.out_band = 0
        #: Per cycle, when traced: (stats, counts) from Tracer.take().
        self.taken: list[tuple[dict, dict]] = []
        #: An op timed out; nothing is run after it.
        self.hung = False
        #: Ops in a cycle.
        self.slots = 0

    @property
    def attempted(self) -> int:
        return len(self.times)

    def op_medians(self) -> list[float]:
        """Median time of each op of the cycle over the run's cycles
        (cycles are identical, so every ``slots``-th time is the same op)."""
        return [
            statistics.median(self.times[i :: self.slots])
            for i in range(min(self.slots, len(self.times)))
        ]

    def by_kind(self) -> list[tuple[str, int, float]]:
        """(kind, timed ops, median ms) cheapest first: where each
        percentile rank falls."""
        groups: dict[str, list[float]] = {}
        for kind, spent in zip(self.kinds, self.times):
            groups.setdefault(kind, []).append(spent)
        rows = [(k, len(v), 1e3 * statistics.median(v)) for k, v in groups.items()]
        return sorted(rows, key=lambda row: row[2])


class OpTimedOut(Exception):
    """Raised inside an op by the alarm :func:`run_ops` sets."""


def _on_alarm(_signum, _frame):
    raise OpTimedOut(f"still running after {OP_TIMEOUT_S} s")


def run_ops(ops, sample: Sample, digest, tracer=None) -> None:
    """Run *ops* once, one at a time, judging every answer."""
    clock = time.perf_counter
    result = verdict = None
    signal.signal(signal.SIGALRM, _on_alarm)
    for index, op in enumerate(ops):
        # Drop the previous answer (a whole network, on cold_start) before
        # collecting, or its cycles are left for the collector to find in
        # the middle of this op.
        result = verdict = None
        gc.collect()
        error = None
        if tracer is not None:
            tracer.begin_op(index)
        signal.alarm(OP_TIMEOUT_S)
        start = clock()
        try:
            result = op.run()
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            error = f"{op.kind}: raised {type(exc).__name__}: {exc}"
            sample.hung = isinstance(exc, OpTimedOut)
        spent = clock() - start
        signal.alarm(0)
        if tracer is not None:
            tracer.end_op(spent)
        if error is None:
            try:
                verdict = op.finish(result)
                error = verdict.complaint
            except Exception as exc:  # noqa: BLE001
                error = f"{op.kind}: judging raised {type(exc).__name__}: {exc}"
        sample.times.append(spent)
        sample.kinds.append(op.kind)
        if error is not None:
            sample.complaints.append(error)
        if digest is not None and verdict is not None:
            digest.add(op.kind, (verdict.answer, verdict.hops, verdict.out_band))
            sample.hops += verdict.hops
            sample.out_band += verdict.out_band
        if sample.hung:
            return


def run_cycles(
    workload, seconds: float, tracer=None, max_ops: int | None = None,
    min_ops: int = 0, min_cycles: int = 1,
) -> Sample:
    """Whole cycles until *seconds* are used up, *min_ops* ops are timed and
    *min_cycles* cycles are done.

    The loop stops at the cycle boundary nearest to the deadline, so a run
    lasts about ``--seconds`` whatever a cycle costs, and the sample's
    composition is always a whole number of cycles.
    """
    import oracles

    sample = Sample()
    started = time.perf_counter()
    while True:
        ops = workload.cycle()[:max_ops]
        sample.slots = len(ops)
        digest = oracles.SimDigest() if sample.cycles == 0 else None
        run_ops(ops, sample, digest, tracer)
        if digest is not None:
            sample.digest = digest.hexdigest()
        if tracer is not None:
            sample.taken.append(tracer.take())
        sample.cycles += 1
        elapsed = time.perf_counter() - started
        late = elapsed + 0.5 * elapsed / sample.cycles > seconds
        enough = sample.attempted >= min_ops and sample.cycles >= min_cycles
        if sample.hung or (late and enough):
            return sample


def subsample(ops: list) -> list:
    """About a tenth of a cycle (at least three ops when there are three):
    what the ladder and tracemalloc replay."""
    eligible = [op for op in ops if op.ladder]
    step = max(1, min(10, len(eligible) // 3))
    return eligible[::step]


# --------------------------------------------------------------------- #
# One run of one workload (this process)                                #
# --------------------------------------------------------------------- #


def load(name: str):
    """Import the harness modules and the facades *name* drives; returns
    (workload class, seconds the imports took)."""
    start = time.perf_counter()
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"run.py: no program to measure under {src}")
    sys.path.insert(0, str(src))
    import workloads

    workloads.load_program(name)
    return workloads.WORKLOADS[name], time.perf_counter() - start


def set_up(cls, seed: int, repeats: int):
    """Generate inputs and perform the declared set-up *repeats* times;
    returns the last instance and every set-up time."""
    spent = []
    workload = None
    for _ in range(repeats):
        workload = None  # free the previous instance before timing the next
        gc.collect()
        start = time.perf_counter()
        workload = cls(seed)
        workload.setup()
        spent.append(time.perf_counter() - start)
    gc.collect()
    # Long-lived set-up state leaves the collector's working set, so the
    # untimed collect before each op stays cheap.
    gc.freeze()
    return workload, spent


def import_seconds(name: str) -> float:
    """Seconds a fresh interpreter takes to import what *name* drives."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--imports", name],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return float(done.stdout)


def run_untraced(args) -> tuple[dict, dict]:
    cls, import_s = load(args.workload)
    imports = [import_s]
    if not args.smoke:
        imports += [import_seconds(args.workload) for _ in range(IMPORT_REPEATS)]
    repeats = 1 if args.smoke else SETUP_REPEATS
    workload, setups = set_up(cls, args.seed, repeats)
    sample = run_cycles(
        workload, args.seconds, max_ops=args.max_ops,
        min_ops=0 if args.smoke else MIN_OPS,
        min_cycles=1 if args.smoke else MIN_CYCLES,
    )
    ordered = sorted(sample.times)
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "ops_per_s": len(ordered) / sum(ordered),
        # The dearer of the two middle ops.  Three workloads are half
        # cheap and half dear ops: the dearer middle op is then the
        # cheapest of the dear kind, which a busy host can only push up a
        # little; the cheaper one is the dearest of the cheap kind, which
        # is whichever op a pause hit.
        "op_ms_p50": 1e3 * statistics.median_high(ordered),
        # Of each op's median over the run's cycles, not of every timed
        # op: the host adds up to half to an op for seconds at a time, and
        # which tenth of the ops is dearest then says how long that lasted.
        "op_ms_p90": 1e3 * percentile(sorted(sample.op_medians()), 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "import_runs_s": imports,
        "setup_runs_s": setups,
        # What filtering by op took out of the 90th percentile.
        "op_ms_p90_every_op": 1e3 * percentile(ordered, 90),
        "kinds": sample.by_kind(),
        "op_is": cls.op_is,
    }
    return finish_run(args, metrics, END_TO_END_UNITS, sample, detail)


def run_ladder(cls, seed: int, own) -> tuple[dict, list[str]]:
    """Replay the cycle's sub-sample under each engine of the ladder (up to
    three times, while a rung has used less than a second)."""
    import oracles
    import workloads

    metrics: dict[str, float | None] = {}
    complaints: list[str] = []
    digests: dict[str, str] = {}
    has_rungs = bool(subsample(own.cycle()))  # verify has no traversal to replay
    for spec in workloads.LADDER:
        p50 = rate = None
        if has_rungs:
            if spec == own.spec:
                instance = own
            else:
                instance = cls(seed, spec)
                instance.setup()
            ops = subsample(instance.cycle())
            sample = Sample()
            digest = oracles.SimDigest()
            start = time.perf_counter()
            rounds = 0
            while rounds < 3 and (rounds == 0 or time.perf_counter() - start < 1.0):
                run_ops(ops, sample, digest if rounds == 0 else None)
                rounds += 1
            p50 = 1e3 * percentile(sorted(sample.times), 50)
            rate = sample.hops / sum(sample.times[: len(ops)])
            digests[spec.name] = digest.hexdigest()
            complaints += [f"ladder {spec.name}: {c}" for c in sample.complaints]
        metrics[f"ladder.{spec.name}.op_ms_p50"] = p50
        metrics[f"ladder.{spec.name}.hops_per_s"] = rate
    if len(set(digests.values())) > 1:
        complaints.append(f"ladder: engines disagree, sim_digest {digests}")
    return metrics, complaints


def run_traced(args) -> tuple[dict, dict]:
    cls, _import_s = load(args.workload)
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload, _ = set_up(cls, args.seed, 1)
        setup_stats, setup_counts = tracer.take()
        sample = run_cycles(
            workload, TRACED_SHARE * args.seconds, tracer, max_ops=args.max_ops
        )
    finally:
        tracer.uninstall()
    gc.unfreeze()
    workload = None

    # The same cycle once more with the shims gone: the ratio of the two
    # is what tracing cost, and this instance serves the ladder's own rung.
    reference, _ = set_up(cls, args.seed, 1)
    plain = Sample()
    run_ops(reference.cycle()[: args.max_ops], plain, None)
    traced_cycle_s = sum(sample.times) / sample.cycles
    overhead = traced_cycle_s / sum(plain.times)

    ladder, ladder_complaints = run_ladder(cls, args.seed, reference)
    sample.complaints += plain.complaints + ladder_complaints

    tracemalloc.start()
    try:
        replay = reference.cycle()
        run_ops(subsample(replay) or replay[::10], Sample(), None)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()

    # Counts come from the first cycle alone (they must repeat exactly);
    # times are the mean over the traced cycles.
    first_stats, first_counts = sample.taken[0]
    mean_stats = {}
    for key, (calls, _busy, _child) in first_stats.items():
        busy = statistics.fmean(taken[0][key][1] for taken in sample.taken)
        child = statistics.fmean(taken[0][key][2] for taken in sample.taken)
        mean_stats[key] = (calls, busy, child)
    metrics = tracing.layer_metrics(mean_stats, first_counts, sample.hops, tracer.missing)
    metrics.update(ladder)
    metrics["bench.trace_overhead_ratio"] = overhead
    metrics["bench.tracemalloc_peak_mb"] = peak_mb
    metrics["bench.attributed_share"] = tracing.attributed_share(mean_stats)

    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    def table(stats: dict) -> dict:
        return {
            key: {"calls": calls, "busy_s": busy, "self_s": busy - child}
            for key, (calls, busy, child) in sorted(stats.items())
            if calls
        }

    detail = {
        "missing_targets": sorted(tracer.missing),
        "targets": table(mean_stats),
        "setup_targets": table(setup_stats),
        "setup_layers": {
            name: value
            for name, value in tracing.layer_metrics(
                setup_stats, setup_counts, 0, tracer.missing
            ).items()
            if value
        },
        "counts": first_counts,
        "op_s_per_cycle": traced_cycle_s,
        "untraced_op_s_per_cycle": sum(plain.times),
    }
    units = {name: metric_unit(name) for name in metrics}
    return finish_run(args, metrics, units, sample, detail)


def finish_run(args, metrics: dict, units: dict, sample: Sample, detail: dict):
    failed = len(sample.complaints)
    result = {
        "correct": failed == 0,
        "attempted": sample.attempted,
        "failed": failed,
        # A metric whose trace target no longer exists is null in the
        # printed report and the results file; the one-line result carries
        # numbers only, so it reads 0 there.
        "metrics": {
            name: {"value": 0 if value is None else value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        traced=bool(args.trace), metrics=metrics, units=units,
        attempted=sample.attempted, failed=failed, cycles=sample.cycles,
        sim_digest=sample.digest, hops=sample.hops, out_band=sample.out_band,
        complaints=sample.complaints[:20],
    )
    return result, detail


def print_run(detail: dict) -> None:
    name = detail["workload"]
    print(
        f"# {name} seed={detail['seed']} trace={int(detail['traced'])}: "
        f"{detail['attempted']} timed ops in {detail['cycles']} cycle(s), "
        f"failed_share={detail['failed']}/{detail['attempted']}, "
        f"sim_digest={detail['sim_digest']}"
    )
    for metric, value in detail["metrics"].items():
        shown = "null" if value is None else repr(value)
        print(f"{name} {metric} {shown} {detail['units'][metric]}")
    for complaint in detail["complaints"]:
        print(f"# FAILED {complaint}")


def run_single(args) -> int:
    result, detail = run_traced(args) if args.trace else run_untraced(args)
    print_run(detail)
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail, default=list))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# --------------------------------------------------------------------- #
# The ROADMAP datum                                                     #
# --------------------------------------------------------------------- #


def run_datum(args) -> int:
    """Cold and warm ``snapshot(0)`` on G(200, mean degree 6) under each
    engine: the ROADMAP reviewer table, reproduced by command."""
    _cls, _ = load("warm_steady")
    import workloads
    from workloads import P

    rows = {}
    for spec in workloads.LADDER:
        topo = P.topology.erdos_renyi(200, 6 / 199, seed=0)
        gc.collect()
        start = time.perf_counter()
        network = workloads.new_network(topo, spec)
        runtime = workloads.new_runtime(network, spec)
        first = runtime.snapshot(0)
        cold = time.perf_counter() - start
        warm = []
        for _ in range(5):
            network.trace.clear()
            gc.collect()
            start = time.perf_counter()
            runtime.snapshot(0)
            warm.append(time.perf_counter() - start)
        rows[spec.name] = {
            "cold_s": cold,
            "warm_s": statistics.median(warm),
            "hops": first.result.in_band_messages,
            "nodes": len(first.nodes),
        }
        print(
            f"datum {spec.name:<12} cold_s {cold:.4f}  warm_s {rows[spec.name]['warm_s']:.4f}  "
            f"hops {rows[spec.name]['hops']}"
        )
    if args.detail:
        Path(args.detail).write_text(json.dumps(rows))
    return 0


# --------------------------------------------------------------------- #
# Every workload, one child process at a time                           #
# --------------------------------------------------------------------- #


def child(extra: list[str], detail_path: Path) -> tuple[int, dict]:
    command = [sys.executable, str(HERE / "run.py"), "--detail", str(detail_path), *extra]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    detail = json.loads(detail_path.read_text()) if detail_path.exists() else {}
    detail_path.unlink(missing_ok=True)
    return done.returncode, detail


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_all(args) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"detail-{os.getpid()}.json"
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        common.append("--smoke")
    names = [w["name"] for w in benchmark["workloads"]]
    results = {}
    bad = 0
    for name in names:
        runs = []
        for _ in range(REPEATS):
            code, detail = child(["--workload", name, "--trace", "0", *common], scratch)
            bad += code != 0
            runs.append(detail)
        code, traced = child(["--workload", name, "--trace", "1", *common], scratch)
        bad += code != 0
        digests = {run.get("sim_digest") for run in runs} | {traced.get("sim_digest")}
        if len(digests) != 1:
            print(f"# FAILED {name}: sim_digest differs between runs of one seed: {digests}")
            bad += 1
        end_to_end = {}
        for metric, spec in declared.items():
            values = [run["metrics"][metric] for run in runs if "metrics" in run]
            end_to_end[metric] = {
                "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                "values": values,
                "median": statistics.median(values) if values else None,
            }
        attempted = sum(run.get("attempted", 0) for run in runs)
        failed = sum(run.get("failed", 0) for run in runs)
        ladder = traced.get("metrics", {})
        base = ladder.get("ladder.fast.op_ms_p50")
        results[name] = {
            "op_is": runs[0].get("op_is") if runs else None,
            "end_to_end": end_to_end,
            "failed_share": failed / attempted if attempted else 1.0,
            "attempted": attempted,
            "samples_per_run": [run.get("attempted") for run in runs],
            "cycles_per_run": [run.get("cycles") for run in runs],
            "sim_digest": sorted(d for d in digests if d),
            "hops_per_cycle": traced.get("hops"),
            "out_band_per_cycle": traced.get("out_band"),
            "kinds": runs[0].get("kinds") if runs else None,
            "op_ms_p90_every_op": [run.get("op_ms_p90_every_op") for run in runs],
            "per_layer": {
                metric: {"value": value, "unit": traced["units"][metric]}
                for metric, value in traced.get("metrics", {}).items()
            },
            "targets": traced.get("targets"),
            "setup_targets": traced.get("setup_targets"),
            "setup_layers": traced.get("setup_layers"),
            "missing_targets": traced.get("missing_targets"),
            # Each ladder p50 over the fast rung's (base: ladder.fast.op_ms_p50).
            "ladder_ratios": {
                rung: ladder[f"ladder.{rung}.op_ms_p50"] / base
                for rung in ("interpreted", "reference", "fast_batch")
                if base and ladder.get(f"ladder.{rung}.op_ms_p50")
            },
        }
    datum = None
    if not args.smoke:
        _code, datum = child(["--datum"], scratch)
    report = {
        "schema": SCHEMA,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": args.seed,
        "run_seconds": args.seconds,
        "repeats": REPEATS,
        "workloads": results,
        "roadmap_datum": datum,
    }
    out = Path(args.out) if args.out else OUT / f"BENCH_seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"# wrote {out}")
    for name, row in results.items():
        shown = "  ".join(
            f"{metric}={cell['median']:.4g}{cell['unit']}"
            for metric, cell in row["end_to_end"].items() if cell["median"] is not None
        )
        print(f"# {name:<15} {shown}  failed_share={row['failed_share']:.4g}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="results file of the full run")
    parser.add_argument("--smoke", action="store_true",
                        help="a few ops per workload, no time target (harness self-test)")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--datum", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--imports", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.max_ops = None
    if args.smoke:
        args.seconds = 0.0
        args.max_ops = 6
    sys.path.insert(0, str(HERE))
    if args.imports:
        print(load(args.imports)[1])
        return 0
    if args.datum:
        return run_datum(args)
    if args.workload:
        return run_single(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
