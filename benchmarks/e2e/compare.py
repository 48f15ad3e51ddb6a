#!/usr/bin/env python3
"""Compare two results files of ``run.py``: ``compare.py A.json B.json``.

A is the base (the parent commit), B the change.  For every (workload,
end-to-end metric) pair the bound in ``BENCHMARK.json`` is applied to the
medians of the untraced repeats, and one row is printed with both values,
the ratio B/A and the verdict:

``ok``          B is not worse than A by more than the bound
``REGRESSION``  B is worse than A by more than the bound
``unresolved``  the spread between A's own repeats (interquartile range)
                exceeds what the bound allows, so the pair decides nothing —
                unless every B repeat beats every A repeat (``better``)

``setup_s`` may also worsen by 0.2 s where that is more than its bound: most
workloads set up in a tenth of a second, and a bound of a few milliseconds
gates nothing but the host.  ``failed_share`` has no tolerance: any increase
is a regression.  Exit status is 1 if any pair regressed, else 0.  Per-layer
metrics are not gated.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

#: Absolute slack per metric, in the metric's unit.
FLOORS = {"setup_s": 0.2}


def spread(values: list[float]) -> float:
    """Interquartile range, by the driver's own quantile method."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def judge(
    base: list[float], change: list[float], better: str, bound: float, floor: float = 0.0
):
    """(median A, median B, spread of A over its median, verdict)."""
    a, b = statistics.median(base), statistics.median(change)
    allowed = max(bound * a, floor)
    worse_by = (b - a) if better == "lower" else (a - b)
    noise = spread(base)
    share = noise / a if a else 0.0
    if noise > allowed:
        if better == "lower":
            beats = max(change) < min(base)
        else:
            beats = min(change) > max(base)
        return a, b, share, "better" if beats else "unresolved"
    return a, b, share, "REGRESSION" if worse_by > allowed else "ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="results file of the parent commit (A)")
    parser.add_argument("change", help="results file of the change (B)")
    args = parser.parse_args(argv)
    base = json.loads(Path(args.base).read_text())
    change = json.loads(Path(args.change).read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    regressions = 0
    print(f"A = {args.base} ({base.get('git_commit', '?')[:12]}), "
          f"B = {args.change} ({change.get('git_commit', '?')[:12]}); ratio = B/A")
    header = f"{'workload':<15} {'metric':<12} {'A':>12} {'B':>12} {'B/A':>7} {'bound':>6} {'spread A':>9}  verdict"
    print(header)
    for name, row_a in base["workloads"].items():
        row_b = change["workloads"].get(name)
        if row_b is None:
            print(f"{name:<15} missing from B: REGRESSION")
            regressions += 1
            continue
        for spec in declared:
            metric = spec["name"]
            values_a = row_a["end_to_end"][metric]["values"]
            values_b = row_b["end_to_end"][metric]["values"]
            if not values_a or not values_b:
                print(f"{name:<15} {metric:<12} no values: REGRESSION")
                regressions += 1
                continue
            a, b, noise, verdict = judge(
                values_a, values_b, spec["better"], spec["bound"],
                FLOORS.get(metric, 0.0),
            )
            regressions += verdict == "REGRESSION"
            print(
                f"{name:<15} {metric:<12} {a:>12.4f} {b:>12.4f} {b / a:>7.3f} "
                f"{spec['bound']:>6.2f} {noise:>9.2%}  {verdict}"
            )
        failed_a, failed_b = row_a["failed_share"], row_b["failed_share"]
        verdict = "REGRESSION" if failed_b > failed_a else "ok"
        regressions += verdict == "REGRESSION"
        print(f"{name:<15} {'failed_share':<12} {failed_a:>12.4f} {failed_b:>12.4f} "
              f"{'':>7} {'none':>6} {'':>9}  {verdict}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
