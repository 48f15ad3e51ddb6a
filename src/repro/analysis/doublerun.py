"""The hash-seed double-run gate: same seed, two processes, same bytes.

Every oracle behind the reproduction is byte-identical replay under a
fixed seed: golden traces, chaos reports and model-check replays.  This
gate checks that property directly.  It runs the golden-trace scenario
matrix and one chaos campaign per fault plane in two fresh subprocesses
under different ``PYTHONHASHSEED`` values and demands that every
observable hashes identically.  A stray global-RNG draw, OS-entropy read,
wall-clock read, set order or salted ``hash()`` that reaches a trace or a
report shows up as a digest mismatch (DESIGN.md §9 has the mutant trial
that retired the static rules for those hazards in favour of this gate;
``tests/mutants.py`` keeps that trial live).

Each child process is ``python -m repro.analysis.doublerun --emit``: it
prints one JSON object mapping scenario id → SHA-256 digest of the
canonical (sorted-keys) JSON encoding of the observables, plus
``chaos-default``/``chaos-control``/``chaos-switch`` → SHA-256 of each
campaign report.  The parent diffs the two digest maps.  A fresh
interpreter per seed is essential — ``PYTHONHASHSEED`` is read once at
startup and cannot be changed in-process.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.net.chaos import (
    ChaosConfig,
    control_plane_config,
    run_campaign,
    switch_plane_config,
)
from repro.net.scenario import GOLDEN_SCENARIOS, run_scenario

#: The two hash seeds the gate compares (arbitrary but distinct; 0 is the
#: "disabled randomization" value, so one run matches unsalted hashing).
DEFAULT_HASH_SEEDS = (0, 4242)

#: One campaign per fault plane, sized to one run per service × topology
#: × profile cell (24 = 4 services × 2 topologies × 3 profiles).
CHAOS_RUNS = 24

Scenario = tuple[str, str, str, int]


def scenario_id(scenario: Scenario) -> str:
    service, topology, profile, seed = scenario
    return f"{service}-{topology}-{profile}-s{seed}"


def scenario_digests(
    scenarios: tuple[Scenario, ...] = GOLDEN_SCENARIOS,
    fast_path: bool = True,
) -> dict[str, str]:
    """scenario id → SHA-256 of its canonical observable JSON (in-process)."""
    digests: dict[str, str] = {}
    for scenario in scenarios:
        observables = run_scenario(*scenario, fast_path=fast_path)
        canonical = json.dumps(
            observables, sort_keys=True, separators=(",", ":"), default=str
        )
        digests[scenario_id(scenario)] = hashlib.sha256(
            canonical.encode()
        ).hexdigest()
    return digests


def chaos_digests() -> dict[str, str]:
    """``chaos-<plane>`` → SHA-256 of that plane's campaign report JSON."""
    configs = {
        "chaos-default": ChaosConfig(runs=CHAOS_RUNS),
        "chaos-control": control_plane_config(runs=CHAOS_RUNS),
        "chaos-switch": switch_plane_config(runs=CHAOS_RUNS),
    }
    return {
        name: hashlib.sha256(run_campaign(config).to_json().encode()).hexdigest()
        for name, config in configs.items()
    }


@dataclass
class DoubleRunReport:
    """The gate's verdict: digests per hash seed, and any mismatches."""

    hash_seeds: tuple[int, int]
    digests: dict[int, dict[str, str]]
    #: Scenario ids whose digests differ between the two runs.
    mismatches: list[str] = field(default_factory=list)
    #: Child stderr, kept only on failure for diagnosis.
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.errors

    def to_dict(self) -> dict:
        return {
            "hash_seeds": list(self.hash_seeds),
            "scenarios": sorted(next(iter(self.digests.values()), {})),
            "mismatches": self.mismatches,
            "errors": self.errors,
            "ok": self.ok,
        }

    def format_text(self) -> str:
        lines = [
            f"double-run gate: PYTHONHASHSEED {self.hash_seeds[0]} vs "
            f"{self.hash_seeds[1]}, "
            f"{len(next(iter(self.digests.values()), {}))} digest(s)"
        ]
        for scenario in self.mismatches:
            lines.append(f"  MISMATCH {scenario}")
        for error in self.errors:
            lines.append(f"  error: {error}")
        lines.append(f"verdict: {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def _child_env(hash_seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    # The child must import the same repro package as the parent, even when
    # running from a source checkout that was never pip-installed.
    src_dir = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            f"{src_dir}{os.pathsep}{existing}" if existing else src_dir
        )
    return env


def double_run(
    scenarios: tuple[Scenario, ...] = GOLDEN_SCENARIOS,
    hash_seeds: tuple[int, int] = DEFAULT_HASH_SEEDS,
    timeout: float = 600.0,
) -> DoubleRunReport:
    """Run *scenarios* and the chaos campaigns under both hash seeds in
    subprocesses and diff."""
    spec = json.dumps([list(s) for s in scenarios], sort_keys=True)
    report = DoubleRunReport(hash_seeds=hash_seeds, digests={})
    for hash_seed in hash_seeds:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.doublerun",
             "--emit", "--scenarios", spec],
            env=_child_env(hash_seed),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        if proc.returncode != 0:
            report.errors.append(
                f"PYTHONHASHSEED={hash_seed} run failed "
                f"(exit {proc.returncode}): {proc.stderr.strip()[-2000:]}"
            )
            report.digests[hash_seed] = {}
            continue
        report.digests[hash_seed] = json.loads(proc.stdout)
    if not report.errors:
        first, second = (report.digests[seed] for seed in hash_seeds)
        report.mismatches = sorted(
            sid
            for sid in set(first) | set(second)
            if first.get(sid) != second.get(sid)
        )
    return report


def _main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="double-run determinism gate (child emit mode)"
    )
    parser.add_argument("--emit", action="store_true",
                        help="run scenarios and chaos campaigns and print "
                        "the digest map")
    parser.add_argument("--scenarios", default=None,
                        help="JSON list of [service, topology, profile, seed]")
    args = parser.parse_args(argv)
    scenarios = GOLDEN_SCENARIOS
    if args.scenarios:
        scenarios = tuple(tuple(item) for item in json.loads(args.scenarios))
    if args.emit:
        digests = {**scenario_digests(scenarios), **chaos_digests()}
        print(json.dumps(digests, sort_keys=True))
        return 0
    report = double_run(scenarios)
    print(report.format_text())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(_main())
