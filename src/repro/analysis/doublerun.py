"""The double-run gate: same seed, two processes, same bytes, either order.

Every oracle behind the reproduction is byte-identical replay under a
fixed seed: golden traces, chaos reports and model-check replays.  This
gate checks that property directly.  It runs the golden-trace scenario
matrix, one chaos campaign per fault plane and one trigger storm in two
fresh subprocesses under different ``PYTHONHASHSEED`` values, the second
in reverse order, and demands that every observable hashes identically.
A stray global-RNG draw, OS-entropy read, wall-clock read, set order or
salted ``hash()`` that reaches a trace or a report shows up as a digest
mismatch, and so does state one run leaves for the next (DESIGN.md §9 has
the mutant trial that retired the static rules for those hazards in
favour of this gate; ``tests/mutants.py`` keeps that trial live).

Each child process is ``python -m repro.analysis.doublerun --emit
--scenarios ITEMS``: it runs the JSON list *ITEMS* in the order given,
each a ``[service, topology, profile, seed]`` scenario or a chaos plane
name (``chaos-default``/``chaos-control``/``chaos-switch``), and prints
one JSON object mapping scenario id or plane name → SHA-256 of the
canonical (sorted-keys) observable JSON or of the campaign report.  The
parent diffs the two digest maps.  A fresh interpreter per seed is
essential — ``PYTHONHASHSEED`` is read once at startup and cannot be
changed in-process.
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


#: The chaos campaign of each fault plane, by its matrix item name.
CHAOS_PLANES = {
    "chaos-default": ChaosConfig,
    "chaos-control": control_plane_config,
    "chaos-switch": switch_plane_config,
}

#: One matrix item: a golden scenario or a chaos plane name.
Item = Scenario | str

#: The gate's matrix in forward order.  The trigger storm collects many
#: reports on one engine, so reports one run leaks into the next show.
DEFAULT_ITEMS: tuple[Item, ...] = (
    *GOLDEN_SCENARIOS, *CHAOS_PLANES, ("snapshot-storm", "torus3x3", "lossy", 11)
)


def digests(items) -> dict[str, str]:
    """id → SHA-256 of each item's oracle bytes, run in-process in the
    order given: a scenario's canonical observable JSON, or a chaos
    plane's campaign report."""
    out: dict[str, str] = {}
    for item in items:
        if isinstance(item, str):
            key = item
            payload = run_campaign(CHAOS_PLANES[item](runs=CHAOS_RUNS)).to_json()
        else:
            key = scenario_id(item)
            payload = json.dumps(
                run_scenario(*item, fast_path=True),
                sort_keys=True, separators=(",", ":"), default=str,
            )
        out[key] = hashlib.sha256(payload.encode()).hexdigest()
    return out


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
            f"double-run gate: PYTHONHASHSEED {self.hash_seeds[0]} forward vs "
            f"{self.hash_seeds[1]} reversed, "
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
    items=DEFAULT_ITEMS,
    hash_seeds: tuple[int, int] = DEFAULT_HASH_SEEDS,
    timeout: float = 600.0,
) -> DoubleRunReport:
    """Run *items* in two subprocesses, forward under the first hash seed
    and reversed under the second, and diff."""
    items = list(items)
    report = DoubleRunReport(hash_seeds=hash_seeds, digests={})
    for hash_seed, order in zip(hash_seeds, (items, items[::-1])):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.doublerun",
             "--emit", "--scenarios", json.dumps(order, sort_keys=True)],
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
                        help="run the items in order and print the digest map")
    parser.add_argument("--scenarios", default=None,
                        help="JSON list of items run in order: [service, "
                        "topology, profile, seed] or a chaos plane name")
    args = parser.parse_args(argv)
    items = DEFAULT_ITEMS
    if args.scenarios:
        items = [
            item if isinstance(item, str) else tuple(item)
            for item in json.loads(args.scenarios)
        ]
    if args.emit:
        print(json.dumps(digests(items), sort_keys=True))
        return 0
    report = double_run(items)
    print(report.format_text())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(_main())
