"""Byte-identity gates for the ``smartsouth`` verbs (not collected by pytest).

Each verb has a case table and a pin file under ``tests/golden/``:

* ``lint`` — ``lint_digests.json``: the sha256 of the ``lint --json`` stdout
  and the exit code for every service on six example topologies.  A change
  to the lint rules, the symbolic engine or the emitted tables that moves a
  finding, a witness cube or an exit code shows up as a mismatch.
* ``check`` — ``check_digests.json``: the same for 70 model-checker runs,
  every service on ring 4, star 5, abilene and ring 6 with
  ``--max-failures`` 0 and 1, plus ring 4 ``--crash`` and ``--switch-crash``
  for plain, snapshot and critical.  A moved verdict, counterexample,
  explored-state count or exit code shows up as a mismatch.
* ``chaos`` — ``chaos_digests.json``: the sha256 of the seed-0 campaign
  report (``--json-out``) and the exit code of ``chaos --runs 96``,
  ``chaos --control --runs 216`` and ``chaos --switch --runs 216``.  A
  change to the supervisor, the repair handshake or the fault planner that
  moves any run's outcome, ledger or detail shows up as a mismatch.

Each case runs in its own process, exactly as a user would run it, two at
a time.  Run from the repository root::

    python tests/cli_goldens.py --check lint            # exit 1 on any difference
    python tests/cli_goldens.py --check chaos control   # only the named cases
    python tests/cli_goldens.py --regen check           # only for a deliberate change
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

SERVICES = (
    "plain", "snapshot", "snapshot_chunked", "blackhole",
    "blackhole_ttl", "critical", "anycast", "priocast",
)
RING4 = ["--topology", "ring", "--nodes", "4"]


def lint_cases() -> dict[str, list[str]]:
    topologies = {
        "ring4": RING4,
        "star5": ["--topology", "star", "--nodes", "5"],
        "abilene": ["--topology", "abilene"],
        "ring8": ["--topology", "ring", "--nodes", "8"],
        "grid3x3": ["--topology", "grid", "--rows", "3", "--cols", "3"],
        "torus3x3": ["--topology", "torus", "--rows", "3", "--cols", "3"],
    }
    return {
        f"{topology}/{service}": [
            "lint", *topology_args, "--service", service, "--json",
        ]
        for topology, topology_args in topologies.items()
        for service in SERVICES
    }


def check_cases() -> dict[str, list[str]]:
    topologies = {
        "ring4": RING4,
        "star5": ["--topology", "star", "--nodes", "5"],
        "abilene": ["--topology", "abilene"],
        "ring6": ["--topology", "ring", "--nodes", "6"],
    }
    out = {}
    for topology, topology_args in topologies.items():
        for service in SERVICES:
            for failures in ("0", "1"):
                out[f"{topology}/{service}/f{failures}"] = [
                    "check", *topology_args, "--service", service,
                    "--max-failures", failures, "--json",
                ]
    for crash in ("--crash", "--switch-crash"):
        for service in ("plain", "snapshot", "critical"):
            out[f"ring4/{service}/{crash.lstrip('-')}"] = [
                "check", *RING4, "--service", service, crash, "--json",
            ]
    return out


def chaos_cases() -> dict[str, list[str]]:
    return {
        "base": ["chaos", "--runs", "96", "--seed", "0"],
        "control": ["chaos", "--control", "--runs", "216", "--seed", "0"],
        "switch": ["chaos", "--switch", "--runs", "216", "--seed", "0"],
    }


#: verb -> (case table, pin file name, whether the digest is of the
#: ``--json-out`` report rather than of stdout).
VERBS = {
    "lint": (lint_cases, "lint_digests.json", False),
    "check": (check_cases, "check_digests.json", False),
    "chaos": (chaos_cases, "chaos_digests.json", True),
}


def run_case(args: list[str], report_file: bool) -> dict:
    """sha256 of one verb's output (stdout, or its ``--json-out`` report),
    and its exit code."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="cli-goldens-") as tmp:
        report = Path(tmp) / "report.json"
        extra = ["--json-out", str(report)] if report_file else []
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *args, *extra],
            cwd=ROOT, env=env, capture_output=True, check=False,
        )
        output = report.read_bytes() if report_file and report.exists() else proc.stdout
    return {"sha256": hashlib.sha256(output).hexdigest(), "exit": proc.returncode}


def collect(verb: str, only: list[str]) -> dict[str, dict]:
    table, _pin, report_file = VERBS[verb]
    named = {
        case: args for case, args in table().items() if not only or case in only
    }
    with ThreadPoolExecutor(max_workers=2) as pool:  # two processes at a time
        results = list(pool.map(lambda args: run_case(args, report_file), named.values()))
    return dict(zip(named, results))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--regen", action="store_true")
    parser.add_argument("verb", choices=sorted(VERBS))
    parser.add_argument(
        "cases", nargs="*", help="check only these cases (default: all)"
    )
    args = parser.parse_args(argv)
    if args.regen and args.cases:
        parser.error("--regen rewrites the whole pin file; name no cases")
    table, pin, _report_file = VERBS[args.verb]
    unknown = sorted(set(args.cases) - set(table()))
    if unknown:
        parser.error(f"unknown {args.verb} cases: {', '.join(unknown)}")
    golden = GOLDEN_DIR / pin

    digests = collect(args.verb, args.cases)
    if args.regen:
        golden.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} {args.verb} digests to {golden.relative_to(ROOT)}")
        return 0
    pinned = json.loads(golden.read_text())
    if args.cases:
        pinned = {case: pinned.get(case) for case in args.cases}
    bad = sorted(
        case for case in pinned.keys() | digests.keys()
        if pinned.get(case) != digests.get(case)
    )
    for case in bad:
        print(f"MISMATCH {case}: pinned {pinned.get(case)} now {digests.get(case)}")
    print(f"{args.verb} goldens: {len(digests) - len(bad)}/{len(pinned)} identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
