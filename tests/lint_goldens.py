"""Byte-identity gate for ``smartsouth lint --json`` (not collected by pytest).

``tests/golden/lint_digests.json`` pins, for every service on six example
topologies, the sha256 of the ``lint --json`` stdout and the exit code.  A
change to the lint rules, the symbolic engine or the emitted tables that
moves any finding, witness cube or exit code shows up as a mismatch.  Each
case runs in its own process, exactly as a user would run it.  Run from the
repository root::

    python tests/lint_goldens.py --check   # exit 1 on any difference
    python tests/lint_goldens.py --regen   # only for a deliberate change
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "lint_digests.json"

TOPOLOGIES = {
    "ring4": ["--topology", "ring", "--nodes", "4"],
    "star5": ["--topology", "star", "--nodes", "5"],
    "abilene": ["--topology", "abilene"],
    "ring8": ["--topology", "ring", "--nodes", "8"],
    "grid3x3": ["--topology", "grid", "--rows", "3", "--cols", "3"],
    "torus3x3": ["--topology", "torus", "--rows", "3", "--cols", "3"],
}
SERVICES = (
    "plain", "snapshot", "snapshot_chunked", "blackhole",
    "blackhole_ttl", "critical", "anycast", "priocast",
)


def run_case(topology: str, service: str) -> dict:
    """sha256 of one ``lint --json`` stdout, and its exit code."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", *TOPOLOGIES[topology],
         "--service", service, "--json"],
        cwd=ROOT, env=env, capture_output=True, check=False,
    )
    return {
        "sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "exit": proc.returncode,
    }


def collect() -> dict[str, dict]:
    cases = [(t, s) for t in TOPOLOGIES for s in SERVICES]
    with ThreadPoolExecutor(max_workers=2) as pool:  # two lint processes at a time
        results = list(pool.map(lambda case: run_case(*case), cases))
    return {f"{t}/{s}": r for (t, s), r in zip(cases, results)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--regen", action="store_true")
    args = parser.parse_args(argv)

    digests = collect()
    if args.regen:
        GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} lint digests to {GOLDEN.relative_to(ROOT)}")
        return 0
    pinned = json.loads(GOLDEN.read_text())
    bad = sorted(
        case for case in pinned.keys() | digests.keys()
        if pinned.get(case) != digests.get(case)
    )
    for case in bad:
        print(f"MISMATCH {case}: pinned {pinned.get(case)} now {digests.get(case)}")
    print(f"lint goldens: {len(digests) - len(bad)}/{len(pinned)} identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
