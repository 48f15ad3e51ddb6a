"""Byte-identity gate for ``smartsouth check --json`` (not collected by pytest).

``tests/golden/check_digests.json`` pins the sha256 of the ``check --json``
stdout and the exit code of 70 model-checker runs: every service on ring 4,
star 5, abilene and ring 6 with ``--max-failures`` 0 and 1, plus ring 4
``--crash`` and ``--switch-crash`` for plain, snapshot and critical.  A change
to the checker, the pipeline semantics or the emitted tables that moves a
verdict, a counterexample, an explored-state count or an exit code shows up as
a mismatch.  Each case runs in its own process, exactly as a user would run
it.  Run from the repository root::

    python tests/check_goldens.py --check   # exit 1 on any difference
    python tests/check_goldens.py --regen   # only for a deliberate change
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
GOLDEN = ROOT / "tests" / "golden" / "check_digests.json"

TOPOLOGIES = {
    "ring4": ["--topology", "ring", "--nodes", "4"],
    "star5": ["--topology", "star", "--nodes", "5"],
    "abilene": ["--topology", "abilene"],
    "ring6": ["--topology", "ring", "--nodes", "6"],
}
SERVICES = (
    "plain", "snapshot", "snapshot_chunked", "blackhole",
    "blackhole_ttl", "critical", "anycast", "priocast",
)
CRASH_SERVICES = ("plain", "snapshot", "critical")


def cases() -> dict[str, list[str]]:
    """Case name -> ``check`` arguments, in a fixed order."""
    out = {}
    for topology, topology_args in TOPOLOGIES.items():
        for service in SERVICES:
            for failures in ("0", "1"):
                out[f"{topology}/{service}/f{failures}"] = [
                    *topology_args, "--service", service,
                    "--max-failures", failures,
                ]
    for crash in ("--crash", "--switch-crash"):
        for service in CRASH_SERVICES:
            out[f"ring4/{service}/{crash.lstrip('-')}"] = [
                *TOPOLOGIES["ring4"], "--service", service, crash,
            ]
    return out


def run_case(args: list[str]) -> dict:
    """sha256 of one ``check --json`` stdout, and its exit code."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "check", *args, "--json"],
        cwd=ROOT, env=env, capture_output=True, check=False,
    )
    return {
        "sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "exit": proc.returncode,
    }


def collect() -> dict[str, dict]:
    named = cases()
    with ThreadPoolExecutor(max_workers=2) as pool:  # two check processes at a time
        results = list(pool.map(run_case, named.values()))
    return dict(zip(named, results))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--regen", action="store_true")
    args = parser.parse_args(argv)

    digests = collect()
    if args.regen:
        GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} check digests to {GOLDEN.relative_to(ROOT)}")
        return 0
    pinned = json.loads(GOLDEN.read_text())
    bad = sorted(
        case for case in pinned.keys() | digests.keys()
        if pinned.get(case) != digests.get(case)
    )
    for case in bad:
        print(f"MISMATCH {case}: pinned {pinned.get(case)} now {digests.get(case)}")
    print(f"check goldens: {len(digests) - len(bad)}/{len(pinned)} identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
