"""Planted-mutant trial for guards whose failure would go unseen (not
collected by pytest).

Each mutant plants one hazard in a temp copy of ``src/`` and names the
check that must catch it:

* ``doublerun`` — ``python -m repro.analysis.doublerun``: golden scenarios,
  one chaos campaign per fault plane and one trigger storm, run in two
  processes under different ``PYTHONHASHSEED`` values, the second in
  reverse order, digests compared.  It retired the static rules
  DET001/002/003/005/007 and RACE002 (DESIGN.md §9); the RACE001 mutant
  survives even the reversed order.
* ``hazards`` — ``tests/test_source_hazards.py``: the three AST checks that
  survive because their hazards replay identically until some other change
  exposes them.
* ``blindspots`` — the key and digest tests that pin what two program
  summaries must tell apart: lint's per-shape key
  (``tests/test_lint_shapes.py``) and the inventory digest of the repair
  handshake (``tests/test_switch_faults.py``,
  ``tests/test_channel_faults.py``).  A key or digest that stops seeing a
  field makes every check downstream of it pass silently.
* ``transfer`` — ``tests/test_lint_shapes.py::TestWalkMemoIsExact``: every
  memoised lint walk step against a fresh propagation of its full cube.  A
  read set that misses a field the switch changes replays a stale value.
* ``modelcheck`` — ``tests/test_modelcheck.py::TestCleanDeployment``: the
  model checker's verdict on correct deployments.  The checker runs the
  switch's own pipeline walk (``openflow.switch.walk``) and shares its
  fast-failover bucket choice (``openflow.group.first_live_bucket``), so a
  bug in either must turn that verdict, not only the switch's behaviour.
* ``tiebreak`` — ``tests/test_fastpath_tiebreak.py``: the fast path's
  index keeps the first entry of a key, the one the ``(-priority, seq)``
  tie-break prefers; an index that keeps the last forwards a same-priority
  overlap out of the later entry's port.
* ``lazygroups`` — ``tests/test_lazy_program.py::
  TestDeferredReadIsNotAMutation``: building a deferred group on first
  read must not count as a program change, or every first read would
  recompile the fast path and drop the cached inventory digest.
* ``lazytables`` — ``tests/test_lazy_program.py::
  TestMaterialiseIsNotAMutation``: materialising a deferred flow table
  must not count as a program change either.
* ``deferkey`` — ``tests/test_deferred_tables.py``: a deferred table's
  declared index against what ``compile_table`` derives from the built
  rows; an index that keeps a later same-key row points the fast path at
  a row no lookup would return.
* ``chains`` — ``tests/test_fastpath_invalidation.py``: an explicit
  invalidation must drop the recorded chains along with the compiles.
* ``digestcache`` — ``tests/test_switch_faults.py``: a rebooted switch's
  inventory digest must be computed anew, or readopt trusts the program
  it lost.

The script first checks that every anchor occurs exactly once and that every
killer passes on the unmutated copy, then applies each mutant alone and runs
its killer.  A mutant counts as killed only when its killer fails on its
own check (a digest mismatch, a new hazard finding, a blind key or digest),
not when the mutant merely breaks the program.  The script exits 1 on a
missing or repeated anchor, a failing clean run, or a mutant that is not
killed.  Run from the repository root::

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    rule: str
    file: str  # relative to src/
    anchor: str
    replacement: str
    killer: str


MUTANTS = (
    Mutant(
        "DET001", "repro/net/simulator.py",
        "        jitter = link.jitter\n"
        "        delay = link.delay if jitter <= 0.0 else link.delay + rng.random() * jitter\n",
        "        import random\n\n"
        "        jitter = link.jitter\n"
        "        delay = link.delay if jitter <= 0.0 else link.delay + random.random() * jitter\n",
        "doublerun",
    ),
    Mutant(
        "DET001", "repro/net/chaos.py",
        "            step = rng.randint(1, 60)\n",
        "            import random\n\n"
        "            step = random.randint(1, 60)\n",
        "doublerun",
    ),
    Mutant(
        "DET002", "repro/net/simulator.py",
        "        if dup > 0.0 and rng.random() < dup:\n",
        "        import os\n\n"
        "        if dup > 0.0 and os.urandom(1)[0] < dup * 256:\n",
        "doublerun",
    ),
    Mutant(
        "DET003", "repro/net/chaos.py",
        '        record.reason = f"{type(exc).__name__}: {exc}"\n'
        "    return record\n",
        '        record.reason = f"{type(exc).__name__}: {exc}"\n'
        "    import time\n\n"
        '    record.detail["wall_s"] = time.perf_counter()\n'
        "    return record\n",
        "doublerun",
    ),
    Mutant(
        "DET005", "repro/net/chaos.py",
        "    return faults\n",
        "    return list(set(faults))\n",
        "doublerun",
    ),
    Mutant(
        "DET007", "repro/net/chaos.py",
        "    plan_rng = seeded_rng(run_seed ^ 0x9E3779B9)\n",
        "    plan_rng = seeded_rng(hash((topology_name, run_seed)))\n",
        "doublerun",
    ),
    Mutant(
        "DET004", "repro/net/chaos.py",
        "        return json.dumps(self.to_dict(), indent=2, sort_keys=True)\n",
        "        return json.dumps(self.to_dict(), indent=2)\n",
        "hazards",
    ),
    Mutant(
        "DET006", "repro/net/simulator.py",
        "            events = buckets[time]\n",
        "            events = buckets[time]\n"
        "            events.sort(key=lambda queued: id(queued))\n",
        "hazards",
    ),
    Mutant(
        "RACE001", "repro/openflow/flowtable.py",
        "        entry.seq = self._next_seq\n"
        "        self._next_seq += 1\n",
        "        global _NEXT_SEQ\n"
        '        _NEXT_SEQ = globals().get("_NEXT_SEQ", -1) + 1\n'
        "        entry.seq = _NEXT_SEQ\n",
        "hazards",
    ),
    Mutant(
        "RACE002", "repro/core/engine.py",
        '    mode = "abstract"\n\n'
        "    def __init__(self, network: Network, service: Service) -> None:\n"
        "        self.network = network\n"
        "        self.service = service\n"
        "        self.reports: list[tuple[int, Packet]] = []\n",
        '    mode = "abstract"\n'
        "    reports: list[tuple[int, Packet]] = []\n\n"
        "    def __init__(self, network: Network, service: Service) -> None:\n"
        "        self.network = network\n"
        "        self.service = service\n",
        "doublerun",
    ),
    Mutant(
        "SHAPE", "repro/analysis/symbolic.py",
        "            return (SetField, own.get(action.name, action.name), value)\n",
        "            return (SetField, own.get(action.name, action.name))\n",
        "blindspots",
    ),
    Mutant(
        "TRANSFER", "repro/analysis/symbolic.py",
        "        if group.group_type is GroupType.SELECT:  # a smart counter havocs its writes\n"
        "            reads.update(a.name for a in in_buckets if isinstance(a, SetField))\n"
        "    reads.update(a.field_name for a in actions if isinstance(a, DecTtl))\n",
        "",
        "transfer",
    ),
    Mutant(
        "DIGEST", "repro/openflow/switch.py",
        "                lines.append(\n"
        '                    f"    [prio={entry.priority}] {entry.match!r} -> "\n'
        '                    f"{entry.instructions.text}"\n'
        '                    + (f"  # {entry.cookie}" if entry.cookie else "")\n'
        "                )\n",
        '                lines.append(f"    {entry.describe()}")\n',
        "blindspots",
    ),
    Mutant(
        "FFORDER", "repro/openflow/group.py",
        "    for index, bucket in enumerate(buckets):\n",
        "    for index, bucket in reversed(list(enumerate(buckets))):\n",
        "modelcheck",
    ),
    Mutant(
        "RRADVANCE", "repro/openflow/switch.py",
        "            env.set_cursor(group, (index + 1) % len(buckets))\n",
        "            env.set_cursor(group, index % len(buckets))\n",
        "modelcheck",
    ),
    Mutant(
        "TIEBREAK", "repro/openflow/fastpath.py",
        "        buckets.setdefault(key, entry)\n",
        "        buckets[key] = entry\n",
        "tiebreak",
    ),
    Mutant(
        "GROUPREAD", "repro/openflow/group.py",
        "        self._deferred -= 1\n"
        "        return group\n",
        "        self._deferred -= 1\n"
        "        self._mutated()\n"
        "        return group\n",
        "lazygroups",
    ),
    Mutant(
        "CHAINDROP", "repro/openflow/fastpath.py",
        "        self._chains.clear()\n",
        "",
        "chains",
    ),
    Mutant(
        "DIGESTCACHE", "repro/openflow/switch.py",
        "        if cached is None or cached[0] != generation:\n",
        "        if cached is None:\n",
        "digestcache",
    ),
    Mutant(
        "DEFERKEY", "repro/openflow/deferred.py",
        "        if first is None or priority > priorities[first]:\n",
        "        if first is None or priority >= priorities[first]:\n",
        "deferkey",
    ),
    Mutant(
        "TABLEREAD", "repro/openflow/flowtable.py",
        "        self._plan = None\n"
        "\n"
        "    @property\n"
        "    def capacity",
        "        self._plan = None\n"
        "        self._version += 1\n"
        "\n"
        "    @property\n"
        "    def capacity",
        "lazytables",
    ),
)

#: killer -> (command, the output line prefix that marks a real kill: a
#: mutant that merely crashes the killer proves nothing about the check).
KILLERS = {
    "doublerun": (
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.analysis.doublerun"],
        "  MISMATCH ",
    ),
    "hazards": (
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_source_hazards.py")],
        "E       AssertionError: new source hazards",
    ),
    "blindspots": (
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_lint_shapes.py") + "::TestShapeSeparation",
         str(ROOT / "tests" / "test_switch_faults.py")
         + "::TestDigestCoversEntryActions",
         str(ROOT / "tests" / "test_channel_faults.py")
         + "::TestCrashResync::test_set_field_edit_is_reprogrammed"],
        "E       AssertionError: blind to ",
    ),
    "modelcheck": (
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_modelcheck.py") + "::TestCleanDeployment"],
        "E       AssertionError: clean deployment fails its check",
    ),
    "transfer": (
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_lint_shapes.py") + "::TestWalkMemoIsExact"],
        "E       AssertionError: memoised step differs",
    ),
    "tiebreak": (
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_fastpath_tiebreak.py")
         + "::test_tie_break_identical_on_both_switch_engines"],
        "E           AssertionError: fast_path=True",
    ),
    "lazygroups": (
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_lazy_program.py")
         + "::TestDeferredReadIsNotAMutation"],
        "E       AssertionError: reading a deferred group moved",
    ),
    "chains": (
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_fastpath_invalidation.py")
         + "::TestExplicitInvalidation::test_in_place_edit_plus_invalidate"],
        "E       AssertionError: invalidate_fast_path left a stale",
    ),
    "digestcache": (
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_switch_faults.py")
         + "::TestReadopt::test_rebooted_switch_is_reprogrammed_to_fixed_point"],
        "E       AssertionError: readopt did not converge",
    ),
    "deferkey": (
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_deferred_tables.py")],
        "E       AssertionError: declared index differs",
    ),
    "lazytables": (
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_lazy_program.py")
         + "::TestMaterialiseIsNotAMutation"],
        "E       AssertionError: materialising a deferred table moved",
    ),
}


def run_killer(killer: str, src: Path) -> str:
    """Run *killer* against the package copy under *src*: ``"passes"``,
    ``"killed"`` (failed on its own check) or ``"broken"`` (failed
    otherwise)."""
    command, marker = KILLERS[killer]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode == 0:
        return "passes"
    lines = proc.stdout.splitlines()
    return "killed" if any(line.startswith(marker) for line in lines) else "broken"


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        for mutant in MUTANTS:
            count = (src / mutant.file).read_text().count(mutant.anchor)
            if count != 1:
                failures.append(
                    f"{mutant.rule} {mutant.file}: anchor found {count} times"
                )
        if failures:
            print("\n".join(failures))
            return 1
        for killer in KILLERS:
            verdict = run_killer(killer, src)
            print(f"clean tree   {killer:<11} {verdict}")
            if verdict != "passes":
                failures.append(f"{killer} fails on the unmutated tree")
        for mutant in MUTANTS:
            path = src / mutant.file
            original = path.read_text()
            path.write_text(original.replace(mutant.anchor, mutant.replacement))
            try:
                verdict = run_killer(mutant.killer, src)
            finally:
                path.write_text(original)
            print(f"{mutant.rule:<11} {mutant.file:<28} {mutant.killer:<11} "
                  f"{verdict}")
            if verdict != "killed":
                failures.append(f"{mutant.rule} mutant in {mutant.file}: {verdict}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
