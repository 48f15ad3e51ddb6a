"""Determinism & shared-state sanitizer: static analysis over the source.

The second static-analysis subsystem, beside the flow-rule lint
(:mod:`repro.analysis.lint`): an AST-based pass over ``src/repro/**`` with
a pluggable rule registry emitting ``DET001``-``DET007`` (determinism
hazards: global RNG, OS entropy, wall clocks, hash-ordered escapes) and
``RACE001``-``RACE003`` (shared-state hazards: mutable state that two
engines in one process silently share).  The repository's oracle is that
a rerun with the same seed is byte-identical (golden traces, chaos
reports); every rule names a way that can break.  Findings carry
severities and fix hints, can be silenced per site (``# repro:
allow[DET003] reason``) or permitted by a committed baseline
(``sancheck-baseline.json``) so CI fails only on *new* findings.

Its runtime cross-check is :mod:`repro.analysis.static.doublerun`: the
golden-trace scenario matrix executed twice in subprocesses under
different ``PYTHONHASHSEED`` values, with every observable hashed —
hash-order nondeterminism the static pass misses shows up as a digest
mismatch, and static findings explain dynamic mismatches.

CLI: ``smartsouth sancheck [--json] [--baseline PATH] [--write-baseline]
[--prune-baseline] [--double-run]``.  Catalogue and workflow:
``docs/STATIC_ANALYSIS.md``.
"""

from repro.analysis.static.baseline import (
    BASELINE_NAME,
    discover_baseline,
    load_baseline,
    prune_baseline,
    write_baseline,
)
from repro.analysis.static.doublerun import (
    DoubleRunReport,
    double_run,
    scenario_digests,
)
from repro.analysis.static.findings import (
    SAN_RULES,
    SanFinding,
    SanReport,
    SanRule,
    san_rule,
)
from repro.analysis.static.runner import (
    analyze_models,
    default_scan_root,
    run_sancheck,
)
from repro.analysis.static.walker import ModuleModel, build_models

__all__ = [
    "BASELINE_NAME",
    "DoubleRunReport",
    "ModuleModel",
    "SAN_RULES",
    "SanFinding",
    "SanReport",
    "SanRule",
    "analyze_models",
    "build_models",
    "default_scan_root",
    "discover_baseline",
    "double_run",
    "load_baseline",
    "prune_baseline",
    "run_sancheck",
    "san_rule",
    "scenario_digests",
    "write_baseline",
]
