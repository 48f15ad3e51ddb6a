"""Analysis tools: graph algorithms, Table 2 closed forms, symbolic
header-space analysis, lint rules, rule-set verification, stateful
model checking with replayable counterexamples, and the hash-seed
double-run determinism gate (:mod:`repro.analysis.doublerun`, kept out
of this namespace so importing the analysis layer does not drag in the
scenario runner and the chaos harness)."""

from repro.analysis.complexity import (
    dfs_message_count,
    table2,
    table2_row,
)
from repro.analysis.graph import (
    articulation_points,
    connected_components,
    dfs_edge_order,
    spanning_tree,
)
from repro.analysis.lint import (
    LINT_RULES,
    LintConfig,
    LintFinding,
    LintReport,
    lint_engine,
    lint_rule,
    run_lint,
)
from repro.analysis.modelcheck import (
    INVARIANTS,
    CheckConfig,
    CheckReport,
    Counterexample,
    Scenario,
    Violation,
    check_engine,
    invariant,
    run_check,
    scenarios_for,
)
from repro.analysis.replay import (
    ReplayResult,
    confirms_violation,
    replay_counterexample,
)
from repro.analysis.symbolic import (
    Cube,
    SwitchAnalyzer,
    WalkResult,
    walk_network,
)
from repro.analysis.verify import (
    VerificationReport,
    verify_engine,
    verify_switch,
)

__all__ = [
    "CheckConfig",
    "CheckReport",
    "Counterexample",
    "Cube",
    "INVARIANTS",
    "LINT_RULES",
    "LintConfig",
    "LintFinding",
    "LintReport",
    "ReplayResult",
    "Scenario",
    "SwitchAnalyzer",
    "VerificationReport",
    "Violation",
    "WalkResult",
    "articulation_points",
    "check_engine",
    "confirms_violation",
    "connected_components",
    "dfs_edge_order",
    "dfs_message_count",
    "invariant",
    "lint_engine",
    "lint_rule",
    "replay_counterexample",
    "run_check",
    "run_lint",
    "scenarios_for",
    "spanning_tree",
    "table2",
    "table2_row",
    "verify_engine",
    "verify_switch",
    "walk_network",
]
