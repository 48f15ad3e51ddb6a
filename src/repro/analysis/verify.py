"""Static verification of compiled SmartSouth rule sets.

The paper argues that keeping the mechanism inside plain match-action tables
preserves a "key benefit of SDN": the forwarding state stays *formally
verifiable*.  This module makes that concrete for the compiled pipelines:

* **structural checks** — every ``goto_table`` moves strictly forward to a
  table that exists; every referenced group exists; FF groups end in an
  unconditionally-live bucket or are root groups that may legally drop;
  output ports are within the switch's port range;
* **overlap check** — no two entries of the same table and priority can
  match the same packet while prescribing different behaviour (OpenFlow
  leaves that order-dependent and hence unverifiable);
* **coverage check** — the classify table has a catch-all (the bounce rule)
  or full per-port coverage, so no service packet can hit a table miss.

These are decidable, syntax-level properties — exactly what makes the
SmartSouth approach verifiable where an active controller program is not.
The overlap and coverage checks delegate to the header-space engine in
:mod:`repro.analysis.symbolic` (one source of truth shared with the lint
rules in :mod:`repro.analysis.lint`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.symbolic import SwitchAnalyzer
from repro.openflow.actions import GroupAction, Output
from repro.openflow.group import GroupType
from repro.openflow.match import FieldTest, Match, pairs_intersect
from repro.openflow.packet import is_physical_port
from repro.openflow.switch import Switch


@dataclass
class VerificationReport:
    """Findings of one switch verification."""

    node: int
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, message: str) -> None:
        self.errors.append(f"switch {self.node}: {message}")

    def warn(self, message: str) -> None:
        self.warnings.append(f"switch {self.node}: {message}")


def _tests_compatible(a: FieldTest, b: FieldTest) -> bool:
    """Can some field value satisfy both tests?

    A test with ``mask == 0`` is a wildcard (OXM permits such TLVs): it
    constrains nothing and is compatible with everything — made explicit
    here so the cube algebra's invariants cannot be violated by a
    degenerate TLV.  The actual intersection lives in
    :func:`repro.openflow.match.pairs_intersect`.
    """
    if a.is_wildcard or b.is_wildcard:
        return True
    return pairs_intersect(a.value, a.mask, b.value, b.mask) is not None


def matches_overlap(a: Match, b: Match) -> bool:
    """Can some packet context satisfy both matches?

    Per-field intersection: two conjunctions of single-field cubes overlap
    exactly when every commonly-constrained field has a common value.
    """
    for name, test_a in a.tests.items():
        test_b = b.tests.get(name)
        if test_b is not None and not _tests_compatible(test_a, test_b):
            return False
    return True


def verify_switch(switch: Switch) -> VerificationReport:
    """Run all static checks on one compiled switch."""
    report = VerificationReport(node=switch.node_id)
    table_ids = set(switch.tables)

    for table_id, entry in switch.iter_entries():
        goto = entry.instructions.goto_table
        if goto is not None:
            if goto <= table_id:
                report.error(
                    f"table {table_id} entry {entry.cookie!r} goes backwards "
                    f"to table {goto}"
                )
            elif goto not in table_ids:
                report.error(
                    f"table {table_id} entry {entry.cookie!r} goes to "
                    f"missing table {goto}"
                )
        for action in entry.instructions.apply_actions:
            if isinstance(action, GroupAction):
                if action.group_id not in switch.groups:
                    report.error(
                        f"table {table_id} entry {entry.cookie!r} references "
                        f"missing group {action.group_id}"
                    )
            if isinstance(action, Output) and is_physical_port(action.port):
                if action.port > switch.num_ports:
                    report.error(
                        f"table {table_id} entry {entry.cookie!r} outputs to "
                        f"nonexistent port {action.port}"
                    )

    analyzer = SwitchAnalyzer(switch, project_unmatched=True)
    _check_groups(switch, report)
    _check_overlaps(analyzer, report)
    _check_classify_coverage(switch, analyzer, report)
    _check_reachability(switch, report)
    return report


def _check_reachability(switch: Switch, report: VerificationReport) -> None:
    """Orphan detection: every table must be reachable from table 0 via
    goto edges, and every group referenced by some reachable rule or by a
    chained bucket.  Orphans are dead configuration — a red flag for a
    compiler bug (warned, not failed: they cannot change behaviour)."""
    # Table reachability.
    reachable = {0} if 0 in switch.tables else set()
    frontier = list(reachable)
    while frontier:
        table_id = frontier.pop()
        for entry in switch.tables[table_id].entries():
            goto = entry.instructions.goto_table
            if goto is not None and goto in switch.tables and goto not in reachable:
                reachable.add(goto)
                frontier.append(goto)
    orphan_tables = set(switch.tables) - reachable
    if orphan_tables:
        report.warn(f"unreachable tables: {sorted(orphan_tables)}")

    # Group referencing (from rules and transitively through buckets).
    referenced: set[int] = set()
    frontier2: list[int] = []
    for _table_id, entry in switch.iter_entries():
        for action in entry.instructions.apply_actions:
            if isinstance(action, GroupAction):
                if action.group_id not in referenced:
                    referenced.add(action.group_id)
                    frontier2.append(action.group_id)
    while frontier2:
        group_id = frontier2.pop()
        if group_id not in switch.groups:
            continue
        for bucket in switch.groups.get(group_id).buckets:
            for action in bucket.actions:
                if isinstance(action, GroupAction):
                    if action.group_id not in referenced:
                        referenced.add(action.group_id)
                        frontier2.append(action.group_id)
    orphan_groups = {
        g.group_id for g in switch.groups.groups()
    } - referenced
    if orphan_groups:
        report.warn(
            f"groups never referenced by any rule: {sorted(orphan_groups)}"
        )


def _chains_back(switch: Switch, start: int) -> bool:
    """Whether a bucket chain from group *start* reaches *start* again (the
    visited set ends any other loop on the way, as lint's SS007 does)."""
    groups = switch.groups
    seen, todo = set(), [start]
    while todo:
        for bucket in groups.get(todo.pop()).buckets:
            for action in bucket.actions:
                if isinstance(action, GroupAction) and action.group_id not in seen:
                    seen.add(action.group_id)
                    if action.group_id in groups:
                        todo.append(action.group_id)
    return start in seen


def _check_groups(switch: Switch, report: VerificationReport) -> None:
    for group in switch.groups.groups():
        for bucket in group.buckets:
            for action in bucket.actions:
                if isinstance(action, Output) and is_physical_port(action.port):
                    if action.port > switch.num_ports:
                        report.error(
                            f"group {group.group_id} outputs to nonexistent "
                            f"port {action.port}"
                        )
                if isinstance(action, GroupAction):
                    if action.group_id not in switch.groups:
                        report.error(
                            f"group {group.group_id} chains to missing group "
                            f"{action.group_id}"
                        )
        if _chains_back(switch, group.group_id):
            report.error(f"group {group.group_id} chains back to itself (a loop)")
        if group.group_type is GroupType.FF:
            if not group.buckets:
                report.error(f"FF group {group.group_id} has no buckets")
            elif group.buckets[-1].watch_port is not None:
                report.warn(
                    f"FF group {group.group_id} can drop packets when all "
                    f"watched ports are down (no unconditional bucket)"
                )
        if group.group_type is GroupType.SELECT and len(group.buckets) < 2:
            report.warn(
                f"SELECT group {group.group_id} has fewer than 2 buckets: "
                f"not a useful smart counter"
            )


def _check_overlaps(analyzer: SwitchAnalyzer, report: VerificationReport) -> None:
    """Ambiguous same-priority overlaps, via the symbolic engine's precise
    cube intersection (a packet witnessing both matches must exist)."""
    for table_id, priority, a, b in analyzer.ambiguous_overlaps():
        report.error(
            f"table {table_id}: overlapping same-priority "
            f"({priority}) entries with different behaviour: "
            f"{a.cookie!r} vs {b.cookie!r}"
        )


def _check_classify_coverage(
    switch: Switch, analyzer: SwitchAnalyzer, report: VerificationReport
) -> None:
    """Every physical arrival must match something in every classify table.

    Classify tables are identified by their rule cookies (``classify:*``),
    which also makes the check work for multi-service pipelines with one
    relocated classify table per service block.  The check propagates 'any
    packet, any physical port' seeds through the pipeline symbolically: a
    classify table that can be reached by a class matching none of its
    entries (a table miss = silent drop of an in-flight traversal) fails.
    """
    classify_tables = {
        table_id
        for table_id, entry in switch.iter_entries()
        if entry.cookie.startswith("classify:")
    }
    if not classify_tables:
        report.error("no classify table installed")
        return
    result = analyzer.analyze(analyzer.free_seeds(include_local=False))
    for table_id in sorted(classify_tables):
        missed = result.misses.get(table_id)
        if missed:
            report.error(
                f"classify table {table_id} misses bounce coverage for "
                f"arrivals like {missed[0].describe()}"
            )


def verify_engine(engine) -> list[VerificationReport]:
    """Verify every switch of a :class:`~repro.core.engine.CompiledEngine`."""
    engine.install()
    return [verify_switch(switch) for switch in engine.switches.values()]
