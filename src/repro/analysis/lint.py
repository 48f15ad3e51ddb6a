"""Pluggable lint framework over the symbolic pipeline engine.

Each check is a :func:`lint_rule`-decorated generator that inspects a
:class:`LintContext` (compiled switches + topology + optional service) and
yields :class:`LintFinding` objects.  Rules are identified by stable ids
(``SS001`` ...) so CI consumers and suppression lists survive refactors; see
``docs/LINTING.md`` for the catalogue and the paper property each encodes.

The built-in rules come in two flavours:

* **structural** rules (dangling gotos, missing groups, ambiguous
  same-priority overlaps) read the rule sets directly;
* **semantic** rules (dead rules, shadowing, table-miss reachability, sweep
  coverage) query the header-space engine in
  :mod:`repro.analysis.symbolic` — per-switch "any arrival" propagation for
  local reachability and whole-network trigger walks for the paper's
  DFS-covers-all-edges property.

Use :func:`run_lint` on a compiled switch set, or ``smartsouth lint`` from
the command line.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping

from repro.analysis.symbolic import (
    DEFAULT_WALK_BUDGET,
    FieldWidths,
    SwitchAnalyzer,
    TransferMemo,
    WalkResult,
    local_shape,
    walk_network,
)
from repro.net.topology import Topology
from repro.openflow.actions import GroupAction, SetField
from repro.openflow.flowtable import FlowEntry
from repro.openflow.switch import Switch

if TYPE_CHECKING:
    from repro.core.engine import CompiledEngine

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_INFO = "info"
_SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING, SEVERITY_INFO)

#: Fields a service writes purely for the controller's benefit (report
#: payload): never matched by any rule, so SS004 must not flag them.
REPORT_ONLY_FIELDS = frozenset(
    {"bh", "report_in", "report_port", "snapdone", "crit", "opt_val", "opt_id"}
)
#: Prefixes of report-only field families (snapshot record slots).
REPORT_ONLY_PREFIXES = ("rec",)


# --------------------------------------------------------------------- #
# Findings, rules, registry                                             #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class LintFinding:
    """One lint diagnosis, ready for text or JSON rendering."""

    rule: str
    name: str
    severity: str
    message: str
    node: int | None = None
    table: int | None = None
    cookie: str | None = None
    fix_hint: str | None = None

    def to_dict(self) -> dict:
        out = {
            "rule": self.rule,
            "name": self.name,
            "severity": self.severity,
            "message": self.message,
        }
        for key in ("node", "table", "cookie", "fix_hint"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def format(self) -> str:
        where = []
        if self.node is not None:
            where.append(f"node {self.node}")
        if self.table is not None:
            where.append(f"table {self.table}")
        if self.cookie:
            where.append(repr(self.cookie))
        location = " ".join(where)
        line = f"{self.severity}[{self.rule}] {location}: {self.message}"
        if self.fix_hint:
            line += f"\n    hint: {self.fix_hint}"
        return line


@dataclass(frozen=True)
class LintRule:
    """A registered check: metadata plus the generator implementing it."""

    rule_id: str
    name: str
    severity: str
    doc: str
    fix_hint: str
    func: Callable[["LintContext", "LintRule"], Iterator[LintFinding]]

    def finding(self, message: str, **location) -> LintFinding:
        """Build a finding carrying this rule's id/name/severity/hint."""
        return LintFinding(
            rule=self.rule_id,
            name=self.name,
            severity=self.severity,
            message=message,
            fix_hint=location.pop("fix_hint", self.fix_hint),
            **location,
        )


#: rule id -> LintRule, in registration order.
LINT_RULES: dict[str, LintRule] = {}


def lint_rule(
    rule_id: str, name: str, severity: str, fix_hint: str = ""
) -> Callable:
    """Register a lint check.

    The decorated generator receives ``(ctx, rule)`` and yields findings —
    usually via ``rule.finding(...)`` so id/severity stay consistent.
    Third-party rules register the same way; ids outside the built-in
    ``SS``-prefix namespace are reserved for extensions.
    """
    if severity not in _SEVERITIES:
        raise ValueError(f"unknown severity {severity!r}")

    def register(func):
        if rule_id in LINT_RULES:
            raise ValueError(f"duplicate lint rule id {rule_id!r}")
        # Import-time registration, frozen before use (an allowed RACE001
        # site in tests/test_source_hazards.py).
        LINT_RULES[rule_id] = LintRule(
            rule_id=rule_id,
            name=name,
            severity=severity,
            doc=(func.__doc__ or "").strip(),
            fix_hint=fix_hint,
            func=func,
        )
        return func

    return register


@dataclass(frozen=True)
class LintConfig:
    """Knobs for one lint run (CLI flags map straight onto these)."""

    disable: frozenset[str] = frozenset()
    severity_overrides: Mapping[str, str] = dataclass_field(
        default_factory=dict
    )
    max_states: int = DEFAULT_WALK_BUDGET
    #: Roots to walk from; None walks from every node.
    roots: tuple[int, ...] | None = None


# --------------------------------------------------------------------- #
# Per-service trigger classes                                           #
# --------------------------------------------------------------------- #


def trigger_classes(service) -> tuple[list[dict[str, int | None]], bool]:
    """The symbolic trigger-packet classes to walk for *service*, plus
    whether the failure-free traversal must sweep every physical port.

    A ``None`` field value frees the field (the walk then covers every
    concrete value at once).  Services that legitimately stop early get a
    False flag: anycast delivers at the first member, and critical reports
    its verdict at the first second-child return without finishing the
    sweep.  (Chunked snapshot is topology-dependent — see
    :meth:`LintContext.expects_full_sweep`.)
    """
    from repro.core.fields import FIELD_GID, FIELD_RECCAP, FIELD_REPEAT, FIELD_TTL
    from repro.core.services.blackhole import REPEAT_PROBE, REPEAT_VERIFY

    name = getattr(service, "name", "")
    if name == "anycast":
        gids = sorted(getattr(service, "groups", {}))
        unserved = (max(gids) + 1) if gids else 1
        return [{FIELD_GID: g} for g in gids] + [{FIELD_GID: unserved}], False
    if name == "priocast":
        gids = sorted(getattr(service, "priorities", {}))
        unserved = (max(gids) + 1) if gids else 1
        return [{FIELD_GID: g} for g in gids] + [{FIELD_GID: unserved}], True
    if name == "blackhole":
        return [{FIELD_REPEAT: REPEAT_PROBE}, {FIELD_REPEAT: REPEAT_VERIFY}], True
    if name == "blackhole_ttl":
        return [{FIELD_TTL: None}], True
    if name == "snapshot_chunked":
        return [{FIELD_RECCAP: getattr(service, "max_records", 16)}], True
    if name == "critical":
        return [{}], False
    if name in ("plain", "snapshot"):
        return [{}], True
    # Unknown service: walk a bare trigger but make no sweep claim.
    return [{}], False


# --------------------------------------------------------------------- #
# Context: shared, lazily-computed analyses                             #
# --------------------------------------------------------------------- #


class LintContext:
    """Everything rules may inspect, with the expensive symbolic analyses
    computed once and shared across rules.

    The local analyses (reachable entries, shadowed entries, ambiguous
    overlaps) run once per switch *shape* (:func:`local_shape`): a node's
    program is its degree's program with only its own tag fields and label
    contents changed, so every node of a shape gets the same facts, which
    map back to its own entries by ``(table_id, index)``.
    """

    def __init__(
        self,
        switches: Mapping[int, Switch],
        topology: Topology,
        service=None,
        config: LintConfig | None = None,
    ) -> None:
        self.switches = dict(switches)
        self.topology = topology
        self.service = service
        self.config = config or LintConfig()
        self.widths = FieldWidths.for_switches(self.switches.values())
        self._local_analyzers: dict[int, SwitchAnalyzer] = {}
        self._shapes: dict[int, tuple] = {}
        #: shape key -> fact, one dict per local analysis.
        self._reached: dict[tuple, frozenset[tuple[int, int]]] = {}
        self._shadows: dict[tuple, list[tuple[int, int, list[str]]]] = {}
        self._overlaps: dict[tuple, list[tuple[int, int, int, int]]] = {}
        self._walks: dict[int, list[WalkResult]] | None = None
        self.transfers = TransferMemo()

    def nodes(self) -> list[int]:
        return sorted(self.switches)

    def analyzer(self, node: int) -> SwitchAnalyzer:
        """All-buckets analyzer (over-approximates every failure pattern)."""
        if node not in self._local_analyzers:
            self._local_analyzers[node] = SwitchAnalyzer(
                self.switches[node],
                self.widths,
                ff_first_only=False,
                project_unmatched=True,
            )
        return self._local_analyzers[node]

    def _per_shape(self, memo: dict, node: int, analyze: Callable):
        """*analyze* of *node*'s analyzer, run for the first node of each
        shape and shared by the rest."""
        shape = self._shapes.get(node)
        if shape is None:
            shape = self._shapes[node] = local_shape(
                self.switches[node], self.widths
            )
        if shape not in memo:
            memo[shape] = analyze(self.analyzer(node))
        return memo[shape]

    def reached(self, node: int) -> frozenset[tuple[int, int]]:
        """``(table_id, index)`` of every entry some arriving packet class
        reaches ('any arrival' propagation from free seeds)."""
        return self._per_shape(
            self._reached, node, lambda analyzer: frozenset(analyzer.analyze().hits)
        )

    def shadows(self, node: int) -> list[tuple[int, int, FlowEntry, list[str]]]:
        """:meth:`SwitchAnalyzer.shadowed_entries` of *node*."""
        shadows = self._per_shape(
            self._shadows,
            node,
            lambda analyzer: [
                (table_id, index, covering)
                for table_id, index, _entry, covering in analyzer.shadowed_entries()
            ],
        )
        entries = self.analyzer(node).entries
        return [
            (table_id, index, entries[table_id][index][1], covering)
            for table_id, index, covering in shadows
        ]

    def overlaps(self, node: int) -> list[tuple[int, int, FlowEntry, FlowEntry]]:
        """:meth:`SwitchAnalyzer.ambiguous_overlaps` of *node*."""

        def by_index(analyzer: SwitchAnalyzer) -> list[tuple[int, int, int, int]]:
            def index(table_id: int, entry: FlowEntry) -> int:
                return next(
                    i for i, own in analyzer.entries[table_id] if own is entry
                )

            return [
                (table_id, priority, index(table_id, a), index(table_id, b))
                for table_id, priority, a, b in analyzer.ambiguous_overlaps()
            ]

        pairs = self._per_shape(self._overlaps, node, by_index)
        entries = self.analyzer(node).entries
        return [
            (table_id, priority, entries[table_id][a][1], entries[table_id][b][1])
            for table_id, priority, a, b in pairs
        ]

    def walk_roots(self) -> list[int]:
        if self.config.roots is not None:
            return [r for r in self.config.roots if r in self.switches]
        return self.nodes()

    def walks(self) -> dict[int, list[WalkResult]]:
        """root -> walk results, one per trigger class of the service.

        Walks stay per root, since their cubes carry every node's tags, but
        their steps go through :attr:`transfers`, shared by all of them."""
        if self._walks is None:
            analyzers = {
                node: SwitchAnalyzer(sw, self.widths, ff_first_only=True)
                for node, sw in self.switches.items()
            }
            classes, _full = trigger_classes(self.service)
            self._walks = {
                root: [
                    walk_network(
                        self.switches, self.topology, root,
                        trigger_fields=dict(fields), widths=self.widths,
                        max_states=self.config.max_states,
                        analyzers=analyzers, memo=self.transfers,
                    )
                    for fields in classes
                ]
                for root in self.walk_roots()
            }
        return self._walks

    @property
    def expects_full_sweep(self) -> bool:
        if getattr(self.service, "name", "") == "snapshot_chunked":
            # The traversal pauses in-network when the record budget empties
            # and the controller re-injects a continuation; a single walk
            # only proves full coverage when one chunk spans the whole
            # traversal.  Every DFS message pushes at most two records and a
            # failure-free DFS sends 2·|E| messages, so 4·|E| + 2 records
            # always suffice.
            budget = getattr(self.service, "max_records", 0)
            return budget > 4 * self.topology.num_edges + 2
        return trigger_classes(self.service)[1]


# --------------------------------------------------------------------- #
# Built-in rules                                                        #
# --------------------------------------------------------------------- #


@lint_rule(
    "SS001",
    "dead-rule",
    SEVERITY_WARNING,
    fix_hint="drop the entry from the emitter, or relax the guards that "
    "make its match unreachable",
)
def check_dead_rules(ctx: LintContext, rule: LintRule):
    """Entry unreachable under *any* arriving packet (any port, any header,
    any failure pattern).  A dead rule wastes TCAM space — the paper's
    O(Δ²) table-size budget — and usually marks an emitter bug."""
    for node in ctx.nodes():
        reached = ctx.reached(node)
        for table_id, indexed in ctx.analyzer(node).entries.items():
            for index, entry in indexed:
                if (table_id, index) not in reached:
                    yield rule.finding(
                        "no packet class can reach this entry",
                        node=node,
                        table=table_id,
                        cookie=entry.cookie or f"entry[{index}]",
                    )


@lint_rule(
    "SS002",
    "shadow-rule",
    SEVERITY_ERROR,
    fix_hint="raise the entry's priority or make the covering matches "
    "disjoint from it",
)
def check_shadowed_rules(ctx: LintContext, rule: LintRule):
    """Entry fully covered by strictly-higher-priority entries in its table:
    it can never fire, and unlike a dead rule its body silently disagrees
    with what the table actually does."""
    for node in ctx.nodes():
        for table_id, index, entry, covering in ctx.shadows(node):
            names = ", ".join(sorted({c or "<anonymous>" for c in covering}))
            yield rule.finding(
                f"match fully covered by higher-priority entries ({names})",
                node=node,
                table=table_id,
                cookie=entry.cookie or f"entry[{index}]",
            )


@lint_rule(
    "SS003",
    "table-miss",
    SEVERITY_ERROR,
    fix_hint="add a catch-all (table-miss) entry or widen the rules so the "
    "service's packet class is fully covered",
)
def check_table_miss(ctx: LintContext, rule: LintRule):
    """A reachable service packet class falls off a table (table miss =
    drop in this pipeline): the in-network traversal silently dies, which
    breaks the paper's termination guarantee."""
    if ctx.service is None:
        return
    seen: set[tuple[int, int, tuple]] = set()
    for root, walks in ctx.walks().items():
        for walk in walks:
            for node, table_id, cube in walk.misses:
                token = (node, table_id, cube.key())
                if token in seen:
                    continue
                seen.add(token)
                yield rule.finding(
                    f"trigger from root {root} reaches a table miss "
                    f"(witness {cube.describe()})",
                    node=node,
                    table=table_id,
                )


@lint_rule(
    "SS004",
    "set-unmatched-field",
    SEVERITY_WARNING,
    fix_hint="remove the write, or list the field in "
    "repro.analysis.lint.REPORT_ONLY_FIELDS if the controller consumes it",
)
def check_set_unmatched_field(ctx: LintContext, rule: LintRule):
    """A SetField writes a header field no rule *anywhere in the network*
    ever matches: either the write is vestigial or a matching rule is
    missing.  The matched set is network-wide because SmartSouth protocols
    are distributed — e.g. only the root's verdict rules read the
    ``toparent`` flag every other node writes.  Fields used as
    controller-report payload are expected to be write-only and are
    allowlisted."""
    matched: set[str] = set()
    for switch in ctx.switches.values():
        for _table_id, entry in switch.iter_entries():
            matched.update(entry.match.field_names())
    for node in ctx.nodes():
        switch = ctx.switches[node]
        written: dict[str, str] = {}
        # A group's writes are recorded under the first entry reaching it;
        # scanning it once also ends a chaining loop (SS007 reports it).
        scanned: set[int] = set()

        def scan(actions, cookie):
            for action in actions:
                if isinstance(action, SetField):
                    written.setdefault(action.name, cookie)
                elif isinstance(action, GroupAction):
                    gid = action.group_id
                    if gid in switch.groups and gid not in scanned:
                        scanned.add(gid)
                        for bucket in switch.groups.get(gid).buckets:
                            scan(bucket.actions, cookie)

        for _table_id, entry in switch.iter_entries():
            scan(entry.instructions.apply_actions, entry.cookie)
        for name in sorted(written):
            if name in matched or name in REPORT_ONLY_FIELDS:
                continue
            if name.startswith(REPORT_ONLY_PREFIXES):
                continue
            yield rule.finding(
                f"field {name!r} is written but never matched on this switch",
                node=node,
                cookie=written[name],
            )


@lint_rule(
    "SS005",
    "sweep-coverage",
    SEVERITY_ERROR,
    fix_hint="check the sweep rows for the missing port's s-value and the "
    "classify advance rules feeding them",
)
def check_sweep_coverage(ctx: LintContext, rule: LintRule):
    """The paper's DFS-covers-all-edges property: with all links up, a
    trigger from any root must sweep (emit on) every physical port of every
    node.  Proven symbolically — no simulator run involved."""
    if ctx.service is None or not ctx.expects_full_sweep:
        return
    for root, walks in ctx.walks().items():
        swept = set().union(*(walk.swept for walk in walks))
        exhausted = any(walk.exhausted for walk in walks)
        missing = [
            port for port in walks[0].unswept_ports(ctx.topology) if port not in swept
        ]
        if not missing:
            continue
        ports = ", ".join(f"{node}:{port}" for node, port in missing[:8])
        if len(missing) > 8:
            ports += f", ... ({len(missing)} total)"
        if exhausted:
            yield replace(
                rule.finding(
                    f"walk from root {root} hit the state budget before "
                    f"sweeping ports {ports}",
                    node=root,
                ),
                severity=SEVERITY_WARNING,
            )
        else:
            yield rule.finding(
                f"trigger from root {root} never sweeps ports {ports}",
                node=root,
            )


@lint_rule(
    "SS006",
    "dangling-goto",
    SEVERITY_ERROR,
    fix_hint="point the goto at an existing later table (OpenFlow gotos "
    "must move strictly forward)",
)
def check_dangling_goto(ctx: LintContext, rule: LintRule):
    """A goto instruction targets a missing table or does not move strictly
    forward — the pipeline would drop or loop at runtime."""
    for node in ctx.nodes():
        switch = ctx.switches[node]
        for table_id, entry in switch.iter_entries():
            goto = entry.instructions.goto_table
            if goto is None:
                continue
            if goto not in switch.tables:
                yield rule.finding(
                    f"goto targets missing table {goto}",
                    node=node,
                    table=table_id,
                    cookie=entry.cookie or None,
                )
            elif goto <= table_id:
                yield rule.finding(
                    f"goto targets table {goto}, not strictly after "
                    f"table {table_id}",
                    node=node,
                    table=table_id,
                    cookie=entry.cookie or None,
                )


@lint_rule(
    "SS007",
    "missing-group",
    SEVERITY_ERROR,
    fix_hint="install the group before referencing it, or drop the stale "
    "GroupAction or the bucket that chains back",
)
def check_missing_group(ctx: LintContext, rule: LintRule):
    """A GroupAction references a group id the switch does not have, or
    chains back into a group already on its own chain (also checks actions
    nested in other groups' buckets).  ``GroupTable.add`` accepts such a
    loop; only execution refuses it."""
    for node in ctx.nodes():
        switch = ctx.switches[node]

        def scan(actions, table_id, cookie, chain=frozenset()):
            for action in actions:
                if isinstance(action, GroupAction):
                    gid = action.group_id
                    if gid in chain or gid not in switch.groups:
                        problem = (
                            "chains back to itself (a loop)" if gid in chain
                            else "is not installed"
                        )
                        yield rule.finding(
                            f"group {gid} {problem}",
                            node=node,
                            table=table_id,
                            cookie=cookie or None,
                        )
                    else:
                        for bucket in switch.groups.get(gid).buckets:
                            yield from scan(
                                bucket.actions, table_id, cookie, chain | {gid}
                            )

        for table_id, entry in switch.iter_entries():
            yield from scan(
                entry.instructions.apply_actions, table_id, entry.cookie
            )


@lint_rule(
    "SS008",
    "ambiguous-overlap",
    SEVERITY_ERROR,
    fix_hint="separate the priorities or make the matches disjoint; "
    "OpenFlow leaves overlapping same-priority behaviour undefined",
)
def check_ambiguous_overlap(ctx: LintContext, rule: LintRule):
    """Two same-priority entries in one table overlap but do different
    things: which one fires is undefined in OpenFlow (the simulator's
    insertion-order tiebreak would hide the bug)."""
    for node in ctx.nodes():
        for table_id, priority, a, b in ctx.overlaps(node):
            yield rule.finding(
                f"overlaps {b.cookie or '<anonymous>'!r} at the same "
                f"priority {priority} with different actions",
                node=node,
                table=table_id,
                cookie=a.cookie or "<anonymous>",
            )


# --------------------------------------------------------------------- #
# Runner + report                                                       #
# --------------------------------------------------------------------- #


@dataclass
class LintReport:
    """All findings of one run plus enough context to render them."""

    findings: list[LintFinding]
    nodes: int
    rules_run: list[str]
    service: str | None = None
    notes: list[str] = dataclass_field(default_factory=list)

    def by_severity(self, severity: str) -> list[LintFinding]:
        return [f for f in self.findings if f.severity == severity]

    @property
    def errors(self) -> list[LintFinding]:
        return self.by_severity(SEVERITY_ERROR)

    @property
    def warnings(self) -> list[LintFinding]:
        return self.by_severity(SEVERITY_WARNING)

    @property
    def exit_code(self) -> int:
        """0 clean, 1 errors, 2 warnings only (mirrors ``verify --json``)."""
        if self.errors:
            return 1
        if self.warnings:
            return 2
        return 0

    def summary(self) -> str:
        return (
            f"lint: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s) across {self.nodes} node(s)"
        )

    def to_json(self) -> dict:
        return {
            "service": self.service,
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "info": len(self.by_severity(SEVERITY_INFO)),
                "nodes": self.nodes,
                "rules_run": self.rules_run,
            },
            "notes": self.notes,
            "findings": [f.to_dict() for f in self.findings],
        }

    def format_text(self) -> str:
        lines = []
        for severity in _SEVERITIES:
            lines.extend(f.format() for f in self.by_severity(severity))
        lines.extend(f"note: {note}" for note in self.notes)
        lines.append(self.summary())
        return "\n".join(lines)


def run_lint(
    switches: Mapping[int, Switch],
    topology: Topology,
    service=None,
    config: LintConfig | None = None,
    rules: Iterable[str] | None = None,
) -> LintReport:
    """Run the registered lint rules over a compiled switch set.

    *service* enables the walk-based rules (SS003, SS005); without it they
    are skipped and a note records that.  *rules* restricts the run to the
    given ids; *config* disables rules and overrides severities.
    """
    config = config or LintConfig()
    ctx = LintContext(switches, topology, service=service, config=config)
    selected = [
        LINT_RULES[rule_id]
        for rule_id in (rules if rules is not None else LINT_RULES)
        if rule_id in LINT_RULES and rule_id not in config.disable
    ]
    findings: list[LintFinding] = []
    notes: list[str] = []
    walk_rules = {"SS003", "SS005"}
    for rule in selected:
        if service is None and rule.rule_id in walk_rules:
            notes.append(
                f"{rule.rule_id} ({rule.name}) skipped: no service given, "
                "network walks unavailable"
            )
            continue
        for finding in rule.func(ctx, rule):
            override = config.severity_overrides.get(finding.rule)
            if override is not None and override in _SEVERITIES:
                finding = replace(finding, severity=override)
            findings.append(finding)
    order = {SEVERITY_ERROR: 0, SEVERITY_WARNING: 1, SEVERITY_INFO: 2}
    findings.sort(
        key=lambda f: (order[f.severity], f.rule, f.node or -1, f.table or -1)
    )
    return LintReport(
        findings=findings,
        nodes=len(ctx.switches),
        rules_run=[rule.rule_id for rule in selected],
        service=getattr(service, "name", None) if service else None,
        notes=notes,
    )


def lint_engine(
    engine: "CompiledEngine", config: LintConfig | None = None
) -> LintReport:
    """Convenience: lint a CompiledEngine's switches (installs it first)."""
    engine.install()
    return run_lint(
        engine.switches,
        engine.network.topology,
        service=engine.service,
        config=config,
    )
