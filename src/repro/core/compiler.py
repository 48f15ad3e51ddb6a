"""Compile the SmartSouth template + service hooks into OpenFlow rules.

This module is the constructive proof of the paper's central claim: that the
whole mechanism fits in the standard OpenFlow 1.3 match-action paradigm.  For
each node the compiler emits a pipeline of flow tables and a set of groups
that realize Algorithm 1 with the service hooks of Table 1, using only:

* masked exact matches (incl. range-to-prefix expansion for priocast's
  ``opt_val < priority`` test, cf. the paper's reference [2]),
* per-port rule enumeration where OpenFlow lacks a primitive (there is no
  "copy in_port into a field" action and no field-to-field comparison — the
  snapshot ``in < cur`` test becomes O(Δ²) rules),
* set-field / push / pop / output / dec-ttl actions,
* fast-failover groups for the port sweep (one per (sweep-start, parent)
  pair — O(Δ²) groups per node, measured by the C-tablesize experiment),
* round-robin SELECT groups as smart counters,
* pipeline metadata to carry the sweep start port between tables.

Pipeline layout (table ids)::

    0  DISPATCH       service pre-dispatch & per-arrival rules (anycast gid
                      test, TTL check/decrement); default: goto CLASSIFY
    1  CLASSIFY       Algorithm 1 state decode: trigger / first visit /
                      advance / bounce; writes metadata.sweep; may goto BID
    2  BID            priocast phase-1 bidding (range-expanded opt_val test)
    3  SWEEP          metadata.sweep × parent → fast-failover sweep group
                      (root rows also match the Finish-variant fields)
    4  VERIFY_SWEEP   blackhole phase B: table-driven sweep + counter fetch
    5  VERIFY_CHECK   blackhole phase B: fetched-value test, report on 1

How a node's program is produced (DESIGN.md, "The compiler")
-------------------------------------------------------------

A program is *assembled*, not derived rule by rule.  :class:`Codegen` makes
every loop-invariant piece once — the per-node field tests and per-port hook
action tuples ("atoms"), and per degree the row plan of the big tables
(:func:`sweep_rows`, the blackhole verify tables), shared by every node of
that degree through ``Network.compile_plans``.  A rule is then declared,
not built: each table is a :class:`~repro.openflow.deferred.DeferredTable`
that gets, per rule, its signature's key, its priority and a recipe that
makes its match, instructions and cookie from the atoms when something
first reads the row.  The tables and groups reach the switch in a single
:meth:`~repro.openflow.switch.Switch.load_program`; the fast path builds a
row on its key's first hit, every other reader materialises the table, and
the sweep's fast-failover groups go deferred too, built by the group table
on first read.  A switch without a fast path gets
:class:`~repro.openflow.deferred.EagerTable` s instead, the same recipes
run at once: each of its readers reads whole tables anyway.

Known fidelity limits (documented in DESIGN.md):

* blackhole phase B selects ports in tables (a counter fetch must be
  followed by a match, which buckets cannot do), so it has no fast-failover;
  the paper itself assumes no failures during execution;
* the packet-loss monitor and the load-audit service are interpreted-only.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from repro.core.fields import (
    FIELD_FIRST_PORT,
    FIELD_GID,
    FIELD_OPT_ID,
    FIELD_OPT_VAL,
    FIELD_RECCAP,
    FIELD_REPEAT,
    FIELD_SCRATCH,
    FIELD_SNAP_DONE,
    FIELD_START,
    FIELD_SVC,
    FIELD_TO_PARENT,
    FIELD_TTL,
    OPT_VAL_BITS,
    cur_field,
    par_field,
)
from repro.core.services.anycast import AnycastService, PriocastService
from repro.core.services.base import PlainTraversalService, Service
from repro.core.services.blackhole import (
    BH_DONE,
    BH_FOUND,
    FIELD_BH,
    FIELD_REPORT_IN,
    FIELD_REPORT_PORT,
    REPEAT_ECHO,
    REPEAT_ECHO_BACK,
    REPEAT_PROBE,
    REPEAT_VERIFY,
    BlackholeService,
    BlackholeTtlService,
)
from repro.core.services.critical import (
    CRITICAL,
    FIELD_CRITICAL,
    NOT_CRITICAL,
    CriticalNodeService,
)
from repro.core.services.snapshot import ChunkedSnapshotService, SnapshotService
from repro.core.smart_counter import counter_group, counter_writes
from repro.net.simulator import Network
from repro.openflow.actions import (
    Action,
    DecTtl,
    GroupAction,
    Instructions,
    Output,
    PopLabel,
    PushLabel,
    SetField,
)
from repro.openflow.deferred import DeferredTable, EagerTable, RowParts
from repro.openflow.group import DeferredFailoverGroup, Group
from repro.openflow.match import FieldTest, Match, encode_range
from repro.openflow.packet import CONTROLLER_PORT, IN_PORT, LOCAL_PORT
from repro.openflow.switch import Switch

# Table ids.
T_DISPATCH = 0
T_CLASSIFY = 1
T_BID = 2
T_SWEEP = 3
T_VERIFY_SWEEP = 4
T_VERIFY_CHECK = 5

# Metadata register layout: bits 0..7 sweep start port, bits 8..15 the
# port being verified (blackhole phase B), bits 16..17 the send kind.
META_SWEEP_MASK = 0x0000FF
META_PORT_SHIFT = 8
META_PORT_MASK = 0x00FF00
META_KIND_SHIFT = 16
META_KIND_MASK = 0x030000
KIND_PROBE = 0
KIND_BOUNCE = 1
KIND_PARENT = 2

# Group-id layout (per switch).
COUNTER_GROUP_BASE = 1  # counter for port p has id COUNTER_GROUP_BASE + p
SWEEP_GROUP_BASE = 1000


def meta_sweep(s: int) -> tuple[int, int]:
    """write_metadata payload selecting sweep start *s*."""
    return (s, META_SWEEP_MASK)


def meta_verify(port: int, kind: int) -> tuple[int, int]:
    """write_metadata payload for the verify-check table."""
    value = (port << META_PORT_SHIFT) | (kind << META_KIND_SHIFT)
    return (value, META_PORT_MASK | META_KIND_MASK)


def match_meta_sweep(s: int, **exact: int) -> Match:
    return Match([FieldTest("metadata", s, META_SWEEP_MASK)], **exact)


class FinishVariant:
    """One root-finish behaviour: extra match fields select it, and its
    actions become the terminal bucket of the root's sweep groups."""

    def __init__(
        self, match: dict[str, int], actions: Sequence[Action], priority: int = 0
    ) -> None:
        self.match = dict(match)
        self.actions = tuple(actions)
        self.priority = priority


#: The plain "return the packet where it came from" action tuple.
BOUNCE: tuple[Action, ...] = (Output(IN_PORT),)


class Codegen:
    """Per-node emission context shared by the service code generators.

    A node's program is *assembled* here, not installed: rules collect in
    per-table :class:`~repro.openflow.deferred.DeferredTable` s (or
    :class:`~repro.openflow.deferred.EagerTable` s) and groups
    in one list (both owned by the caller, so several service blocks can
    fill the same program), and the whole program reaches the switch in one
    :meth:`~repro.openflow.switch.Switch.load_program`.  The built-in
    generators declare each rule by its key and a recipe (:meth:`rows`);
    :meth:`add` and :meth:`install` take a ready-made match.

    The context also holds the **atoms** rules are assembled from — every
    :class:`FieldTest` and per-port action tuple a node's O(Δ²) rules and
    O(Δ³) buckets keep reusing is made (and validated) once:

    * per node: ``par_is[p]`` / ``cur_is[c]`` (tests on this node's parent
      and current-port tags) and ``forward[q]`` (mark port *q* current and
      send there);
    * per degree, shared by every node of that degree through *plans*:
      ``in_port_is[p]``, ``sweep_is[s]`` (the metadata sweep-start test)
      and whatever row plans the generators ask :meth:`shared` for.

    ``table_base`` and ``group_base`` relocate a service's whole pipeline
    block, so several services can share one switch (multi-service install,
    see :func:`compile_services`): logical table ids T_* become
    ``table_base + T_*`` and group ids are offset likewise.
    """

    def __init__(
        self,
        node: int,
        deg: int,
        service: Service,
        tables: dict[int, DeferredTable | EagerTable],
        groups: list[Group | DeferredFailoverGroup],
        plans: dict,
        table_base: int = 0,
        group_base: int = 0,
    ) -> None:
        self.node = node
        self.deg = deg
        self.service = service
        self.tables = tables
        self.groups = groups
        self.plans = plans
        self.table_base = table_base
        self.group_base = group_base
        self.par = par_field(node)
        self.cur = cur_field(node)
        self._next_group = group_base + SWEEP_GROUP_BASE
        self.par_is = [FieldTest(self.par, p) for p in range(deg + 1)]
        self.cur_is = [FieldTest(self.cur, c) for c in range(deg + 1)]
        self.forward: list[tuple[Action, ...]] = [()] + [
            (SetField(self.cur, q), Output(q)) for q in range(1, deg + 1)
        ]
        self.in_port_is: list[FieldTest] = self.shared(
            "in_port", lambda: [FieldTest("in_port", p) for p in range(deg + 1)]
        )
        self.sweep_is: list[FieldTest] = self.shared(
            "sweep_is",
            lambda: [
                FieldTest("metadata", s, META_SWEEP_MASK) for s in range(deg + 2)
            ],
        )

    def shared(self, key, build: Callable[[], Any]):
        """The node-independent piece *key*: built by the first node of this
        degree and block placement, reused by every later one."""
        key = (key, self.deg, self.table_base, self.group_base)
        try:
            return self.plans[key]
        except KeyError:
            piece = self.plans[key] = build()
            return piece

    def counter_group_id(self, port: int) -> int:
        """The (relocated) smart-counter group id for *port*."""
        return self.group_base + COUNTER_GROUP_BASE + port

    def add_group(self, group: Group) -> None:
        self.groups.append(group)

    def instructions(
        self,
        actions: Iterable[Action] = (),
        goto: int | None = None,
        meta: tuple[int, int] | None = None,
    ) -> Instructions:
        """Instructions with the logical *goto* table id relocated."""
        return Instructions(
            tuple(actions),
            None if goto is None else self.table_base + goto,
            meta,
        )

    def rows(self, table: int) -> DeferredTable | EagerTable:
        """The rows of logical *table* (a table left without rows creates no
        table); *tables* makes the kind the switch reads (see
        :func:`_program_tables`)."""
        return self.tables[self.table_base + table]

    def add(
        self,
        table: int,
        match: Match,
        instructions: Instructions,
        priority: int = 0,
        cookie: str = "",
    ) -> None:
        """Append one rule (ready-made match and instructions) to logical
        *table*."""
        self.rows(table).add_rule(match, instructions, priority, cookie)

    def install(
        self,
        table: int,
        match: Match,
        actions: Iterable[Action] = (),
        goto: int | None = None,
        meta: tuple[int, int] | None = None,
        priority: int = 0,
        cookie: str = "",
    ) -> None:
        self.add(
            table, match, self.instructions(actions, goto, meta), priority, cookie
        )


class SweepRow(NamedTuple):
    """One row of the sweep table, as far as the degree alone decides it."""

    #: Sweep start port (the metadata value matched).
    s: int
    #: Parent port matched; 0 marks a root row.
    p: int
    #: Finish-variant index of a root row (0 on other rows).
    variant: int
    #: Ports the row's fast-failover group probes, in bucket order; empty
    #: when nothing is left to probe and the row acts without a group.
    ports: tuple[int, ...]
    cookie: str
    #: The row's group id and its (shared) "apply that group" instructions;
    #: 0 and None on a row without a group.
    gid: int
    instructions: Instructions | None


def sweep_rows(
    deg: int, variants: int, first_gid: int
) -> tuple[list[SweepRow], int]:
    """The sweep table's row plan for a node of degree *deg* whose root has
    *variants* finish variants, in emission order; group ids count up from
    *first_gid*, and the first id the plan leaves free is returned with it.

    Start *s* probes ports ``max(s, 1)..deg`` in order, skipping the
    parent; a root row exists per finish variant (a variant index in the
    cookie keeps per-entry diagnostics unambiguous when there are several,
    e.g. priocast's phase switch).  With no port left — ``s = deg + 1``,
    or any start on an isolated node — the row finishes (root) or returns
    to the parent through plain table actions.
    """
    rows: list[SweepRow] = []
    gid = first_gid

    def row(s: int, p: int, variant: int, ports: tuple[int, ...], cookie: str):
        nonlocal gid
        if ports:
            apply_group = Instructions((GroupAction(gid),))
            rows.append(SweepRow(s, p, variant, ports, cookie, gid, apply_group))
            gid += 1
        else:
            rows.append(SweepRow(s, p, variant, (), cookie, 0, None))

    for s in range(deg + 2):
        ports = tuple(range(max(s, 1), deg + 1))
        kind = "root" if ports else "root_finish"
        for index in range(variants):
            suffix = f":v{index}" if variants > 1 else ""
            row(s, 0, index, ports, f"sweep:{kind}:s{s}{suffix}")
        if s >= 1:
            for p in range(1, deg + 1):
                ports = tuple(q for q in range(s, deg + 1) if q != p)
                kind = "sweep" if ports else "sweep:parent"
                row(s, p, 0, ports, f"{kind}:s{s}:p{p}")
    return rows, gid


class ServiceCodegen:
    """Default code generation: the plain traversal.

    Subclasses override the hook-action providers (mirroring Table 1's
    columns) or whole emission phases when the service changes the template
    control flow (blackhole's echo protocol).  Providers are pure functions
    of their compile-time-constant arguments: the emitter asks each one
    once per port and node and reuses the answer in every rule and bucket
    that needs it.
    """

    #: Does this service route first visits through the BID table?
    uses_bid_table = False

    def __init__(self, service: Service, node: int, deg: int) -> None:
        self.service = service
        self.node = node
        self.deg = deg
        self._cg: Codegen | None = None

    def bind(self, cg: Codegen) -> None:
        """Attach the emission context (needed by providers that allocate
        relocated group ids, e.g. the blackhole counters)."""
        self._cg = cg

    # -- hook-action providers (all arguments are compile-time constants) --

    def trigger_actions(self) -> list[Action]:
        return []

    def first_visit_actions(self, in_port: int) -> list[Action]:
        return []

    def advance_actions(self, cur: int, root: bool) -> list[Action]:
        """Visit_from_cur actions; ``root`` selects the par=0 rule variant."""
        return []

    def rootfirst_actions(self, out_port: int) -> list[Action]:
        """Actions of the root's very first send (par=0 and cur=0)."""
        return []

    def send_next_actions(self, out_port: int) -> list[Action]:
        return []

    def send_parent_actions(self, par: int) -> list[Action]:
        return []

    def finish_variants(self) -> list[FinishVariant]:
        return [FinishVariant({}, [Output(self.service.report_destination)])]

    # -- emission phases ---------------------------------------------------

    def emit_dispatch(self, cg: Codegen) -> None:
        """T_DISPATCH: default is a bare goto CLASSIFY."""
        cg.install(T_DISPATCH, Match(), goto=T_CLASSIFY, cookie="dispatch:default")

    def emit_classify(self, cg: Codegen) -> None:
        """T_CLASSIFY: the generic Algorithm 1 state decode.

        The hook providers are asked here, once per port; each rule is
        declared by its key and made from their answers when first read.
        """
        after = T_BID if self.uses_bid_table else T_SWEEP
        in_port, cur, par = cg.in_port_is, cg.cur_is, cg.par_is
        rows = cg.rows(T_CLASSIFY)
        arrival = (("in_port", None), (cg.cur, None))

        def trigger(actions) -> RowParts:
            return (
                Match(**{FIELD_START: 0}),
                cg.instructions(
                    (SetField(FIELD_START, 1), *actions), after, meta_sweep(0)
                ),
                "classify:trigger",
            )

        def first_visit(arg) -> RowParts:
            p, actions = arg
            return (
                Match((cur[0], in_port[p])),
                cg.instructions((SetField(cg.par, p), *actions), after, meta_sweep(1)),
                f"classify:first_visit:{p}",
            )

        def advance_root(arg) -> RowParts:
            c, actions = arg
            return (
                Match((cur[c], in_port[c], par[0])),
                cg.instructions(actions, T_SWEEP, meta_sweep(c + 1)),
                f"classify:advance_root:{c}",
            )

        def advance(arg) -> RowParts:
            c, actions = arg
            return (
                Match((cur[c], in_port[c])),
                cg.instructions(actions, T_SWEEP, meta_sweep(c + 1)),
                f"classify:advance:{c}",
            )

        # Trigger (start = 0): this node becomes the DFS root.
        rows.add(((FIELD_START, None),), 0, 100, trigger, self.trigger_actions())
        self.emit_classify_overrides(cg)
        # First visit (cur = 0): adopt the arrival port as parent.
        for p in range(1, self.deg + 1):
            rows.add(arrival, (p, 0), 50, first_visit, (p, self.first_visit_actions(p)))
        # Advance (in = cur): continue the sweep at cur + 1.
        root_arrival = (("in_port", None), (cg.cur, None), (cg.par, None))
        for c in range(1, self.deg + 1):
            root_actions = self.advance_actions(c, root=True)
            plain_actions = self.advance_actions(c, root=False)
            if root_actions != plain_actions:
                rows.add(root_arrival, (c, c, 0), 51, advance_root, (c, root_actions))
            rows.add(arrival, (c, c), 50, advance, (c, plain_actions))
        self.emit_bounce_rules(cg)

    def emit_classify_overrides(self, cg: Codegen) -> None:
        """Service-specific high-priority classify rules."""

    def emit_bounce_rules(self, cg: Codegen) -> None:
        """Visit_not_from_cur: default just returns the packet."""
        cg.install(
            T_CLASSIFY, Match(), actions=BOUNCE, priority=5, cookie="classify:bounce"
        )

    def emit_bid_table(self, cg: Codegen) -> None:
        """T_BID (priocast only)."""

    def emit_extra_tables(self, cg: Codegen) -> None:
        """Extra tables/groups (blackhole's counters and verify pipeline)."""

    # -- the generic sweep table and its fast-failover groups --------------

    def emit_sweep(self, cg: Codegen) -> None:
        """T_SWEEP: one fast-failover group per (sweep start, parent) row.

        Which rows exist and which ports each group lists depends on the
        degree alone (:func:`sweep_rows`, planned once per degree); what a
        bucket *does* depends on the node, and is asked of the hook
        providers once per port: ``probe[q]`` sends to port *q*,
        ``probe_root[q]`` is the root's very first send, ``parent[p]``
        returns to parent port *p*.  A row then costs its key and one
        :class:`DeferredFailoverGroup` over those tuples: a traversal runs
        few of a node's O(Δ²) rows, the table builds a row's match and entry
        only when something first reads it, and the group table a row's
        group and buckets likewise.

        Rows key on the sweep start and the parent tag; a root row also
        tests its finish variant's fields, so each variant with fields of
        its own keys under a signature of its own.
        """
        ports = range(1, self.deg + 1)
        forward = cg.forward
        probe = [()] + [
            (*self.send_next_actions(q), *forward[q]) for q in ports
        ]
        probe_root = [()] + [
            (*self.rootfirst_actions(q), *probe[q]) for q in ports
        ]
        parent = [()] + [
            (*self.send_parent_actions(p), *forward[p]) for p in ports
        ]
        finish = [
            (
                tuple(FieldTest(name, value) for name, value in variant.match.items()),
                variant.actions,
                10 + variant.priority,
            )
            for variant in self.finish_variants()
        ]
        first_gid = cg._next_group
        plan: list[SweepRow]
        plan, cg._next_group = cg.shared(
            ("sweep", len(finish), first_gid),
            lambda: sweep_rows(self.deg, len(finish), first_gid),
        )
        sweep_is, par_is = cg.sweep_is, cg.par_is

        def sweep_row(row: SweepRow) -> RowParts:
            s, p, variant, listed, cookie, _gid, instructions = row
            if p:
                tests = (sweep_is[s], par_is[p])
                terminal = parent[p]
            else:
                extra, terminal, _priority = finish[variant]
                tests = (sweep_is[s], par_is[0], *extra)
            if not listed:
                # No ports left to try: act through table actions.
                instructions = Instructions(terminal)
            return Match(tests), instructions, cookie

        # What every node of this degree shares: a parent row's key is
        # (start, parent), a root row's depends on its variant's values;
        # the rows with a group to build.
        keys, root_rows, grouped = cg.shared(
            ("sweep_keys", len(finish), first_gid),
            lambda: (
                [(row.s, row.p) if row.p else None for row in plan],
                [(at, row.s, row.variant) for at, row in enumerate(plan) if not row.p],
                [(r.gid, r.ports, r.s, r.p, r.variant) for r in plan if r.ports],
            ),
        )
        priorities = cg.shared(
            ("sweep_priorities", first_gid, tuple([f[2] for f in finish])),
            lambda: [finish[row.variant][2] if not row.p else 10 for row in plan],
        )

        def sweep_index():
            sweep_slot, par_slot = ("metadata", META_SWEEP_MASK), (cg.par, None)
            signatures, index_keys = [(sweep_slot, par_slot)] * len(plan), list(keys)
            # A root row's slots in sorted field order, the start at *at*.
            roots = []
            for extra, _terminal, _priority in finish:
                slots = sorted(
                    [(sweep_slot, -1), (par_slot, 0)]
                    + [((test.name, None), test.value) for test in extra]
                )
                values = [value for _slot, value in slots]
                signature = tuple([slot for slot, _value in slots])
                roots.append((signature, values, values.index(-1)))
            for position, s, variant in root_rows:
                signature, values, at = roots[variant]
                values[at] = s
                signatures[position], index_keys[position] = signature, tuple(values)
            return signatures, index_keys

        cg.rows(T_SWEEP).add_all(priorities, sweep_row, plan, sweep_index)
        groups = cg.groups
        for gid, listed, s, p, variant in grouped:
            terminal = parent[p] if p else finish[variant][1]
            sends = probe if s else probe_root
            groups.append(DeferredFailoverGroup(gid, listed, sends, terminal))


# --------------------------------------------------------------------- #
# Per-service code generators                                           #
# --------------------------------------------------------------------- #


class SnapshotCodegen(ServiceCodegen):
    """Snapshot: record pushes/pops; the in < cur test is rule-enumerated."""

    def _push(self, record: tuple) -> list[Action]:
        """Actions recording one topology record (chunked variant also
        spends header budget here)."""
        return [PushLabel(record)]

    def first_visit_actions(self, in_port: int) -> list[Action]:
        return self._push(("visit", self.node, in_port))

    def rootfirst_actions(self, out_port: int) -> list[Action]:
        # The root's self-record must precede its first out record; both
        # live in the same bucket so ordering is guaranteed.
        return self._push(("visit", self.node, 0))

    def send_next_actions(self, out_port: int) -> list[Action]:
        return self._push(("out", out_port))

    def send_parent_actions(self, par: int) -> list[Action]:
        return self._push(("ret",))

    def finish_variants(self) -> list[FinishVariant]:
        return [
            FinishVariant(
                {},
                [
                    SetField(FIELD_SNAP_DONE, 1),
                    Output(self.service.report_destination),
                ],
            )
        ]

    def emit_bounce_rules(self, cg: Codegen) -> None:
        deg = self.deg
        in_port, cur, par = cg.in_port_is, cg.cur_is, cg.par_is
        rows = cg.rows(T_CLASSIFY)
        ports = range(1, deg + 1)
        # Known edge: pop the sender's record.  Three rule families encode
        # "in < cur or cur = par or in = par" without field comparisons.
        pop_bounce = cg.instructions((PopLabel(), *BOUNCE))

        def bounce_par(p: int) -> RowParts:
            return Match((in_port[p], par[p])), pop_bounce, f"classify:bounce_par:{p}"

        def bounce_done(c: int) -> RowParts:
            return Match((cur[c], par[c])), pop_bounce, f"classify:bounce_done:{c}"

        def bounce_lt(arg) -> RowParts:
            p, c = arg
            return (
                Match((in_port[p], cur[c])), pop_bounce, f"classify:bounce_lt:{p}<{c}"
            )

        def bounce_new(p: int) -> RowParts:
            actions = (*self._push(("visit", self.node, p)), *BOUNCE)
            return (
                Match((in_port[p],)),
                cg.instructions(actions),
                f"classify:bounce_new:{p}",
            )

        arrival_par = (("in_port", None), (cg.par, None))
        for p in ports:
            rows.add(arrival_par, (p, p), 8, bounce_par, p)
        done = ((cg.cur, None), (cg.par, None))
        for c in ports:
            rows.add(done, (c, c), 7, bounce_done, c)
        arrival = (("in_port", None), (cg.cur, None))
        # (p, c) is both the row's key and its recipe's argument.
        below = cg.shared(
            "bounce_lt",
            lambda: [(p, c) for c in range(2, deg + 1) for p in range(1, c)],
        )
        n = len(below)
        rows.add_all([6] * n, bounce_lt, below, lambda: ([arrival] * n, below))
        # New edge: record this endpoint.
        arrival_only = (("in_port", None),)
        for p in ports:
            rows.add(arrival_only, p, 5, bounce_new, p)


class ChunkedSnapshotCodegen(SnapshotCodegen):
    """Chunked snapshot: budget-tracked pushes plus per-port flush rules."""

    def _push(self, record: tuple) -> list[Action]:
        return [PushLabel(record), DecTtl(FIELD_RECCAP)]

    def emit_dispatch(self, cg: Codegen) -> None:
        exhausted = FieldTest(FIELD_RECCAP, 0)
        rows = cg.rows(T_DISPATCH)

        def flush(p: int) -> RowParts:
            return (
                Match((exhausted, cg.in_port_is[p])),
                cg.instructions(
                    (SetField(FIELD_REPORT_IN, p), Output(CONTROLLER_PORT))
                ),
                f"dispatch:flush:{p}",
            )

        arrival = (("in_port", None), (FIELD_RECCAP, None))
        for p in range(1, self.deg + 1):
            rows.add(arrival, (p, 0), 100, flush, p)
        cg.install(T_DISPATCH, Match(), goto=T_CLASSIFY, cookie="dispatch:default")


class AnycastCodegen(ServiceCodegen):
    """Anycast: the gid test sits in the dispatch table; lost requests die
    silently at the root (0 out-of-band messages)."""

    def emit_dispatch(self, cg: Codegen) -> None:
        service: AnycastService = self.service  # type: ignore[assignment]
        rows = cg.rows(T_DISPATCH)

        def member(gid: int) -> RowParts:
            return (
                Match(**{FIELD_GID: gid}),
                cg.instructions((Output(LOCAL_PORT),)),
                f"dispatch:gid:{gid}",
            )

        group = ((FIELD_GID, None),)
        for gid in sorted(service.groups_of(self.node)):
            rows.add(group, gid, 100, member, gid)
        cg.install(T_DISPATCH, Match(), goto=T_CLASSIFY, cookie="dispatch:default")

    def finish_variants(self) -> list[FinishVariant]:
        return [FinishVariant({}, [])]  # drop: no receiver reachable


class PriocastCodegen(ServiceCodegen):
    """Priocast: bid table in phase 1, restart/deliver rules for phase 2."""

    uses_bid_table = True

    def rootfirst_actions(self, out_port: int) -> list[Action]:
        return [SetField(FIELD_FIRST_PORT, out_port)]

    def emit_classify_overrides(self, cg: Codegen) -> None:
        # Phase-2 entry: the packet arrives from the parent port again.
        phase2 = FieldTest(FIELD_START, 2)
        own_id = self.node + 1
        winner = FieldTest(FIELD_OPT_ID, own_id)
        deliver = cg.instructions((Output(LOCAL_PORT),))
        restart = cg.instructions(goto=T_SWEEP, meta=meta_sweep(1))
        in_port, par = cg.in_port_is, cg.par_is
        rows = cg.rows(T_CLASSIFY)

        def p2_deliver(p: int) -> RowParts:
            return (
                Match((phase2, in_port[p], par[p], winner)),
                deliver,
                f"classify:p2_deliver:{p}",
            )

        def p2_restart(p: int) -> RowParts:
            return (
                Match((phase2, in_port[p], par[p])), restart, f"classify:p2_restart:{p}"
            )

        won = (
            ("in_port", None), (FIELD_OPT_ID, None), (FIELD_START, None), (cg.par, None)
        )
        returned = (("in_port", None), (FIELD_START, None), (cg.par, None))
        for p in range(1, self.deg + 1):
            rows.add(won, (p, own_id, 2, p), 90, p2_deliver, p)
            rows.add(returned, (p, 2, p), 85, p2_restart, p)

    def emit_bid_table(self, cg: Codegen) -> None:
        service: PriocastService = self.service  # type: ignore[assignment]
        rows = cg.rows(T_BID)

        def bid(arg) -> RowParts:
            gid, priority_value, value, mask, suffix = arg
            return (
                Match(
                    [FieldTest(FIELD_OPT_VAL, value, mask)],
                    **{FIELD_GID: gid, FIELD_START: 1},
                ),
                cg.instructions(
                    (
                        SetField(FIELD_OPT_VAL, priority_value),
                        SetField(FIELD_OPT_ID, self.node + 1),
                    ),
                    T_SWEEP,
                ),
                f"bid:{gid}{suffix}",
            )

        for gid in sorted(service.groups_of(self.node)):
            priority_value = service.priority_of(self.node, gid)
            assert priority_value is not None
            cubes = encode_range(0, priority_value - 1, OPT_VAL_BITS)
            for index, (value, mask) in enumerate(cubes):
                # Index the cookie per range cube so diagnostics can point
                # at the exact entry, not just the (gid) rule family.
                suffix = f":r{index}" if len(cubes) > 1 else ""
                below = ((FIELD_GID, None), (FIELD_OPT_VAL, mask), (FIELD_START, None))
                arg = (gid, priority_value, value, mask, suffix)
                rows.add(below, (gid, value, 1), 10, bid, arg)
        cg.install(T_BID, Match(), goto=T_SWEEP, cookie="bid:default")

    def finish_variants(self) -> list[FinishVariant]:
        variants = [
            FinishVariant(
                {FIELD_START: 1, FIELD_OPT_ID: self.node + 1},
                [Output(LOCAL_PORT)],
                priority=3,
            )
        ]
        for f in range(1, self.deg + 1):
            variants.append(
                FinishVariant(
                    {FIELD_START: 1, FIELD_FIRST_PORT: f},
                    [
                        SetField(FIELD_START, 2),
                        SetField(cur_field(self.node), f),
                        Output(f),
                    ],
                    priority=2,
                )
            )
        variants.append(FinishVariant({FIELD_START: 1}, [], priority=1))
        variants.append(FinishVariant({FIELD_START: 2}, [], priority=1))
        return variants


class CriticalCodegen(ServiceCodegen):
    """Critical node: toparent bookkeeping plus the root's verdict rules."""

    def rootfirst_actions(self, out_port: int) -> list[Action]:
        return [SetField(FIELD_FIRST_PORT, out_port)]

    def send_next_actions(self, out_port: int) -> list[Action]:
        return [SetField(FIELD_TO_PARENT, 0)]

    def send_parent_actions(self, par: int) -> list[Action]:
        return [SetField(FIELD_TO_PARENT, 1)]

    def advance_actions(self, cur: int, root: bool) -> list[Action]:
        # The root clears toparent after inspecting it (the inspection
        # itself is the higher-priority verdict rule below).
        return [SetField(FIELD_TO_PARENT, 0)] if root else []

    def emit_classify_overrides(self, cg: Codegen) -> None:
        # Root verdict: a toparent=1 return on a port other than firstport
        # means a second DFS child exists -> critical.
        ports = range(1, self.deg + 1)
        returned = FieldTest(FIELD_TO_PARENT, 1)
        verdict = cg.instructions(
            (
                SetField(FIELD_CRITICAL, CRITICAL),
                Output(self.service.report_destination),
            )
        )
        root, cur, in_port = cg.par_is[0], cg.cur_is, cg.in_port_is
        rows = cg.rows(T_CLASSIFY)

        def critical(arg) -> RowParts:
            c, f = arg
            first = FieldTest(FIELD_FIRST_PORT, f)
            return (
                Match((root, cur[c], in_port[c], returned, first)),
                verdict,
                f"classify:critical:{c}",
            )

        second_child = (
            (FIELD_FIRST_PORT, None),
            ("in_port", None),
            (FIELD_TO_PARENT, None),
            (cg.cur, None),
            (cg.par, None),
        )
        args, keys = cg.shared(
            "second_child",
            lambda: (
                [(c, f) for c in ports for f in ports if f != c],
                [(f, c, 1, c, 0) for c in ports for f in ports if f != c],
            ),
        )
        n = len(args)
        rows.add_all([60] * n, critical, args, lambda: ([second_child] * n, keys))

    def finish_variants(self) -> list[FinishVariant]:
        return [
            FinishVariant(
                {},
                [
                    SetField(FIELD_CRITICAL, NOT_CRITICAL),
                    Output(self.service.report_destination),
                ],
            )
        ]


class TtlCodegen(ServiceCodegen):
    """TTL blackhole probes: check-and-report, else decrement, in dispatch."""

    def emit_dispatch(self, cg: Codegen) -> None:
        expired = FieldTest(FIELD_TTL, 0)
        rows = cg.rows(T_DISPATCH)

        def report(p: int) -> RowParts:
            actions = (
                SetField(FIELD_BH, BH_FOUND),
                SetField(FIELD_REPORT_IN, p),
                Output(CONTROLLER_PORT),
            )
            if p:
                tests, cookie = (expired, cg.in_port_is[p]), f"dispatch:ttl0:{p}"
            else:
                tests, cookie = (expired,), "dispatch:ttl0"
            return Match(tests), cg.instructions(actions), cookie

        arrival = (("in_port", None), (FIELD_TTL, None))
        for p in range(1, self.deg + 1):
            rows.add(arrival, (p, 0), 100, report, p)
        rows.add(((FIELD_TTL, None),), 0, 99, report, 0)
        cg.install(
            T_DISPATCH,
            Match(),
            actions=[DecTtl(FIELD_TTL)],
            goto=T_CLASSIFY,
            cookie="dispatch:dec_ttl",
        )

    def finish_variants(self) -> list[FinishVariant]:
        return [
            FinishVariant(
                {}, [SetField(FIELD_BH, BH_DONE), Output(CONTROLLER_PORT)]
            )
        ]


class BlackholeCodegen(ServiceCodegen):
    """Smart-counter blackhole detection.

    Phase A (repeat 3/2/1) uses the generic fast-failover sweep with a
    counter fetch in every send; phase B (repeat 0) replaces the sweep with
    the VERIFY tables so the fetched value can be matched.
    """

    def counter_gid(self, port: int) -> int:
        assert self._cg is not None, "codegen used before bind()"
        return self._cg.counter_group_id(port)

    def _count(self, port: int) -> Action:
        return GroupAction(self.counter_gid(port))

    def emit_dispatch(self, cg: Codegen) -> None:
        # Received packets increment the port counter too (the counter
        # counts link traversals at the port, cf. the interpreted engine's
        # on_arrival hook and DESIGN.md).
        rows = cg.rows(T_DISPATCH)

        def receive(p: int) -> RowParts:
            return (
                Match((cg.in_port_is[p],)),
                cg.instructions((self._count(p),), T_CLASSIFY),
                f"dispatch:recv_count:{p}",
            )

        arrival = (("in_port", None),)
        for p in range(1, self.deg + 1):
            rows.add(arrival, p, 10, receive, p)
        cg.install(T_DISPATCH, Match(), goto=T_CLASSIFY, cookie="dispatch:default")

    def send_next_actions(self, out_port: int) -> list[Action]:
        return [self._count(out_port)]

    def send_parent_actions(self, par: int) -> list[Action]:
        return [self._count(par)]

    def finish_variants(self) -> list[FinishVariant]:
        # Phase A ends silently at the root; phase B finishes in the
        # VERIFY tables, never here.
        return [FinishVariant({}, [])]

    def emit_classify(self, cg: Codegen) -> None:
        ports = range(1, self.deg + 1)
        service: BlackholeService = self.service  # type: ignore[assignment]
        modulus = service.counter_modulus
        # Smart counters: one per port, shared by both phases.  The cursor
        # seed makes compiled installs replay-deterministic (satellite of
        # the model-checker PR): the checker assumes the same start value.
        start = getattr(service, "counter_start", 0)
        writes = cg.shared(
            ("counter_writes", modulus),
            lambda: counter_writes(modulus, FIELD_SCRATCH),
        )
        for p in ports:
            cg.add_group(counter_group(self.counter_gid(p), writes, start))

        in_port, cur = cg.in_port_is, cg.cur_is
        count = [None] + [self._count(p) for p in ports]
        repeat_is = {
            phase: FieldTest(FIELD_REPEAT, phase)
            for phase in (REPEAT_PROBE, REPEAT_ECHO, REPEAT_ECHO_BACK, REPEAT_VERIFY)
        }
        rows = cg.rows(T_CLASSIFY)

        def trigger(verify: bool) -> RowParts:
            if verify:
                match = Match(**{FIELD_START: 0, FIELD_REPEAT: REPEAT_VERIFY})
                after, cookie = T_VERIFY_SWEEP, "classify:trigger_verify"
                meta = meta_sweep(1)
            else:
                match = Match(**{FIELD_START: 0})
                after, cookie = T_SWEEP, "classify:trigger"
                meta = meta_sweep(0)
            instructions = cg.instructions((SetField(FIELD_START, 1),), after, meta)
            return match, instructions, cookie

        def first_visit(arg) -> RowParts:
            # Probe phase: echo to the parent (count the send); echo
            # completed: resume the probe sweep; verify phase: plain.
            p, phase = arg
            adopt = SetField(cg.par, p)
            if phase == REPEAT_PROBE:
                echo = SetField(FIELD_REPEAT, REPEAT_ECHO)
                actions = (adopt, echo, count[p], *BOUNCE)
                instructions, name = cg.instructions(actions), "first_echo"
            elif phase == REPEAT_ECHO_BACK:
                actions = (adopt, SetField(FIELD_REPEAT, REPEAT_PROBE))
                instructions = cg.instructions(actions, T_SWEEP, meta_sweep(1))
                name = "first_resume"
            else:
                instructions = cg.instructions((adopt,), T_VERIFY_SWEEP, meta_sweep(1))
                name = "first_verify"
            return (
                Match((cur[0], in_port[p], repeat_is[phase])),
                instructions,
                f"classify:{name}:{p}",
            )

        def at_cur(arg) -> RowParts:
            # Echoing: the parent side sends the packet back to the child;
            # probe / verify phase: advance.
            c, phase = arg
            if phase == REPEAT_ECHO:
                actions = (SetField(FIELD_REPEAT, REPEAT_ECHO_BACK), count[c], *BOUNCE)
                instructions, name = cg.instructions(actions), "echo_return"
            elif phase == REPEAT_PROBE:
                instructions = cg.instructions((), T_SWEEP, meta_sweep(c + 1))
                name = "advance"
            else:
                instructions = cg.instructions((), T_VERIFY_SWEEP, meta_sweep(c + 1))
                name = "advance_verify"
            return (
                Match((cur[c], in_port[c], repeat_is[phase])),
                instructions,
                f"classify:{name}:{c}",
            )

        def bounce_verify(p: int) -> RowParts:
            return (
                Match((in_port[p], repeat_is[REPEAT_VERIFY])),
                cg.instructions(
                    (count[p],), T_VERIFY_CHECK, meta_verify(p, KIND_BOUNCE)
                ),
                f"classify:bounce_verify:{p}",
            )

        def bounce(p: int) -> RowParts:
            return (
                Match((in_port[p],)),
                cg.instructions((count[p], *BOUNCE)),
                f"classify:bounce:{p}",
            )

        # Triggers.
        phased = ((FIELD_REPEAT, None), (FIELD_START, None))
        rows.add(phased, (REPEAT_VERIFY, 0), 101, trigger, True)
        rows.add(((FIELD_START, None),), 0, 100, trigger, False)

        arrival = (("in_port", None), (FIELD_REPEAT, None), (cg.cur, None))
        for p in ports:
            for phase in (REPEAT_PROBE, REPEAT_ECHO_BACK, REPEAT_VERIFY):
                rows.add(arrival, (p, phase, 0), 52, first_visit, (p, phase))
        for c in ports:
            for phase, priority in (
                (REPEAT_ECHO, 52), (REPEAT_PROBE, 50), (REPEAT_VERIFY, 50)
            ):
                rows.add(arrival, (c, phase, c), priority, at_cur, (c, phase))

        # Bounces: count the return send; verify-phase bounces also check.
        checked = (("in_port", None), (FIELD_REPEAT, None))
        bare = (("in_port", None),)
        for p in ports:
            rows.add(checked, (p, REPEAT_VERIFY), 6, bounce_verify, p)
            rows.add(bare, p, 5, bounce, p)

    def _verify_sweep_rows(self, cg: Codegen) -> list[tuple]:
        """VERIFY_SWEEP's row plan ``(s, p, instructions, cookie)``:
        table-driven port selection (no fast failover: a fetched counter
        value can only be matched in a table, and a group bucket cannot
        continue into a table).  Only the parent-tag test is per node."""
        deg = self.deg
        finish = cg.instructions(
            (SetField(FIELD_BH, BH_DONE), Output(CONTROLLER_PORT))
        )
        rows = []
        for s in range(1, deg + 2):
            for p in range(0, deg + 1):
                effective = s if s != p else s + 1
                if effective <= deg:
                    send = cg.instructions(
                        (self._count(effective),),
                        goto=T_VERIFY_CHECK,
                        meta=meta_verify(effective, KIND_PROBE),
                    )
                    rows.append((s, p, send, f"vsweep:s{s}:p{p}"))
                elif p == 0:
                    # Root finish of the verify phase: clean verdict.
                    rows.append((s, 0, finish, f"vsweep:finish:s{s}"))
                else:
                    # Return to the parent (counted and checked too).
                    back = cg.instructions(
                        (self._count(p),),
                        goto=T_VERIFY_CHECK,
                        meta=meta_verify(p, KIND_PARENT),
                    )
                    rows.append((s, p, back, f"vsweep:parent:s{s}:p{p}"))
        return rows

    def _verify_check_rows(self) -> list[tuple]:
        """VERIFY_CHECK's row plan ``(match, q, report, instructions,
        priority, cookie, signature, key)``: a fetch returning 1 identifies
        the blackhole port.  Matches test only metadata and the fetched
        value, so they are shared outright, keys included; *instructions*
        is None where the row goes on to port *q* — through the node's own
        current-port tag — after the *report* actions."""
        fetched_one = FieldTest(FIELD_SCRATCH, 1)
        rows = []
        for q in range(1, self.deg + 1):
            report = (
                SetField(FIELD_BH, BH_FOUND),
                SetField(FIELD_REPORT_PORT, q),
                Output(CONTROLLER_PORT),
            )
            for kind, name in (
                (KIND_PROBE, "probe"),
                (KIND_PARENT, "parent"),
                (KIND_BOUNCE, "bounce"),
            ):
                value, mask = meta_verify(q, kind)
                verify_is = FieldTest("metadata", value, mask)
                bounces = kind == KIND_BOUNCE
                rows.append(
                    (
                        Match((verify_is, fetched_one)),
                        q,
                        report,
                        Instructions(report + BOUNCE) if bounces else None,
                        20,
                        f"vcheck:{name}_report:{q}",
                        (("metadata", mask), (FIELD_SCRATCH, None)),
                        (value, 1),
                    )
                )
                rows.append(
                    (
                        Match((verify_is,)),
                        q,
                        (),
                        Instructions(BOUNCE) if bounces else None,
                        10,
                        f"vcheck:{name}:{q}",
                        (("metadata", mask),),
                        value,
                    )
                )
        return rows

    def emit_extra_tables(self, cg: Codegen) -> None:
        sweep_is, par_is, forward = cg.sweep_is, cg.par_is, cg.forward

        def verify_sweep(row: tuple) -> RowParts:
            s, p, instructions, cookie = row
            return Match((sweep_is[s], par_is[p])), instructions, cookie

        def verify_check(row: tuple) -> RowParts:
            match, q, report, instructions, _priority, cookie, _sig, _key = row
            if instructions is None:
                instructions = Instructions(report + forward[q])
            return match, instructions, cookie

        def sweep_plan():
            plan = self._verify_sweep_rows(cg)
            return plan, [(s, p) for s, p, _instructions, _cookie in plan]

        def check_plan():
            plan = self._verify_check_rows()
            return (
                plan,
                [row[6] for row in plan],
                [row[7] for row in plan],
                [row[4] for row in plan],
            )

        # Both plans and every column but the sweep's signature (which names
        # the node's parent tag) are shared by the nodes of a degree.
        plan, keys = cg.shared((type(self), "verify_sweep"), sweep_plan)
        signature = (("metadata", META_SWEEP_MASK), (cg.par, None))
        n = len(plan)
        cg.rows(T_VERIFY_SWEEP).add_all(
            [10] * n, verify_sweep, plan, lambda: ([signature] * n, keys)
        )
        check, signatures, check_keys, priorities = cg.shared(
            (type(self), "verify_check"), check_plan
        )
        cg.rows(T_VERIFY_CHECK).add_all(
            priorities, verify_check, check, lambda: (signatures, check_keys)
        )


#: Service class -> code generator class.
_CODEGENS: dict[type, type[ServiceCodegen]] = {
    PlainTraversalService: ServiceCodegen,
    ChunkedSnapshotService: ChunkedSnapshotCodegen,
    SnapshotService: SnapshotCodegen,
    AnycastService: AnycastCodegen,
    PriocastService: PriocastCodegen,
    CriticalNodeService: CriticalCodegen,
    BlackholeService: BlackholeCodegen,
    BlackholeTtlService: TtlCodegen,
}


def register_codegen(
    service_class: type, codegen_class: type[ServiceCodegen]
) -> None:
    """Register a code generator for a custom service class.

    Resolution walks the service's MRO, so registering for a base class
    covers subclasses; registering the subclass explicitly wins (it is
    found first).  See docs/TUTORIAL.md for a worked example.
    """
    if not issubclass(codegen_class, ServiceCodegen):
        raise TypeError("codegen_class must subclass ServiceCodegen")
    _CODEGENS[service_class] = codegen_class


def codegen_for(service: Service, node: int, deg: int) -> ServiceCodegen:
    """Pick the code generator for *service*."""
    for klass in type(service).__mro__:
        if klass in _CODEGENS:
            return _CODEGENS[klass](service, node, deg)
    raise NotImplementedError(
        f"service {service.name!r} has no OpenFlow code generator "
        "(it is interpreted-only; see DESIGN.md)"
    )


def _emit_service(
    network: Network,
    node: int,
    service: Service,
    tables: dict[int, DeferredTable | EagerTable],
    groups: list[Group | DeferredFailoverGroup],
    table_base: int = 0,
    group_base: int = 0,
) -> None:
    """Assemble *service*'s pipeline block for *node* into *tables* and
    *groups* (the caller loads them)."""
    deg = network.topology.degree(node)
    cg = Codegen(
        node, deg, service, tables, groups, network.compile_plans,
        table_base, group_base,
    )
    codegen = codegen_for(service, node, deg)
    codegen.bind(cg)
    codegen.emit_dispatch(cg)
    codegen.emit_classify(cg)
    if codegen.uses_bid_table:
        codegen.emit_bid_table(cg)
    codegen.emit_sweep(cg)
    codegen.emit_extra_tables(cg)


def _bare_switch(network: Network, node: int, fast_path: bool | None) -> Switch:
    if fast_path is None:
        fast_path = network.fast_path
    return Switch(
        node,
        network.topology.degree(node),
        liveness=network.liveness_fn(node),
        fast_path=fast_path,
    )


def _program_tables(switch: Switch) -> defaultdict[int, DeferredTable | EagerTable]:
    """Table id -> the rows the emitters fill: deferred on a switch with a
    fast path, the only reader that builds a table row by row; built at
    once on any other, whose every reader reads whole tables."""
    return defaultdict(DeferredTable if switch.fast_path_enabled else EagerTable)


def compile_service(
    network: Network,
    node: int,
    service: Service,
    fast_path: bool | None = None,
) -> Switch:
    """Compile *service* for *node*: the paper's offline stage, for real.

    ``fast_path`` selects the switch's packet engine (None: the network's
    default); see :mod:`repro.openflow.fastpath`.
    """
    switch = _bare_switch(network, node, fast_path)
    tables = _program_tables(switch)
    groups: list[Group | DeferredFailoverGroup] = []
    _emit_service(network, node, service, tables, groups)
    switch.load_program(tables, groups)
    return switch


#: Tables reserved per service block in a multi-service pipeline.
SERVICE_BLOCK_TABLES = 8
#: Group-id stride per service block.
SERVICE_BLOCK_GROUPS = 100_000


def compile_services(
    network: Network,
    node: int,
    services: Sequence[Service],
    fast_path: bool | None = None,
) -> Switch:
    """Compile several services onto one switch.

    Table 0 dispatches on the packet's ``svc`` field to per-service pipeline
    blocks (each a relocated copy of the single-service layout); unknown
    service ids are dropped by the table-0 miss, exactly as an OpenFlow
    switch would.  Proves the paper's implicit claim that the data plane can
    host all SmartSouth functions simultaneously.
    """
    ids = [service.service_id for service in services]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate service ids in {ids}")
    switch = _bare_switch(network, node, fast_path)
    tables = _program_tables(switch)
    svc_dispatch = tables[0]
    groups: list[Group | DeferredFailoverGroup] = []
    for index, service in enumerate(services):
        table_base = 1 + index * SERVICE_BLOCK_TABLES
        svc_dispatch.add_rule(
            Match(**{FIELD_SVC: service.service_id}),
            Instructions(goto_table=table_base),
            10,
            f"svc_dispatch:{service.name}",
        )
        _emit_service(
            network,
            node,
            service,
            tables,
            groups,
            table_base=table_base,
            group_base=(index + 1) * SERVICE_BLOCK_GROUPS,
        )
    switch.load_program(tables, groups)
    return switch
