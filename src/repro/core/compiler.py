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
that degree through ``Network.compile_plans`` — so a rule costs one match,
one instruction set (often a shared one) and one entry, and a bucket one
object over a shared action tuple.  Rules and groups collect in lists and
reach the switch in a single
:meth:`~repro.openflow.switch.Switch.load_program`.

Known fidelity limits (documented in DESIGN.md):

* blackhole phase B selects ports in tables (a counter fetch must be
  followed by a match, which buckets cannot do), so it has no fast-failover;
  the paper itself assumes no failures during execution;
* the packet-loss monitor and the load-audit service are interpreted-only.
"""

from __future__ import annotations

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
from repro.openflow.flowtable import FlowEntry
from repro.openflow.group import Bucket, Group, GroupType
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
    per-table entry lists and groups in one list (both owned by the caller,
    so several service blocks can fill the same program), and the whole
    program reaches the switch in one
    :meth:`~repro.openflow.switch.Switch.load_program`.

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
        tables: dict[int, list[FlowEntry]],
        groups: list[Group],
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

    def entries(self, table: int) -> list[FlowEntry]:
        """The entry list of logical *table* (for emitters that append
        whole row plans; a list left empty creates no table)."""
        return self.tables.setdefault(self.table_base + table, [])

    def add(
        self,
        table: int,
        match: Match,
        instructions: Instructions,
        priority: int = 0,
        cookie: str = "",
    ) -> None:
        """Append one rule (ready-made instructions) to logical *table*."""
        self.entries(table).append(FlowEntry(match, instructions, priority, cookie))

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
        """T_CLASSIFY: the generic Algorithm 1 state decode."""
        after = T_BID if self.uses_bid_table else T_SWEEP
        in_port, cur, par = cg.in_port_is, cg.cur_is, cg.par_is
        # Trigger (start = 0): this node becomes the DFS root.
        cg.install(
            T_CLASSIFY,
            Match(**{FIELD_START: 0}),
            actions=[SetField(FIELD_START, 1)] + self.trigger_actions(),
            meta=meta_sweep(0),
            goto=after,
            priority=100,
            cookie="classify:trigger",
        )
        self.emit_classify_overrides(cg)
        # First visit (cur = 0): adopt the arrival port as parent.
        for p in range(1, self.deg + 1):
            cg.install(
                T_CLASSIFY,
                Match((cur[0], in_port[p])),
                actions=[SetField(cg.par, p)] + self.first_visit_actions(p),
                meta=meta_sweep(1),
                goto=after,
                priority=50,
                cookie=f"classify:first_visit:{p}",
            )
        # Advance (in = cur): continue the sweep at cur + 1.
        for c in range(1, self.deg + 1):
            root_actions = self.advance_actions(c, root=True)
            plain_actions = self.advance_actions(c, root=False)
            if root_actions != plain_actions:
                cg.install(
                    T_CLASSIFY,
                    Match((cur[c], in_port[c], par[0])),
                    actions=root_actions,
                    meta=meta_sweep(c + 1),
                    goto=T_SWEEP,
                    priority=51,
                    cookie=f"classify:advance_root:{c}",
                )
            cg.install(
                T_CLASSIFY,
                Match((cur[c], in_port[c])),
                actions=plain_actions,
                meta=meta_sweep(c + 1),
                goto=T_SWEEP,
                priority=50,
                cookie=f"classify:advance:{c}",
            )
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
        returns to parent port *p*.  A row then costs one match, one entry,
        one group and one bucket per listed port, all over those tuples.
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
        rows: list[SweepRow]
        rows, cg._next_group = cg.shared(
            ("sweep", len(finish), first_gid),
            lambda: sweep_rows(self.deg, len(finish), first_gid),
        )
        sweep_is, par_is = cg.sweep_is, cg.par_is
        groups, entries = cg.groups, cg.entries(T_SWEEP)
        for s, p, variant, listed, cookie, gid, instructions in rows:
            if p:
                tests = (sweep_is[s], par_is[p])
                terminal, priority = parent[p], 10
            else:
                extra, terminal, priority = finish[variant]
                tests = (sweep_is[s], par_is[0], *extra)
            if listed:
                sends = probe if s else probe_root
                buckets = [Bucket(sends[q], q) for q in listed]
                buckets.append(Bucket(terminal))
                groups.append(Group(gid, GroupType.FF, buckets))
            else:
                # No ports left to try: act through table actions.
                instructions = Instructions(terminal)
            entries.append(FlowEntry(Match(tests), instructions, priority, cookie))


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
        # Known edge: pop the sender's record.  Three rule families encode
        # "in < cur or cur = par or in = par" without field comparisons.
        pop_bounce = cg.instructions((PopLabel(), *BOUNCE))
        for p in range(1, deg + 1):
            cg.add(
                T_CLASSIFY,
                Match((in_port[p], par[p])),
                pop_bounce,
                priority=8,
                cookie=f"classify:bounce_par:{p}",
            )
        for c in range(1, deg + 1):
            cg.add(
                T_CLASSIFY,
                Match((cur[c], par[c])),
                pop_bounce,
                priority=7,
                cookie=f"classify:bounce_done:{c}",
            )
        for c in range(2, deg + 1):
            for p in range(1, c):
                cg.add(
                    T_CLASSIFY,
                    Match((in_port[p], cur[c])),
                    pop_bounce,
                    priority=6,
                    cookie=f"classify:bounce_lt:{p}<{c}",
                )
        # New edge: record this endpoint.
        for p in range(1, deg + 1):
            cg.install(
                T_CLASSIFY,
                Match((in_port[p],)),
                actions=self._push(("visit", self.node, p)) + list(BOUNCE),
                priority=5,
                cookie=f"classify:bounce_new:{p}",
            )


class ChunkedSnapshotCodegen(SnapshotCodegen):
    """Chunked snapshot: budget-tracked pushes plus per-port flush rules."""

    def _push(self, record: tuple) -> list[Action]:
        return [PushLabel(record), DecTtl(FIELD_RECCAP)]

    def emit_dispatch(self, cg: Codegen) -> None:
        exhausted = FieldTest(FIELD_RECCAP, 0)
        for p in range(1, self.deg + 1):
            cg.install(
                T_DISPATCH,
                Match((exhausted, cg.in_port_is[p])),
                actions=[
                    SetField(FIELD_REPORT_IN, p),
                    Output(CONTROLLER_PORT),
                ],
                priority=100,
                cookie=f"dispatch:flush:{p}",
            )
        cg.install(T_DISPATCH, Match(), goto=T_CLASSIFY, cookie="dispatch:default")


class AnycastCodegen(ServiceCodegen):
    """Anycast: the gid test sits in the dispatch table; lost requests die
    silently at the root (0 out-of-band messages)."""

    def emit_dispatch(self, cg: Codegen) -> None:
        service: AnycastService = self.service  # type: ignore[assignment]
        for gid in sorted(service.groups_of(self.node)):
            cg.install(
                T_DISPATCH,
                Match(**{FIELD_GID: gid}),
                actions=[Output(LOCAL_PORT)],
                priority=100,
                cookie=f"dispatch:gid:{gid}",
            )
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
        winner = FieldTest(FIELD_OPT_ID, self.node + 1)
        deliver = cg.instructions((Output(LOCAL_PORT),))
        restart = cg.instructions(goto=T_SWEEP, meta=meta_sweep(1))
        for p in range(1, self.deg + 1):
            in_port, par = cg.in_port_is[p], cg.par_is[p]
            cg.add(
                T_CLASSIFY,
                Match((phase2, in_port, par, winner)),
                deliver,
                priority=90,
                cookie=f"classify:p2_deliver:{p}",
            )
            cg.add(
                T_CLASSIFY,
                Match((phase2, in_port, par)),
                restart,
                priority=85,
                cookie=f"classify:p2_restart:{p}",
            )

    def emit_bid_table(self, cg: Codegen) -> None:
        service: PriocastService = self.service  # type: ignore[assignment]
        for gid in sorted(service.groups_of(self.node)):
            priority_value = service.priority_of(self.node, gid)
            assert priority_value is not None
            cubes = encode_range(0, priority_value - 1, OPT_VAL_BITS)
            for index, (value, mask) in enumerate(cubes):
                # Index the cookie per range cube so diagnostics can point
                # at the exact entry, not just the (gid) rule family.
                suffix = f":r{index}" if len(cubes) > 1 else ""
                cg.install(
                    T_BID,
                    Match(
                        [FieldTest(FIELD_OPT_VAL, value, mask)],
                        **{FIELD_GID: gid, FIELD_START: 1},
                    ),
                    actions=[
                        SetField(FIELD_OPT_VAL, priority_value),
                        SetField(FIELD_OPT_ID, self.node + 1),
                    ],
                    goto=T_SWEEP,
                    priority=10,
                    cookie=f"bid:{gid}{suffix}",
                )
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
        first_is = [FieldTest(FIELD_FIRST_PORT, f) for f in range(self.deg + 1)]
        verdict = cg.instructions(
            (
                SetField(FIELD_CRITICAL, CRITICAL),
                Output(self.service.report_destination),
            )
        )
        root = cg.par_is[0]
        for c in ports:
            cur, in_port = cg.cur_is[c], cg.in_port_is[c]
            for f in ports:
                if f == c:
                    continue
                cg.add(
                    T_CLASSIFY,
                    Match((root, cur, in_port, returned, first_is[f])),
                    verdict,
                    priority=60,
                    cookie=f"classify:critical:{c}",
                )

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
        for p in range(1, self.deg + 1):
            cg.install(
                T_DISPATCH,
                Match((expired, cg.in_port_is[p])),
                actions=[
                    SetField(FIELD_BH, BH_FOUND),
                    SetField(FIELD_REPORT_IN, p),
                    Output(CONTROLLER_PORT),
                ],
                priority=100,
                cookie=f"dispatch:ttl0:{p}",
            )
        cg.install(
            T_DISPATCH,
            Match((expired,)),
            actions=[
                SetField(FIELD_BH, BH_FOUND),
                SetField(FIELD_REPORT_IN, 0),
                Output(CONTROLLER_PORT),
            ],
            priority=99,
            cookie="dispatch:ttl0",
        )
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
        for p in range(1, self.deg + 1):
            cg.install(
                T_DISPATCH,
                Match((cg.in_port_is[p],)),
                actions=[self._count(p)],
                goto=T_CLASSIFY,
                priority=10,
                cookie=f"dispatch:recv_count:{p}",
            )
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

        in_port, cur, par = cg.in_port_is, cg.cur_is, cg.par_is
        count = [None] + [self._count(p) for p in ports]
        probing, echoing, echoed, verifying = (
            FieldTest(FIELD_REPEAT, phase)
            for phase in (REPEAT_PROBE, REPEAT_ECHO, REPEAT_ECHO_BACK, REPEAT_VERIFY)
        )

        # Triggers.
        cg.install(
            T_CLASSIFY,
            Match(**{FIELD_START: 0, FIELD_REPEAT: REPEAT_VERIFY}),
            actions=[SetField(FIELD_START, 1)],
            meta=meta_sweep(1),
            goto=T_VERIFY_SWEEP,
            priority=101,
            cookie="classify:trigger_verify",
        )
        cg.install(
            T_CLASSIFY,
            Match(**{FIELD_START: 0}),
            actions=[SetField(FIELD_START, 1)],
            meta=meta_sweep(0),
            goto=T_SWEEP,
            priority=100,
            cookie="classify:trigger",
        )

        for p in ports:
            adopt = SetField(cg.par, p)
            # First visit, probe phase: echo to the parent (count the send).
            cg.install(
                T_CLASSIFY,
                Match((cur[0], in_port[p], probing)),
                actions=(
                    adopt,
                    SetField(FIELD_REPEAT, REPEAT_ECHO),
                    count[p],
                    *BOUNCE,
                ),
                priority=52,
                cookie=f"classify:first_echo:{p}",
            )
            # First visit, echo completed: resume the probe sweep.
            cg.install(
                T_CLASSIFY,
                Match((cur[0], in_port[p], echoed)),
                actions=(adopt, SetField(FIELD_REPEAT, REPEAT_PROBE)),
                meta=meta_sweep(1),
                goto=T_SWEEP,
                priority=52,
                cookie=f"classify:first_resume:{p}",
            )
            # First visit, verify phase: plain.
            cg.install(
                T_CLASSIFY,
                Match((cur[0], in_port[p], verifying)),
                actions=(adopt,),
                meta=meta_sweep(1),
                goto=T_VERIFY_SWEEP,
                priority=52,
                cookie=f"classify:first_verify:{p}",
            )

        for c in ports:
            # Parent side of the echo: send the packet back to the child.
            cg.install(
                T_CLASSIFY,
                Match((cur[c], in_port[c], echoing)),
                actions=(
                    SetField(FIELD_REPEAT, REPEAT_ECHO_BACK),
                    count[c],
                    *BOUNCE,
                ),
                priority=52,
                cookie=f"classify:echo_return:{c}",
            )
            # Advance, probe phase.
            cg.install(
                T_CLASSIFY,
                Match((cur[c], in_port[c], probing)),
                meta=meta_sweep(c + 1),
                goto=T_SWEEP,
                priority=50,
                cookie=f"classify:advance:{c}",
            )
            # Advance, verify phase.
            cg.install(
                T_CLASSIFY,
                Match((cur[c], in_port[c], verifying)),
                meta=meta_sweep(c + 1),
                goto=T_VERIFY_SWEEP,
                priority=50,
                cookie=f"classify:advance_verify:{c}",
            )

        # Bounces: count the return send; verify-phase bounces also check.
        for p in ports:
            cg.install(
                T_CLASSIFY,
                Match((in_port[p], verifying)),
                actions=(count[p],),
                meta=meta_verify(p, KIND_BOUNCE),
                goto=T_VERIFY_CHECK,
                priority=6,
                cookie=f"classify:bounce_verify:{p}",
            )
            cg.install(
                T_CLASSIFY,
                Match((in_port[p],)),
                actions=(count[p], *BOUNCE),
                priority=5,
                cookie=f"classify:bounce:{p}",
            )

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
        priority, cookie)``: a fetch returning 1 identifies the blackhole
        port.  Matches test only metadata and the fetched value, so they are
        shared outright; *instructions* is None where the row goes on to
        port *q* — through the node's own current-port tag — after the
        *report* actions."""
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
                    )
                )
        return rows

    def emit_extra_tables(self, cg: Codegen) -> None:
        sweep_is, par_is, forward = cg.sweep_is, cg.par_is, cg.forward
        for s, p, instructions, cookie in cg.shared(
            (type(self), "verify_sweep"), lambda: self._verify_sweep_rows(cg)
        ):
            cg.add(
                T_VERIFY_SWEEP,
                Match((sweep_is[s], par_is[p])),
                instructions,
                10,
                cookie,
            )
        for match, q, report, instructions, priority, cookie in cg.shared(
            (type(self), "verify_check"), self._verify_check_rows
        ):
            if instructions is None:
                instructions = Instructions(report + forward[q])
            cg.add(T_VERIFY_CHECK, match, instructions, priority, cookie)


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
    tables: dict[int, list[FlowEntry]],
    groups: list[Group],
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
    tables: dict[int, list[FlowEntry]] = {}
    groups: list[Group] = []
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
    svc_dispatch: list[FlowEntry] = []
    tables: dict[int, list[FlowEntry]] = {0: svc_dispatch}
    groups: list[Group] = []
    for index, service in enumerate(services):
        table_base = 1 + index * SERVICE_BLOCK_TABLES
        svc_dispatch.append(
            FlowEntry(
                Match(**{FIELD_SVC: service.service_id}),
                Instructions(goto_table=table_base),
                priority=10,
                cookie=f"svc_dispatch:{service.name}",
            )
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
