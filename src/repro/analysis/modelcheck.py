"""Bounded explicit-state model checking of compiled SmartSouth deployments.

The symbolic engine (:mod:`repro.analysis.symbolic`) proves *per-packet*
properties of a rule set.  SmartSouth's headline claims, however, are
*temporal* properties of the distributed traversal — the DFS visits every
live edge, the trigger returns to the root within 2·|E| hops, smart counters
localize a blackhole — and they must hold under link failures interleaved
with packet motion, exactly where OpenFlow fast-failover semantics get
subtle.  This module explores that state space mechanically.

Global state
------------

A :class:`GlobalState` is the tuple the paper's §2 state-machine argument
quantifies over, made explicit:

* **in-flight packets** — SmartSouth keeps all per-node tag registers
  (``v{n}.par`` / ``v{n}.cur``) *in the packet*, so a packet's concrete
  header + label stack + location is the whole traversal state;
* **the live-link set** — which edges are up (fast-failover consults it);
* **smart-counter cursors** — the only per-switch mutable state the
  compiled pipelines have (round-robin ``SELECT`` groups);
* **trigger/failure budgets** and the accumulated observables (controller
  reports, local deliveries, packet losses).

Transitions run the compiled rules through the switch's own semantics:
:func:`step_switch` runs a packet through the one pipeline walk,
:func:`repro.openflow.switch.walk`, that :meth:`Switch.process` runs
too, so the checker verifies the compiled rules, not a re-implementation
of the pipeline or of the algorithm.  Only the walk's environment is the
checker's: entries are found without moving a counter, fast-failover
liveness comes from the state's live edges, SELECT cursors from the
state's cursors, and the MC002, MC003 and MC006 evidence is recorded on
the way.  A trigger is injected with every SmartSouth field zero
(:func:`zero_state_names`) plus its own fields.  A step is a function of
the packet, the live edges and the cursors, and changes nothing on the
switch it reads, so all nondeterminism is the environment's (which packet
moves, which link fails, when a trigger is injected).

Invariants
----------

Temporal properties are pluggable via the :func:`invariant` registry —
the exact analogue of ``@lint_rule``:

========  ========================  ========  =================================
id        name                      scope     catches
========  ========================  ========  =================================
MC001     no-forwarding-loop        step      hop budget exceeded; rule loops
MC002     snapshot-record-sanity    both      duplicate edge records, bad pops
MC003     counter-coherence         step      counter bucket j must write j
MC004     traversal-completes       terminal  trigger never produces its report
MC005     blackhole-localized       terminal  verdict names a healthy link
MC006     failover-masks-failures   step      FF emits on a dead watched port
MC007     delivery-correctness      terminal  anycast/priocast wrong receiver
MC008     pipeline-integrity        step      missing table/group, bad goto
MC009     epoch-at-most-once        terminal  an epoch yields >1 accepted result
MC010     crash-at-most-once        terminal  stale epoch crosses a crash/resync
MC011     switch-crash-under-claims terminal  a crashed switch fabricates results
========  ========================  ========  =================================

Controller crash scenarios (``CheckConfig.crash`` / ``--crash``) add a
nondeterministic ``("crash",)`` transition to origin-reporting services:
the restarted controller's epoch clock jumps past every in-flight epoch
and the retried trigger runs under the new epoch, while the origin gate
(:class:`repro.core.epoch.EpochGate`, modeled here as a squash of
stale-epoch packets entering the root) must keep pre-crash stragglers
from being accepted — verified by MC010.  Squashed packets surface as
``"squashed"`` environment losses, and the minimizer never deletes the
crash action (it only deletes failures and extra triggers).

Switch crash scenarios (``CheckConfig.switch_crash`` / ``--switch-crash``)
instead crash a *data-plane* node: ``("sw-crash", v)`` takes the victim
down (packets arriving there drop as ``"sw_down"`` losses) and
``("sw-reboot", v)`` brings it back *bare* — tables, groups and fast-path
state gone, so traffic miss-drops there as ``"sw_bare"`` losses until
re-adoption.  Both are environment losses; MC011 asserts the crash can
only ever under-claim (a lost traversal, a partial snapshot), never
fabricate a result.

Both kinds of crash are one mechanism: a scenario's environment events
(:attr:`Scenario.events`) fire in order, each once the previous one has,
and a state records only how many have fired; the gate epoch and the
victim's down or bare state are derived from that count.

On violation the checker emits a **counterexample**: the shortest (BFS)
action trace reaching the violation, greedily minimized by deleting failure
/ extra-trigger actions that are not needed to reproduce it.  Traces are
replayable: :mod:`repro.analysis.replay` converts one into a deterministic
:mod:`repro.net.simulator` run (failures scheduled by *packet step count*,
not wall time), giving a differential cross-check between this checker and
the simulator.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Iterable, Mapping, Sequence

from repro.analysis.symbolic import zero_state_names
from repro.core.fields import (
    FIELD_EPOCH,
    FIELD_GID,
    FIELD_RECCAP,
    FIELD_REPEAT,
    FIELD_SNAP_DONE,
    FIELD_SVC,
    FIELD_TTL,
)
from repro.core.services.blackhole import (
    BH_DONE,
    BH_FOUND,
    FIELD_BH,
    FIELD_REPORT_IN,
    FIELD_REPORT_PORT,
    REPEAT_PROBE,
    REPEAT_VERIFY,
)
from repro.core.smart_counter import counter_bucket_value
from repro.net.topology import Topology
from repro.openflow.actions import PopLabel
from repro.openflow.errors import GroupError, PipelineError, TableError
from repro.openflow.group import GroupType, first_live_bucket
from repro.openflow.packet import (
    CONTROLLER_PORT,
    IN_PORT,
    LOCAL_PORT,
    Packet,
    is_physical_port,
    port_name,
)
from repro.openflow.switch import PipelineEnv, Switch, walk

#: Default bound on explored states per scenario.
DEFAULT_STATE_BUDGET = 200_000
#: Default number of distinct violations collected before stopping.
DEFAULT_MAX_VIOLATIONS = 20

#: Loss kinds that the *environment* (not the program) caused; they excuse
#: the bounded-liveness invariant MC004.  "squashed" is the origin epoch
#: gate killing a stale-epoch packet after a controller crash/resync — the
#: at-most-once mechanism working as designed, not a lost traversal.
#: "sw_down" is a packet arriving at a crashed switch (dropped on the
#: floor); "sw_bare" is a packet arriving at a rebooted-but-not-yet-
#: readopted switch, whose empty table 0 miss-drops it.  Both are the
#: switch crash destroying traffic — under-claims, never wrong results.
ENVIRONMENT_LOSSES = frozenset(
    {"dead_port", "swallowed", "squashed", "sw_down", "sw_bare"}
)


# --------------------------------------------------------------------- #
# Scenarios                                                             #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class TriggerSpec:
    """One trigger injection: header overrides applied to the zero state."""

    root: int
    fields: tuple[tuple[str, int], ...] = ()
    #: Only injectable once no packet is in flight (phase ordering — e.g.
    #: the blackhole verify trigger must not overtake the probe phase).
    at_quiescence: bool = False
    #: Only injectable once every environment event of the scenario has
    #: fired (the retry after a controller crash, or against a network
    #: holding one rebooted-bare switch).
    after_env: bool = False
    label: str = "trigger"

    def field_dict(self) -> dict[str, int]:
        return dict(self.fields)


@dataclass(frozen=True)
class Scenario:
    """One exploration setup: triggers + environment configuration."""

    name: str
    service_name: str
    root: int
    triggers: tuple[TriggerSpec, ...]
    #: Edges that silently swallow crossing packets but look *up* to
    #: fast-failover (``link.set_blackhole()`` in the simulator).
    blackholes: frozenset[int] = frozenset()
    #: Whether in-run visible link failures are explored (disabled for
    #: blackhole scenarios: the paper's detection algorithms assume no
    #: concurrent failures, and blackhole placement is enumerated instead).
    allow_failures: bool = True
    #: The anycast/priocast group id this scenario requests (None others).
    gid: int | None = None
    #: ``(pre_epoch, post_epoch)`` for a controller-crash scenario: the
    #: origin gate starts at *pre_epoch*; the nondeterministic ``("crash",)``
    #: transition jumps it to *post_epoch* (the restarted controller's
    #: :meth:`EpochClock.resync <repro.core.epoch.EpochClock.resync>` jump).
    #: ``None`` disables the crash machinery entirely.
    crash: tuple[int, int] | None = None
    #: The victim node of a *switch*-crash scenario: the nondeterministic
    #: ``("sw-crash", node)`` transition takes it down (in-flight packets
    #: arriving there are dropped) and ``("sw-reboot", node)`` brings it
    #: back *bare* — flow tables, groups and fast-path state all gone,
    #: miss-dropping traffic until re-adoption.  ``None`` disables it.
    sw_crash: int | None = None

    @property
    def events(self) -> tuple[tuple, ...]:
        """The environment events, in the order they must fire: each is
        enabled once the previous one has fired, the first once a trigger
        is in flight."""
        events: tuple[tuple, ...] = ()
        if self.crash is not None:
            events += (("crash",),)
        if self.sw_crash is not None:
            events += (("sw-crash", self.sw_crash), ("sw-reboot", self.sw_crash))
        return events

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "service": self.service_name,
            "root": self.root,
            "triggers": [
                {
                    "root": t.root,
                    "fields": dict(t.fields),
                    "at_quiescence": t.at_quiescence,
                    "after_env": t.after_env,
                    "label": t.label,
                }
                for t in self.triggers
            ],
            "blackholes": sorted(self.blackholes),
            "allow_failures": self.allow_failures,
            "gid": self.gid,
            "crash": list(self.crash) if self.crash else None,
            "sw_crash": self.sw_crash,
        }


def _blackhole_placements(
    topology: Topology, budget: int
) -> list[frozenset[int]]:
    """The clean placement plus every failure-budget-sized combination."""
    placements: list[frozenset[int]] = [frozenset()]
    edge_ids = list(range(topology.num_edges))
    for size in range(1, max(0, budget) + 1):
        placements.extend(
            frozenset(combo) for combo in itertools.combinations(edge_ids, size)
        )
    return placements


def _retried_triggers(
    root: int, epochs: tuple[int, int], labels: tuple[str, str]
) -> tuple[TriggerSpec, TriggerSpec]:
    """A trigger in flight under the first epoch, and its retry under the
    second once every environment event of the scenario has fired."""
    return (
        TriggerSpec(root, ((FIELD_EPOCH, epochs[0]),), label=labels[0]),
        TriggerSpec(
            root, ((FIELD_EPOCH, epochs[1]),), after_env=True, label=labels[1]
        ),
    )


#: The crash scenario's epoch pair: the first supervised attempt runs under
#: epoch 1; the restarted controller resyncs past every in-flight epoch
#: (margin 2, mirroring ``EpochClock.resync``) and retries under epoch 3.
CRASH_EPOCHS = (1, 3)


def _crash_scenario(name: str, root: int) -> Scenario:
    """A controller crash/recovery scenario for an origin-reporting service.

    The pre-crash trigger is tagged with the first epoch and admitted by the
    origin gate; the ``("crash",)`` transition (available once the trigger is
    in flight) jumps the gate to the post-crash epoch; the retry trigger —
    injectable only after the crash — runs under that epoch.  The gate
    squashes the stale straggler at the origin, and MC010 asserts no
    pre-crash epoch is accepted after the crash.
    """
    return Scenario(
        f"{name}:crash",
        name,
        root,
        _retried_triggers(root, CRASH_EPOCHS, ("pre-crash", "post-crash-retry")),
        crash=CRASH_EPOCHS,
    )


#: The switch-crash scenario's epoch pair: the pre-crash attempt and the
#: supervisor's post-reboot retry carry distinct epoch tags so MC009 can
#: hold them to at-most-once individually (no origin gate is involved —
#: a switch crash does not resync the controller's clock).
SW_CRASH_EPOCHS = (1, 2)


def _switch_crash_scenarios(
    name: str, root: int, topology: Topology
) -> list[Scenario]:
    """Switch crash/reboot scenarios: one per non-root victim node.

    Each scenario puts a trigger in flight, lets the nondeterministic
    ``("sw-crash", victim)`` transition take the victim down anywhere in
    the interleaving (dropping traffic that arrives there), lets
    ``("sw-reboot", victim)`` bring it back *bare*, and then retries the
    traversal against the half-recovered network.  In-run link failures
    are disabled: the crash is the failure under study, and composing it
    with the link-failure budget explodes the state space without adding
    to the MC011 claim.
    """
    triggers = _retried_triggers(
        root, SW_CRASH_EPOCHS, ("pre-sw-crash", "post-reboot-retry")
    )
    return [
        Scenario(
            f"{name}:sw-crash:{victim}",
            name,
            root,
            triggers,
            allow_failures=False,
            sw_crash=victim,
        )
        for victim in topology.nodes()
        if victim != root
    ]


def scenarios_for(
    service, topology: Topology, root: int, max_failures: int = 1,
    crash: bool = False, switch_crash: bool = False,
) -> list[Scenario]:
    """Build the scenario list the checker explores for *service*.

    For most services this is a single scenario whose in-run failure budget
    is *max_failures*.  Blackhole services instead enumerate blackhole
    placements up to *max_failures* simultaneous silent-drop links (plus the
    clean run) with visible failures disabled — the paper's algorithms
    assume a stable topology during one detection run.

    With *crash* set, origin-reporting services additionally get a
    controller-crash scenario: an epoch-tagged trigger in flight, a
    nondeterministic crash/resync that jumps the origin gate, and a
    retried trigger under the new epoch (checked by MC010).

    With *switch_crash* set, they additionally get one switch-crash
    scenario per non-root victim: the victim crashes mid-traversal, comes
    back bare, and the retry runs against the half-recovered network
    (checked by MC011).
    """
    name = service.name
    if name in ("plain", "snapshot", "critical"):
        out = [
            Scenario(name, name, root, (TriggerSpec(root, label=name),))
        ]
        if crash:
            out.append(_crash_scenario(name, root))
        if switch_crash:
            out.extend(_switch_crash_scenarios(name, root, topology))
        return out
    if name == "snapshot_chunked":
        cap = int(getattr(service, "max_records", 16))
        return [
            Scenario(
                name,
                name,
                root,
                (TriggerSpec(root, ((FIELD_RECCAP, cap),), label=name),),
            )
        ]
    if name == "anycast":
        groups = getattr(service, "groups", {}) or {}
        gids = sorted(groups)
        unserved = (max(gids) if gids else 0) + 1
        out = []
        for gid in gids + [unserved]:
            out.append(
                Scenario(
                    f"anycast:gid{gid}",
                    name,
                    root,
                    (TriggerSpec(root, ((FIELD_GID, gid),), label=f"gid{gid}"),),
                    gid=gid,
                )
            )
        return out
    if name == "priocast":
        priorities = getattr(service, "priorities", {}) or {}
        out = []
        for gid in sorted(priorities):
            out.append(
                Scenario(
                    f"priocast:gid{gid}",
                    name,
                    root,
                    (TriggerSpec(root, ((FIELD_GID, gid),), label=f"gid{gid}"),),
                    gid=gid,
                )
            )
        return out or [
            Scenario(name, name, root, (TriggerSpec(root, label=name),))
        ]
    if name == "blackhole":
        probe = TriggerSpec(root, ((FIELD_REPEAT, REPEAT_PROBE),), label="probe")
        verify = TriggerSpec(
            root,
            ((FIELD_REPEAT, REPEAT_VERIFY),),
            at_quiescence=True,
            label="verify",
        )
        return [
            Scenario(
                f"blackhole:{'+'.join(map(str, sorted(bh))) or 'clean'}",
                name,
                root,
                (probe, verify),
                blackholes=bh,
                allow_failures=False,
            )
            for bh in _blackhole_placements(topology, max_failures)
        ]
    if name == "blackhole_ttl":
        ttl = 4 * topology.num_edges + 4
        return [
            Scenario(
                f"blackhole_ttl:{'+'.join(map(str, sorted(bh))) or 'clean'}",
                name,
                root,
                (TriggerSpec(root, ((FIELD_TTL, ttl),), label="probe"),),
                blackholes=bh,
                allow_failures=False,
            )
            for bh in _blackhole_placements(topology, max_failures)
        ]
    # Unknown service: explore the bare trigger so the loop/integrity
    # invariants still apply.
    return [Scenario(name, name, root, (TriggerSpec(root, label=name),))]


def hop_bound(service_name: str, topology: Topology) -> int:
    """Per-packet hop budget (MC001), from the Table 2 closed forms.

    One full DFS is exactly ``4E - 2n + 2`` crossings
    (:func:`~repro.analysis.complexity.dfs_message_count`): tree edges are
    crossed twice, non-tree edges probed-and-bounced from both sides.  The
    blackhole echo handshake raises every edge to four crossings (``4E``),
    priocast runs two traversals, and the TTL probe carries a ``4E + 4``
    hop budget by construction.  A small slack absorbs the extra
    parent-return crossings failure rerouting can add.  Delegates to
    :func:`~repro.analysis.complexity.traversal_hop_bound` so the checker's
    hop budget and the supervisor's watchdog deadline share one source of
    truth.
    """
    from repro.analysis.complexity import traversal_hop_bound

    return traversal_hop_bound(
        service_name, topology.num_nodes, topology.num_edges
    )


# --------------------------------------------------------------------- #
# One packet step through one compiled pipeline                         #
# --------------------------------------------------------------------- #


class StepOutcome(PipelineEnv):
    """One packet step: the environment the checker walks a switch's
    pipeline in, and everything the step produced.  The environment moves
    nothing on the switch: entries are found by a counter-free scan, FF
    liveness is the state's live edges (*live*), and SELECT cursors live in
    *cursors*, keyed ``(node, group_id)`` and defaulting to ``rr_next``."""

    def __init__(self, node=-1, in_port=0, live=None, cursors=None) -> None:
        super().__init__(live)
        self.node, self.in_port, self.cursors = node, in_port, cursors
        #: (port, fields, stack, ff_alternative) per output, in order, with
        #: IN_PORT resolved; *ff_alternative* (MC006) says whether the FF
        #: group an emission came from had another live bucket, else None.
        self.emissions: list[tuple[int, dict[str, int], tuple, bool | None]] = []
        #: (group_id, bucket index used, value that bucket writes): MC003.
        self.fetches: list[tuple[int, int, int | None]] = []
        #: Label pops that found the stack empty: MC002.
        self.pops_on_empty = 0
        self.miss_table: int | None = None
        self.error: str | None = None

    def find(self, table, context):
        for entry in table.entries():
            if entry.match.hits(context):
                return entry
        return None

    def cursor(self, group) -> int:
        return self.cursors.get((self.node, group.group_id), group.rr_next)

    def set_cursor(self, group, index: int) -> None:
        self.cursors[(self.node, group.group_id)] = index

    def ran(self, group) -> None:
        pass

    def enter(self, group, index: int, emit):
        alternative = None
        if group.group_type is GroupType.FF:  # the buckets before are dead
            later = group.buckets[index + 1 :]
            alternative = first_live_bucket(later, self.live) is not None
        elif group.group_type is GroupType.SELECT:
            value = counter_bucket_value(group, index)
            self.fetches.append((group.group_id, index, value))
        return self.emitter(alternative)

    def emitter(self, ff_alternative: bool | None):
        emissions, in_port = self.emissions, self.in_port

        def emit(port: int, pkt: Packet) -> None:
            resolved = in_port if port == IN_PORT else port
            emissions.append(
                (resolved, dict(pkt.fields), tuple(pkt.stack), ff_alternative)
            )

        return emit

    def apply(self, action, packet: Packet, emit, in_port: int) -> None:
        if isinstance(action, PopLabel):
            self.pops_on_empty += max(0, action.count - len(packet.stack))
        action.apply(packet, emit, in_port)


def step_switch(
    switch: Switch,
    in_port: int,
    fields: Iterable[tuple[str, int]],
    stack: Sequence[tuple],
    port_live: Callable[[int], bool],
    cursors: dict[tuple[int, int], int],
) -> StepOutcome:
    """Run one packet through *switch*'s pipeline without touching it: the
    switch's own :func:`~repro.openflow.switch.walk`, in a
    :class:`StepOutcome` that reads *port_live* and advances *cursors*.
    No counter, ``rr_next`` or packet id moves (the packet has no network,
    so it and an ALL group's clones carry id 0).  A structural fault
    becomes ``error``, its kind and detail joined by a colon
    (``"group-loop:7"``, ``"pipeline-limit"``).  A bare switch would miss
    table 0, as under :meth:`Switch.process`, but the explorer never steps
    a down or bare switch (:meth:`Explorer._apply_step`)."""
    out = StepOutcome(switch.node_id, in_port, port_live, cursors)
    packet = Packet(dict(fields), list(stack))
    try:
        out.miss_table = walk(switch, packet, in_port, out.emitter(None), out)
    except (PipelineError, TableError, GroupError) as exc:
        out.error = f"{exc.kind}:{exc.detail}" if exc.detail else exc.kind
    return out


# --------------------------------------------------------------------- #
# Global state                                                          #
# --------------------------------------------------------------------- #


class PacketState:
    """One in-flight packet: location + concrete header + label stack.

    *fields* is the header as a sorted ``(field, value)`` tuple: every field
    the injection state pins (zeros included) plus any field an action has
    set since.
    """

    __slots__ = ("pid", "node", "in_port", "fields", "stack", "hops", "_key")

    def __init__(
        self,
        pid: int,
        node: int,
        in_port: int,
        fields: tuple[tuple[str, int], ...],
        stack: tuple,
        hops: int,
    ) -> None:
        self.pid = pid
        self.node = node
        self.in_port = in_port
        self.fields = fields
        self.stack = stack
        self.hops = hops
        self._key: tuple | None = None

    def key(self) -> tuple:
        if self._key is None:
            self._key = (
                self.pid,
                self.node,
                self.in_port,
                self.fields,
                self.stack,
                self.hops,
            )
        return self._key

    def describe(self) -> str:
        return (
            f"p{self.pid}@{self.node}"
            f"<-{port_name(self.in_port)} hops={self.hops}"
        )


class GlobalState:
    """One node of the explored transition system (immutable)."""

    __slots__ = (
        "packets",
        "live",
        "cursors",
        "failures_left",
        "next_trigger",
        "extra_left",
        "next_pid",
        "reports",
        "deliveries",
        "losses",
        "env_fired",
        "env_mark",
        "_key",
    )

    def __init__(
        self,
        packets: tuple[PacketState, ...],
        live: frozenset[int],
        cursors: tuple[tuple[tuple[int, int], int], ...],
        failures_left: int,
        next_trigger: int,
        extra_left: int,
        next_pid: int,
        reports: tuple,
        deliveries: tuple,
        losses: tuple,
        env_fired: int = 0,
        env_mark: tuple[int, int] | None = None,
    ) -> None:
        self.packets = packets
        self.live = live
        self.cursors = cursors
        self.failures_left = failures_left
        self.next_trigger = next_trigger
        self.extra_left = extra_left
        self.next_pid = next_pid
        self.reports = reports
        self.deliveries = deliveries
        self.losses = losses
        # Environment state: how many of the scenario's events have fired
        # (the origin gate's epoch and the victim switch's down/bare state
        # derive from it), and the (reports, deliveries) lengths when the
        # first one fired (for MC010/MC011).
        self.env_fired = env_fired
        self.env_mark = env_mark
        self._key: tuple | None = None

    def key(self) -> tuple:
        if self._key is None:
            self._key = (
                tuple(p.key() for p in self.packets),
                self.live,
                self.cursors,
                self.failures_left,
                self.next_trigger,
                self.extra_left,
                self.next_pid,
                self.reports,
                self.deliveries,
                self.losses,
                self.env_fired,
                self.env_mark,
            )
        return self._key

    def evolve(self, **changes) -> "GlobalState":
        """A copy with *changes* applied (every other field carried over).

        The transition functions build successors through this so a new
        piece of scenario state (e.g. the environment fields) cannot be
        silently dropped by a constructor call that predates it.
        """
        kwargs = {
            "packets": self.packets,
            "live": self.live,
            "cursors": self.cursors,
            "failures_left": self.failures_left,
            "next_trigger": self.next_trigger,
            "extra_left": self.extra_left,
            "next_pid": self.next_pid,
            "reports": self.reports,
            "deliveries": self.deliveries,
            "losses": self.losses,
            "env_fired": self.env_fired,
            "env_mark": self.env_mark,
        }
        kwargs.update(changes)
        return GlobalState(**kwargs)


#: Observables: (node, ((field, value), ...), stack) for reports,
#: (node, ((field, value), ...)) for deliveries,
#: (kind, node, port, edge_id) for losses.


def observe(fields: Mapping[str, int]) -> tuple:
    """The report/delivery observable of an emitted header: its nonzero
    fields in name order.  The checker and the simulator replay both
    judge packets by it."""
    return tuple(sorted((name, value) for name, value in fields.items() if value))


# --------------------------------------------------------------------- #
# Violations and the @invariant registry                                #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Violation:
    """One invariant violation (the payload of a counterexample)."""

    invariant: str
    name: str
    message: str
    node: int | None = None
    details: tuple[tuple[str, object], ...] = ()

    def to_dict(self) -> dict:
        out = {
            "invariant": self.invariant,
            "name": self.name,
            "message": self.message,
        }
        if self.node is not None:
            out["node"] = self.node
        if self.details:
            out["details"] = {k: v for k, v in self.details}
        return out

    def format(self) -> str:
        where = f" [node {self.node}]" if self.node is not None else ""
        return f"{self.invariant} {self.name}{where}: {self.message}"


@dataclass(frozen=True)
class Invariant:
    """A registered temporal invariant (mirror of ``LintRule``)."""

    invariant_id: str
    name: str
    scope: str  # "step" or "terminal"
    doc: str
    check: Callable

    def violation(
        self, message: str, node: int | None = None, **details
    ) -> Violation:
        return Violation(
            self.invariant_id,
            self.name,
            message,
            node,
            tuple(sorted(details.items())),
        )


#: invariant id -> Invariant, in registration order.
INVARIANTS: dict[str, Invariant] = {}


def invariant(invariant_id: str, name: str, scope: str):
    """Register a model-checking invariant (the ``@lint_rule`` analogue).

    ``scope`` is ``"step"`` (checked after every packet step, receiving the
    :class:`StepInfo`) or ``"terminal"`` (checked on quiescent states with
    all triggers injected).  The decorated function receives
    ``(ctx, state, info)`` / ``(ctx, state)`` and yields
    :class:`Violation` objects built via ``inv.violation(...)``.
    """
    if scope not in ("step", "terminal"):
        raise ValueError(f"unknown invariant scope {scope!r}")

    def register(func: Callable) -> Callable:
        if invariant_id in INVARIANTS:
            raise ValueError(f"duplicate invariant id {invariant_id}")
        # Import-time registration, frozen before use (an allowed RACE001
        # site in tests/test_source_hazards.py).
        INVARIANTS[invariant_id] = Invariant(
            invariant_id, name, scope, (func.__doc__ or "").strip(), func
        )
        return func

    return register


@dataclass
class StepInfo:
    """What one ``("step", pid)`` transition did (step-invariant input)."""

    pid: int
    node: int
    in_port: int
    outcome: StepOutcome
    new_packets: list[PacketState]
    losses_added: list[tuple]


class ModelContext:
    """Shared read-only context handed to invariants (lazy oracles)."""

    def __init__(
        self,
        topology: Topology,
        service,
        scenario: Scenario,
    ) -> None:
        self.topology = topology
        self.service = service
        self.scenario = scenario
        self.all_edges = frozenset(range(topology.num_edges))
        self.hop_bound = hop_bound(service.name, topology)
        self._components: dict[frozenset[int], set[int]] = {}

    def full_environment(self, state: GlobalState) -> bool:
        """No link ever failed and no blackhole configured in this branch."""
        return state.live == self.all_edges and not self.scenario.blackholes

    def live_component(self, state: GlobalState) -> set[int]:
        """Nodes reachable from the root over the state's live edges."""
        cached = self._components.get(state.live)
        if cached is not None:
            return cached
        adjacency: dict[int, list[int]] = {
            u: [] for u in self.topology.nodes()
        }
        for edge_id in state.live:
            edge = self.topology.edge(edge_id)
            adjacency[edge.a.node].append(edge.b.node)
            adjacency[edge.b.node].append(edge.a.node)
        seen = {self.scenario.root}
        frontier = [self.scenario.root]
        while frontier:
            u = frontier.pop()
            for v in adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        self._components[state.live] = seen
        return seen

    def members(self, gid: int | None) -> frozenset[int]:
        """Configured receivers of *gid* (anycast groups / priocast bids)."""
        if gid is None:
            return frozenset()
        groups = getattr(self.service, "groups", None)
        if groups is not None:
            return frozenset(groups.get(gid, ()))
        priorities = getattr(self.service, "priorities", None)
        if priorities is not None:
            return frozenset(priorities.get(gid, {}))
        return frozenset()

    def environment_loss(self, state: GlobalState) -> bool:
        return any(loss[0] in ENVIRONMENT_LOSSES for loss in state.losses)


# --------------------------------------------------------------------- #
# Invariant implementations                                             #
# --------------------------------------------------------------------- #


@invariant("MC001", "no-forwarding-loop", "step")
def _check_loop(ctx: ModelContext, state: GlobalState, info: StepInfo):
    """A packet must not exceed the per-service hop budget (the paper's
    2·|E| traversal bound, doubled for echo/two-phase protocols), and no
    single pipeline may loop internally."""
    inv = INVARIANTS["MC001"]
    if info.outcome.error == "pipeline-limit":
        yield inv.violation(
            f"pipeline exceeded {Switch.MAX_PIPELINE_STEPS} steps "
            f"(rule loop inside the switch)",
            node=info.node,
        )
    for packet in info.new_packets:
        if packet.hops > ctx.hop_bound:
            yield inv.violation(
                f"packet p{packet.pid} exceeded the {ctx.hop_bound}-hop "
                f"budget (at node {packet.node}); the traversal is cycling",
                node=info.node,
                hops=packet.hops,
                bound=ctx.hop_bound,
            )


@invariant("MC002", "snapshot-record-sanity", "step")
def _check_record_pops(ctx: ModelContext, state: GlobalState, info: StepInfo):
    """A compiled pop must always find the record it deletes; popping an
    empty label stack means a topology record was lost."""
    if info.outcome.pops_on_empty:
        yield INVARIANTS["MC002"].violation(
            f"{info.outcome.pops_on_empty} pop(s) on an empty label stack",
            node=info.node,
        )


def _duplicate_link_records(records: Sequence[tuple]) -> list[tuple]:
    """Replay the snapshot decode and collect re-discovered links.

    Mirrors :func:`decode_snapshot` but *reports* duplicates (the decoder's
    set-union silently absorbs them) and swallows structural errors — those
    are reported separately via the real decoder.
    """
    links: set[frozenset] = set()
    duplicates: list[tuple] = []
    path: list[int] = []
    nodes: set[int] = set()
    current: int | None = None
    pending_out: int | None = None
    for record in records:
        kind = record[0]
        if kind == "visit":
            _, node, port = record
            if current is None:
                current = node
                nodes.add(node)
                continue
            if pending_out is None:
                return duplicates  # malformed: decode_snapshot reports it
            link = frozenset(((current, pending_out), (node, port)))
            if link in links:
                duplicates.append(record)
            links.add(link)
            pending_out = None
            if node not in nodes:
                nodes.add(node)
                path.append(current)
                current = node
        elif kind == "out":
            pending_out = record[1]
        elif kind == "ret":
            if not path:
                return duplicates
            current = path.pop()
            pending_out = None
        else:
            return duplicates
    return duplicates


@invariant("MC002T", "snapshot-record-stream", "terminal")
def _check_record_stream(ctx: ModelContext, state: GlobalState):
    """The final snapshot record stream must decode cleanly and must not
    record the same edge twice."""
    if ctx.service.name not in ("snapshot", "snapshot_chunked"):
        return
    from repro.core.services.snapshot import (
        SnapshotDecodeError,
        decode_snapshot,
    )

    inv = INVARIANTS["MC002T"]
    for node, fields, stack in state.reports:
        field_map = dict(fields)
        duplicates = _duplicate_link_records(stack)
        if duplicates:
            yield inv.violation(
                f"duplicate snapshot edge record(s) {duplicates[:3]} in the "
                f"report from node {node}",
                node=node,
            )
        if field_map.get(FIELD_SNAP_DONE):
            try:
                decode_snapshot(list(stack))
            except SnapshotDecodeError as exc:
                yield inv.violation(
                    f"final snapshot stream is malformed: {exc}", node=node
                )


@invariant("MC003", "counter-coherence", "step")
def _check_counters(ctx: ModelContext, state: GlobalState, info: StepInfo):
    """A smart counter's bucket j must write j: the fetched value must
    equal the round-robin cursor, or fetch-and-increment is broken and the
    verify phase reads garbage."""
    inv = INVARIANTS["MC003"]
    for group_id, index, value in info.outcome.fetches:
        if value is None:
            yield inv.violation(
                f"counter group {group_id} bucket {index} writes no field",
                node=info.node,
                group=group_id,
            )
        elif value != index:
            yield inv.violation(
                f"counter group {group_id} bucket {index} writes {value} "
                f"(fetch-and-increment must return the cursor)",
                node=info.node,
                group=group_id,
            )


@invariant("MC004", "traversal-completes", "terminal")
def _check_completion(ctx: ModelContext, state: GlobalState):
    """Bounded liveness: every quiescent run must have produced its
    service's completion observable (final report / delivery), unless the
    environment destroyed the packet (failed link, blackhole)."""
    inv = INVARIANTS["MC004"]
    name = ctx.service.name
    reports = [(n, dict(f), s) for n, f, s in state.reports]
    deliveries = [(n, dict(f)) for n, f in state.deliveries]

    if name == "blackhole":
        # The verify phase reports *before* crossing the suspect link, so a
        # verdict is due even when the probe phase was swallowed.
        if not any(f.get(FIELD_BH) for _n, f, _s in reports):
            yield inv.violation(
                "blackhole verify phase produced no verdict report"
            )
        return
    if name == "blackhole_ttl":
        if ctx.scenario.blackholes:
            return  # the swallow *is* the signal; MC005 checks its location
        if not any(f.get(FIELD_BH) == BH_DONE for _n, f, _s in reports):
            yield inv.violation(
                "TTL probe with a full budget never reported completion"
            )
        return

    if ctx.environment_loss(state):
        return  # a failed link / blackhole legitimately killed the run

    if name in ("plain", "critical"):
        if not reports:
            yield inv.violation("traversal never reported back to the root")
        return
    if name in ("snapshot", "snapshot_chunked"):
        done = [
            (n, f, s)
            for n, f, s in reports
            if f.get(FIELD_SNAP_DONE)
            or (name == "snapshot_chunked" and f.get(FIELD_REPORT_IN))
        ]
        done += [
            (n, f, ())
            for n, f in deliveries
            if f.get(FIELD_SNAP_DONE)  # in-band report variant
        ]
        if not done:
            yield inv.violation("snapshot never produced its final report")
            return
        if ctx.full_environment(state) and name == "snapshot":
            from repro.core.services.snapshot import (
                SnapshotDecodeError,
                decode_snapshot,
            )

            expected = ctx.topology.port_pair_set()
            for node, fields, stack in done:
                if not fields.get(FIELD_SNAP_DONE):
                    continue
                try:
                    _nodes, links = decode_snapshot(list(stack))
                except SnapshotDecodeError:
                    continue  # MC002T reports the malformed stream
                missing = expected - links
                if missing:
                    sample = sorted(tuple(sorted(pair)) for pair in missing)
                    yield inv.violation(
                        f"failure-free snapshot missed {len(missing)} "
                        f"link(s), e.g. {sample[0]}",
                        node=node,
                    )
        return
    if name in ("anycast", "priocast"):
        if name == "priocast" and not ctx.full_environment(state):
            # Priocast's phase-2 walk follows parent pointers recorded
            # during phase 1; a failure *between* the phases can route the
            # delivery packet to the winner on a non-parent port, which the
            # algorithm (correctly) refuses to treat as a delivery.  Only
            # the failure-free branch promises delivery.
            return
        members = ctx.members(ctx.scenario.gid) & ctx.live_component(state)
        if members and not deliveries:
            yield inv.violation(
                f"no delivery although member(s) {sorted(members)} of "
                f"gid {ctx.scenario.gid} are reachable from the root"
            )
        return
    # Unknown service: nothing to require.


@invariant("MC005", "blackhole-localized", "terminal")
def _check_blackhole_location(ctx: ModelContext, state: GlobalState):
    """A blackhole verdict must name one of the actually-blackholed links
    (smart counters: the FOUND report's port; TTL: the probe must die
    exactly on a blackholed link, never report 'clean')."""
    if not ctx.scenario.blackholes:
        return
    inv = INVARIANTS["MC005"]
    bh_edges = ctx.scenario.blackholes
    name = ctx.service.name
    if name == "blackhole":
        found = [
            (n, dict(f))
            for n, f, _s in state.reports
            if dict(f).get(FIELD_BH) == BH_FOUND
        ]
        if not found:
            yield inv.violation(
                f"blackholed link(s) {sorted(bh_edges)} never reported FOUND"
            )
            return
        node, fields = found[0]
        port = fields.get(FIELD_REPORT_PORT, 0)
        edge = ctx.topology.port_edge(node, port)
        if edge is None or edge.edge_id not in bh_edges:
            yield inv.violation(
                f"first FOUND report names ({node}, port {port}) which is "
                f"not a blackholed link {sorted(bh_edges)}",
                node=node,
            )
        return
    if name == "blackhole_ttl":
        if any(
            dict(f).get(FIELD_BH) == BH_DONE for _n, f, _s in state.reports
        ):
            yield inv.violation(
                f"TTL probe reported 'no blackhole' although link(s) "
                f"{sorted(bh_edges)} are blackholed"
            )
        swallowed = [
            loss for loss in state.losses if loss[0] == "swallowed"
        ]
        if not swallowed:
            yield inv.violation(
                f"TTL probe was never swallowed by blackholed link(s) "
                f"{sorted(bh_edges)}"
            )


@invariant("MC006", "failover-masks-failures", "step")
def _check_failover(ctx: ModelContext, state: GlobalState, info: StepInfo):
    """Fast-failover must never emit onto a dead port while the group
    still had a live bucket — that is the one job FF groups exist for."""
    inv = INVARIANTS["MC006"]
    for loss in info.losses_added:
        kind, node, port, _edge_id, ff_alternative = loss
        if kind == "dead_port" and ff_alternative:
            yield inv.violation(
                f"FF group at node {node} emitted on dead port {port} "
                f"although another live bucket existed",
                node=node,
                port=port,
            )


@invariant("MC007", "delivery-correctness", "terminal")
def _check_delivery(ctx: ModelContext, state: GlobalState):
    """Anycast must deliver only to members of the requested group;
    priocast must deliver to the highest-priority member (checked on
    failure-free branches, where the winner is well defined)."""
    name = ctx.service.name
    if name not in ("anycast", "priocast"):
        return
    inv = INVARIANTS["MC007"]
    gid = ctx.scenario.gid
    members = ctx.members(gid)
    for node, fields in state.deliveries:
        if node not in members:
            yield inv.violation(
                f"delivery at node {node} which is not a member of "
                f"gid {gid} (members: {sorted(members)})",
                node=node,
            )
    if name == "priocast" and ctx.full_environment(state):
        priorities = getattr(ctx.service, "priorities", {}).get(gid, {})
        if priorities:
            best = max(priorities.values())
            for node, fields in state.deliveries:
                got = priorities.get(node)
                if got is not None and got != best:
                    yield inv.violation(
                        f"priocast delivered to node {node} "
                        f"(priority {got}) but the best member has "
                        f"priority {best}",
                        node=node,
                    )


@invariant("MC008", "pipeline-integrity", "step")
def _check_integrity(ctx: ModelContext, state: GlobalState, info: StepInfo):
    """Structural execution errors — goto to a missing/earlier table,
    unknown or empty groups, group chains — must be unreachable."""
    error = info.outcome.error
    if error is not None and error != "pipeline-limit":
        yield INVARIANTS["MC008"].violation(
            f"pipeline execution error at node {info.node}: {error}",
            node=info.node,
        )


@invariant("MC009", "epoch-at-most-once", "terminal")
def _check_epoch_at_most_once(ctx: ModelContext, state: GlobalState):
    """Every supervised epoch yields at most one accepted observable.

    Supervised triggers carry a nonzero epoch tag; the origin-side gate
    squashes stale epochs, so by the end of an interleaving each nonzero
    epoch must have produced at most one *completion* observable — one
    terminal report, or one delivery for delivery-style services.  Epoch 0
    marks unsupervised traffic and is exempt (all pre-supervision scenarios
    stay green).  The complementary liveness half of the contract — "every
    epoch eventually yields exactly one result *or* an explicit degraded
    report" — lives where degraded reports exist, in the supervisor's
    ledger (:func:`repro.control.supervisor.check_epoch_ledger`), which
    ``tests/test_modelcheck.py`` checks against real supervised runs.

    The smart-counter blackhole verify sweep may emit several FOUND copies
    per walk (the documented spurious reports of its phase B, deduplicated
    at the origin by earliest-report-wins); for it, completion means the
    BH_DONE report, and FOUND multiplicity is not a violation.
    """
    inv = INVARIANTS["MC009"]
    service_name = ctx.service.name

    completions: dict[int, int] = {}

    def bump(epoch: int) -> None:
        if epoch:
            completions[epoch] = completions.get(epoch, 0) + 1

    for _node, fields, _stack in state.reports:
        obs = dict(fields)
        if service_name in ("blackhole", "blackhole_ttl"):
            if obs.get(FIELD_BH) != BH_DONE:
                continue
        bump(obs.get(FIELD_EPOCH, 0))
    if service_name in ("anycast", "priocast"):
        for _node, fields in state.deliveries:
            bump(dict(fields).get(FIELD_EPOCH, 0))

    for epoch, count in sorted(completions.items()):
        if count > 1:
            yield inv.violation(
                f"epoch {epoch} produced {count} completion observables; "
                f"at-most-once delivery violated"
            )


@invariant("MC010", "crash-at-most-once", "terminal")
def _check_crash_acceptance(ctx: ModelContext, state: GlobalState):
    """No pre-crash epoch may be accepted after a controller crash/resync.

    In a crash scenario the restarted controller resyncs its epoch clock
    past every in-flight epoch and retries under the new epoch; the origin
    gate alone — one match rule in the data plane, no controller-side
    filtering — must keep stale stragglers out.  Concretely: every report
    recorded *after* the crash transition must carry epoch 0 (unsupervised)
    or the post-crash epoch.  A violation means the data plane let a
    pre-crash result cross the resync boundary, so even a restarted
    controller that trusts every packet-in could double-accept — the
    at-most-once contract would silently depend on controller soft state
    that the crash just destroyed.

    Vacuous (no checks) unless the scenario has a crash and the crash
    actually happened in this interleaving.
    """
    crash = ctx.scenario.crash
    if crash is None or state.env_mark is None:
        return
    inv = INVARIANTS["MC010"]
    _pre, post = crash
    for node, fields, _stack in state.reports[state.env_mark[0]:]:
        epoch = dict(fields).get(FIELD_EPOCH, 0)
        if epoch and epoch != post:
            yield inv.violation(
                f"report at node {node} tagged epoch {epoch} was accepted "
                f"after the crash (restarted epoch is {post}); a stale "
                f"result crossed the resync boundary",
                node=node,
            )


@invariant("MC011", "switch-crash-under-claims", "terminal")
def _check_switch_crash(ctx: ModelContext, state: GlobalState):
    """A switch crash may silently under-claim, never fabricate.

    In a switch-crash scenario the victim node goes down mid-interleaving
    (arriving packets drop) and later reboots *bare* — tables, groups and
    fast-path state gone — so traffic through it miss-drops until
    re-adoption.  Both effects are honest degradation: the traversal may
    fail to complete (MC004 excuses the environment loss), but no
    observable recorded after the crash may be *wrong*:

    - the dead or bare victim must never produce a report or delivery
      (its stale pipeline must not run — the model mirrors
      :meth:`Switch.reboot <repro.openflow.switch.Switch.reboot>`, which
      empties the tables and invalidates the compiled fast path exactly so
      no pre-crash rule can fire post-reboot);
    - a snapshot report that does arrive must describe only links and
      nodes that truly exist — a partial map is an under-claim, a map
      with invented edges is a wrong result;
    - the crash machinery must only ever touch the configured victim.

    Vacuous unless the scenario has a switch crash and the crash actually
    happened in this interleaving.
    """
    victim = ctx.scenario.sw_crash
    if victim is None or state.env_mark is None:
        return
    inv = INVARIANTS["MC011"]
    report_mark, delivery_mark = state.env_mark
    for node, _fields, _stack in state.reports[report_mark:]:
        if node == victim:
            yield inv.violation(
                f"crashed switch {victim} produced a report after its "
                f"crash; a dead or bare switch must stay silent",
                node=node,
            )
    for node, _fields in state.deliveries[delivery_mark:]:
        if node == victim:
            yield inv.violation(
                f"crashed switch {victim} produced a delivery after its "
                f"crash; a dead or bare switch must stay silent",
                node=node,
            )
    for kind, node, _port, _edge in state.losses:
        if kind in ("sw_down", "sw_bare") and node != victim:
            yield inv.violation(
                f"switch-crash loss ({kind}) at node {node} although the "
                f"scenario's victim is {victim}",
                node=node,
            )
    if ctx.service.name in ("snapshot", "snapshot_chunked"):
        from repro.core.services.snapshot import (
            SnapshotDecodeError,
            decode_snapshot,
        )

        true_nodes = set(ctx.topology.nodes())
        true_links = ctx.topology.port_pair_set()
        for node, fields, stack in state.reports:
            if not dict(fields).get(FIELD_SNAP_DONE):
                continue
            try:
                nodes, links = decode_snapshot(list(stack))
            except SnapshotDecodeError:
                continue  # MC002T reports the malformed stream
            ghost_nodes = set(nodes) - true_nodes
            ghost_links = links - true_links
            if ghost_nodes or ghost_links:
                sample = sorted(ghost_nodes) or sorted(
                    tuple(sorted(pair)) for pair in ghost_links
                )
                yield inv.violation(
                    f"snapshot after a switch crash claims nonexistent "
                    f"topology elements, e.g. {sample[0]} — a wrong "
                    f"result, not an under-claim",
                    node=node,
                )


# --------------------------------------------------------------------- #
# The explorer                                                          #
# --------------------------------------------------------------------- #


@dataclass
class CheckConfig:
    """Knobs for :func:`run_check` (CLI flags map 1:1)."""

    max_failures: int = 1
    max_triggers: int = 1
    depth: int | None = None
    max_states: int = DEFAULT_STATE_BUDGET
    max_violations: int = DEFAULT_MAX_VIOLATIONS
    disable: set[str] = dataclass_field(default_factory=set)
    roots: Sequence[int] | None = None
    #: Also explore controller crash/recovery scenarios (MC010) for
    #: origin-reporting services.  Off by default: the crash machinery
    #: roughly doubles the scenario count for those services.
    crash: bool = False
    #: Also explore switch crash/reboot scenarios (MC011) for
    #: origin-reporting services — one scenario per non-root victim node,
    #: each with in-run link failures disabled.  Off by default.
    switch_crash: bool = False


@dataclass
class Counterexample:
    """A violation plus the minimized action trace that reaches it."""

    scenario: Scenario
    violation: Violation
    trace: tuple[tuple, ...]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "violation": self.violation.to_dict(),
            "trace": [list(action) for action in self.trace],
        }

    def format(self, topology: Topology | None = None) -> str:
        lines = [self.violation.format(), f"  scenario: {self.scenario.name}"]
        for action in self.trace:
            lines.append(f"  - {format_action(action, topology)}")
        return "\n".join(lines)


def format_action(action: tuple, topology: Topology | None = None) -> str:
    kind = action[0]
    if kind == "inject":
        return f"inject trigger #{action[1]}"
    if kind == "inject-extra":
        return "inject extra (concurrent) trigger"
    if kind == "fail":
        edge_id = action[1]
        if topology is not None:
            edge = topology.edge(edge_id)
            return f"fail link {edge_id} ({edge.a.node}-{edge.b.node})"
        return f"fail link {edge_id}"
    if kind == "step":
        return f"step packet p{action[1]}"
    if kind == "crash":
        return "controller crashes and restarts (gate resyncs)"
    if kind == "sw-crash":
        return f"switch {action[1]} crashes (in-flight packets there drop)"
    if kind == "sw-reboot":
        return f"switch {action[1]} reboots bare (tables and groups lost)"
    return repr(action)


class Explorer:
    """BFS over :class:`GlobalState` for one scenario.

    BFS (plus visited-state dedup) means the first trace reaching any
    violation is a *shortest* one — counterexamples come out minimal in
    length before the deletion-based minimizer even runs.
    """

    def __init__(
        self,
        switches: Mapping[int, Switch],
        topology: Topology,
        scenario: Scenario,
        ctx: ModelContext,
        config: CheckConfig,
        invariants: Mapping[str, Invariant],
    ) -> None:
        self.switches = switches
        self.topology = topology
        self.scenario = scenario
        self.ctx = ctx
        self.config = config
        self.step_invariants = [
            inv for inv in invariants.values() if inv.scope == "step"
        ]
        self.terminal_invariants = [
            inv for inv in invariants.values() if inv.scope == "terminal"
        ]
        names = zero_state_names(switches, topology)
        self._trigger_fields = [
            self._trigger_header(names, spec) for spec in scenario.triggers
        ]
        self._events = scenario.events

    # -- state construction ---------------------------------------------- #

    def _trigger_header(
        self, names: Iterable[str], spec: TriggerSpec
    ) -> tuple[tuple[str, int], ...]:
        """The injected header: every field zero (the paper's
        zero-initialized tags), then the trigger's overrides and the
        service id."""
        header = dict.fromkeys(names, 0)
        header[FIELD_SVC] = getattr(self.ctx.service, "service_id", 0)
        header.update(spec.fields)
        return tuple(sorted(header.items()))

    def initial_state(self) -> GlobalState:
        budget = (
            self.config.max_failures if self.scenario.allow_failures else 0
        )
        return GlobalState(
            packets=(),
            live=self.ctx.all_edges,
            cursors=(),
            failures_left=budget,
            next_trigger=0,
            extra_left=max(0, self.config.max_triggers - 1),
            next_pid=0,
            reports=(),
            deliveries=(),
            losses=(),
        )

    def is_terminal(self, state: GlobalState) -> bool:
        return not state.packets and state.next_trigger >= len(
            self.scenario.triggers
        )

    # -- transitions ------------------------------------------------------ #

    def _env_pending(self, state: GlobalState) -> bool:
        return state.env_fired < len(self._events)

    def transitions(self, state: GlobalState) -> list[tuple]:
        actions: list[tuple] = [("step", p.pid) for p in state.packets]
        if state.next_trigger < len(self.scenario.triggers):
            spec = self.scenario.triggers[state.next_trigger]
            if (not spec.at_quiescence or not state.packets) and (
                not spec.after_env or not self._env_pending(state)
            ):
                actions.append(("inject", state.next_trigger))
        if self._env_pending(state) and state.next_trigger > 0:
            actions.append(self._events[state.env_fired])
        if (
            state.extra_left > 0
            and self.scenario.triggers
            and state.next_trigger > 0
        ):
            actions.append(("inject-extra",))
        if (
            self.scenario.allow_failures
            and state.failures_left > 0
            and (
                state.packets
                or state.next_trigger < len(self.scenario.triggers)
            )
        ):
            actions.extend(("fail", edge_id) for edge_id in sorted(state.live))
        return actions

    def apply(
        self, state: GlobalState, action: tuple
    ) -> tuple[GlobalState, StepInfo | None] | None:
        """Apply *action*; None when it is not applicable in *state*."""
        kind = action[0]
        if kind == "inject":
            index = action[1]
            if index != state.next_trigger or index >= len(
                self.scenario.triggers
            ):
                return None
            spec = self.scenario.triggers[index]
            if spec.at_quiescence and state.packets:
                return None
            if spec.after_env and self._env_pending(state):
                return None
            packet = PacketState(
                state.next_pid,
                spec.root,
                LOCAL_PORT,
                self._trigger_fields[index],
                (),
                0,
            )
            return (
                state.evolve(
                    packets=state.packets + (packet,),
                    next_trigger=state.next_trigger + 1,
                    next_pid=state.next_pid + 1,
                ),
                None,
            )
        if kind == "inject-extra":
            if state.extra_left <= 0 or not self.scenario.triggers:
                return None
            packet = PacketState(
                state.next_pid,
                self.scenario.triggers[0].root,
                LOCAL_PORT,
                self._trigger_fields[0],
                (),
                0,
            )
            return (
                state.evolve(
                    packets=state.packets + (packet,),
                    extra_left=state.extra_left - 1,
                    next_pid=state.next_pid + 1,
                ),
                None,
            )
        if kind == "fail":
            edge_id = action[1]
            if (
                state.failures_left <= 0
                or edge_id not in state.live
                or not self.scenario.allow_failures
            ):
                return None
            return (
                state.evolve(
                    live=state.live - {edge_id},
                    failures_left=state.failures_left - 1,
                ),
                None,
            )
        if kind == "step":
            pid = action[1]
            packet = next((p for p in state.packets if p.pid == pid), None)
            if packet is None:
                return None
            return self._apply_step(state, packet)
        if self._env_pending(state) and action == self._events[state.env_fired]:
            # The scenario's next environment event: a controller crash
            # (its restart jumps the origin gate's epoch; in-flight packets
            # keep flying), a switch crash (arrivals there drop) or that
            # switch's bare reboot (arrivals miss-drop until re-adoption).
            # The effects are derived from env_fired in _environment_loss.
            return (
                state.evolve(
                    env_fired=state.env_fired + 1,
                    env_mark=state.env_mark
                    or (len(state.reports), len(state.deliveries)),
                ),
                None,
            )
        return None

    def _apply_step(
        self, state: GlobalState, packet: PacketState
    ) -> tuple[GlobalState, StepInfo]:
        node = packet.node
        kind = self._environment_loss(state, packet) if self._events else None
        if kind is not None:
            # The stepper is never consulted: a down or bare switch never
            # runs its stale pipeline, and a squashed packet dies at the
            # gate before table 0.
            loss = (kind, node, packet.in_port, -1)
            info = StepInfo(
                pid=packet.pid,
                node=node,
                in_port=packet.in_port,
                outcome=StepOutcome(),
                new_packets=[],
                losses_added=[loss + (None,)],
            )
            return state.evolve(
                packets=tuple(p for p in state.packets if p.pid != packet.pid),
                losses=state.losses + (loss,),
            ), info
        live = state.live

        def port_live(port: int) -> bool:
            edge = self.topology.port_edge(node, port)
            return edge is not None and edge.edge_id in live

        cursors = dict(state.cursors)
        outcome = step_switch(
            self.switches[node],
            packet.in_port,
            packet.fields,
            packet.stack,
            port_live,
            cursors,
        )

        new_packets: list[PacketState] = []
        losses: list[tuple] = []
        reports: list[tuple] = []
        deliveries: list[tuple] = []
        next_pid = state.next_pid
        for port, fields, stack, ff_alternative in outcome.emissions:
            if port == CONTROLLER_PORT:
                reports.append((node, observe(fields), stack))
                continue
            if port == LOCAL_PORT:
                deliveries.append((node, observe(fields)))
                continue
            if not is_physical_port(port):
                losses.append(("dead_port", node, port, -1, ff_alternative))
                continue
            edge = self.topology.port_edge(node, port)
            if edge is None or edge.edge_id not in live:
                losses.append(
                    (
                        "dead_port",
                        node,
                        port,
                        -1 if edge is None else edge.edge_id,
                        ff_alternative,
                    )
                )
                continue
            if edge.edge_id in self.scenario.blackholes:
                losses.append(("swallowed", node, port, edge.edge_id, None))
                continue
            peer = self.topology.neighbor(node, port)
            new_packets.append(
                PacketState(
                    next_pid,
                    peer.node,
                    peer.port,
                    tuple(sorted(fields.items())),
                    stack,
                    packet.hops + 1,
                )
            )
            next_pid += 1
        if outcome.miss_table is not None:
            losses.append(
                ("pipeline_miss", node, outcome.miss_table, -1, None)
            )

        remaining = tuple(p for p in state.packets if p.pid != packet.pid)
        new_state = state.evolve(
            packets=remaining + tuple(new_packets),
            cursors=tuple(sorted(cursors.items())),
            next_pid=next_pid,
            reports=state.reports + tuple(reports),
            deliveries=state.deliveries + tuple(deliveries),
            losses=state.losses
            + tuple((k, n, p, e) for k, n, p, e, _ in losses),
        )
        info = StepInfo(
            pid=packet.pid,
            node=node,
            in_port=packet.in_port,
            outcome=outcome,
            new_packets=new_packets,
            losses_added=losses,
        )
        return new_state, info

    def _environment_loss(
        self, state: GlobalState, packet: PacketState
    ) -> str | None:
        """The environment loss that destroys *packet* at its node, if any.

        Derived from the events fired so far.  A switch whose last event
        is ``sw-crash`` is dead: the frame falls on the floor
        (``"sw_down"``).  One whose last event is ``sw-reboot`` is up but
        bare — table 0 miss-drops everything (``"sw_bare"``, mirroring
        :meth:`Switch.reboot <repro.openflow.switch.Switch.reboot>` before
        re-adoption).  Otherwise, at the root of a controller-crash
        scenario, the origin epoch gate
        (:class:`~repro.core.epoch.EpochGate`) admits only tag 0 or its
        current epoch — the pre-crash epoch, or the post-crash one once
        ``crash`` has fired — so a stale straggler can neither report a
        duplicate result nor keep traversing (``"squashed"``).  All three
        are environment losses: under-claims, never program bugs.
        """
        fired = self._events[: state.env_fired]
        for event in reversed(fired):
            if event[0] != "crash" and event[1] == packet.node:
                return "sw_down" if event[0] == "sw-crash" else "sw_bare"
        crash = self.scenario.crash
        if crash is None or packet.node != self.scenario.root:
            return None
        epoch = dict(packet.fields).get(FIELD_EPOCH, 0)
        gate = crash[1] if ("crash",) in fired else crash[0]
        return None if not gate or epoch in (0, gate) else "squashed"

    # -- invariant evaluation --------------------------------------------- #

    def step_violations(
        self, state: GlobalState, info: StepInfo
    ) -> list[Violation]:
        out: list[Violation] = []
        for inv in self.step_invariants:
            out.extend(inv.check(self.ctx, state, info))
        return out

    def terminal_violations(self, state: GlobalState) -> list[Violation]:
        out: list[Violation] = []
        for inv in self.terminal_invariants:
            out.extend(inv.check(self.ctx, state))
        return out

    # -- deterministic re-execution (minimizer / validation) -------------- #

    def execute(
        self, actions: Iterable[tuple], close: bool = True
    ) -> list[Violation] | None:
        """Re-run *actions* from the initial state; None if inapplicable.

        With ``close=True`` the run is deterministically completed after
        the scripted actions (step the lowest-pid packet, inject pending
        triggers) so terminal invariants apply; this is exactly what the
        simulator replay does on its own.
        """
        state = self.initial_state()
        violations: list[Violation] = []
        for action in actions:
            applied = self.apply(state, action)
            if applied is None:
                return None
            state, info = applied
            if info is not None:
                violations.extend(self.step_violations(state, info))
        if close:
            guard = 0
            limit = 64 * (self.topology.num_edges + 2) * max(
                1, len(self.scenario.triggers) + self.config.max_triggers
            )
            while not self.is_terminal(state):
                guard += 1
                if guard > limit:
                    break
                if state.packets:
                    action = ("step", state.packets[0].pid)
                elif (
                    self._env_pending(state)
                    and self.scenario.triggers[state.next_trigger].after_env
                ):
                    # The pending trigger waits for the environment; fire
                    # its next event so the closure can reach a terminal
                    # state.
                    action = self._events[state.env_fired]
                else:
                    action = ("inject", state.next_trigger)
                applied = self.apply(state, action)
                if applied is None:
                    break
                state, info = applied
                if info is not None:
                    violations.extend(self.step_violations(state, info))
            if self.is_terminal(state):
                violations.extend(self.terminal_violations(state))
        return violations

    def minimize(
        self, trace: tuple[tuple, ...], violation: Violation
    ) -> tuple[tuple, ...]:
        """Greedily delete environment actions the violation survives
        without (the trace is already shortest-by-BFS)."""

        def reproduces(candidate) -> bool:
            violations = self.execute(candidate, close=True)
            return violations is not None and any(
                v.invariant == violation.invariant and v.node == violation.node
                for v in violations
            )

        current = list(trace)
        for index in reversed(range(len(current))):
            if current[index][0] not in ("fail", "inject-extra"):
                continue
            candidate = current[:index] + current[index + 1 :]
            if reproduces(candidate):
                current = candidate
        return tuple(current)

    # -- the search -------------------------------------------------------- #

    def explore(self) -> tuple[list[Counterexample], int, bool]:
        initial = self.initial_state()
        init_key = initial.key()
        states: dict[tuple, GlobalState] = {init_key: initial}
        parent: dict[tuple, tuple | None] = {init_key: None}
        depth: dict[tuple, int] = {init_key: 0}
        queue: deque[tuple] = deque([init_key])
        found: list[Counterexample] = []
        seen_violations: set[tuple] = set()
        explored = 0
        exhausted = False

        def trace_to(key: tuple) -> tuple[tuple, ...]:
            actions: list[tuple] = []
            while parent[key] is not None:
                prev_key, action = parent[key]
                actions.append(action)
                key = prev_key
            return tuple(reversed(actions))

        def record(violation: Violation, key: tuple) -> None:
            dedup = (violation.invariant, violation.node, violation.message)
            if dedup in seen_violations:
                return
            seen_violations.add(dedup)
            trace = self.minimize(trace_to(key), violation)
            found.append(Counterexample(self.scenario, violation, trace))

        while queue:
            if explored >= self.config.max_states:
                exhausted = True
                break
            if len(found) >= self.config.max_violations:
                break
            key = queue.popleft()
            state = states[key]
            explored += 1
            if self.is_terminal(state):
                for violation in self.terminal_violations(state):
                    record(violation, key)
                continue
            if (
                self.config.depth is not None
                and depth[key] >= self.config.depth
            ):
                exhausted = True
                continue
            for action in self.transitions(state):
                applied = self.apply(state, action)
                if applied is None:
                    continue
                new_state, info = applied
                new_key = new_state.key()
                fresh = new_key not in parent
                if fresh:
                    parent[new_key] = (key, action)
                    states[new_key] = new_state
                    depth[new_key] = depth[key] + 1
                violations = (
                    self.step_violations(new_state, info)
                    if info is not None
                    else []
                )
                if violations:
                    for violation in violations:
                        record(violation, new_key)
                    continue  # prune the violating branch
                if fresh:
                    queue.append(new_key)
        return found, explored, exhausted


# --------------------------------------------------------------------- #
# Reports and entry points                                              #
# --------------------------------------------------------------------- #


@dataclass
class CheckReport:
    """Aggregate result of :func:`run_check` (the lint-report analogue)."""

    counterexamples: list[Counterexample]
    states: int = 0
    scenarios: int = 0
    exhausted: bool = False
    topology_name: str = ""
    service_name: str = ""

    @property
    def exit_code(self) -> int:
        """1 = violations found, 2 = state budget exhausted, 0 = clean."""
        if self.counterexamples:
            return 1
        if self.exhausted:
            return 2
        return 0

    def summary(self) -> str:
        status = (
            f"{len(self.counterexamples)} violation(s)"
            if self.counterexamples
            else ("exhausted" if self.exhausted else "clean")
        )
        return (
            f"check: {status}, {self.states} state(s) across "
            f"{self.scenarios} scenario(s)"
        )

    def format_text(self, topology: Topology | None = None) -> str:
        lines = [self.summary()]
        for cex in self.counterexamples:
            lines.append("")
            lines.append(cex.format(topology))
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "summary": self.summary(),
                "service": self.service_name,
                "states": self.states,
                "scenarios": self.scenarios,
                "exhausted": self.exhausted,
                "exit_code": self.exit_code,
                "counterexamples": [
                    cex.to_dict() for cex in self.counterexamples
                ],
            },
            indent=2,
            sort_keys=True,
            default=str,
        )


def active_invariants(
    disable: set[str] | None = None,
    invariants: Mapping[str, Invariant] | None = None,
) -> dict[str, Invariant]:
    source = INVARIANTS if invariants is None else dict(invariants)
    disabled = disable or set()
    return {
        inv_id: inv
        for inv_id, inv in source.items()
        if inv_id not in disabled
    }


def run_check(
    switches: Mapping[int, Switch],
    topology: Topology,
    service,
    config: CheckConfig | None = None,
    invariants: Mapping[str, Invariant] | None = None,
) -> CheckReport:
    """Model-check compiled *switches* for *service* on *topology*."""
    config = config or CheckConfig()
    chosen = active_invariants(config.disable, invariants)
    roots = list(config.roots) if config.roots else [0]
    counterexamples: list[Counterexample] = []
    states = 0
    scenario_count = 0
    exhausted = False
    for root in roots:
        for scenario in scenarios_for(
            service, topology, root, config.max_failures,
            crash=config.crash, switch_crash=config.switch_crash,
        ):
            scenario_count += 1
            ctx = ModelContext(topology, service, scenario)
            explorer = Explorer(
                switches, topology, scenario, ctx, config, chosen
            )
            found, explored, ran_out = explorer.explore()
            counterexamples.extend(found)
            states += explored
            exhausted = exhausted or ran_out
            if len(counterexamples) >= config.max_violations:
                break
        else:
            continue
        break
    counterexamples.sort(key=lambda c: (c.violation.invariant, c.scenario.name))
    return CheckReport(
        counterexamples=counterexamples,
        states=states,
        scenarios=scenario_count,
        exhausted=exhausted,
        topology_name=topology.name,
        service_name=service.name,
    )


def check_engine(engine, config: CheckConfig | None = None) -> CheckReport:
    """Install *engine* (compiled mode) and model-check its switches."""
    engine.install()
    switches = getattr(engine, "switches", None)
    if not switches:
        raise TypeError(
            "check_engine needs a compiled engine with per-node switches"
        )
    return run_check(
        switches, engine.network.topology, engine.service, config
    )
