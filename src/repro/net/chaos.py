"""Seeded fault-campaign harness: does supervision actually survive chaos?

Composes the existing fault primitives — mid-traversal
:func:`~repro.net.failures.fail_edge_after_steps`, lossy ``drop_prob``,
(directional) blackholes, duplication/reorder-jitter link knobs, and
:meth:`ControlChannel.disconnect <repro.control.channel.ControlChannel.disconnect>`
— into randomized but fully seeded campaigns, runs every service through N
scenarios under the :class:`~repro.control.supervisor.SupervisedRuntime`,
and classifies each run.  One runner (:func:`run_one`) plans a run's
faults, makes one supervised call and judges the answer by a per-service
contract table (:data:`CONTRACTS`), then by the repair oracles its plan
armed; the outage preflight judges by the same table.  The outcomes:

* ``recovered`` — a result was accepted and it is correct against ground
  truth (possibly after retries);
* ``degraded-correct`` — retries exhausted but the explicit degraded answer
  honours its contract (snapshot under-approximates, anycast names a true
  member or nothing, blackhole suspects cover the dropping edge, critical
  admits ignorance);
* ``wrong-result`` — an answer contradicts ground truth (a lie);
* ``hung`` — the call raised or never returned a classified outcome.

The supervision acceptance bar is **zero hung and zero wrong-result**: every
run either recovers or degrades honestly.  All randomness derives from one
master seed (per-run seeds are a deterministic function of it, and the
simulator draws from the per-network seeded RNG), so re-running a campaign
reproduces the identical outcome-classification JSON byte for byte —
``smartsouth chaos`` exposes this on the CLI and CI pins one campaign as a
regression gate.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Iterator

from repro.core.determinism import Rng, seeded_rng

from repro.control.channel import ChannelFaultConfig, ControlChannel
from repro.control.supervisor import (
    DEFAULT_RETRY,
    RepairReport,
    SupervisedRuntime,
    SupervisorConfig,
    check_epoch_ledger,
)
from repro.net.failures import fail_edge_after_steps
from repro.net.link import Direction
from repro.net.simulator import Network, SimulationLimitError
from repro.net.topology import Topology, complete, torus
from repro.net.trace import EventKind
from repro.openflow.errors import TableFullError
from repro.openflow.match import Match
from repro.openflow.actions import Instructions
from repro.openflow.switch import SwitchFaultConfig

#: Outcome classes.
RECOVERED = "recovered"
DEGRADED_CORRECT = "degraded-correct"
WRONG_RESULT = "wrong-result"
HUNG = "hung"

#: Services a campaign can exercise (the paper's four case studies).
SERVICES = ("snapshot", "anycast", "blackhole", "critical")

#: Built-in topology menu (small and 2-edge-connected, so traversals can
#: survive single failures).
TOPOLOGIES: dict[str, Callable[[], Topology]] = {
    "torus3x3": lambda: torus(3, 3),
    "complete5": lambda: complete(5),
}


@dataclass(frozen=True)
class FaultProfile:
    """How much chaos one run injects (upper bounds; draws are seeded)."""

    name: str
    #: Up to this many links get a silent loss probability.
    lossy_links: int = 0
    #: Loss probability upper bound (draws are uniform in [0.05, max_loss]).
    max_loss: float = 0.3
    #: Up to this many visible mid-traversal link failures.
    mid_failures: int = 0
    #: Up to this many silent drop-all blackholes.
    blackholes: int = 0
    #: Allow single-direction blackholes.
    directional: bool = False
    #: Duplication probability applied to a couple of links.
    dup_prob: float = 0.0
    #: Reorder jitter (max extra delay) applied to a couple of links.
    jitter: float = 0.0
    #: Sever the origin's controller connection mid-run (reconnects later).
    disconnect: bool = False
    # -- control-plane knobs (the management network itself misbehaves) -- #
    #: Per-control-message loss probability upper bound (draws are uniform
    #: in [0.05, channel_loss]); routed through the channel's fault queue.
    channel_loss: float = 0.0
    #: Per-control-message duplication probability.
    channel_dup: float = 0.0
    #: Base management-network latency per control message.
    channel_delay: float = 0.0
    #: Extra uniform per-message delay (reorders control messages).
    channel_jitter: float = 0.0
    #: Flap the origin's management connection (down/up partition cycles).
    flap_channel: bool = False
    #: Crash the whole controller mid-traversal; it restarts after a drawn
    #: outage and must resynchronize (the resync-convergence oracle).
    crash: bool = False
    # -- switch-plane knobs (the switches themselves misbehave) ---------- #
    #: Crash one victim switch mid-traversal; it reboots *bare* after a
    #: drawn outage and must be re-adopted (the switch-recovery oracle).
    sw_crash: bool = False
    #: Crash/reboot the victim switch through several cycles (a flapping
    #: box); each reboot loses all flow state again.
    sw_flap: bool = False
    #: Install this many junk entries into a capacity-bounded private table
    #: on the victim mid-run, exercising deterministic eviction and
    #: TABLE_FULL errors plus inventory drift (never packet semantics: the
    #: pressure table is unreachable by any goto chain).
    table_pressure: int = 0
    #: Partial-install interruption probability during re-adoption pushes
    #: (a :class:`~repro.openflow.switch.SwitchFaultConfig` on the victim).
    install_fail: float = 0.0


#: The three stock profiles of the CI campaign matrix.
PROFILES: dict[str, FaultProfile] = {
    "lossy": FaultProfile(
        name="lossy", lossy_links=3, max_loss=0.3, dup_prob=0.05, jitter=0.5
    ),
    "partition": FaultProfile(
        name="partition", lossy_links=1, max_loss=0.15, mid_failures=2,
        disconnect=True,
    ),
    "blackhole": FaultProfile(
        name="blackhole", lossy_links=1, max_loss=0.2, mid_failures=1,
        blackholes=1, directional=True, jitter=0.25,
    ),
    # Control-plane profiles: the data plane is (mostly) healthy and the
    # management network is the thing that fails — the paper's motivating
    # scenario turned into a campaign matrix.
    "ctrl-lossy": FaultProfile(
        name="ctrl-lossy", channel_loss=0.3, channel_dup=0.1,
        channel_delay=1.0, channel_jitter=4.0,
    ),
    "ctrl-flap": FaultProfile(
        name="ctrl-flap", flap_channel=True, channel_delay=1.0,
        lossy_links=1, max_loss=0.1,
    ),
    "ctrl-crash": FaultProfile(
        name="ctrl-crash", crash=True, channel_loss=0.1, lossy_links=1,
        max_loss=0.1,
    ),
    # Switch-plane profiles: the boxes themselves crash, flap, or run out
    # of table space — the data-plane mirror of the control profiles.
    "sw-crash": FaultProfile(
        name="sw-crash", sw_crash=True, lossy_links=1, max_loss=0.1,
        install_fail=0.4,
    ),
    "sw-flap": FaultProfile(
        name="sw-flap", sw_flap=True, install_fail=0.4,
    ),
    "table-pressure": FaultProfile(
        name="table-pressure", table_pressure=24, lossy_links=1,
        max_loss=0.1, install_fail=0.25,
    ),
}

#: The control-plane campaign matrix (the ``chaos --control`` profile set).
CONTROL_PROFILES = ("ctrl-lossy", "ctrl-flap", "ctrl-crash")

#: The switch-plane campaign matrix (the ``chaos --switch`` profile set).
SWITCH_PROFILES = ("sw-crash", "sw-flap", "table-pressure")

#: Table id of the chaos pressure table: far above every compiled service
#: block and never the target of a goto, so junk installed there can drift
#: the inventory digest without ever touching packet semantics.
PRESSURE_TABLE = 200


@dataclass
class ChaosConfig:
    """One campaign: N seeded runs over a service × topology × profile grid."""

    runs: int = 60
    seed: int = 0
    services: tuple[str, ...] = SERVICES
    topologies: tuple[str, ...] = ("torus3x3", "complete5")
    profiles: tuple[str, ...] = ("lossy", "partition", "blackhole")
    #: Supervisor retry budget (chaos needs more patience than the default).
    max_attempts: int = 6

    def validate(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        for name in self.services:
            if name not in SERVICES:
                raise ValueError(f"unknown service {name!r}")
        for name in self.topologies:
            if name not in TOPOLOGIES:
                raise ValueError(f"unknown topology {name!r}")
        for name in self.profiles:
            if name not in PROFILES:
                raise ValueError(f"unknown fault profile {name!r}")


@dataclass
class RunRecord:
    """Classification of one chaos run (everything that lands in the JSON)."""

    run_id: int
    service: str
    topology: str
    profile: str
    seed: int
    root: int
    faults: list[str]
    outcome: str
    reason: str = ""
    attempts: int = 0
    stale_squashed: int = 0
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CampaignReport:
    """All runs of one campaign plus the aggregate verdict."""

    config: ChaosConfig
    records: list[RunRecord] = field(default_factory=list)
    #: topology name -> outage-liveness violations; ``None`` when the
    #: preflight (:func:`check_outage_liveness`) was not requested.
    outage_liveness: dict[str, list[str]] | None = None

    def outcome_counts(self) -> dict[str, int]:
        counts = {RECOVERED: 0, DEGRADED_CORRECT: 0, WRONG_RESULT: 0, HUNG: 0}
        for record in self.records:
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        """The acceptance bar: nothing hung, nothing lied, and — when the
        preflight ran — the full-outage liveness claim held."""
        counts = self.outcome_counts()
        if counts[WRONG_RESULT] or counts[HUNG]:
            return False
        if self.outage_liveness is not None:
            return all(not v for v in self.outage_liveness.values())
        return True

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "summary": self.outcome_counts(),
            "ok": self.ok,
            "outage_liveness": self.outage_liveness,
            "records": [record.to_dict() for record in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def format_summary(self) -> str:
        counts = self.outcome_counts()
        per_service: dict[str, dict[str, int]] = {}
        for record in self.records:
            bucket = per_service.setdefault(record.service, {})
            bucket[record.outcome] = bucket.get(record.outcome, 0) + 1
        lines = [
            f"chaos campaign: {len(self.records)} runs, seed {self.config.seed}",
            f"  recovered        {counts[RECOVERED]}",
            f"  degraded-correct {counts[DEGRADED_CORRECT]}",
            f"  wrong-result     {counts[WRONG_RESULT]}",
            f"  hung             {counts[HUNG]}",
        ]
        for service in sorted(per_service):
            bucket = per_service[service]
            parts = ", ".join(f"{k}={v}" for k, v in sorted(bucket.items()))
            lines.append(f"  {service:<10} {parts}")
        if self.outage_liveness is not None:
            for topology in sorted(self.outage_liveness):
                problems = self.outage_liveness[topology]
                status = "OK" if not problems else "; ".join(problems)
                lines.append(f"  outage-liveness {topology}: {status}")
        lines.append(f"verdict: {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# Fault planning                                                        #
# --------------------------------------------------------------------- #


def _plan_faults(
    network: Network,
    profile: FaultProfile,
    service: str,
    root: int,
    rng: Rng,
    channel: ControlChannel | None,
) -> list[str]:
    """Draw and apply one run's link and channel faults; returns their
    descriptions.

    Fault kinds that *service*'s :data:`CONTRACTS` row exempts it from are
    not drawn at all; a service outside the table (the scenario runner's
    priocast and storms) is exempt from nothing.
    """
    exempt = CONTRACTS[service].exempt if service in CONTRACTS else ()
    faults: list[str] = []
    edges = list(range(network.topology.num_edges))

    lossy_count = rng.randint(0, profile.lossy_links) if profile.lossy_links else 0
    for edge_id in sorted(rng.sample(edges, lossy_count)):
        probability = round(rng.uniform(0.05, profile.max_loss), 3)
        network.links[edge_id].set_loss(probability)
        faults.append(f"loss:{edge_id}:{probability}")

    if profile.blackholes and rng.random() < 0.8:
        edge_id = rng.choice(edges)
        direction = None
        if profile.directional and rng.random() < 0.3:
            direction = rng.choice([Direction.A_TO_B, Direction.B_TO_A])
        network.links[edge_id].set_blackhole(direction)
        tag = "both" if direction is None else direction.value
        faults.append(f"blackhole:{edge_id}:{tag}")

    if profile.mid_failures and MID_FAILURES not in exempt:
        count = rng.randint(0, profile.mid_failures)
        for _ in range(count):
            edge_id = rng.choice(edges)
            step = rng.randint(1, 60)
            fail_edge_after_steps(network, edge_id, step)
            faults.append(f"fail:{edge_id}@step{step}")

    if profile.dup_prob and DUPLICATION not in exempt:
        for edge_id in sorted(rng.sample(edges, min(2, len(edges)))):
            network.links[edge_id].set_duplication(profile.dup_prob)
            faults.append(f"dup:{edge_id}:{profile.dup_prob}")

    if profile.jitter:
        for edge_id in sorted(rng.sample(edges, min(3, len(edges)))):
            network.links[edge_id].set_jitter(profile.jitter)
            faults.append(f"jitter:{edge_id}:{profile.jitter}")

    if profile.disconnect and channel is not None and rng.random() < 0.6:
        step = rng.randint(1, 25)
        network.at_packet_step(step, lambda: channel.disconnect(root))
        reconnect_at = round(rng.uniform(100.0, 800.0), 1)
        network.sim.at(reconnect_at, lambda: channel.reconnect(root))
        faults.append(f"disconnect:{root}@step{step}:until{reconnect_at}")

    channel_faulty = (
        profile.channel_loss > 0
        or profile.channel_dup > 0
        or profile.channel_delay > 0
        or profile.channel_jitter > 0
    )
    if channel_faulty and channel is not None:
        loss = (
            round(rng.uniform(0.05, profile.channel_loss), 3)
            if profile.channel_loss
            else 0.0
        )
        dup = profile.channel_dup if DUPLICATION not in exempt else 0.0
        channel.set_faults(
            ChannelFaultConfig(
                loss_prob=loss,
                dup_prob=dup,
                delay=profile.channel_delay,
                max_extra_delay=profile.channel_jitter,
                seed=rng.randrange(1 << 32),
            )
        )
        faults.append(
            f"channel:loss{loss}:dup{dup}"
            f":delay{profile.channel_delay}+{profile.channel_jitter}"
        )

    if profile.flap_channel and channel is not None:
        start = round(rng.uniform(5.0, 40.0), 1)
        down = round(rng.uniform(20.0, 120.0), 1)
        up = round(rng.uniform(20.0, 80.0), 1)
        cycles = rng.randint(2, 4)
        channel.flap(root, start, down, up, cycles)
        faults.append(f"flap:{root}@{start}:down{down}:up{up}x{cycles}")

    return faults


#: A repair oracle the plan arms.  Run after the supervised call, it
#: returns the detail entries it adds to the run's record and its problems.
Repair = Callable[[], tuple[dict, list[str]]]


def _plan_repairs(
    network: Network, profile: FaultProfile, rng: Rng,
    channel: ControlChannel | None, runtime: SupervisedRuntime, root: int,
    switch_faulted: bool, faults: list[str],
) -> list[tuple[str, Repair]]:
    """Draw and arm what needs the runtime: a controller crash, then the
    victim switch's crash or flap and table pressure.  Returns each armed
    plane's repair oracle.  Every callback fires on a packet step (inside a
    traversal, the hard case), only flips flags and queues timer events,
    and resolves switches at fire time (engines compile lazily)."""
    repairs: list[tuple[str, Repair]] = []
    if profile.crash and channel is not None:
        crash_step = rng.randint(1, 40)
        outage = round(rng.uniform(60.0, 300.0), 1)
        crashed: list[bool] = []

        def _crash() -> None:
            crashed.append(True)
            channel.fail_controller()
            network.sim.at(network.sim.now + outage, channel.restore_controller)

        network.at_packet_step(crash_step, _crash)
        faults.append(f"ctrl-crash@step{crash_step}:outage{outage}")

        def resync() -> tuple[dict, list[str]]:
            # A controller that died must come back (the scheduled restore
            # may still be pending; restoring twice is idempotent) and its
            # resync must converge.
            if not crashed:
                return {}, []
            channel.restore_controller()
            report = runtime.resynchronize(root)
            detail = {
                "converged": report.converged,
                "rounds": report.rounds,
                "epoch_jump": [report.epoch_before, report.epoch_after],
                "reprogrammed": list(report.reprogrammed_nodes),
                "unreachable": sorted(set(report.unreachable_nodes)),
                "relearned_nodes": len(report.relearned_nodes),
                "topology_degraded": report.topology_degraded,
            }
            return {"resync": detail}, repair_problems(report)

        repairs.append(("resync", resync))
    if not switch_faulted:
        return repairs

    victim = rng.randrange(network.topology.num_nodes)
    install_seed = rng.randrange(1 << 32)
    if profile.sw_crash or profile.sw_flap:
        crash_step = rng.randint(1, 40)
        cycles = rng.randint(2, 3) if profile.sw_flap else 1
        outages = [round(rng.uniform(40.0, 200.0), 1) for _ in range(cycles)]
        gaps = [round(rng.uniform(30.0, 90.0), 1) for _ in range(cycles)]

        def _sw_crash() -> None:
            switches = runtime.switches_at(victim)

            def _crash_all() -> None:
                for sw in switches:
                    sw.crash()

            def _reboot_all() -> None:
                for sw in switches:
                    sw.reboot()

            _crash_all()
            now = network.sim.now
            offset = 0.0
            for index in range(cycles):
                network.sim.at(now + offset + outages[index], _reboot_all)
                offset += outages[index] + gaps[index]
                if index + 1 < cycles:
                    network.sim.at(now + offset, _crash_all)

        network.at_packet_step(crash_step, _sw_crash)
        kind = "sw-flap" if profile.sw_flap else "sw-crash"
        cycle_tags = ",".join(
            f"down{outage}+up{gap}" for outage, gap in zip(outages, gaps)
        )
        faults.append(f"{kind}:{victim}@step{crash_step}:{cycle_tags}")

    pressure_stats: dict = {}
    if profile.table_pressure:
        pressure_step = rng.randint(1, 30)
        capacity = rng.randint(6, 10)
        junk = [rng.randint(0, 5) for _ in range(profile.table_pressure)]

        def _pressure() -> None:
            for sw in runtime.switches_at(victim):
                table = sw.table(PRESSURE_TABLE)
                table.set_capacity(capacity, evict=True)
                rejected = 0
                for position, priority in enumerate(junk):
                    try:
                        table.install(
                            Match(junk=position),
                            Instructions(),
                            priority=priority,
                            cookie=f"chaos-junk-{position}",
                        )
                    except TableFullError:
                        rejected += 1
                pressure_stats["capacity"] = capacity
                pressure_stats["installed"] = len(table)
                pressure_stats["rejected"] = rejected
                pressure_stats["evicted"] = table.evictions

        network.at_packet_step(pressure_step, _pressure)
        faults.append(
            f"table-pressure:{victim}@step{pressure_step}"
            f":cap{capacity}x{profile.table_pressure}"
        )

    def readopt() -> tuple[dict, list[str]]:
        # Force any still-dark victim back up (rebooting an up switch is a
        # no-op), arm the seeded partial-install fault model, and drive
        # re-adoption to the inventory-digest fixed point.
        for sw in runtime.switches_at(victim):
            sw.reboot()
            if profile.install_fail:
                sw.set_faults(
                    SwitchFaultConfig(
                        partial_install_prob=profile.install_fail,
                        fail_budget=2,
                        seed=install_seed,
                    )
                )
        report = runtime.readopt()
        detail = {
            "converged": report.converged,
            "rounds": report.rounds,
            "reprogrammed": list(report.reprogrammed_nodes),
            "dark": sorted(set(report.dark_nodes)),
            "unreachable": sorted(set(report.unreachable_nodes)),
            "ledger": dict(Counter(a.status for a in report.attempts)),
        }
        details = {"readopt": detail}
        if pressure_stats:
            details["table_pressure"] = dict(pressure_stats)
        return details, repair_problems(report)

    repairs.append(("readopt", readopt))
    return repairs


# --------------------------------------------------------------------- #
# Ground truth and the per-service contract table                       #
# --------------------------------------------------------------------- #


def _live_component(
    network: Network, start: int, cut: int | None = None
) -> set[int]:
    """Nodes reachable from *start* over up links, never entering *cut*."""
    adjacency: dict[int, set[int]] = {u: set() for u in network.topology.nodes()}
    for link in network.links:
        a, b = link.edge.a.node, link.edge.b.node
        if link.up and cut not in (a, b):
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen = {start}
    frontier = [start]
    while frontier:
        for v in adjacency[frontier.pop()] - seen:
            seen.add(v)
            frontier.append(v)
    return seen


def _is_articulation(network: Network, node: int) -> bool:
    """Is *node* an articulation point of its live component right now?"""
    others = _live_component(network, node) - {node}
    if len(others) <= 1:
        return False
    # min() picks any member without depending on set order.
    return _live_component(network, min(others), cut=node) != others


def _dropping_edges(network: Network) -> set[int]:
    """Edges that silently dropped at least one packet (ground truth)."""
    return {
        link.edge.edge_id
        for link in network.links
        if any(link.dropped.values())
    }


def _reachable_symmetric_blackholes(network: Network, root: int) -> set[int]:
    """Up, drop-all-both-directions blackhole edges in root's component."""
    component = _live_component(network, root)
    return {
        link.edge.edge_id
        for link in network.links
        if link.up
        and all(p >= 1.0 for p in link.drop_prob.values())
        and link.edge.a.node in component
        and link.edge.b.node in component
    }


def _any_faults_experienced(network: Network, channel) -> bool:
    for link in network.links:
        if not link.up or any(link.dropped.values()):
            return True
        if any(p > 0 for p in link.drop_prob.values()):
            return True
        if any(p > 0 for p in link.dup_prob.values()) or link.jitter:
            return True
    if channel is not None and (
        channel.packet_outs_lost
        or channel.packet_ins_lost
        or channel.messages_duplicated
        # Any message that went through the fault queue was delayed (and
        # possibly reordered) relative to the synchronous channel.
        or channel.queue
    ):
        return True
    return False


#: Fault kinds a service can be exempt from: its control channel (so every
#: channel fault and the controller crash too), visible mid-traversal link
#: failures, switch faults, and duplication on links and on the channel.
CHANNEL, MID_FAILURES, SWITCH_FAULTS, DUPLICATION = (
    "channel", "mid-failures", "switch", "duplication"
)

#: Anycast's group id.
GID = 2

#: What a service's lie rules yield, in order: ``(is_lie, reason)``.
Lies = Iterator[tuple[bool, str]]


@dataclass(frozen=True)
class Contract:
    """One service's row of :data:`CONTRACTS`."""

    #: ``(runtime, root, truth) -> answer``: the supervised call.
    call: Callable[[SupervisedRuntime, int, Any], Any]
    #: ``answer -> dict``: the run record's ``detail``.
    detail: Callable[[Any], dict]
    #: ``(answer, runtime, root, truth) -> Lies``: what an accepted answer
    #: (or, by ``answer.degraded``, a degraded one) must not do.
    lies: Callable[[Any, SupervisedRuntime, int, Any], Lies]
    #: ``(network, root, rng) -> truth``, drawn before any fault.
    truth: Callable[[Network, int, Rng], Any] = lambda network, root, rng: None
    #: ``answer -> reason`` for an honest accepted answer.
    recovered: Callable[[Any], str] = lambda answer: answer.supervision.reason
    #: Fault kinds withheld from the service's runs.
    exempt: frozenset[str] = frozenset()


def _snapshot_lies(snap, runtime: SupervisedRuntime, root: int, _) -> Lies:
    network = runtime.network
    nodes = set(network.topology.nodes())
    unknown = root not in snap.nodes or not snap.nodes <= nodes
    if snap.degraded:
        # An explicit under-approximation: reached nodes only, no links.
        yield bool(snap.links), "degraded snapshot claims links"
        yield unknown, "degraded snapshot names unknown nodes"
        return
    yield unknown, "snapshot names unknown nodes"
    invented = not snap.links <= network.topology.port_pair_set()
    yield invented, "snapshot invents links"
    exact = snap.nodes == nodes and snap.links == network.live_port_pairs()
    faultless = not _any_faults_experienced(network, runtime.channel)
    yield faultless and not exact, "faultless snapshot not exact"


def _anycast_lies(delivery, _runtime, _root, groups: dict) -> Lies:
    if delivery.degraded:
        # A confirmed member, or nothing.
        member = delivery.delivered_at in groups[GID] | {None}
        yield not member, "fallback names a non-member"
    else:
        member = delivery.delivered_at in groups[GID]
        yield not member, "delivered to a non-member"


def _blackhole_lies(result, runtime: SupervisedRuntime, root: int, _) -> Lies:
    network = runtime.network

    def edges(ports) -> set[int]:
        found = (network.topology.port_edge(node, port) for node, port in ports)
        return {edge.edge_id for edge in found if edge is not None}

    if result.degraded:
        # The suspect interval must cover the silent culprit(s) that killed
        # the call's packets, when any exist on still-live ports.
        packet_ids = {
            pid for attempt in result.supervision.attempts
            for pid in attempt.packet_ids
        }
        culprits = edges(
            event.detail[:2]
            for event in network.trace.events(EventKind.DROP)
            if event.packet_id in packet_ids and event.detail
        )
        missed = bool(culprits) and not culprits & edges(result.suspects)
        yield missed, "suspect interval misses the culprit"
    elif result.verdict.found:
        dropped = edges([result.verdict.location]) & _dropping_edges(network)
        yield not dropped, "flagged a link that never dropped"
    else:
        missed = bool(_reachable_symmetric_blackholes(network, root))
        yield missed, "missed a reachable blackhole"


def _critical_lies(verdict, runtime: SupervisedRuntime, root: int, before) -> Lies:
    if verdict.degraded:
        yield verdict.critical is not None, "degraded verdict not explicit"
    else:
        after = _is_articulation(runtime.network, root)
        wrong = verdict.critical not in (before, after)
        yield wrong, "verdict matches neither pre nor post"


def _anycast_group(network: Network, root: int, rng: Rng) -> dict:
    others = [n for n in network.topology.nodes() if n != root]
    return {GID: set(rng.sample(others, min(2, len(others))))}


#: Service -> its contract: the only place that knows a service's fault
#: exemptions and its honest answer.  The campaign runner (:func:`run_one`)
#: and the outage preflight (:func:`check_outage_liveness`) both judge by
#: it.
CONTRACTS: dict[str, Contract] = {
    "snapshot": Contract(
        call=lambda runtime, root, _: runtime.snapshot(root),
        detail=lambda snap: {
            "nodes": sorted(snap.nodes), "links": len(snap.links)
        },
        lies=_snapshot_lies,
    ),
    # Delivery needs no management plane, so anycast runs get no control
    # channel.  The ground truth is the group table.
    "anycast": Contract(
        call=lambda runtime, root, groups: runtime.anycast(root, GID, groups),
        detail=lambda delivery: {
            "delivered_at": delivery.delivered_at,
            "fallback": delivery.fallback,
        },
        lies=_anycast_lies,
        truth=_anycast_group,
        exempt=frozenset({CHANNEL}),
    ),
    # Smart-counter detection assumes visible failures are masked *before*
    # a traversal starts (the paper's §3.3 premise: failover hides them
    # from the sweep); mid-traversal ones can strand its counters at
    # misleading values.  It builds a fresh engine per attempt (counters
    # start from zero), so no persistent switch has a crash and recovery
    # an oracle could observe either.
    "blackhole": Contract(
        call=lambda runtime, root, _: runtime.detect_blackhole(root),
        detail=lambda result: (
            {"suspects": len(result.suspects)} if result.degraded
            else {"location": list(result.verdict.location)
                  if result.verdict.found else None}
        ),
        lies=_blackhole_lies,
        recovered=lambda result: (
            "blackhole located" if result.verdict.found
            else "clean bill of health"
        ),
        exempt=frozenset({MID_FAILURES, SWITCH_FAULTS}),
    ),
    # Two diverging copies of one stateful verdict traversal is a semantics
    # change, not a fault model.  The ground truth is whether the root was
    # an articulation point before the faults.
    "critical": Contract(
        call=lambda runtime, root, _: runtime.critical(root),
        detail=lambda verdict: {"critical": verdict.critical},
        lies=_critical_lies,
        truth=lambda network, root, _: _is_articulation(network, root),
        exempt=frozenset({DUPLICATION}),
    ),
}


def judge(
    contract: Contract, answer, runtime: SupervisedRuntime, root: int, truth
) -> tuple[str, str]:
    """*answer*'s outcome and reason: the first lie its contract finds, then
    any breach of the call's epoch ledger (the runtime half of invariant
    MC009: a violation is a lie, not a fault), else its honest outcome."""
    for lie, reason in contract.lies(answer, runtime, root, truth):
        if lie:
            return WRONG_RESULT, reason
    ledger = check_epoch_ledger(answer.supervision)
    if ledger:
        return WRONG_RESULT, "epoch ledger: " + "; ".join(ledger)
    if answer.degraded:
        return DEGRADED_CORRECT, answer.supervision.reason
    return RECOVERED, contract.recovered(answer)


# --------------------------------------------------------------------- #
# Control-plane oracles                                                 #
# --------------------------------------------------------------------- #


def repair_problems(report: RepairReport) -> list[str]:
    """The repair oracle, on one :class:`RepairReport`: *resync-convergence*
    after a controller crash, *switch-recovery* after switch faults.

    A resynchronized controller must jump its epoch clock past every epoch
    that could still be in flight — otherwise a pre-crash straggler could be
    accepted against a post-crash epoch.  Every repair must converge: each
    reachable switch's inventory digest reached the compiled fixed point
    despite partial-install interruptions (the report's attempt ledger
    audits each retry).  No switch may be dark: the campaign driver forces
    every crashed victim back up before re-adopting, and a controller crash
    crashes no switch.  Returns human-readable violations.
    """
    problems: list[str] = []
    if report.epoch_after is not None and report.epoch_after == report.epoch_before:
        problems.append("epoch clock did not jump past in-flight epochs")
    if not report.converged:
        problems.append(
            f"inventory handshake did not converge in {report.rounds} rounds "
            f"(still drifted: {sorted(report.drifted_nodes)})"
        )
    if report.dark_nodes:
        problems.append(f"switches still dark: {sorted(report.dark_nodes)}")
    return problems


def check_outage_liveness(
    seed: int = 0, topology_name: str = "torus3x3"
) -> list[str]:
    """The paper's headline claim as an executable oracle.

    With the controller process entirely gone (:meth:`fail_controller
    <repro.control.channel.ControlChannel.fail_controller>`) and no other
    fault, every service, triggered in band on one runtime, must produce an
    answer that is accepted, not degraded, and that :func:`judge` finds
    honest by its :data:`CONTRACTS` entry (on a faultless run, that means
    exact), without a single message on the management network.  Returns
    human-readable violations (empty = the claim holds for this
    seed/topology).
    """
    problems: list[str] = []
    topology = TOPOLOGIES[topology_name]()
    network = Network(topology, seed=seed)
    channel = ControlChannel(network)
    channel.fail_controller()
    runtime = SupervisedRuntime(network, in_band=True)
    rng = seeded_rng(seed ^ 0x5DEECE66D)
    root = rng.randrange(topology.num_nodes)
    for service in SERVICES:
        contract = CONTRACTS[service]
        truth = contract.truth(network, root, rng)
        answer = contract.call(runtime, root, truth)
        outcome, reason = judge(contract, answer, runtime, root, truth)
        if answer.degraded:
            problems.append(f"{service}: degraded during outage")
        if outcome == WRONG_RESULT:
            problems.append(f"{service}: {reason} during outage")

    if channel.out_band_messages:
        problems.append(
            f"{channel.out_band_messages} messages used the dead "
            "management network"
        )
    return problems


def control_plane_config(runs: int = 216, seed: int = 0) -> ChaosConfig:
    """The CI control-plane campaign: every service through every control
    profile, well past the 200-run acceptance floor."""
    return ChaosConfig(runs=runs, seed=seed, profiles=CONTROL_PROFILES)


def switch_plane_config(runs: int = 216, seed: int = 0) -> ChaosConfig:
    """The CI switch-plane campaign: every service through every switch
    profile, well past the 200-run acceptance floor.  Every run with a
    switch-fault profile finishes with a forced reboot of the victim and a
    full re-adoption sweep judged by :func:`repair_problems`, so the
    report's ``ok`` covers switch recovery too."""
    return ChaosConfig(runs=runs, seed=seed, profiles=SWITCH_PROFILES)


def run_control_campaign(config: ChaosConfig | None = None) -> "CampaignReport":
    """A chaos campaign plus the full-outage preflight.

    This is what ``smartsouth chaos --control`` runs (by default the CI
    ``chaos-control-plane`` job's :func:`control_plane_config`): *config*'s
    seeded campaign, then the :func:`check_outage_liveness` oracle on each
    of its topologies.  The report's ``ok`` covers both."""
    config = config or control_plane_config()
    report = run_campaign(config)
    report.outage_liveness = {
        topology: check_outage_liveness(config.seed, topology)
        for topology in config.topologies
    }
    return report


# --------------------------------------------------------------------- #
# The campaign driver                                                   #
# --------------------------------------------------------------------- #


def run_one(
    run_id: int,
    service: str,
    topology_name: str,
    profile_name: str,
    run_seed: int,
    max_attempts: int = 6,
) -> RunRecord:
    """Execute and classify one seeded chaos run: plan, call, judge.

    The plan draws from one seeded stream, in this order: the root, the
    service's ground truth, the link and channel faults
    (:func:`_plan_faults`), the controller crash and the victim switch's
    faults.  :func:`judge` classifies the answer by the service's
    :data:`CONTRACTS` entry and the call's epoch ledger; then each armed
    repair oracle (resync, readopt) runs in that order, and the first
    problem found turns an honest run into a wrong result.
    """
    profile = PROFILES[profile_name]
    contract = CONTRACTS[service]
    topology = TOPOLOGIES[topology_name]()
    network = Network(topology, seed=run_seed)
    plan_rng = seeded_rng(run_seed ^ 0x9E3779B9)
    root = plan_rng.randrange(topology.num_nodes)
    channel = None if CHANNEL in contract.exempt else ControlChannel(network)
    truth = contract.truth(network, root, plan_rng)
    faults = _plan_faults(network, profile, service, root, plan_rng, channel)

    switch_faulted = (
        profile.sw_crash or profile.sw_flap or profile.table_pressure > 0
    ) and SWITCH_FAULTS not in contract.exempt
    # Crash and switch-fault runs use compiled switches: the inventory
    # handshake reconciles real per-switch flow state, not a no-op.
    mode = "compiled" if profile.crash or switch_faulted else "interpreted"
    config = SupervisorConfig(
        retry=replace(DEFAULT_RETRY, max_attempts=max_attempts)
    )
    runtime = SupervisedRuntime(network, mode=mode, config=config, channel=channel)
    repairs = _plan_repairs(
        network, profile, plan_rng, channel, runtime, root, switch_faulted,
        faults,
    )

    record = RunRecord(
        run_id=run_id,
        service=service,
        topology=topology_name,
        profile=profile_name,
        seed=run_seed,
        root=root,
        faults=faults,
        outcome=HUNG,
    )
    try:
        answer = contract.call(runtime, root, truth)
        record.outcome, record.reason = judge(
            contract, answer, runtime, root, truth
        )
        record.detail = contract.detail(answer)
        record.attempts = answer.supervision.attempts_used
        record.stale_squashed = answer.supervision.stale_squashed
        for name, repair in repairs:
            detail, problems = repair()
            record.detail.update(detail)
            if problems and record.outcome != WRONG_RESULT:
                record.outcome = WRONG_RESULT
                record.reason = f"{name}: " + "; ".join(problems)
    except SimulationLimitError:
        record.outcome = HUNG
        record.reason = "event budget exhausted"
    except Exception as exc:  # noqa: BLE001 - chaos must classify, not crash
        record.outcome = HUNG
        record.reason = f"{type(exc).__name__}: {exc}"
    return record


def run_campaign(config: ChaosConfig | None = None) -> CampaignReport:
    """Run a full seeded campaign over the service × topology × profile grid.

    Runs are dealt round-robin over the grid so every combination gets
    within-one-of-equal coverage regardless of the total run count.
    """
    config = config or ChaosConfig()
    config.validate()
    grid = [
        (service, topology, profile)
        for service in config.services
        for topology in config.topologies
        for profile in config.profiles
    ]
    report = CampaignReport(config=config)
    for index in range(config.runs):
        service, topology, profile = grid[index % len(grid)]
        run_seed = config.seed * 1_000_003 + index
        report.records.append(
            run_one(
                index, service, topology, profile, run_seed,
                max_attempts=config.max_attempts,
            )
        )
    return report


def replay_run(report: dict, run_id: int) -> tuple[RunRecord, list[str]]:
    """Re-run one recorded campaign run and diff it against its record.

    *report* is a parsed campaign JSON (the :meth:`CampaignReport.to_dict`
    shape).  The run's service/topology/profile/seed and the campaign's
    retry budget all come from the file, so a replay needs nothing but the
    report — and, the harness being deterministic, must reproduce the
    record byte-for-byte.  Returns the fresh record plus the field-level
    mismatches (an empty list is a faithful replay); this is how a single
    flagged run from a CI campaign is pulled out and studied locally.
    """
    records = {rec["run_id"]: rec for rec in report.get("records", ())}
    if run_id not in records:
        raise ValueError(
            f"no run {run_id} in report ({len(records)} records)"
        )
    original = records[run_id]
    max_attempts = report.get("config", {}).get("max_attempts", 6)
    fresh = run_one(
        run_id,
        original["service"],
        original["topology"],
        original["profile"],
        original["seed"],
        max_attempts=max_attempts,
    )
    fresh_dict = fresh.to_dict()
    mismatches = []
    for key in sorted(set(original) | set(fresh_dict)):
        was = json.dumps(original.get(key), sort_keys=True)
        now = json.dumps(fresh_dict.get(key), sort_keys=True)
        if was != now:
            mismatches.append(f"{key}: recorded {was} != replayed {now}")
    return fresh, mismatches
