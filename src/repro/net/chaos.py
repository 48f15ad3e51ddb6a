"""Seeded fault-campaign harness: does supervision actually survive chaos?

Composes the existing fault primitives — mid-traversal
:func:`~repro.net.failures.fail_edge_after_steps`, lossy ``drop_prob``,
(directional) blackholes, duplication/reorder-jitter link knobs, and
:meth:`ControlChannel.disconnect <repro.control.channel.ControlChannel.disconnect>`
— into randomized but fully seeded campaigns, runs every service through N
scenarios under the :class:`~repro.control.supervisor.SupervisedRuntime`,
and classifies each run:

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
from dataclasses import dataclass, field
from typing import Callable

from repro.core.determinism import Rng, seeded_rng

from repro.control.channel import ChannelFaultConfig, ControlChannel
from repro.control.supervisor import (
    ReadoptReport,
    ResyncReport,
    SupervisedOutcome,
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
        return {
            "run_id": self.run_id,
            "service": self.service,
            "topology": self.topology,
            "profile": self.profile,
            "seed": self.seed,
            "root": self.root,
            "faults": self.faults,
            "outcome": self.outcome,
            "reason": self.reason,
            "attempts": self.attempts,
            "stale_squashed": self.stale_squashed,
            "detail": self.detail,
        }


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
            "config": {
                "runs": self.config.runs,
                "seed": self.config.seed,
                "services": list(self.config.services),
                "topologies": list(self.config.topologies),
                "profiles": list(self.config.profiles),
                "max_attempts": self.config.max_attempts,
            },
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
    """Draw and apply one run's faults; returns their descriptions.

    The smart-counter blackhole detection assumes visible failures are
    masked *before* a traversal starts (the paper's §3.3 premise: failover
    hides them from the sweep) — mid-traversal visible failures can strand
    its counters at misleading values, so they are injected for every
    service except ``blackhole``.  Duplication is skipped for ``critical``:
    two diverging copies of one stateful verdict traversal is a semantics
    change, not a fault model.
    """
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

    if profile.mid_failures and service != "blackhole":
        count = rng.randint(0, profile.mid_failures)
        for _ in range(count):
            edge_id = rng.choice(edges)
            step = rng.randint(1, 60)
            fail_edge_after_steps(network, edge_id, step)
            faults.append(f"fail:{edge_id}@step{step}")

    if profile.dup_prob and service != "critical":
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
        # Duplicating the trigger of a stateful verdict traversal is a
        # semantics change, same as the link-level dup rule above.
        dup = profile.channel_dup if service != "critical" else 0.0
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


# --------------------------------------------------------------------- #
# Ground-truth oracles                                                  #
# --------------------------------------------------------------------- #


def _live_adjacency(network: Network) -> dict[int, set[int]]:
    adjacency: dict[int, set[int]] = {u: set() for u in network.topology.nodes()}
    for link in network.links:
        if link.up:
            adjacency[link.edge.a.node].add(link.edge.b.node)
            adjacency[link.edge.b.node].add(link.edge.a.node)
    return adjacency


def _component(adjacency: dict[int, set[int]], root: int) -> set[int]:
    seen = {root}
    frontier = [root]
    while frontier:
        u = frontier.pop()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def _is_articulation(network: Network, node: int) -> bool:
    """Is *node* an articulation point of its live component right now?"""
    adjacency = _live_adjacency(network)
    component = _component(adjacency, node)
    others = component - {node}
    if len(others) <= 1:
        return False
    for u in adjacency:
        adjacency[u] = adjacency[u] - {node}
    start = min(others)  # any member works; min() keeps it hash-order-free
    reachable = _component(adjacency, start) & others
    return reachable != others


def _dropping_edges(network: Network) -> set[int]:
    """Edges that silently dropped at least one packet (ground truth)."""
    return {
        link.edge.edge_id
        for link in network.links
        if any(link.dropped.values())
    }


def _reachable_symmetric_blackholes(network: Network, root: int) -> set[int]:
    """Up, drop-all-both-directions blackhole edges in root's component."""
    component = _component(_live_adjacency(network), root)
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


# --------------------------------------------------------------------- #
# Per-service run + classification                                      #
# --------------------------------------------------------------------- #


#: What a classifier returns: the call's ledger, then the run's outcome,
#: reason and detail.
Verdict = tuple[SupervisedOutcome, str, str, dict]


def _classify_snapshot(
    runtime: SupervisedRuntime, network: Network, root: int,
    channel: ControlChannel,
) -> Verdict:
    snap = runtime.snapshot(root)
    supervision = snap.supervision
    detail = {"nodes": sorted(snap.nodes), "links": len(snap.links)}
    real_pairs = network.topology.port_pair_set()
    all_nodes = set(network.topology.nodes())
    if not snap.degraded:
        if root not in snap.nodes or not snap.nodes <= all_nodes:
            return supervision, WRONG_RESULT, "snapshot names unknown nodes", detail
        if not snap.links <= real_pairs:
            return supervision, WRONG_RESULT, "snapshot invents links", detail
        if not _any_faults_experienced(network, channel):
            if snap.links != network.live_port_pairs():
                return supervision, WRONG_RESULT, "faultless snapshot not exact", detail
        return supervision, RECOVERED, supervision.reason, detail
    # Degraded contract: explicit under-approximation, never a lie.
    if snap.links:
        return supervision, WRONG_RESULT, "degraded snapshot claims links", detail
    if root not in snap.nodes or not snap.nodes <= all_nodes:
        return (
            supervision, WRONG_RESULT, "degraded snapshot names unknown nodes", detail
        )
    return supervision, DEGRADED_CORRECT, supervision.reason, detail


def _classify_anycast(
    runtime: SupervisedRuntime, network: Network, root: int, gid: int, groups
) -> Verdict:
    delivery = runtime.anycast(root, gid, groups)
    supervision = delivery.supervision
    members = groups[gid]
    detail = {
        "delivered_at": delivery.delivered_at,
        "fallback": delivery.fallback,
    }
    if not delivery.degraded:
        if delivery.delivered_at not in members:
            return supervision, WRONG_RESULT, "delivered to a non-member", detail
        return supervision, RECOVERED, supervision.reason, detail
    if delivery.delivered_at is not None and delivery.delivered_at not in members:
        return supervision, WRONG_RESULT, "fallback names a non-member", detail
    return supervision, DEGRADED_CORRECT, supervision.reason, detail


def _classify_blackhole(
    runtime: SupervisedRuntime, network: Network, root: int
) -> Verdict:
    result = runtime.detect_blackhole(root)
    supervision = result.supervision
    dropping = _dropping_edges(network)
    detail: dict = {}
    if not result.degraded and result.verdict is not None:
        verdict = result.verdict
        if verdict.found:
            node, port = verdict.location
            edge = network.topology.port_edge(node, port)
            detail["location"] = [node, port]
            if edge is None or edge.edge_id not in dropping:
                return (
                    supervision, WRONG_RESULT, "flagged a link that never dropped",
                    detail,
                )
            return supervision, RECOVERED, "blackhole located", detail
        detail["location"] = None
        if _reachable_symmetric_blackholes(network, root):
            return supervision, WRONG_RESULT, "missed a reachable blackhole", detail
        return supervision, RECOVERED, "clean bill of health", detail
    # Degraded: the suspect interval must cover the silent culprit(s) that
    # killed our packets, when any exist on still-live ports.
    detail["suspects"] = len(result.suspects)
    suspect_edges = set()
    for node, port in result.suspects:
        edge = network.topology.port_edge(node, port)
        if edge is not None:
            suspect_edges.add(edge.edge_id)
    packet_ids = {
        pid for attempt in supervision.attempts for pid in attempt.packet_ids
    }
    our_dropping = set()
    for event in network.trace.events(EventKind.DROP):
        if event.packet_id in packet_ids and event.detail:
            edge = network.topology.port_edge(event.detail[0], event.detail[1])
            if edge is not None:
                our_dropping.add(edge.edge_id)
    if our_dropping and not (our_dropping & suspect_edges):
        return (
            supervision, WRONG_RESULT, "suspect interval misses the culprit", detail
        )
    return supervision, DEGRADED_CORRECT, supervision.reason, detail


def _classify_critical(
    runtime: SupervisedRuntime, network: Network, root: int,
    critical_before: bool,
) -> Verdict:
    verdict = runtime.critical(root)
    supervision = verdict.supervision
    detail = {"critical": verdict.critical}
    if not verdict.degraded:
        critical_after = _is_articulation(network, root)
        if verdict.critical not in (critical_before, critical_after):
            return (
                supervision, WRONG_RESULT, "verdict matches neither pre nor post",
                detail,
            )
        return supervision, RECOVERED, supervision.reason, detail
    if verdict.critical is not None:
        return supervision, WRONG_RESULT, "degraded verdict not explicit", detail
    return supervision, DEGRADED_CORRECT, supervision.reason, detail


# --------------------------------------------------------------------- #
# Control-plane oracles                                                 #
# --------------------------------------------------------------------- #


def resync_problems(report: ResyncReport) -> list[str]:
    """The resync-convergence oracle, on one post-crash :class:`ResyncReport`.

    A restarted controller must (a) jump its epoch clock past every epoch
    that could still be in flight — otherwise a pre-crash straggler could be
    accepted against a post-crash epoch — and (b) drive the inventory
    handshake to a fixed point.  Returns human-readable violations.
    """
    problems: list[str] = []
    if report.epoch_after == report.epoch_before:
        problems.append("epoch clock did not jump past in-flight epochs")
    if not report.converged:
        problems.append(
            f"inventory handshake did not converge in {report.rounds} rounds"
        )
    return problems


def readopt_problems(report: ReadoptReport) -> list[str]:
    """The switch-recovery oracle, on one post-run :class:`ReadoptReport`.

    The campaign driver forces every crashed victim back up before
    re-adopting, so a converged report with no dark switches is the only
    acceptable end state: every reachable switch's inventory digest reached
    the compiled fixed point despite partial-install interruptions (the
    attempt ledger in the report audits each retry).  Returns
    human-readable violations.
    """
    problems: list[str] = []
    if not report.converged:
        problems.append(
            f"switch re-adoption did not converge in {report.rounds} rounds "
            f"(still drifted: {sorted(report.drifted_nodes)})"
        )
    if report.dark_nodes:
        problems.append(
            f"switches dark after forced reboot: {sorted(report.dark_nodes)}"
        )
    return problems


def check_outage_liveness(
    seed: int = 0, topology_name: str = "torus3x3"
) -> list[str]:
    """The paper's headline claim as an executable oracle.

    With the controller process entirely gone (:meth:`fail_controller
    <repro.control.channel.ControlChannel.fail_controller>`) and a clean
    data plane, every in-band-triggered service must still produce an
    *exact* answer — not a degraded one — and must do so without a single
    message on the management network.  Returns human-readable violations
    (empty = the claim holds for this seed/topology).
    """
    problems: list[str] = []
    topology = TOPOLOGIES[topology_name]()
    network = Network(topology, seed=seed)
    channel = ControlChannel(network)
    channel.fail_controller()
    runtime = SupervisedRuntime(network, in_band=True)
    rng = seeded_rng(seed ^ 0x5DEECE66D)
    root = rng.randrange(topology.num_nodes)

    snap = runtime.snapshot(root)
    if check_epoch_ledger(snap.supervision):
        problems.append("snapshot: epoch ledger violated")
    if snap.degraded:
        problems.append("snapshot degraded during outage")
    elif snap.nodes != set(topology.nodes()):
        problems.append("snapshot missed nodes during outage")
    elif snap.links != network.live_port_pairs():
        problems.append("snapshot not exact during outage")

    gid = 1
    others = [n for n in topology.nodes() if n != root]
    groups = {gid: set(rng.sample(others, min(2, len(others))))}
    delivery = runtime.anycast(root, gid, groups)
    if check_epoch_ledger(delivery.supervision):
        problems.append("anycast: epoch ledger violated")
    if delivery.degraded:
        problems.append("anycast degraded during outage")
    elif delivery.delivered_at not in groups[gid]:
        problems.append("anycast delivered to a non-member during outage")

    blackhole = runtime.detect_blackhole(root)
    if check_epoch_ledger(blackhole.supervision):
        problems.append("blackhole: epoch ledger violated")
    if blackhole.degraded:
        problems.append("blackhole detection degraded during outage")
    elif blackhole.verdict is None or blackhole.verdict.found:
        problems.append("blackhole verdict wrong on a clean data plane")

    verdict = runtime.critical(root)
    if check_epoch_ledger(verdict.supervision):
        problems.append("critical: epoch ledger violated")
    if verdict.degraded:
        problems.append("critical-node check degraded during outage")
    elif verdict.critical != _is_articulation(network, root):
        problems.append("critical-node verdict wrong during outage")

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
    full re-adoption sweep judged by :func:`readopt_problems`, so the
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
    """Execute and classify one seeded chaos run."""
    profile = PROFILES[profile_name]
    topology = TOPOLOGIES[topology_name]()
    network = Network(topology, seed=run_seed)
    plan_rng = seeded_rng(run_seed ^ 0x9E3779B9)
    root = plan_rng.randrange(topology.num_nodes)

    channel = None
    if service != "anycast":
        channel = ControlChannel(network)

    gid, groups = 0, {}
    if service == "anycast":
        gid = 2
        others = [n for n in topology.nodes() if n != root]
        groups = {gid: set(plan_rng.sample(others, min(2, len(others))))}

    critical_before = False
    if service == "critical":
        critical_before = _is_articulation(network, root)

    faults = _plan_faults(network, profile, service, root, plan_rng, channel)

    # Controller crash mid-traversal: the crash arms on a packet step (so it
    # fires *inside* a traversal, the hard case) and schedules its own
    # restore relative to the moment it actually fired.  The callback only
    # flips flags and queues one event — never re-enters the event loop.
    crash_log: list[float] = []
    if profile.crash and channel is not None:
        crash_step = plan_rng.randint(1, 40)
        outage = round(plan_rng.uniform(60.0, 300.0), 1)

        def _crash() -> None:
            crash_log.append(network.sim.now)
            channel.fail_controller()
            network.sim.at(
                network.sim.now + outage, channel.restore_controller
            )

        network.at_packet_step(crash_step, _crash)
        faults.append(f"ctrl-crash@step{crash_step}:outage{outage}")

    # Smart-counter blackhole detection builds a fresh engine per attempt
    # (the counters must start from zero), so there is no persistent switch
    # whose crash and recovery the oracle could observe — switch faults are
    # withheld from the blackhole service, same as visible mid-failures.
    switch_faulted = (
        profile.sw_crash or profile.sw_flap or profile.table_pressure > 0
    ) and service != "blackhole"

    config = SupervisorConfig(max_attempts=max_attempts)
    # Crash and switch-fault runs use compiled switches: the inventory
    # handshake reconciles real per-switch flow state, not a no-op.
    mode = "compiled" if profile.crash or switch_faulted else "interpreted"
    runtime = SupervisedRuntime(network, mode=mode, config=config, channel=channel)

    # Switch-plane faults: the victim box crashes mid-traversal (possibly
    # through several flap cycles) or comes under table pressure.  All
    # durations and the victim are drawn at plan time; the armed callbacks
    # only flip switch flags and queue timer events — they never re-enter
    # the event loop.  Switch objects are resolved at fire time (the
    # engines compile lazily on the first supervised call).
    victim = -1
    install_seed = 0
    pressure_stats: dict = {}
    if switch_faulted:
        victim = plan_rng.randrange(topology.num_nodes)
        install_seed = plan_rng.randrange(1 << 32)
        if profile.sw_crash or profile.sw_flap:
            crash_step = plan_rng.randint(1, 40)
            cycles = plan_rng.randint(2, 3) if profile.sw_flap else 1
            outages = [
                round(plan_rng.uniform(40.0, 200.0), 1) for _ in range(cycles)
            ]
            gaps = [
                round(plan_rng.uniform(30.0, 90.0), 1) for _ in range(cycles)
            ]

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
        if profile.table_pressure:
            pressure_step = plan_rng.randint(1, 30)
            capacity = plan_rng.randint(6, 10)
            junk = [
                plan_rng.randint(0, 5) for _ in range(profile.table_pressure)
            ]

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
        if service == "snapshot":
            verdict = _classify_snapshot(runtime, network, root, channel)
        elif service == "anycast":
            verdict = _classify_anycast(runtime, network, root, gid, groups)
        elif service == "blackhole":
            verdict = _classify_blackhole(runtime, network, root)
        elif service == "critical":
            verdict = _classify_critical(runtime, network, root, critical_before)
        else:  # pragma: no cover - ChaosConfig.validate rejects this
            raise ValueError(f"unknown service {service!r}")
        supervision, record.outcome, record.reason, record.detail = verdict
        record.attempts = supervision.attempts_used
        record.stale_squashed = supervision.stale_squashed
        # Every supervised call must honour the epoch-ledger contract (the
        # runtime half of invariant MC009); a violation is a lie, not a
        # fault.
        ledger = check_epoch_ledger(supervision)
        if ledger:
            record.outcome = WRONG_RESULT
            record.reason = "epoch ledger: " + "; ".join(ledger)
        if crash_log and channel is not None:
            # The controller actually died mid-run: it must come back and
            # resynchronize, and the resync must converge (the
            # resync-convergence oracle).  The scheduled restore may still
            # be pending; restoring twice is idempotent.
            channel.restore_controller()
            resync = runtime.resynchronize(root)
            record.detail["resync"] = {
                "converged": resync.converged,
                "rounds": resync.rounds,
                "epoch_jump": [resync.epoch_before, resync.epoch_after],
                "reprogrammed": list(resync.reprogrammed_nodes),
                "unreachable": sorted(set(resync.unreachable_nodes)),
                "relearned_nodes": len(resync.relearned_nodes),
                "topology_degraded": resync.topology_degraded,
            }
            problems = resync_problems(resync)
            if problems and record.outcome in (RECOVERED, DEGRADED_CORRECT):
                record.outcome = WRONG_RESULT
                record.reason = "resync: " + "; ".join(problems)
        if switch_faulted:
            # The switch-recovery oracle: force any still-dark victim back
            # up (rebooting an up switch is a no-op), arm the seeded
            # partial-install fault model, and drive re-adoption to the
            # inventory-digest fixed point.  A recovery that fails to
            # converge — or leaves switches dark — flips the run.
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
            readopt = runtime.readopt()
            ledger: dict[str, int] = {}
            for attempt in readopt.attempts:
                ledger[attempt.status] = ledger.get(attempt.status, 0) + 1
            record.detail["readopt"] = {
                "converged": readopt.converged,
                "rounds": readopt.rounds,
                "reprogrammed": list(readopt.reprogrammed_nodes),
                "dark": sorted(set(readopt.dark_nodes)),
                "unreachable": sorted(set(readopt.unreachable_nodes)),
                "ledger": ledger,
            }
            if pressure_stats:
                record.detail["table_pressure"] = dict(pressure_stats)
            problems = readopt_problems(readopt)
            if problems and record.outcome in (RECOVERED, DEGRADED_CORRECT):
                record.outcome = WRONG_RESULT
                record.reason = "readopt: " + "; ".join(problems)
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
