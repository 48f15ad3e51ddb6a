"""In-band traversal supervision: watchdogs, epoch retries, degradation.

The paper's fast-failover groups only mask links that fail *before* a
traversal starts (§3.5); a mid-traversal failure, a lossy link, or a silent
blackhole swallows the trigger packet and the service simply never answers.
PR 2's model checker can *find* those interleavings — this module makes the
runtime *survive* them, keeping all reaction state at the traversal origin
(the direction argued by the stateful-data-plane line of work) instead of
round-tripping through a possibly-disconnected controller:

1. **Epoch tags.**  Every supervised trigger carries the current epoch in
   reserved header bits (:data:`~repro.core.fields.FIELD_EPOCH`).  The
   origin squashes any packet whose epoch is stale — one match rule in a
   real switch, the :class:`~repro.core.epoch.EpochGate` in the template
   interpreter — so an abandoned attempt can neither report a duplicate
   result nor keep traversing through the origin (at-most-once delivery).
2. **Watchdog deadlines.**  The Table 2 closed forms bound every
   traversal's in-band crossings, so ``hop bound × max link delay × safety
   factor`` (:func:`~repro.core.epoch.watchdog_deadline`) bounds its
   duration.  A traversal silent past the deadline has lost its packet.
3. **Retries with backoff + jitter.**  On expiry the supervisor advances
   the epoch and re-triggers, after an exponential backoff with seeded
   jitter (drawn from ``network.rng``, so campaigns replay bit-identically).
4. **Graceful degradation.**  When retries exhaust (persistent partition),
   each service degrades to an explicit, honest partial answer instead of
   hanging or raising — see :class:`SupervisedRuntime`.

``tests/test_supervisor.py`` exercises every path; the chaos harness
(:mod:`repro.net.chaos`) drives all four services through randomized fault
campaigns on top of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Mapping, Sequence

from repro.core.engine import TraversalResult, make_engine
from repro.core.epoch import EpochClock, EpochGate, watchdog_deadline
from repro.core.fields import FIELD_EPOCH, FIELD_GID, FIELD_REPEAT, FIELD_SVC
from repro.core.services.anycast import AnycastService
from repro.core.services.base import Service
from repro.core.services.blackhole import (
    BH_DONE,
    BH_FOUND,
    BH_INCOMPLETE,
    FIELD_BH,
    FIELD_REPORT_PORT,
    REPEAT_PROBE,
    REPEAT_VERIFY,
    BlackholeService,
    BlackholeVerdict,
)
from repro.core.services.critical import CRITICAL, FIELD_CRITICAL, CriticalNodeService
from repro.core.services.snapshot import SnapshotService, decode_snapshot
from repro.control.channel import ControlChannel
from repro.control.retry import RetryPolicy, retry_rounds, sim_sleep
from repro.net.simulator import Network
from repro.net.trace import EventKind
from repro.openflow.errors import InstallError
from repro.openflow.packet import LOCAL_PORT, Packet
from repro.openflow.switch import Switch

#: Attempt outcomes recorded in the epoch ledger.
ACCEPTED = "accepted"
EXPIRED = "expired"
PACKET_OUT_LOST = "packet-out-lost"
DEGRADED_REPORT = "degraded-report"
#: The attempt produced a verdict that still needs cross-epoch confirmation
#: (blackhole FOUND reports; see SupervisedRuntime.detect_blackhole).
UNCONFIRMED = "unconfirmed"
#: The verify walk proved the probe died mid-run (an in-band BH_INCOMPLETE
#: report), so the attempt failed fast instead of waiting out the watchdog.
PROBE_INCOMPLETE = "probe-incomplete"


#: The supervisor's attempt budget and backoff schedule unless configured.
DEFAULT_RETRY = RetryPolicy(max_attempts=4, max_backoff=512.0)


@dataclass
class SupervisorConfig:
    """Retry/deadline policy of one supervisor."""

    #: Total trigger attempts (first try + retries) and the backoff between
    #: them: the one policy every retry loop of the supervisor runs.
    retry: RetryPolicy = DEFAULT_RETRY
    #: Deadline head-room over the closed-form worst case.
    safety_factor: float = 4.0

    def validate(self) -> None:
        self.retry.validate()
        if self.safety_factor < 1.0:
            raise ValueError("safety_factor must be >= 1")


@dataclass
class EpochAttempt:
    """Ledger entry: what one epoch of a supervised call did."""

    epoch: int
    injected_at: float
    deadline: float
    outcome: str = EXPIRED
    #: Stale packets squashed at the origin gate while this epoch ran.
    squashed: int = 0
    #: Packet ids injected under this epoch (trace cross-reference).
    packet_ids: tuple[int, ...] = ()


@dataclass
class SupervisedOutcome:
    """Generic result of one supervised call (the MC009 evidence)."""

    service: str
    root: int
    ok: bool
    degraded: bool
    #: "completed" | "retries-exhausted" | "controller-disconnected"
    reason: str
    attempts: list[EpochAttempt] = field(default_factory=list)
    #: The accepted traversal result (ok runs only).
    result: TraversalResult | None = None

    @property
    def attempts_used(self) -> int:
        return len(self.attempts)

    @property
    def epochs(self) -> list[int]:
        return [a.epoch for a in self.attempts]

    @property
    def stale_squashed(self) -> int:
        return sum(a.squashed for a in self.attempts)


def check_epoch_ledger(outcome: SupervisedOutcome) -> list[str]:
    """The MC009 contract, checked on a supervised call's ledger: every
    epoch ends in exactly one terminal outcome, at most one epoch is
    accepted, and the call as a whole yields exactly one result *or* an
    explicit degraded report.  Returns human-readable violations (empty =
    contract holds)."""
    problems: list[str] = []
    valid = {
        ACCEPTED,
        EXPIRED,
        PACKET_OUT_LOST,
        DEGRADED_REPORT,
        UNCONFIRMED,
        PROBE_INCOMPLETE,
    }
    accepted = [a for a in outcome.attempts if a.outcome == ACCEPTED]
    for attempt in outcome.attempts:
        if attempt.outcome not in valid:
            problems.append(
                f"epoch {attempt.epoch}: unknown outcome {attempt.outcome!r}"
            )
    if len(accepted) > 1:
        problems.append(
            f"{len(accepted)} epochs accepted a result; at-most-once violated"
        )
    if outcome.ok and outcome.degraded:
        problems.append("outcome is both ok and degraded")
    if outcome.ok and not accepted:
        problems.append("ok outcome without an accepted epoch")
    if not outcome.ok and accepted:
        problems.append("accepted epoch but outcome not ok")
    if not outcome.ok and not outcome.degraded:
        problems.append("call yielded neither a result nor a degraded report")
    if outcome.degraded and outcome.attempts:
        last = outcome.attempts[-1]
        if last.outcome not in (DEGRADED_REPORT, EXPIRED, PACKET_OUT_LOST):
            problems.append(
                f"degraded call ends with epoch outcome {last.outcome!r}"
            )
    return problems


class TraversalSupervisor:
    """Supervises traversal services on one network.

    One supervisor owns one engine (and its service instance, whose
    ``epoch_gate`` it drives) and one epoch-attempt loop,
    :meth:`run_epochs`.  Single-trigger services call it through
    :meth:`supervise`; the two-phase smart-counter blackhole detection
    (:meth:`SupervisedRuntime.detect_blackhole`) calls it with a fresh
    engine per attempt, because its counters must start from zero.
    """

    def __init__(
        self,
        network: Network,
        service: Service,
        mode: str = "interpreted",
        config: SupervisorConfig | None = None,
        channel: "ControlChannel | None" = None,
        clock: EpochClock | None = None,
    ) -> None:
        self.network = network
        self.service = service
        self.mode = mode
        self.config = config or SupervisorConfig()
        self.config.validate()
        self.channel = channel
        self.clock = clock or EpochClock()
        self.engine = make_engine(network, service, mode)

    # ------------------------------------------------------------------ #
    # Event-loop windows                                                 #
    # ------------------------------------------------------------------ #

    def _run_window(self, duration: float, done=None) -> bool:
        """Drive the event loop for at most *duration* time units, early
        exiting when *done()* turns true or nothing is in flight."""
        sim = self.network.sim
        deadline = sim.now + duration
        step = max(self.network.max_link_delay(), 1e-9)
        while True:
            if done is not None and done():
                return True
            if sim.now >= deadline or not sim.pending:
                break
            # Anchor each slice with a no-op: ``sim.run(until=...)`` never
            # advances the clock past the queue, so a lone far-future event
            # (e.g. a scheduled management reconnect) would otherwise leave
            # ``now`` — and this loop — stuck before the deadline forever.
            target = min(deadline, sim.now + step)
            sim.at(target, lambda: None)
            sim.run(until=target)
        return done() if done is not None else False

    def _deadline(self) -> float:
        return watchdog_deadline(
            self.service.name,
            self.network.topology,
            self.network.max_link_delay(),
            self.config.safety_factor,
        )

    # ------------------------------------------------------------------ #
    # Injection                                                          #
    # ------------------------------------------------------------------ #

    def _inject(
        self, root: int, fields: dict[str, int], from_controller: bool
    ) -> Packet | None:
        """Build and inject one trigger; None if the packet-out was lost
        (origin disconnected from the controller)."""
        packet_fields = {FIELD_SVC: self.service.service_id}
        packet_fields.update(fields)
        packet = self.network.packet(packet_fields)
        if from_controller and self.channel is not None:
            if not self.channel.packet_out(root, packet, in_port=LOCAL_PORT):
                return None
            return packet
        self.network.inject(
            root, packet, in_port=LOCAL_PORT, from_controller=from_controller
        )
        return packet

    def _bind(self) -> None:
        """(Re)install the engine; route packet-ins through the control
        channel when one is supervising the call, so management-plane
        disconnection is honoured (and counted) on the report path too."""
        self.engine.install()
        if self.channel is not None:
            self.channel.set_packet_in_handler(self.engine._on_report)

    # ------------------------------------------------------------------ #
    # The supervision loop                                               #
    # ------------------------------------------------------------------ #

    def run_epochs(
        self,
        root: int,
        phases: Sequence[dict[str, int]],
        ready: Callable[[list, list], bool],
        judge: Callable[[list], str],
        from_controller: bool,
        fresh_engine: bool = False,
    ) -> SupervisedOutcome:
        """The one epoch-attempt loop behind every supervised call.

        Each attempt (:meth:`_attempt`) runs under a fresh epoch — on a new
        engine with *fresh_engine* — and lands in the ledger; an
        :data:`ACCEPTED` attempt ends the call with its result.  Any other
        outcome backs off (exponential, seeded jitter) and retries until the
        budget is spent, and the call degrades.
        """
        outcome = SupervisedOutcome(
            service=self.service.name,
            root=root,
            ok=False,
            degraded=False,
            reason="retries-exhausted",
        )
        deadline = self._deadline()
        policy = self.config.retry
        for attempt_index in range(policy.max_attempts):
            if fresh_engine and attempt_index:
                self.engine = make_engine(self.network, self.service, self.mode)
            attempt, result = self._attempt(
                root, phases, ready, judge, from_controller, deadline,
                settle_first=attempt_index > 0,
            )
            outcome.attempts.append(attempt)
            if result is not None:
                outcome.ok = True
                outcome.reason = "completed"
                outcome.result = result
                return outcome
            if attempt_index < policy.max_attempts - 1:
                # Stragglers keep moving while the clock advances and get
                # squashed at the origin gate as they return.
                sim_sleep(
                    self.network, policy.backoff(attempt_index, self.network.rng)
                )

        outcome.degraded = True
        if all(a.outcome == PACKET_OUT_LOST for a in outcome.attempts):
            outcome.reason = "controller-disconnected"
        outcome.attempts[-1].outcome = DEGRADED_REPORT
        return outcome

    def _attempt(
        self,
        root: int,
        phases: Sequence[dict[str, int]],
        ready: Callable[[list, list], bool],
        judge: Callable[[list], str],
        from_controller: bool,
        deadline: float,
        settle_first: bool,
    ) -> tuple[EpochAttempt, TraversalResult | None]:
        """One epoch: arm the origin gate, bind the engine and inject one
        trigger per phase, tagged with the epoch.

        A multi-phase call lets the network settle before every phase but
        the first phase of the first attempt (*settle_first* is False on
        the first attempt): stragglers of the previous attempt drain, dying
        at the gate, before fresh state is read, and each phase finishes
        before the next one starts.  After the last trigger the watchdog window
        runs until ``ready(reports, deliveries)`` holds for this epoch's
        observables (it is not asked before the engine records anything,
        so it must be False on two empty lists), and ``judge(reports)``
        names the ledger outcome.
        Returns the ledger entry and, for an accepted attempt, its result.
        """
        epoch = self.clock.advance()
        gate = EpochGate(origin=root, epoch=epoch)
        self.service.epoch_gate = gate
        self._bind()
        engine = self.engine
        mark_reports = len(engine.reports)
        mark_deliveries = len(engine.deliveries)
        recorded = mark_reports + mark_deliveries
        attempt = EpochAttempt(
            epoch=epoch, injected_at=self.network.sim.now, deadline=deadline
        )

        def fresh(items: list, mark: int) -> list:
            return [(n, p) for n, p in items[mark:] if p.get(FIELD_EPOCH) == epoch]

        def observed() -> tuple[list, list]:
            return (
                fresh(engine.reports, mark_reports),
                fresh(engine.deliveries, mark_deliveries),
            )

        def done() -> bool:
            # Polled every window slice: filter only once something arrived.
            arrived = len(engine.reports) + len(engine.deliveries) > recorded
            return arrived and ready(*observed())

        packet = None
        for index, fields in enumerate(phases):
            if len(phases) > 1 and (settle_first or index):
                self._run_window(deadline)
            packet = self._inject(
                root, {**fields, FIELD_EPOCH: epoch}, from_controller
            )
            if packet is None:
                break
            attempt.packet_ids += (packet.packet_id,)

        if packet is None:
            attempt.outcome = PACKET_OUT_LOST
        elif self._run_window(deadline, done=done):
            attempt.outcome = judge(observed()[0])
        else:
            attempt.outcome = EXPIRED
        attempt.squashed = gate.squashed
        if attempt.outcome != ACCEPTED:
            return attempt, None
        reports, deliveries = observed()
        return attempt, TraversalResult(
            root=root, packet=packet, reports=reports, deliveries=deliveries
        )

    def supervise(
        self,
        root: int,
        fields: dict[str, int] | None = None,
        from_controller: bool = True,
        accept_deliveries: bool = False,
    ) -> SupervisedOutcome:
        """Run one supervised trigger of the service at *root*.

        A result is *accepted* when a report (or, with
        ``accept_deliveries``, a local delivery) tagged with the current
        epoch arrives; stale and duplicate observables are squashed and
        counted.  Exhausted retries produce ``degraded=True`` — the caller
        (or :class:`SupervisedRuntime`) turns the ledger into a
        service-specific partial answer.
        """

        def ready(reports: list, deliveries: list) -> bool:
            return bool(reports) or (accept_deliveries and bool(deliveries))

        return self.run_epochs(
            root, (fields or {},), ready, lambda _reports: ACCEPTED,
            from_controller,
        )

    # ------------------------------------------------------------------ #
    # Origin-side evidence                                               #
    # ------------------------------------------------------------------ #

    def reached_nodes(self, outcome: SupervisedOutcome) -> set[int]:
        """Nodes the supervised packets provably visited, from the hop log
        restricted to this call's packet ids.  (The origin can reconstruct
        the same set in-band: it installed the rules, knows the DFS port
        order, and sees how far each returning packet's tags progressed.)"""
        ids = {pid for a in outcome.attempts for pid in a.packet_ids}
        reached = {outcome.root}
        for event in self.network.trace.events(EventKind.HOP):
            if event.packet_id in ids and event.detail:
                reached.add(event.detail[0])
                reached.add(event.detail[2])
        return reached

    def terminal_nodes(self, outcome: SupervisedOutcome) -> set[int]:
        """Last node each supervised packet was seen at (suspect anchors)."""
        ids = {pid for a in outcome.attempts for pid in a.packet_ids}
        last: dict[int, int] = {pid: outcome.root for pid in sorted(ids)}
        for event in self.network.trace.events(EventKind.HOP):
            if event.packet_id in last and event.detail:
                last[event.packet_id] = event.detail[2]
        return set(last.values())


# --------------------------------------------------------------------- #
# Per-service degradation contracts                                     #
# --------------------------------------------------------------------- #


@dataclass
class SupervisedSnapshot:
    """Snapshot under supervision.

    Degraded contract: ``degraded=True``, ``links`` empty, and ``nodes`` is
    the provably-reached subset of the root's component — never a lie, only
    an under-approximation, and explicitly marked as such.
    """

    nodes: set[int]
    links: set[frozenset[tuple[int, int]]]
    degraded: bool
    supervision: SupervisedOutcome

    @property
    def ok(self) -> bool:
        return not self.degraded


@dataclass
class SupervisedDelivery:
    """Anycast under supervision.

    Degraded contract: fall back to an already-confirmed member of the
    group (a delivery observed under any epoch of this or an earlier call);
    ``delivered_at=None`` when no member was ever confirmed.
    """

    gid: int
    delivered_at: int | None
    degraded: bool
    #: True when ``delivered_at`` comes from the confirmed-member cache
    #: rather than a fresh delivery.
    fallback: bool
    supervision: SupervisedOutcome


@dataclass
class SupervisedBlackhole:
    """Blackhole detection under supervision.

    Degraded contract: instead of raising/hanging, report the narrowed
    suspect interval — the ports of the nodes where the supervised packets
    were last seen (a silent drop always happens on an edge incident to the
    dying packet's last confirmed position).
    """

    verdict: BlackholeVerdict | None
    degraded: bool
    #: Sender-side (node, port) suspects; empty when a verdict exists.
    suspects: list[tuple[int, int]]
    supervision: SupervisedOutcome


@dataclass
class SupervisedCritical:
    """Critical-node check under supervision.

    Degraded contract: ``critical=None`` (explicitly unknown) — the check
    claims nothing it cannot prove.
    """

    node: int
    critical: bool | None
    degraded: bool
    supervision: SupervisedOutcome


#: Per-switch repair outcomes (see :meth:`SupervisedRuntime.readopt`).
READOPT_OK = "ok"
READOPT_REPROGRAMMED = "reprogrammed"
READOPT_DARK = "dark"
READOPT_UNREACHABLE = "unreachable"
READOPT_FAILED = "install-failed"


@dataclass
class RepairAttempt:
    """One audited per-switch decision in the repair ledger.

    Every round records one attempt per (switch, service) pair — matches
    (``ok``), pushes (``reprogrammed``), interrupted pushes
    (``install-failed``), and honest skips (``dark`` / ``unreachable``) —
    so the ledger shows exactly which retry repaired which switch and why
    earlier rounds did not.
    """

    round_index: int
    node: int
    service: str
    status: str


@dataclass
class RepairReport:
    """What one repair did: a :meth:`~SupervisedRuntime.readopt` sweep, or
    a :meth:`~SupervisedRuntime.resynchronize`, which runs one (the chaos
    oracle's evidence for *switch-recovery* and *resync-convergence*)."""

    converged: bool
    rounds: int
    #: Full per-round, per-(switch, service) audit trail.
    attempts: list[RepairAttempt] = field(default_factory=list)
    #: Nodes reprogrammed in *any* round, in reprogramming order.
    reprogrammed_nodes: list[int] = field(default_factory=list)
    #: Final-round honest-degradation sets: switches that are crashed
    #: (dark) or management-disconnected are reported, not awaited.
    dark_nodes: list[int] = field(default_factory=list)
    unreachable_nodes: list[int] = field(default_factory=list)
    #: Reachable, up switches whose digest still disagreed after the final
    #: round (non-empty only when ``converged`` is False).
    drifted_nodes: list[int] = field(default_factory=list)
    # -- set by resynchronize only ---------------------------------------- #
    #: Epoch clock before and after the post-crash jump.
    epoch_before: int | None = None
    epoch_after: int | None = None
    #: What the in-band re-learning traversal reached.
    relearned_nodes: set[int] = field(default_factory=set)
    relearned_links: set[frozenset[tuple[int, int]]] = field(default_factory=set)
    #: True when the re-learning snapshot itself had to degrade.
    topology_degraded: bool = False


class SupervisedRuntime:
    """All four case studies, supervised: the resilient runtime facade.

    Mirrors :class:`~repro.core.runtime.SmartSouthRuntime` but every call
    returns instead of hanging: epoch-tagged retries under watchdog
    deadlines, then an explicit degraded answer.  One epoch clock is shared
    across services so squashed stragglers of one call can never alias a
    later call's epoch within the wrap window.
    """

    def __init__(
        self,
        network: Network,
        mode: str = "interpreted",
        config: SupervisorConfig | None = None,
        channel: "ControlChannel | None" = None,
        in_band: bool = False,
    ) -> None:
        self.network = network
        self.mode = mode
        self.config = config or SupervisorConfig()
        self.channel = channel
        #: In-band triggering: the origin switch injects its own triggers
        #: (``from_controller=False``), so a dead management plane cannot
        #: stop a service — the paper's full-outage operating mode.
        self.in_band = in_band
        self.clock = EpochClock()
        self._supervisors: dict[str, TraversalSupervisor] = {}
        #: gid -> confirmed members (delivery evidence), most recent last.
        self._confirmed: dict[int, list[int]] = {}
        #: (supervisor key, node) -> (degree, expected inventory digest);
        #: see :meth:`_matches_expected`.
        self._expected_digests: dict[tuple[str, int], tuple[int, str]] = {}

    def _supervisor(self, service: Service, key: str) -> TraversalSupervisor:
        supervisor = self._supervisors.get(key)
        if supervisor is None:
            supervisor = TraversalSupervisor(
                self.network,
                service,
                mode=self.mode,
                config=self.config,
                channel=self.channel,
                clock=self.clock,
            )
            self._supervisors[key] = supervisor
        return supervisor

    # -- repair: resynchronization and re-adoption ------------------------ #

    def resynchronize(self, root: int, margin: int = 2) -> RepairReport:
        """Resynchronize after a controller crash/restart.

        A restarted controller keeps only static configuration (the service
        definitions and the compiler); everything learned is gone.  Three
        steps rebuild it, all through the supervised machinery so loss and
        partitions produce retries and honest degradation, never hangs:

        1. **Epoch jump.**  :meth:`EpochClock.resync` burns *margin*
           epochs, so any attempt that was in flight when the controller
           died is strictly stale — the existing origin
           :class:`~repro.core.epoch.EpochGate` squashes its survivors the
           moment a new supervised call installs a gate.
        2. **In-band topology re-learning.**  One supervised snapshot
           traversal from *root* re-learns nodes and links — the paper's
           point: re-learning needs management connectivity to a *single*
           switch, not to all of them.
        3. **Inventory handshake** — :meth:`readopt`, the one repair: every
           switch whose digest disagrees is reprogrammed in place, and a
           crashed switch is reported ``dark``, not replaced.
        """
        epoch_before = self.clock.current
        epoch_after = self.clock.resync(margin)
        snap = self.snapshot(root)
        report = self.readopt()
        report.epoch_before, report.epoch_after = epoch_before, epoch_after
        report.relearned_nodes = set(snap.nodes)
        report.relearned_links = set(snap.links)
        report.topology_degraded = snap.degraded
        return report

    def _matches_expected(
        self, memo: dict, key: str, node: int, switch: Switch
    ) -> bool:
        """The handshake check: *switch* reports its
        :meth:`~repro.openflow.switch.Switch.inventory_digest` and the
        controller compares it with the digest of the program static
        configuration prescribes for *node* under supervisor *key*.

        That program is a pure function of the service, the node and the
        node's degree, so its digest is kept across calls, keyed by degree:
        the program is compiled (into *memo*) only the first time a node is
        checked or after the topology changed its degree.  A switch whose
        program did not change since it last reported costs a dict probe
        and a generation compare.
        """
        degree = self.network.topology.degree(node)
        known = self._expected_digests.get((key, node))
        if known is None or known[0] != degree:
            digest = self._expected_program(memo, key, node).inventory_digest()
            known = self._expected_digests[key, node] = (degree, digest)
        return switch.inventory_digest() == known[1]

    def _expected_program(self, memo: dict, key: str, node: int) -> Switch:
        """The program static configuration prescribes for *node* under
        supervisor *key*, compiled at most once per :meth:`readopt` call
        (which owns *memo*) however many rounds it runs."""
        from repro.core.compiler import compile_service

        expected = memo.get((key, node))
        if expected is None:
            supervisor = self._supervisors[key]
            expected = memo[key, node] = compile_service(
                self.network,
                node,
                supervisor.service,
                fast_path=getattr(supervisor.engine, "fast_path", None),
            )
        return expected

    def _installed_switches(self) -> Iterator[tuple[str, int, Switch]]:
        """``(key, node, switch)`` for every switch of every supervised
        compiled engine, in deterministic order: sorted supervisor keys,
        then sorted nodes.  Interpreted engines contribute nothing."""
        for key in sorted(self._supervisors):
            installed = getattr(self._supervisors[key].engine, "switches", None) or {}
            for node in sorted(installed):
                yield key, node, installed[node]

    def switches_at(self, node: int) -> list:
        """Every installed Switch object currently serving *node*, in
        service-key order.  The chaos harness uses this to aim switch-level
        faults at whatever box is actually bound to a node, and tests use
        it to poke switch state directly.
        """
        return [switch for _key, at, switch in self._installed_switches() if at == node]

    def readopt(self, max_rounds: int = 4) -> RepairReport:
        """Re-adopt rebooted (or otherwise drifted) switches: the one repair.

        Whichever side lost its state — a *switch* here, the *controller* in
        :meth:`resynchronize`, which ends with this sweep — the repair is
        the same.  Each round walks every switch of every supervised
        compiled engine (sorted supervisor keys, then sorted nodes;
        interpreted engines keep no switch-side flow state and are skipped)
        and runs the inventory handshake — the switch reports its
        :meth:`~repro.openflow.switch.Switch.inventory_digest` (which
        covers flow entries, group buckets and FF watch ports), the
        controller compares it with the expected program's digest, and any
        disagreeing switch gets the program, compiled from static
        configuration, pushed back entry by entry via
        :meth:`~repro.openflow.switch.Switch.adopt_program`.  The push
        mutates the installed switch **in place**, so an interrupted push
        (an active :class:`~repro.openflow.switch.SwitchFaultConfig`)
        leaves honest drift behind for the next round to detect.

        Rounds are driven by :func:`repro.control.retry.retry_rounds` with
        the fixed-point early stop disabled: under transient install
        faults a no-progress round is not evidence of unreachability, so
        only the attempt budget (*max_rounds*) and the backoff policy
        bound the loop.  Crashed switches (``dark``) and
        management-disconnected switches (``unreachable``) are reported,
        never awaited — honest degradation while the box is gone.
        ``converged`` means every *reachable, up* switch matched its
        expected digest in the final sweep.
        """
        report = RepairReport(converged=False, rounds=0)
        expected_programs: dict = {}

        def sweep(round_index: int) -> None:
            # This round's report sets, keyed by the status that lands a
            # node in one (a push that fails its re-verify is drifted too).
            sets: dict[str, list[int]] = {
                READOPT_UNREACHABLE: [], READOPT_DARK: [], READOPT_FAILED: []
            }
            for key, node, switch in self._installed_switches():
                drifted = False
                if self.channel is not None and not self.channel.connected(node):
                    status = READOPT_UNREACHABLE
                elif switch.down:
                    status = READOPT_DARK
                elif self._matches_expected(expected_programs, key, node, switch):
                    status = READOPT_OK
                else:
                    try:
                        switch.adopt_program(
                            self._expected_program(expected_programs, key, node)
                        )
                    except InstallError:
                        status = READOPT_FAILED
                    else:
                        status = READOPT_REPROGRAMMED
                        report.reprogrammed_nodes.append(node)
                        # A completed push matches by construction, but a
                        # paranoid controller re-verifies the digest rather
                        # than trusting its own bookkeeping.
                        drifted = not self._matches_expected(
                            expected_programs, key, node, switch
                        )
                report.attempts.append(RepairAttempt(
                    round_index, node, self._supervisors[key].service.name, status
                ))
                nodes = sets[READOPT_FAILED] if drifted else sets.get(status)
                if nodes is not None and node not in nodes:
                    nodes.append(node)
            report.unreachable_nodes = sets[READOPT_UNREACHABLE]
            report.dark_nodes = sets[READOPT_DARK]
            report.drifted_nodes = sets[READOPT_FAILED]

        report.rounds = retry_rounds(
            self.network,
            replace(self.config.retry, max_attempts=max_rounds),
            sweep,
            lambda: len(report.drifted_nodes),
            stop_on_no_progress=False,
        )
        report.converged = not report.drifted_nodes
        return report

    # -- snapshot -------------------------------------------------------- #

    def snapshot(self, root: int) -> SupervisedSnapshot:
        supervisor = self._supervisor(SnapshotService(), "snapshot")
        outcome = supervisor.supervise(root, from_controller=not self.in_band)
        if outcome.ok and outcome.result and outcome.result.reports:
            reporter, packet = outcome.result.reports[-1]
            nodes, links = decode_snapshot(packet)
            nodes.add(reporter)
            return SupervisedSnapshot(
                nodes=nodes, links=links, degraded=False, supervision=outcome
            )
        return SupervisedSnapshot(
            nodes=supervisor.reached_nodes(outcome),
            links=set(),
            degraded=True,
            supervision=outcome,
        )

    # -- anycast --------------------------------------------------------- #

    def anycast(
        self, root: int, gid: int, groups: Mapping[int, set[int]]
    ) -> SupervisedDelivery:
        key = f"anycast:{sorted((g, tuple(sorted(m))) for g, m in groups.items())}"
        supervisor = self._supervisor(AnycastService(groups), key)
        mark = len(supervisor.engine.deliveries)
        outcome = supervisor.supervise(
            root,
            fields={FIELD_GID: gid},
            from_controller=False,
            accept_deliveries=True,
        )
        # Every delivery observed during the call — fresh or stale — is
        # confirmed-member evidence for future fallbacks.
        for node, _pkt in supervisor.engine.deliveries[mark:]:
            bucket = self._confirmed.setdefault(gid, [])
            if node in bucket:
                bucket.remove(node)
            bucket.append(node)
        if outcome.ok and outcome.result and outcome.result.deliveries:
            return SupervisedDelivery(
                gid=gid,
                delivered_at=outcome.result.deliveries[0][0],
                degraded=False,
                fallback=False,
                supervision=outcome,
            )
        confirmed = self._confirmed.get(gid, [])
        return SupervisedDelivery(
            gid=gid,
            delivered_at=confirmed[-1] if confirmed else None,
            degraded=True,
            fallback=bool(confirmed),
            supervision=outcome,
        )

    # -- blackhole ------------------------------------------------------- #

    def detect_blackhole(self, root: int) -> SupervisedBlackhole:
        """Supervised two-phase smart-counter detection.

        Each attempt gets a fresh engine (smart counters are stateful and
        the "fetch = 1" test assumes they start from zero); the verify
        trigger only launches once the probe phase has drained or its
        deadline passed, honouring the paper's phase-gap requirement.

        Two defenses keep FOUND verdicts honest under probabilistic loss.
        The paper's count-is-1 signature is sound for drop-all blackholes —
        the first crossing of the bad link dies, stranding the sender port
        at 1 — but loss can kill the probe on a port already counted >= 2,
        leaving no signature anywhere; an unsuspecting verify walk would
        then stray into probe-untouched territory where its own arrival
        counting manufactures spurious count-1 reports on healthy links.

        1. **In-band incompleteness proof.**  The verify halts the moment a
           send-side fetch returns 0 (a port a completed probe could never
           have left untouched) and reports ``BH_INCOMPLETE``; the attempt
           fails fast and retries under a fresh epoch.  The *earliest*
           terminal report of the epoch decides, which also disarms
           duplicated verify copies trailing a halted twin.
        2. **Cross-epoch confirmation.**  A FOUND location must repeat in a
           second epoch before it is accepted.  A real blackhole kills the
           deterministic DFS at the same point every epoch, so its verdict
           is stable; residual loss artifacts depend on where the random
           drop landed and do not reliably repeat.

        A clean BH_DONE needs no confirmation: a completed verify means
        every crossing survived twice, so no drop-all blackhole is
        reachable.
        """
        #: FOUND location -> epochs that reported it.
        sightings: dict[tuple[int, int], int] = {}

        def verdict_report(reports: list) -> tuple[int, Packet] | None:
            # The *earliest* terminal report of the epoch decides the attempt
            # (reports append in emission order).  Ordering matters under
            # duplication: a trailing verify copy can fetch the count its
            # halted twin left behind and emit a spurious FOUND — always
            # *after* the twin's INCOMPLETE.
            for node, pkt in reports:
                if pkt.get(FIELD_BH) in (BH_FOUND, BH_DONE, BH_INCOMPLETE):
                    return node, pkt
            return None

        def judge(reports: list) -> str:
            node, pkt = verdict_report(reports)
            if pkt.get(FIELD_BH) == BH_INCOMPLETE:
                # In-band proof the probe died without a count-1 signature:
                # no verdict is derivable this epoch (faster than the
                # watchdog).
                return PROBE_INCOMPLETE
            if pkt.get(FIELD_BH) == BH_DONE:
                return ACCEPTED
            location = (node, pkt.get(FIELD_REPORT_PORT))
            sightings[location] = sightings.get(location, 0) + 1
            # Two epochs agree: the verdict is stable, accept.
            return ACCEPTED if sightings[location] >= 2 else UNCONFIRMED

        supervisor = TraversalSupervisor(
            self.network, BlackholeService(), mode=self.mode,
            config=self.config, channel=self.channel, clock=self.clock,
        )
        outcome = supervisor.run_epochs(
            root,
            ({FIELD_REPEAT: REPEAT_PROBE}, {FIELD_REPEAT: REPEAT_VERIFY}),
            lambda reports, _deliveries: verdict_report(reports) is not None,
            judge,
            not self.in_band,
            fresh_engine=True,
        )
        topology = self.network.topology
        if outcome.ok:
            node, pkt = verdict_report(outcome.result.reports)
            verdict = BlackholeVerdict(found=False)
            if pkt.get(FIELD_BH) == BH_FOUND:
                verdict = BlackholeVerdict(
                    found=True, location=(node, pkt.get(FIELD_REPORT_PORT))
                )
                far = topology.neighbor(*verdict.location)
                if far is not None:
                    verdict.far_end = (far.node, far.port)
            return SupervisedBlackhole(
                verdict=verdict, degraded=False, suspects=[], supervision=outcome
            )

        if sightings:
            outcome.reason = "unconfirmed-verdict"
        suspects: list[tuple[int, int]] = sorted(sightings)
        for node in sorted(supervisor.terminal_nodes(outcome)):
            for port in range(1, topology.degree(node) + 1):
                if (node, port) not in sightings:
                    suspects.append((node, port))
        return SupervisedBlackhole(
            verdict=None, degraded=True, suspects=suspects, supervision=outcome
        )

    # -- critical node --------------------------------------------------- #

    def critical(self, node: int) -> SupervisedCritical:
        supervisor = self._supervisor(CriticalNodeService(), "critical")
        outcome = supervisor.supervise(node, from_controller=not self.in_band)
        if outcome.ok and outcome.result:
            verdict = any(
                pkt.get(FIELD_CRITICAL) == CRITICAL
                for _reporter, pkt in outcome.result.reports
            )
            return SupervisedCritical(
                node=node, critical=verdict, degraded=False, supervision=outcome
            )
        return SupervisedCritical(
            node=node, critical=None, degraded=True, supervision=outcome
        )
