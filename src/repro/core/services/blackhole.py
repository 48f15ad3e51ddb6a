"""Blackhole detection (§3.3): two algorithms, plus packet-loss monitoring.

**Algorithm 1 — TTL binary search** (:class:`BlackholeTtlService` +
:class:`TtlBinarySearchDetector`).  The controller injects DFS traversals
with different TTL budgets.  A node receiving a packet with TTL 0 reports it
to the controller (the packet carries the full traversal state, so the
controller — which installed the rules and therefore knows each node's port
count — can compute the hop the packet was about to take).  A probe that hits
the blackhole earlier is silently swallowed.  Binary search over the TTL
finds the last reachable DFS step; the next hop from there is the blackhole.
Out-of-band cost: one trigger and at most one report per probe, i.e.
``2·⌈log₂ L⌉``-ish messages for a DFS of length L ≤ 4E; in-band cost is the
geometric sum ≈ 2L = 8E − 4n (Table 2, "Blackhole 1").

**Algorithm 2 — smart counters** (:class:`BlackholeService` +
:class:`SmartCounterBlackholeDetector`).  Every switch keeps one smart
counter per port (a fetch-and-increment built from a round-robin group, see
:mod:`repro.core.smart_counter`).  Phase A (``repeat = 3``) traverses the
network, echoing once over every *new* link (child bounces the packet to its
parent and back, ``repeat`` 3→2→1, before sweeping), so that every directed
port of a healthy link counts **2** sends while a drop-all port counts
exactly **1**; total in-band cost 4E (Table 2, "Blackhole 2").  Phase B
(``repeat = 0``) re-walks the same DFS and, before every send, fetches the
port's counter: a fetch returning 1 identifies the blackhole and a report is
copied to the controller.  Three out-of-band messages total: two triggers
plus one verdict.

The default blackhole model drops both directions of a link (the paper's
"edge ... that loses all packets").  For single-direction blackholes phase B
survives past the bad link; rather than wander into the never-visited region
(where its own arrival counting would fabricate counter-1 reports on healthy
links) it halts at the first virgin port — a fetch returning 0, impossible
after a completed probe — and reports ``BH_INCOMPLETE``.  The detectors take
the *earliest* report as the verdict, which is correct in both models.

**Packet-loss monitoring** (:class:`LossCheckService` +
:class:`PacketLossMonitor`).  Two extra counter families per port count data
packets out (``Cout``) and in (``Cin``).  A check traversal writes the
sender-side ``Cout`` fetch into the packet before each send; the receiver
compares it against its own ``Cin`` fetch — a mismatch means packets were
lost on that link.  Because the check itself increments both sides by one
per crossing, repeated crossings stay balanced.  Counters wrap, so a loss
count ≡ 0 (mod m) is invisible to a modulus-m counter; as the paper
suggests, several counters with distinct prime moduli shrink the
false-negative rate to losses divisible by their product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.core.fields import FIELD_REPEAT, FIELD_SVC, FIELD_TTL
from repro.core.services.base import HookContext, Service
from repro.net.simulator import Network

if TYPE_CHECKING:
    from repro.core.engine import _BaseEngine
from repro.openflow.packet import (
    CONTROLLER_PORT,
    LOCAL_PORT,
    NO_PORT,
    Packet,
    is_physical_port,
)

#: Report marker: 1 = blackhole/loss found, 2 = phase completed cleanly,
#: 3 = the verify walk reached a port the probe provably never touched
#: (the probe died mid-run without leaving a count-1 signature — e.g. on a
#: lossy link that swallowed a crossing of an already-counted port).
FIELD_BH = "bh"
BH_FOUND = 1
BH_DONE = 2
BH_INCOMPLETE = 3
#: The suspicious out-port (smart-counter reports).
FIELD_REPORT_PORT = "report_port"
#: The in-port of the reporting arrival (TTL and loss reports).
FIELD_REPORT_IN = "report_in"

#: ``repeat`` protocol values (phase A echo handshake / phase B verify).
REPEAT_PROBE = 3
REPEAT_ECHO = 2
REPEAT_ECHO_BACK = 1
REPEAT_VERIFY = 0


class BlackholeService(Service):
    """Smart-counter blackhole detection (the paper's second algorithm)."""

    name = "blackhole"
    service_id = 5

    #: Smart-counter modulus.  A port is touched at most 8 times per
    #: detection run (4 in each phase), so 16 keeps "fetch = 1"
    #: unambiguous with margin.  One detection per install: counters are
    #: stateful, so rerunning on the same engine needs a counter reset
    #: (fresh install), as it would on a real switch.
    counter_modulus = 16

    def __init__(self, counter_start: int = 0) -> None:
        """``counter_start`` seeds every per-port counter cursor at install
        time, so checker and simulator replays are bit-identical.  The
        detection algorithm assumes fresh counters, so anything but 0 is
        only useful for replay/differential experiments."""
        if not 0 <= counter_start < self.counter_modulus:
            raise ValueError(
                f"counter_start {counter_start} not in "
                f"[0, {self.counter_modulus})"
            )
        self.counter_start = counter_start

    def _count_send(self, ctx: HookContext, port: int) -> None:
        """Count an outgoing traversal of *port*; in the verify phase a
        fetch returning exactly 1 identifies the blackhole, and a fetch
        returning 0 proves the probe died before reaching this port.

        The 0 case halts the verify walk with an ``BH_INCOMPLETE`` report:
        a completed probe leaves every port it can reach at >= 2, so a
        virgin port means the probe was swallowed *without* stranding a
        count at 1 (probabilistic loss can kill a crossing of an
        already-counted port — unlike a drop-all blackhole, whose first
        crossing always dies).  Pressing on would be worse than useless:
        the verify's own arrival counting would manufacture count-1 ports
        in the never-visited region and report healthy links as blackholes.
        With the halt, a FOUND report implies its port's link really
        swallowed a packet (every arrival pairs with a same-port send count
        inside one handler, so no healthy port can rest at exactly 1 —
        degree-1 nodes excepted, where the parent port can hold a lone
        verify-arrival count)."""
        if not is_physical_port(port):
            return
        value = ctx.counters.fetch_inc(f"C{port}", self.counter_modulus)
        if ctx.packet.get(FIELD_REPEAT) != REPEAT_VERIFY:
            return
        if value == 1:
            ctx.packet.set(FIELD_BH, BH_FOUND)
            ctx.packet.set(FIELD_REPORT_PORT, port)
            ctx.emit_copy(CONTROLLER_PORT)
        elif value == 0:
            ctx.packet.set(FIELD_BH, BH_INCOMPLETE)
            ctx.packet.set(FIELD_REPORT_PORT, port)
            ctx.emit_copy(CONTROLLER_PORT)
            ctx.out = NO_PORT  # halt: consume the verify packet here

    # -- template hooks ---------------------------------------------------

    def on_arrival(self, ctx: HookContext) -> int | None:
        # The counter counts *link traversals at the port*: received
        # packets increment it too.  This makes both endpoints of a link
        # reach 2 within one probe/bounce (or echo) burst, so a traversal
        # that dies mid-run can never leave a healthy port at 1 anywhere
        # the verify phase will check (see DESIGN.md).
        if is_physical_port(ctx.in_port):
            ctx.counters.fetch_inc(f"C{ctx.in_port}", self.counter_modulus)
        return None

    def first_visit(self, ctx: HookContext) -> None:
        repeat = ctx.packet.get(FIELD_REPEAT)
        if repeat == REPEAT_PROBE:
            # New link: echo back to the parent before sweeping.
            ctx.packet.set(FIELD_REPEAT, REPEAT_ECHO)
            self._count_send(ctx, ctx.in_port)
            ctx.out = ctx.in_port
            ctx.skip_sweep = True  # cur stays 0: the echo-return re-enters here
        elif repeat == REPEAT_ECHO_BACK:
            # Echo completed; resume the normal probe traversal.
            ctx.packet.set(FIELD_REPEAT, REPEAT_PROBE)
        # repeat == REPEAT_VERIFY: plain first visit.

    def visit_from_cur(self, ctx: HookContext) -> None:
        if ctx.packet.get(FIELD_REPEAT) == REPEAT_ECHO:
            # Parent side of the echo: bounce the packet to the child again.
            ctx.packet.set(FIELD_REPEAT, REPEAT_ECHO_BACK)
            self._count_send(ctx, ctx.in_port)
            ctx.out = ctx.in_port
            ctx.skip_sweep = True  # cur must not advance during the echo

    def visit_not_from_cur(self, ctx: HookContext) -> None:
        self._count_send(ctx, ctx.in_port)

    def send_next_neighbor(self, ctx: HookContext) -> None:
        self._count_send(ctx, ctx.out)

    def send_parent(self, ctx: HookContext) -> None:
        self._count_send(ctx, ctx.out)

    def finish(self, ctx: HookContext) -> None:
        if ctx.packet.get(FIELD_REPEAT) == REPEAT_VERIFY:
            ctx.packet.set(FIELD_BH, BH_DONE)
            ctx.out = CONTROLLER_PORT  # "no blackhole" verdict
        # Phase A simply ends; the verdict belongs to phase B.


class BlackholeTtlService(Service):
    """TTL-probe blackhole detection (the paper's first algorithm)."""

    name = "blackhole_ttl"
    service_id = 6

    def on_arrival(self, ctx: HookContext) -> int | None:
        packet = ctx.packet
        ttl = packet.get(FIELD_TTL)
        if ttl == 0:
            packet.set(FIELD_BH, BH_FOUND)
            report_in = ctx.in_port if is_physical_port(ctx.in_port) else 0
            packet.set(FIELD_REPORT_IN, report_in)
            return CONTROLLER_PORT
        packet.set(FIELD_TTL, ttl - 1)
        return None

    def finish(self, ctx: HookContext) -> None:
        ctx.packet.set(FIELD_BH, BH_DONE)
        ctx.out = CONTROLLER_PORT


# --------------------------------------------------------------------- #
# Controller-side detectors                                             #
# --------------------------------------------------------------------- #


@dataclass
class BlackholeVerdict:
    """Outcome of a detection run."""

    found: bool
    #: Sender-side suspect: (node, out-port); None when not found.
    location: tuple[int, int] | None = None
    #: Far side of the suspect link, when resolvable: (node, in-port).
    far_end: tuple[int, int] | None = None
    #: Number of probe traversals used (TTL variant).
    probes: int = 0
    out_band_messages: int = 0
    in_band_messages: int = 0


class SmartCounterBlackholeDetector:
    """Runs the two-phase smart-counter algorithm via an engine.

    The paper's controller "sends the two packets with a time difference of
    twice the maximum delay": the verify phase must not overtake the probe
    phase, or it reads half-built counters.  ``run(gap=None)`` drains the
    network between phases (an infinite gap, the default used by tests and
    benchmarks); ``run(gap=seconds)`` schedules the verify trigger on the
    simulator clock instead — :func:`safe_gap` gives a sufficient value,
    and `tests/test_blackhole_timing.py` shows what a too-small gap does.
    """

    def __init__(self, engine: "_BaseEngine") -> None:
        self.engine = engine

    @staticmethod
    def safe_gap(network: Network) -> float:
        """An upper bound on the probe phase's duration: 4E hops at the
        slowest link delay (plus one for the injection step)."""
        slowest = max((link.delay for link in network.links), default=1.0)
        return (4 * network.topology.num_edges + 2) * slowest + 1.0

    def run(self, root: int, gap: float | None = None) -> BlackholeVerdict:
        engine = self.engine
        network: Network = engine.network
        trace = network.trace
        mark_out = trace.out_band_messages
        mark_in = trace.in_band_messages

        if gap is None:
            engine.trigger(root, fields={FIELD_REPEAT: REPEAT_PROBE})
            result = engine.trigger(root, fields={FIELD_REPEAT: REPEAT_VERIFY})
            reports = result.reports
        else:
            engine.install()
            mark_reports = len(engine.reports)
            engine.trigger(root, fields={FIELD_REPEAT: REPEAT_PROBE}, run=False)
            network.sim.schedule(
                gap,
                lambda: engine.trigger(
                    root, fields={FIELD_REPEAT: REPEAT_VERIFY}, run=False
                ),
            )
            network.run()
            reports = engine.reports[mark_reports:]

        verdict = BlackholeVerdict(found=False)
        for node, packet in reports:
            if packet.get(FIELD_BH) == BH_FOUND:
                port = packet.get(FIELD_REPORT_PORT)
                verdict.found = True
                verdict.location = (node, port)
                far = network.topology.neighbor(node, port)
                if far is not None:
                    verdict.far_end = (far.node, far.port)
                break  # earliest report wins (see module docstring)
        verdict.out_band_messages = trace.out_band_messages - mark_out
        verdict.in_band_messages = trace.in_band_messages - mark_in
        verdict.probes = 2
        return verdict


class TtlBinarySearchDetector:
    """Runs the TTL binary-search algorithm via an engine.

    The controller-side "compute the hop the reporting node was about to
    take" step uses the template interpreter on a copy of the reported
    packet — legitimate, because the controller installed the rules during
    the offline stage and therefore knows every node's program.
    """

    def __init__(self, engine: "_BaseEngine") -> None:
        self.engine = engine

    def _probe(self, root: int, ttl: int):
        """One traversal with the given TTL budget.

        Returns ("complete", None), ("report", (node, packet)) or
        ("swallowed", None).
        """
        result = self.engine.trigger(root, fields={FIELD_TTL: ttl})
        for node, packet in result.reports:
            if packet.get(FIELD_BH) == BH_DONE:
                return "complete", None
            if packet.get(FIELD_BH) == BH_FOUND:
                return "report", (node, packet)
        return "swallowed", None

    def _next_hop(self, node: int, packet: Packet) -> int:
        """The port the reporting node would have used next (controller-side
        replay of the template)."""
        from repro.core.template import TemplateInterpreter

        replay = TemplateInterpreter(self.engine.network, BlackholeTtlService())
        copy = packet.copy()
        copy.set(FIELD_TTL, 1 << 15)  # disarm the TTL check for the replay
        copy.set(FIELD_BH, 0)
        in_port = packet.get(FIELD_REPORT_IN) or LOCAL_PORT
        outputs = replay.process(node, copy, in_port)
        for out in outputs:
            if is_physical_port(out.port):
                return out.port
        return NO_PORT

    def run(self, root: int) -> BlackholeVerdict:
        network: Network = self.engine.network
        trace = network.trace
        mark_out = trace.out_band_messages
        mark_in = trace.in_band_messages
        probes = 0

        # A TTL beyond any possible traversal length: if this completes,
        # there is no blackhole on the DFS at all.
        high = 4 * network.topology.num_edges + 4
        probes += 1
        outcome, _data = self._probe(root, high)
        if outcome == "complete":
            return BlackholeVerdict(
                found=False,
                probes=probes,
                out_band_messages=trace.out_band_messages - mark_out,
                in_band_messages=trace.in_band_messages - mark_in,
            )

        # Invariant: probe(lo) reports, probe(hi) is swallowed.
        lo, hi = 0, high
        probes += 1
        outcome, data = self._probe(root, lo)
        if outcome != "report":  # pragma: no cover - ttl=0 always reports
            raise RuntimeError("TTL-0 probe must report at the root")
        best = data
        while hi - lo > 1:
            mid = (lo + hi) // 2
            probes += 1
            outcome, data = self._probe(root, mid)
            if outcome == "report":
                lo, best = mid, data
            else:
                hi = mid

        node, packet = best
        port = self._next_hop(node, packet)
        far = network.topology.neighbor(node, port) if port != NO_PORT else None
        return BlackholeVerdict(
            found=True,
            location=(node, port),
            far_end=(far.node, far.port) if far is not None else None,
            probes=probes,
            out_band_messages=trace.out_band_messages - mark_out,
            in_band_messages=trace.in_band_messages - mark_in,
        )


# --------------------------------------------------------------------- #
# Packet-loss monitoring                                                #
# --------------------------------------------------------------------- #

#: Loss-report marker values reuse FIELD_BH.
FIELD_DATA_OUT = "data_out"


class LossCheckService(Service):
    """Traversal that compares per-port data counters across each link.

    Also implements the data-plane side of data traffic itself: packets with
    ``svc = 0`` are counted (``Cout`` at the sender, ``Cin`` at the
    receiver) and consumed, exactly as proactively-installed counting rules
    would do on a real switch.
    """

    name = "losscheck"
    service_id = 8

    def __init__(self, moduli: tuple[int, ...] = (5, 7)) -> None:
        if not moduli or any(m < 2 for m in moduli):
            raise ValueError("counter moduli must all be >= 2")
        self.moduli = tuple(moduli)

    # -- data traffic counting --------------------------------------------

    def pre_dispatch(self, ctx: HookContext) -> int | None:
        packet = ctx.packet
        if packet.get(FIELD_SVC) != 0:
            return None
        if is_physical_port(ctx.in_port):
            # Data packet arriving over a link: count it in and consume it.
            for modulus in self.moduli:
                ctx.counters.fetch_inc(f"Cin{ctx.in_port}.m{modulus}", modulus)
            return LOCAL_PORT
        # Data packet originated here: count it out and transmit.
        port = packet.get(FIELD_DATA_OUT)
        for modulus in self.moduli:
            ctx.counters.fetch_inc(f"Cout{port}.m{modulus}", modulus)
        return port

    # -- check traversal ---------------------------------------------------

    def on_arrival(self, ctx: HookContext) -> int | None:
        if not is_physical_port(ctx.in_port):
            return None
        packet = ctx.packet
        mismatch = False
        for modulus in self.moduli:
            received = ctx.counters.fetch_inc(
                f"Cin{ctx.in_port}.m{modulus}", modulus
            )
            if received != packet.get(f"cmp.m{modulus}"):
                mismatch = True
        if mismatch:
            packet.set(FIELD_BH, BH_FOUND)
            packet.set(FIELD_REPORT_IN, ctx.in_port)
            ctx.emit_copy(CONTROLLER_PORT)
            packet.set(FIELD_BH, 0)
        return None

    def _stamp_send(self, ctx: HookContext, port: int) -> None:
        if not is_physical_port(port):
            return
        for modulus in self.moduli:
            value = ctx.counters.fetch_inc(f"Cout{port}.m{modulus}", modulus)
            ctx.packet.set(f"cmp.m{modulus}", value)

    def visit_not_from_cur(self, ctx: HookContext) -> None:
        self._stamp_send(ctx, ctx.in_port)

    def send_next_neighbor(self, ctx: HookContext) -> None:
        self._stamp_send(ctx, ctx.out)

    def send_parent(self, ctx: HookContext) -> None:
        self._stamp_send(ctx, ctx.out)

    def finish(self, ctx: HookContext) -> None:
        ctx.packet.set(FIELD_BH, BH_DONE)
        ctx.out = CONTROLLER_PORT


@dataclass
class LossReport:
    """Result of a packet-loss check."""

    #: Links flagged lossy, as receiver-side (node, in-port) pairs.
    flagged: set[tuple[int, int]] = field(default_factory=set)
    completed: bool = False
    in_band_messages: int = 0
    out_band_messages: int = 0


class PacketLossMonitor:
    """End-to-end packet-loss monitoring with multi-prime smart counters."""

    def __init__(self, engine: "_BaseEngine", moduli: tuple[int, ...] = (5, 7)) -> None:
        if not isinstance(engine.service, LossCheckService):
            raise TypeError("PacketLossMonitor needs a LossCheckService engine")
        self.engine = engine
        self.moduli = engine.service.moduli

    def send_traffic(self, packets_per_direction: int) -> None:
        """Emit data packets over every link direction (losses apply)."""
        self.engine.install()  # counting rules must be in place first
        network: Network = self.engine.network
        for edge in network.topology.edges():
            for endpoint in (edge.a, edge.b):
                for _ in range(packets_per_direction):
                    packet = network.packet({FIELD_DATA_OUT: endpoint.port})
                    network.inject(endpoint.node, packet)
        network.run()

    def check(self, root: int) -> LossReport:
        """Run the check traversal and collect mismatch reports."""
        trace = self.engine.network.trace
        mark_in = trace.in_band_messages
        mark_out = trace.out_band_messages
        result = self.engine.trigger(root)
        report = LossReport()
        for node, packet in result.reports:
            if packet.get(FIELD_BH) == BH_FOUND:
                report.flagged.add((node, packet.get(FIELD_REPORT_IN)))
            elif packet.get(FIELD_BH) == BH_DONE:
                report.completed = True
        report.in_band_messages = trace.in_band_messages - mark_in
        report.out_band_messages = trace.out_band_messages - mark_out
        return report

    def detectable_losses(self) -> set[tuple[int, int]]:
        """Ground truth: receiver-side (node, port) pairs whose loss count
        is not ≡ 0 modulo every configured counter (what the check *can*
        see)."""
        network: Network = self.engine.network
        flagged: set[tuple[int, int]] = set()
        for link in network.links:
            for direction in link.dropped:
                lost = link.dropped[direction]
                if lost and any(lost % m for m in self.moduli):
                    # Receiver side of this direction.
                    if direction.value == "a->b":
                        far = link.edge.b
                    else:
                        far = link.edge.a
                    flagged.add((far.node, far.port))
        return flagged
