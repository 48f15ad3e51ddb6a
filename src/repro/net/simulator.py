"""Discrete-event network simulator.

The simulator moves packets between *node handlers*.  A handler is any
callable ``(packet, in_port) -> list[PacketOut]`` — in practice either an
OpenFlow :class:`~repro.openflow.switch.Switch` pipeline (compiled engine) or
a SmartSouth template interpreter (reference engine).  A node may also have
a *drain entry* (the compiled fast path's), which emits through the
network's one emitter directly instead of returning an output list.
Everything observable is appended to a :class:`~repro.net.trace.Trace`.

Indexed event queue
-------------------

Events are kept in per-time buckets (a heap of distinct times plus a
``time -> [event, ...]`` index) instead of one heap entry per event.  Two
event shapes live in a bucket:

* a callable — an opaque timer (``schedule`` / ``at``), run as before;
* a ``(node, packet, in_port)`` tuple — a *typed arrival*, dispatched
  through the network's arrival handler.

Typed arrivals are what makes batching possible: in batch mode the drain
loop hands each maximal run of consecutive same-time arrivals to the
network in one call, which regroups them by switch and feeds whole batches through the
compiled fast path (see docs/FASTPATH.md).  Scalar mode dispatches the very
same tuples one at a time, so both modes observe an identical event order:
buckets drain in ascending time, events within a bucket in insertion order
— exactly the ``(time, seq)`` order of the old one-entry-per-event heap.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

from repro.core.determinism import PacketIdAllocator, seeded_rng
from repro.net.link import Link
from repro.net.topology import Topology
from repro.net.trace import EventKind, Trace, TraceEvent
from repro.openflow.packet import CONTROLLER_PORT, LOCAL_PORT, Packet
from repro.openflow.switch import PacketOut

#: A node's packet-processing function.
Handler = Callable[[Packet, int], list[PacketOut]]
#: The network's emitter: ``emit(node, port, packet)`` puts one packet on
#: the wire (see :meth:`Network.set_drain`).
EmitFn = Callable[[int, int, Packet], None]
#: A node's drain entry: ``drain(packet, in_port)`` runs one arrival, emits
#: its outputs through the network's emitter itself, and returns whether
#: it emitted anything.
DrainFn = Callable[[Packet, int], bool]
#: Per-packet completion callback handed to batch handlers:
#: ``deliver(index, outputs)`` with outputs as raw ``(port, packet)`` pairs.
DeliverFn = Callable[[int, list], None]
#: A node's batched packet-processing function:
#: ``handler(items, deliver)`` with items as ``(packet, in_port)`` pairs,
#: calling ``deliver`` once per item, in item order.
BatchHandler = Callable[[list, DeliverFn], None]
#: Controller upcall: (node, packet) for packets sent to CONTROLLER_PORT.
ControllerSink = Callable[[int, Packet], None]
#: Local delivery upcall: (node, packet) for packets sent to LOCAL_PORT.
DeliverySink = Callable[[int, Packet], None]


class SimulationLimitError(RuntimeError):
    """The event budget was exhausted (almost certainly a forwarding loop)."""


class Simulator:
    """A minimal discrete-event loop over an indexed (per-time) queue."""

    def __init__(self) -> None:
        self.now = 0.0
        #: Heap of *distinct* bucket times.
        self._times: list[float] = []
        #: time -> events in insertion order (callables and arrival tuples).
        self._buckets: dict[float, list] = {}
        self._pending = 0
        #: Scalar arrival dispatch: ``fn(node, packet, in_port)``.
        self.arrival_handler: Callable[[int, Packet, int], None] | None = None
        #: Batch arrival dispatch: ``fn(run)`` over a list of arrival tuples.
        self.run_handler: Callable[[list], None] | None = None

    def _push(self, time: float, event) -> None:
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heapq.heappush(self._times, time)
        else:
            bucket.append(event)
        self._pending += 1

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run *fn* at ``now + delay``."""
        if delay < 0:
            raise ValueError("negative delay")
        self._push(self.now + delay, fn)

    def at(self, time: float, fn: Callable[[], None]) -> None:
        """Run *fn* at absolute *time* (>= now)."""
        if time < self.now:
            raise ValueError("cannot schedule in the past")
        self._push(time, fn)

    def schedule_arrival(
        self, delay: float, node: int, packet: Packet, in_port: int
    ) -> None:
        """Schedule a typed packet arrival at ``now + delay``.

        Arrivals are stored as plain tuples (no closure per packet) and
        dispatched through :attr:`arrival_handler` — or, in batch mode,
        grouped into runs and handed to :attr:`run_handler`.
        """
        if delay < 0:
            raise ValueError("negative delay")
        self._push(self.now + delay, (node, packet, in_port))

    def run(
        self,
        until: float | None = None,
        max_events: int = 2_000_000,
        batch: bool = False,
    ) -> int:
        """Process events in time order; returns the number processed.

        Every event — timer callback or packet arrival — counts exactly one
        against *max_events*, in both modes: a batched run of *n* arrivals
        is charged *n*, and run collection is clamped to the remaining
        budget so the limit error fires after the same packet as in scalar
        mode.
        """
        processed = 0
        times = self._times
        buckets = self._buckets
        arrive = self.arrival_handler
        run_handler = self.run_handler if batch else None
        while times:
            time = times[0]
            if until is not None and time > until:
                break
            heapq.heappop(times)
            events = buckets[time]
            self.now = time
            i = 0
            try:
                # Index-based drain: same-time events appended while this
                # bucket is live are picked up in insertion order.
                while i < len(events):
                    event = events[i]
                    if type(event) is tuple:
                        if run_handler is not None:
                            # Collect the maximal run of consecutive
                            # arrivals, clamped so the budget check below
                            # trips at the exact same packet as scalar mode.
                            j = i + 1
                            end = i + (max_events - processed) + 1
                            while (
                                j < len(events)
                                and j < end
                                and type(events[j]) is tuple
                            ):
                                j += 1
                            run = events[i:j]
                            i = j
                            self._pending -= len(run)
                            processed += len(run)
                            try:
                                run_handler(run)
                            except BaseException:
                                # The handler trims consumed arrivals off
                                # *run*; whatever is left goes back in
                                # front of the bucket's remaining events.
                                if run:
                                    self._pending += len(run)
                                    events[i:i] = run
                                    i += len(run)  # keep [:i] = consumed
                                raise
                        else:
                            i += 1
                            self._pending -= 1
                            processed += 1
                            arrive(event[0], event[1], event[2])
                    else:
                        i += 1
                        self._pending -= 1
                        processed += 1
                        event()
                    if processed > max_events:
                        raise SimulationLimitError(
                            f"exceeded {max_events} events (forwarding loop?)"
                        )
            finally:
                if i < len(events):
                    # Interrupted mid-bucket: keep the unprocessed tail so
                    # a caller that catches the error sees a sane queue.
                    del events[:i]
                    heapq.heappush(times, time)
                else:
                    del buckets[time]
        return processed

    @property
    def pending(self) -> int:
        return self._pending


class Network:
    """A topology with runtime link state, handlers, and the event loop.

    ``fast_path`` is the network-wide engine default: compiled engines built
    on this network run their switches on the indexed fast path
    (:mod:`repro.openflow.fastpath`) unless overridden per engine.  It does
    not change simulator semantics — both switch engines are observably
    identical — only the speed of the per-packet pipeline.

    ``batch`` selects the batched drain mode: same-time arrival runs are
    regrouped by switch and pushed through the batch pipeline
    (:meth:`repro.openflow.switch.Switch.process_batch`) in one call.  Batch
    mode is byte-identical to scalar mode — packets are still executed in
    arrival order, one at a time, with per-packet counters, RNG draws, and
    packet-id allocation in the exact scalar sequence; only dispatch work is
    amortized.  Segments fall back to the scalar path
    whenever a node has no batch handler, a segment is a single packet, or
    a non-passive sink is attached (a controller channel that reprograms
    switches synchronously).

    A network owns its run's two determinism sources: ``rng`` (seeded by
    *seed*) for link draws and ``ids`` for packet ids, so two networks
    built alike trace the same whatever else runs in the process.
    """

    def __init__(
        self,
        topology: Topology,
        seed: int = 0,
        fast_path: bool = False,
        batch: bool = False,
    ) -> None:
        self.topology = topology
        self.fast_path = fast_path
        self.batch = batch
        self.links: list[Link] = [Link(edge) for edge in topology.edges()]
        self.sim = Simulator()
        self.sim.arrival_handler = self._arrive
        self.sim.run_handler = self._arrive_run
        self.trace = Trace()
        self.rng = seeded_rng(seed)
        self.ids = PacketIdAllocator()
        self._handlers: dict[int, Handler] = {}
        self._drains: dict[int, DrainFn] = {}
        self._batch_handlers: dict[int, BatchHandler] = {}
        self._controller_sink: ControllerSink | None = None
        self._controller_passive = False
        self._delivery_sink: DeliverySink | None = None
        self._delivery_passive = False
        #: (node, port) -> (link, far_node, far_port, direction, detail) or
        #: None for unwired ports (see :meth:`_emit`).
        self._routes: dict[tuple[int, int], tuple | None] = {}
        #: The rule compiler's degree-keyed row plans and shared atoms
        #: (:meth:`repro.core.compiler.Codegen.shared`): kept here so every
        #: switch compiled for this network reuses them and they die with it.
        self.compile_plans: dict = {}
        #: Number of pipeline executions so far (one per packet arrival).
        #: This is the model checker's logical clock: scheduling state
        #: changes "after N packet steps" makes replays deterministic in a
        #: way wall-clock scheduling is not.
        self.packet_steps = 0
        self._step_hooks: dict[int, list[Callable[[], None]]] = {}

    def packet(self, fields=None, stack=None, payload=None) -> Packet:
        """A root packet with this network's next id; its copies draw from
        the same allocator."""
        ids = self.ids
        fields = {} if fields is None else fields
        stack = [] if stack is None else stack
        return Packet(fields, stack, payload, ids.allocate(), ids=ids)

    # ------------------------------------------------------------------ #
    # Wiring                                                             #
    # ------------------------------------------------------------------ #

    def set_handler(self, node: int, handler: Handler) -> None:
        """Install *node*'s scalar pipeline; drops any stale drain entry and
        batch handler (an engine that has them re-registers them right
        after)."""
        self._handlers[node] = handler
        self._drains.pop(node, None)
        self._batch_handlers.pop(node, None)

    def set_drain(
        self, node: int, attach: Callable[[int, EmitFn], DrainFn]
    ) -> None:
        """Install *node*'s drain entry, which scalar arrivals then take
        instead of the handler.

        ``attach(node, emit)`` binds the entry to this network's emitter
        and returns it (:meth:`repro.openflow.fastpath.FastPath.attach`).
        The entry emits every output itself — no output list and no
        per-packet callback — and owns the arrival it is handed.  It must be
        observably equivalent to the node's handler followed by emitting
        that handler's outputs in order.
        """
        self._drains[node] = attach(node, self._emit)

    def set_batch_handler(self, node: int, handler: BatchHandler) -> None:
        """Install *node*'s batched pipeline (see :data:`BatchHandler`).

        Must be observably equivalent to the node's scalar handler; the
        scalar handler stays installed as the fallback and the reference
        semantics.
        """
        self._batch_handlers[node] = handler

    def set_controller_sink(
        self, sink: ControllerSink | None, passive: bool = False
    ) -> None:
        """Install the packet-in sink.

        ``passive=True`` declares the sink a pure collector (it appends the
        upcall somewhere and never reprograms switches or re-enters the
        simulator); only then may batched segments run while it is
        attached.  A control channel is *not* passive — its handler chain
        installs flow entries synchronously — so attaching one degrades
        batch mode to the per-packet scalar path.
        """
        self._controller_sink = sink
        self._controller_passive = passive

    @property
    def controller_sink(self) -> ControllerSink | None:
        """The current packet-in sink (so a channel being detached can tell
        whether it still owns the sink before releasing it)."""
        return self._controller_sink

    def set_delivery_sink(
        self, sink: DeliverySink | None, passive: bool = False
    ) -> None:
        """Install the local-delivery sink (``passive`` as for the
        controller sink)."""
        self._delivery_sink = sink
        self._delivery_passive = passive

    def _sinks_passive(self) -> bool:
        return (self._controller_sink is None or self._controller_passive) and (
            self._delivery_sink is None or self._delivery_passive
        )

    # ------------------------------------------------------------------ #
    # Link state                                                         #
    # ------------------------------------------------------------------ #

    def link(self, edge_id: int) -> Link:
        return self.links[edge_id]

    def link_between(self, u: int, v: int) -> Link:
        edge = self.topology.find_edge(u, v)
        if edge is None:
            raise ValueError(f"no edge between {u} and {v}")
        return self.links[edge.edge_id]

    def fail_link(self, u: int, v: int) -> Link:
        """Visibly fail the (first) link between *u* and *v*."""
        link = self.link_between(u, v)
        link.up = False
        return link

    def fail_edges(self, edge_ids: Iterable[int]) -> None:
        for edge_id in edge_ids:
            self.links[edge_id].up = False

    def port_live(self, node: int, port: int) -> bool:
        """Is (node, port) attached to an up link?  Blackholes look live."""
        edge = self.topology.port_edge(node, port)
        if edge is None:
            return False
        return self.links[edge.edge_id].up

    def liveness_fn(self, node: int) -> Callable[[int], bool]:
        """A per-node port-liveness oracle, for switch fast-failover."""
        return lambda port: self.port_live(node, port)

    def live_port_pairs(self) -> set[frozenset[tuple[int, int]]]:
        """Up links as {(node, port), (node, port)} pairs (snapshot oracle)."""
        return {
            frozenset(
                (
                    (link.edge.a.node, link.edge.a.port),
                    (link.edge.b.node, link.edge.b.port),
                )
            )
            for link in self.links
            if link.up
        }

    def max_link_delay(self) -> float:
        """Worst-case single-crossing delay (base + jitter), for watchdog
        deadline sizing."""
        return max((link.delay + link.jitter for link in self.links), default=1.0)

    # ------------------------------------------------------------------ #
    # Packet motion                                                      #
    # ------------------------------------------------------------------ #

    def inject(
        self,
        node: int,
        packet: Packet,
        in_port: int = LOCAL_PORT,
        from_controller: bool = False,
    ) -> None:
        """Hand *packet* to *node* as if it arrived on *in_port*.

        ``from_controller=True`` records the paper's out-of-band packet-out.
        """
        if from_controller:
            self.trace.record(
                TraceEvent(self.sim.now, EventKind.PACKET_OUT, node, packet.packet_id)
            )
        self.sim.schedule_arrival(0.0, node, packet, in_port)

    def transmit(
        self,
        node: int,
        port: int,
        packet: Packet,
        from_controller: bool = False,
    ) -> None:
        """Emit *packet* from *node* on *port* without pipeline processing.

        Models an OpenFlow packet-out whose action list is ``output:port``
        (used by controller-driven baselines such as LLDP discovery).
        """
        if from_controller:
            self.trace.record(
                TraceEvent(self.sim.now, EventKind.PACKET_OUT, node, packet.packet_id)
            )
        self.sim.schedule(0.0, lambda: self._emit(node, port, packet))

    def at_packet_step(self, step: int, fn: Callable[[], None]) -> None:
        """Run *fn* once the *step*-th packet arrival has been processed.

        Steps count processed arrivals (pipeline executions), so "fail this
        link after 3 steps" means the same thing in the simulator and in the
        model checker regardless of link delays.  A hook registered for a
        step that has already passed fires immediately.
        """
        if step < 0:
            raise ValueError("negative packet step")
        if step <= self.packet_steps:
            fn()
            return
        self._step_hooks.setdefault(step, []).append(fn)

    def _arrive(self, node: int, packet: Packet, in_port: int) -> None:
        drain = self._drains.get(node)
        if drain is not None:
            emitted = drain(packet, in_port)
        else:
            handler = self._handlers.get(node)
            if handler is None:
                raise RuntimeError(f"no handler installed at node {node}")
            outputs = handler(packet, in_port)
            for out in outputs:
                self._emit(node, out.port, out.packet)
            emitted = bool(outputs)
        if not emitted:
            self.trace.record(
                TraceEvent(
                    self.sim.now, EventKind.PIPELINE_DROP, node, packet.packet_id
                )
            )
        # The step hooks fire *after* this arrival's outputs were emitted:
        # a packet already on the wire has crossed its link, matching the
        # checker's atomic-step semantics.
        self.packet_steps += 1
        for fn in self._step_hooks.pop(self.packet_steps, ()):
            fn()

    def _arrive_run(self, run: list) -> None:
        """Batched dispatch of one same-time run of arrival tuples.

        The run is segmented into maximal same-node stretches.  A segment
        goes through the node's batch handler when one is installed, the
        segment has at least two packets, and the attached sinks are
        passive; otherwise it falls back to per-packet :meth:`_arrive`.
        Either way packets complete strictly in run order, so all
        observable state (traces, counters, cursors, RNG draws, packet-id
        allocation) advances in the scalar sequence.

        On an error, the consumed prefix — including the packet whose
        processing raised — is trimmed off *run* in place, so the simulator
        can requeue the untouched tail exactly where it was.
        """
        watermark = 0  # arrivals consumed if an error surfaces now
        try:
            pos = 0
            n = len(run)
            while pos < n:
                node = run[pos][0]
                end = pos + 1
                while end < n and run[end][0] == node:
                    end += 1
                handler = self._batch_handlers.get(node)
                if handler is None or end - pos == 1 or not self._sinks_passive():
                    while pos < end:
                        event = run[pos]
                        pos += 1
                        watermark = pos
                        self._arrive(node, event[1], event[2])
                else:
                    self._segment_watermark = pos + 1
                    try:
                        pos = self._run_segment(node, handler, run, pos, end)
                    except BaseException:
                        watermark = self._segment_watermark
                        raise
                    watermark = pos
        except BaseException:
            del run[:watermark]
            raise

    def _run_segment(
        self, node: int, handler: BatchHandler, run: list, base: int, end: int
    ) -> int:
        """Feed arrivals ``run[base:end]`` through *node*'s batch handler.

        Emission is fused into the deliver callback — raw ``(port, packet)``
        tuples go straight onto the wire without materializing PacketOut
        records — and step hooks fire between packets exactly as in
        :meth:`_arrive`.  Returns *end*; the deliver closure keeps
        ``self._segment_watermark`` current for error accounting (see
        :meth:`_arrive_run`).
        """
        items = [(event[1], event[2]) for event in run[base:end]]
        record = self.trace.record
        emit = self._emit
        hooks = self._step_hooks
        now = self.sim.now
        pipeline_drop = EventKind.PIPELINE_DROP

        def deliver(index: int, outputs: list) -> None:
            if outputs:
                for port, pkt in outputs:
                    emit(node, port, pkt)
            else:
                record(
                    TraceEvent(now, pipeline_drop, node, items[index][0].packet_id)
                )
            steps = self.packet_steps + 1
            self.packet_steps = steps
            fired = hooks.pop(steps, None)
            if fired is not None:
                for fn in fired:
                    fn()
            # Error accounting: a later failure is charged to the *next*
            # packet (that is where it would surface in scalar mode).
            self._segment_watermark = min(base + index + 2, end)

        self._segment_watermark = base + 1
        handler(items, deliver)
        return end

    # Written by the deliver closure during a batched segment; read by
    # _arrive_run's error path.  Plain attribute (no per-segment cell
    # allocation on the hot path).
    _segment_watermark = 0

    def _emit(self, node: int, port: int, packet: Packet) -> None:
        """Put one packet emitted by *node* on *port* onto the wire.

        The one emitter of every drain mode and handler kind.  Reserved
        ports go to the controller / delivery sinks; a physical port's
        ``(node, port) -> far end`` route is resolved once and cached
        (topology wiring is frozen at construction, so the cache never
        invalidates).  A crossing may be dropped or duplicated by the
        link's seeded fault model; the trace records what happened.
        """
        now = self.sim.now
        record = self.trace.record
        if port < 1:
            if port == CONTROLLER_PORT:
                record(TraceEvent(now, EventKind.PACKET_IN, node, packet.packet_id))
                if self._controller_sink is not None:
                    self._controller_sink(node, packet)
            elif port == LOCAL_PORT:
                record(TraceEvent(now, EventKind.DELIVERED, node, packet.packet_id))
                if self._delivery_sink is not None:
                    self._delivery_sink(node, packet)
            else:
                record(TraceEvent(now, EventKind.DEAD_PORT, node, packet.packet_id))
            return
        key = (node, port)
        route = self._routes.get(key, False)
        if route is False:
            edge = self.topology.port_edge(node, port)
            if edge is None:
                route = None
            else:
                link = self.links[edge.edge_id]
                far = edge.other(node)
                route = (
                    link,
                    far.node,
                    far.port,
                    link.direction_from(node),
                    (node, port, far.node, far.port),
                )
            self._routes[key] = route
        if route is None:
            record(
                TraceEvent(now, EventKind.DEAD_PORT, node, packet.packet_id, key)
            )
            return
        link, far_node, far_port, direction, detail = route
        if not link.up:
            record(
                TraceEvent(now, EventKind.DEAD_PORT, node, packet.packet_id, detail)
            )
            return
        rng = self.rng
        drop = link.drop_prob[direction]
        if drop > 0.0 and (drop >= 1.0 or rng.random() < drop):
            link.dropped[direction] += 1
            record(TraceEvent(now, EventKind.DROP, node, packet.packet_id, detail))
            return
        link.delivered[direction] += 1
        packet.hops += 1
        record(TraceEvent(now, EventKind.HOP, node, packet.packet_id, detail))
        jitter = link.jitter
        delay = link.delay if jitter <= 0.0 else link.delay + rng.random() * jitter
        self.sim.schedule_arrival(delay, far_node, packet, far_port)
        # Duplication: the link spawns a second, independent copy (its own
        # packet id, so traces and duplicate-suppression can tell them
        # apart).  The copy crosses with its own delay draw.
        dup = link.dup_prob[direction]
        if dup > 0.0 and rng.random() < dup:
            twin = packet.copy()
            link.delivered[direction] += 1
            twin.hops += 1
            record(TraceEvent(now, EventKind.HOP, node, twin.packet_id, detail))
            delay = (
                link.delay if jitter <= 0.0 else link.delay + rng.random() * jitter
            )
            self.sim.schedule_arrival(delay, far_node, twin, far_port)

    # ------------------------------------------------------------------ #
    # Running                                                            #
    # ------------------------------------------------------------------ #

    def run(self, until: float | None = None, max_events: int = 2_000_000) -> int:
        """Drain the event queue (optionally up to simulated time *until*)."""
        return self.sim.run(until=until, max_events=max_events, batch=self.batch)
