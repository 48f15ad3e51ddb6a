"""Discrete-event simulator, link state, traces."""

from __future__ import annotations

import pytest

from repro.core.runtime import SmartSouthRuntime
from repro.net.link import Direction, Link
from repro.net.simulator import Network, SimulationLimitError, Simulator
from repro.net.topology import Topology, line, ring
from repro.net.trace import EventKind, Trace, TraceEvent
from repro.openflow.packet import (
    CONTROLLER_PORT,
    LOCAL_PORT,
    Packet,
)
from repro.openflow.switch import PacketOut


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_among_equal_times(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(1.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2]

    def test_run_until(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(5.0, lambda: order.append(2))
        sim.run(until=2.0)
        assert order == [1]
        assert sim.pending == 1

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1, lambda: None)

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(1.0, lambda: None)

    def test_event_budget(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        with pytest.raises(SimulationLimitError):
            sim.run(max_events=100)


def echo_handler(packet: Packet, in_port: int) -> list[PacketOut]:
    """Bounce everything back where it came from."""
    return [PacketOut(in_port, packet)]


def sink_handler(packet: Packet, in_port: int) -> list[PacketOut]:
    return []


class TestNetworkMotion:
    def _two_nodes(self) -> Network:
        topo = line(2)
        net = Network(topo)
        return net

    def test_hop_recorded(self):
        net = self._two_nodes()
        net.set_handler(0, lambda p, i: [PacketOut(1, p)])
        net.set_handler(1, sink_handler)
        net.inject(0, Packet())
        net.run()
        assert net.trace.hop_sequence() == [(0, 1, 1, 1)]
        assert net.trace.count(EventKind.PIPELINE_DROP) == 1

    def test_failed_link_is_dead_port(self):
        net = self._two_nodes()
        net.set_handler(0, lambda p, i: [PacketOut(1, p)])
        net.set_handler(1, sink_handler)
        net.fail_link(0, 1)
        net.inject(0, Packet())
        net.run()
        assert net.trace.count(EventKind.DEAD_PORT) == 1
        assert net.trace.in_band_messages == 0

    def test_blackhole_counts_as_in_band_drop(self):
        net = self._two_nodes()
        net.set_handler(0, lambda p, i: [PacketOut(1, p)])
        net.set_handler(1, sink_handler)
        net.link_between(0, 1).set_blackhole()
        net.inject(0, Packet())
        net.run()
        assert net.trace.count(EventKind.DROP) == 1
        assert net.trace.in_band_messages == 1  # the send was attempted

    def test_directional_blackhole(self):
        net = self._two_nodes()
        link = net.link_between(0, 1)
        link.set_blackhole(Direction.B_TO_A)
        net.set_handler(0, lambda p, i: [PacketOut(1, p)])
        net.set_handler(1, echo_handler)
        net.inject(0, Packet())
        net.run()
        # Forward crossing succeeds, echo back is swallowed.
        assert net.trace.count(EventKind.HOP) == 1
        assert net.trace.count(EventKind.DROP) == 1

    def test_probabilistic_loss_is_seeded(self):
        def run_once(seed: int) -> int:
            net = Network(line(2), seed=seed)
            net.link_between(0, 1).set_loss(0.5)
            net.set_handler(0, lambda p, i: [PacketOut(1, p)])
            net.set_handler(1, sink_handler)
            for _ in range(50):
                net.inject(0, Packet())
            net.run()
            return net.trace.count(EventKind.DROP)

        assert run_once(7) == run_once(7)
        assert 5 < run_once(7) < 45  # not degenerate

    def test_controller_sink(self):
        net = self._two_nodes()
        seen = []
        net.set_controller_sink(lambda node, pkt: seen.append(node))
        net.set_handler(0, lambda p, i: [PacketOut(CONTROLLER_PORT, p)])
        net.inject(0, Packet())
        net.run()
        assert seen == [0]
        assert net.trace.count(EventKind.PACKET_IN) == 1

    def test_delivery_sink(self):
        net = self._two_nodes()
        seen = []
        net.set_delivery_sink(lambda node, pkt: seen.append(node))
        net.set_handler(0, lambda p, i: [PacketOut(LOCAL_PORT, p)])
        net.inject(0, Packet())
        net.run()
        assert seen == [0]
        assert net.trace.deliveries == 1

    def test_packet_out_accounting(self):
        net = self._two_nodes()
        net.set_handler(0, sink_handler)
        net.inject(0, Packet(), from_controller=True)
        net.run()
        assert net.trace.count(EventKind.PACKET_OUT) == 1
        assert net.trace.out_band_messages == 1

    def test_transmit_bypasses_pipeline(self):
        net = self._two_nodes()
        arrived = []
        net.set_handler(0, lambda p, i: (_ for _ in ()).throw(AssertionError))
        net.set_handler(1, lambda p, i: arrived.append(i) or [])
        net.transmit(0, 1, Packet())
        net.run()
        assert arrived == [1]

    def test_missing_handler_raises(self):
        net = self._two_nodes()
        net.inject(0, Packet())
        with pytest.raises(RuntimeError):
            net.run()

    def test_link_delay_ordering(self):
        topo = Topology(3)
        topo.add_link(0, 1)
        topo.add_link(0, 2)
        net = Network(topo)
        net.links[0].delay = 5.0
        net.links[1].delay = 1.0
        order = []
        net.set_handler(0, lambda p, i: [PacketOut(1, p), PacketOut(2, p.copy())])
        net.set_handler(1, lambda p, i: order.append(1) or [])
        net.set_handler(2, lambda p, i: order.append(2) or [])
        net.inject(0, Packet())
        net.run()
        assert order == [2, 1]

    def test_output_to_unused_port_is_dead(self):
        net = self._two_nodes()
        net.set_handler(0, lambda p, i: [PacketOut(5, p)])
        net.inject(0, Packet())
        net.run()
        assert net.trace.count(EventKind.DEAD_PORT) == 1

    def test_live_port_pairs_tracks_failures(self):
        topo = ring(4)
        net = Network(topo)
        full = net.live_port_pairs()
        assert len(full) == 4
        net.fail_link(0, 1)
        assert len(net.live_port_pairs()) == 3


class TestPacketIds:
    """Each network hands out its own packet ids, so a run's trace does not
    depend on what else ran in the process."""

    @staticmethod
    def _runtime():
        net = Network(ring(4), fast_path=True)
        return net, SmartSouthRuntime(net, mode="compiled")

    def test_interleaved_networks_each_trace_as_alone(self):
        alone_net, alone = self._runtime()
        for root in (0, 1):
            alone.snapshot(root)
        nets, runtimes = zip(*(self._runtime() for _ in range(2)))
        for root in (0, 1):
            for runtime in runtimes:
                runtime.snapshot(root)
        expected = alone_net.trace.to_jsonl()
        assert [net.trace.to_jsonl() for net in nets] == [expected, expected]

    def test_ids_start_at_one_and_copies_draw_from_the_network(self):
        net = Network(ring(3))
        first, second = net.packet(), net.packet({"x": 1})
        assert (first.packet_id, second.packet_id, first.copy().packet_id) == (
            1, 2, 3
        )
        assert net.ids.allocate() == 4


class TestEventBudget:
    """``max_events`` counts every arrival and timer identically in both
    drain modes — a batched run of *n* arrivals consumes *n* of the budget,
    and the limit error fires at exactly the same packet."""

    def _spin(self, batch: bool, max_events: int) -> Network:
        """Ring of forwarders with several concurrent packets: every node
        bounces each arrival out port 1 forever, so the run only ends when
        the event budget does."""
        net = Network(ring(3), batch=batch)

        def forward_batch(items, deliver):
            for index, (packet, in_port) in enumerate(items):
                deliver(index, [(1, packet)])

        for node in net.topology.nodes():
            net.set_handler(node, lambda p, i: [PacketOut(1, p)])
            if batch:
                net.set_batch_handler(node, forward_batch)
        for _ in range(6):
            net.inject(0, net.packet())
        with pytest.raises(SimulationLimitError):
            net.run(max_events=max_events)
        return net

    def test_limit_fires_identically_across_modes(self):
        scalar = self._spin(batch=False, max_events=40)
        batched = self._spin(batch=True, max_events=40)
        # Byte-identical traces: same packets processed, same hop order,
        # same point of interruption.
        assert scalar.trace.to_jsonl() == batched.trace.to_jsonl()
        assert scalar.trace.count(EventKind.HOP) == batched.trace.count(
            EventKind.HOP
        )

    def test_budget_counts_arrivals_not_batches(self):
        # 6 same-time arrivals form one batch; if the batch consumed one
        # budget unit instead of six, this run would survive max_events=6.
        net = Network(ring(3), batch=True)

        def forward_batch(items, deliver):
            for index, (packet, in_port) in enumerate(items):
                deliver(index, [(1, packet)])

        for node in net.topology.nodes():
            net.set_handler(node, lambda p, i: [PacketOut(1, p)])
            net.set_batch_handler(node, forward_batch)
        for _ in range(6):
            net.inject(0, net.packet())
        with pytest.raises(SimulationLimitError):
            net.run(max_events=6)

    def test_budget_counts_timers_in_batch_mode(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        with pytest.raises(SimulationLimitError):
            sim.run(max_events=100, batch=True)


class TestLink:
    def _link(self) -> Link:
        topo = line(2)
        return Link(next(topo.edges()))

    def test_direction_from(self):
        link = self._link()
        assert link.direction_from(0) is Direction.A_TO_B
        assert link.direction_from(1) is Direction.B_TO_A
        with pytest.raises(ValueError):
            link.direction_from(9)

    def test_blackhole_and_clear(self):
        link = self._link()
        link.set_blackhole()
        assert link.is_blackhole()
        link.clear()
        assert not link.is_blackhole()
        assert link.up

    def test_bad_loss_probability(self):
        with pytest.raises(ValueError):
            self._link().set_loss(1.5)

    def test_down_link_is_not_blackhole(self):
        link = self._link()
        link.set_blackhole()
        link.up = False
        assert not link.is_blackhole()

    def test_flipped(self):
        assert Direction.A_TO_B.flipped() is Direction.B_TO_A
        assert Direction.B_TO_A.flipped() is Direction.A_TO_B


class TestTrace:
    def test_summary_keys(self):
        trace = Trace()
        trace.record(TraceEvent(0.0, EventKind.HOP, 0, 1, (0, 1, 1, 1)))
        trace.record(TraceEvent(0.0, EventKind.PACKET_IN, 1, 1))
        summary = trace.summary()
        assert summary["hop"] == 1
        assert summary["in_band"] == 1
        assert summary["out_band"] == 1

    def test_hops_of_filters_by_packet(self):
        trace = Trace()
        trace.record(TraceEvent(0.0, EventKind.HOP, 0, 1))
        trace.record(TraceEvent(0.0, EventKind.HOP, 0, 2))
        trace.record(TraceEvent(0.0, EventKind.DROP, 0, 2))
        assert trace.hops_of({2}) == 2

    def test_clear_and_len(self):
        trace = Trace()
        trace.record(TraceEvent(0.0, EventKind.HOP, 0, 1))
        assert len(trace) == 1
        trace.clear()
        assert len(trace) == 0
        assert trace.last_time() == 0.0

    def test_to_jsonl_roundtrips(self):
        import json

        trace = Trace()
        trace.record(TraceEvent(1.5, EventKind.HOP, 0, 7, (0, 1, 2, 3)))
        trace.record(TraceEvent(2.0, EventKind.PACKET_IN, 2, 7))
        lines = trace.to_jsonl().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {
            "t": 1.5, "kind": "hop", "node": 0, "packet": 7,
            "detail": [0, 1, 2, 3],
        }

    def test_format_hops(self):
        trace = Trace()
        for i in range(4):
            trace.record(TraceEvent(float(i), EventKind.HOP, i, 1,
                                    (i, 1, i + 1, 1)))
        text = trace.format_hops(limit=2)
        assert "0:p1 -> 1:p1" in text
        assert text.endswith("...")

    def test_format_hops_unlimited(self):
        trace = Trace()
        trace.record(TraceEvent(0.0, EventKind.HOP, 0, 1, (0, 1, 1, 2)))
        assert trace.format_hops() == "t=0      0:p1 -> 1:p2"

    def test_accounting_counters_agree_with_a_recount(self):
        trace = Trace()
        kinds = list(EventKind) * 3
        for index, kind in enumerate(kinds):
            trace.record(TraceEvent(float(index), kind, 0, index))

        def recount(*wanted):
            return sum(1 for event in trace.events() if event.kind in wanted)

        assert trace.in_band_messages == recount(EventKind.HOP, EventKind.DROP) == 6
        assert trace.out_band_messages == recount(
            EventKind.PACKET_IN, EventKind.PACKET_OUT
        ) == 6
        assert trace.deliveries == recount(EventKind.DELIVERED) == 3
        trace.clear()
        assert (trace.in_band_messages, trace.out_band_messages) == (0, 0)
        assert trace.deliveries == 0


class _CountingRows(list):
    """A trace log that counts the rows every full scan examines."""

    examined = 0

    def __iter__(self):
        self.examined += len(self)
        return super().__iter__()


def test_trace_accessors_do_not_rescan_a_growing_log():
    """Message accounting is counter-backed: over 300 uncleared snapshot
    calls the log grows without bound, yet the rows a call examines — its
    trigger's accounting reads plus an explicit read of every accessor —
    stay what they were on the first call."""
    from repro.core.runtime import SmartSouthRuntime

    network = Network(ring(4), fast_path=True)
    runtime = SmartSouthRuntime(network, mode="compiled")
    rows = _CountingRows()
    network.trace._events = rows
    examined = []
    for _ in range(300):
        before = rows.examined
        result = runtime.snapshot(0)
        trace = network.trace
        assert trace.in_band_messages >= result.result.in_band_messages > 0
        assert trace.out_band_messages > 0
        assert trace.deliveries == 0
        examined.append(rows.examined - before)
    assert len(rows) > 300 * 8
    assert examined == [examined[0]] * 300
