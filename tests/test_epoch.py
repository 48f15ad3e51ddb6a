"""Epoch clock, origin gate, and the watchdog deadline closed form."""

from __future__ import annotations

import pytest

from repro.core.epoch import (
    EPOCH_SPACE,
    EpochClock,
    EpochGate,
    watchdog_deadline,
)
from repro.core.fields import FIELD_EPOCH
from repro.core.services.snapshot import SnapshotService
from repro.core.template import TemplateInterpreter
from repro.net.simulator import Network
from repro.net.topology import ring
from repro.openflow.packet import LOCAL_PORT, Packet


class TestEpochClock:
    def test_starts_unallocated(self):
        assert EpochClock().current == 0

    def test_advance_is_sequential(self):
        clock = EpochClock()
        assert [clock.advance() for _ in range(3)] == [1, 2, 3]

    def test_wraps_past_zero(self):
        clock = EpochClock(start=EPOCH_SPACE)
        assert clock.advance() == 1  # 0 is reserved for unsupervised

    def test_space_matches_field_width(self):
        assert EPOCH_SPACE == 63  # 6 reserved header bits

    def test_bad_start_rejected(self):
        with pytest.raises(ValueError):
            EpochClock(start=EPOCH_SPACE + 1)


class TestEpochGate:
    def test_admits_current_and_unsupervised(self):
        gate = EpochGate(origin=0, epoch=5)
        assert gate.admits(5)
        assert gate.admits(0)
        assert not gate.admits(4)
        assert not gate.admits(6)

    def test_template_squashes_stale_at_origin_only(self):
        net = Network(ring(4))
        service = SnapshotService()
        interpreter = TemplateInterpreter(net, service)
        interpreter.install()
        service.epoch_gate = EpochGate(origin=0, epoch=2)

        # Stale epoch at the origin: dropped on the floor, counted.
        stale = net.packet({FIELD_EPOCH: 1})
        assert interpreter.process(0, stale, LOCAL_PORT) == []
        assert service.epoch_gate.squashed == 1
        assert service.epoch_gate.squashed_packets == [stale.packet_id]

        # Same stale epoch at a non-origin node: processed normally.
        other = Packet(fields={FIELD_EPOCH: 1})
        assert interpreter.process(1, other, 1) != []

        # Current epoch and unsupervised traffic pass the gate.
        assert interpreter.process(0, Packet(fields={FIELD_EPOCH: 2}), LOCAL_PORT)
        assert interpreter.process(0, Packet(), LOCAL_PORT)
        assert service.epoch_gate.squashed == 1

    def test_supervised_traversal_still_completes(self):
        net = Network(ring(5))
        service = SnapshotService()
        interpreter = TemplateInterpreter(net, service)
        interpreter.install()
        service.epoch_gate = EpochGate(origin=0, epoch=3)
        reports = []
        net.set_controller_sink(lambda node, pkt: reports.append((node, pkt)))
        net.inject(0, Packet(fields={FIELD_EPOCH: 3}), in_port=LOCAL_PORT)
        net.run()
        assert len(reports) == 1
        assert reports[0][1].get(FIELD_EPOCH) == 3


class TestWatchdogDeadline:
    def test_scales_with_hops_and_delay(self):
        topo = ring(6)
        base = watchdog_deadline("snapshot", topo, 1.0, safety_factor=1.0)
        assert base > 0
        assert watchdog_deadline("snapshot", topo, 2.0, 1.0) == 2 * base
        assert watchdog_deadline("snapshot", topo, 1.0, 4.0) == 4 * base

    def test_covers_a_real_traversal(self):
        topo = ring(8)
        net = Network(topo)
        service = SnapshotService()
        interpreter = TemplateInterpreter(net, service)
        interpreter.install()
        done = []
        net.set_controller_sink(lambda node, pkt: done.append(node))
        net.inject(0, Packet(), in_port=LOCAL_PORT)
        net.run()
        deadline = watchdog_deadline("snapshot", topo, net.max_link_delay())
        assert done and net.sim.now <= deadline

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            watchdog_deadline("snapshot", ring(4), 0.0)
        with pytest.raises(ValueError):
            watchdog_deadline("snapshot", ring(4), 1.0, safety_factor=0.5)
