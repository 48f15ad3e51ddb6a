"""Seeded control-channel faults, controller outage, and crash resync."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.control.channel import ChannelFaultConfig, ControlChannel
from repro.control.supervisor import (
    READOPT_DARK,
    READOPT_UNREACHABLE,
    SupervisedRuntime,
)
from repro.core.engine import make_engine
from repro.core.fields import FIELD_SVC
from repro.core.services.snapshot import SnapshotService
from repro.net.simulator import Network
from repro.net.topology import grid, line, ring
from repro.openflow.actions import SetField
from repro.openflow.fastpath import FastPath
from repro.openflow.packet import CONTROLLER_PORT, Packet
from repro.openflow.switch import PacketOut, Switch


def echo_to_controller(net: Network, node: int) -> None:
    """Every packet entering *node* becomes a packet-in."""
    net.set_handler(node, lambda p, i: [PacketOut(CONTROLLER_PORT, p)])


class TestChannelFaultConfig:
    def test_defaults_inactive(self):
        config = ChannelFaultConfig()
        config.validate()
        assert not config.active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss_prob": 1.0},
            {"loss_prob": -0.1},
            {"dup_prob": 1.5},
            {"delay": -1.0},
            {"max_extra_delay": -1.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChannelFaultConfig(**kwargs).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss_prob": 0.5},
            {"dup_prob": 0.5},
            {"delay": 1.0},
            {"max_extra_delay": 1.0},
        ],
    )
    def test_each_knob_activates(self, kwargs):
        assert ChannelFaultConfig(**kwargs).active


class TestFaultQueue:
    def test_fault_free_path_never_queues(self):
        net = Network(line(2))
        delivered = []
        net.set_handler(0, lambda p, i: delivered.append(p) or [])
        channel = ControlChannel(net)
        channel.packet_out(0, Packet())
        net.run()
        assert delivered and channel.queue == []
        assert channel.pending_messages == 0

    def test_inactive_config_is_cleared(self):
        net = Network(line(2))
        channel = ControlChannel(net, faults=ChannelFaultConfig())
        net.set_handler(0, lambda p, i: [])
        channel.packet_out(0, Packet())
        net.run()
        assert channel.queue == []

    def test_loss_drops_and_counts(self):
        net = Network(line(2))
        delivered = []
        net.set_handler(0, lambda p, i: delivered.append(p) or [])
        channel = ControlChannel(
            net, faults=ChannelFaultConfig(loss_prob=0.5, seed=7)
        )
        for _ in range(40):
            channel.packet_out(0, Packet())
        net.run()
        assert 0 < len(delivered) < 40
        assert channel.packet_outs_dropped == 40 - len(delivered)
        assert channel.packet_outs_lost == channel.packet_outs_dropped
        assert channel.packet_outs_sent == 40

    def test_same_seed_same_fate(self):
        def casualties(seed: int) -> tuple[int, int]:
            net = Network(line(2))
            net.set_handler(0, lambda p, i: [])
            channel = ControlChannel(
                net, faults=ChannelFaultConfig(loss_prob=0.3, seed=seed)
            )
            for _ in range(30):
                channel.packet_out(0, Packet())
            net.run()
            return channel.packet_outs_dropped, channel.packet_outs_sent

        assert casualties(3) == casualties(3)

    def test_duplication_delivers_twin(self):
        net = Network(line(2))
        delivered = []
        net.set_handler(0, lambda p, i: delivered.append(p) or [])
        channel = ControlChannel(
            net, faults=ChannelFaultConfig(dup_prob=1.0, seed=1)
        )
        channel.packet_out(0, Packet())
        net.run()
        assert len(delivered) == 2
        assert channel.messages_duplicated == 1
        # Twins are distinct objects: in-flight rewrites must not be shared.
        assert delivered[0] is not delivered[1]

    def test_delay_defers_delivery_in_order(self):
        net = Network(line(2))
        delivered = []
        net.set_handler(0, lambda p, i: delivered.append(p.fields.get("seq"))
                        or [])
        channel = ControlChannel(
            net, faults=ChannelFaultConfig(delay=5.0, seed=0)
        )
        for seq in range(4):
            channel.packet_out(0, Packet(fields={"seq": seq}))
        assert channel.pending_messages == 4
        net.run()
        # Equal delays keep send order: the queue is in-order by default.
        assert delivered == [0, 1, 2, 3]
        assert channel.pending_messages == 0

    def test_extra_delay_reorders_some_seed(self):
        def order(seed: int) -> list[int]:
            net = Network(line(2))
            delivered: list[int] = []
            net.set_handler(
                0, lambda p, i: delivered.append(p.fields.get("seq")) or []
            )
            channel = ControlChannel(
                net,
                faults=ChannelFaultConfig(
                    delay=1.0, max_extra_delay=10.0, seed=seed
                ),
            )
            for seq in range(6):
                channel.packet_out(0, Packet(fields={"seq": seq}))
            net.run()
            return delivered

        reordered = [s for s in range(20) if order(s) != sorted(order(s))]
        assert reordered, "no seed in 0..19 reordered the queue"
        # ... and reordering is still seed-deterministic.
        assert order(reordered[0]) == order(reordered[0])

    def test_queue_telemetry_records_fates(self):
        net = Network(line(2))
        net.set_handler(0, lambda p, i: [])
        channel = ControlChannel(
            net, faults=ChannelFaultConfig(delay=2.0, dup_prob=1.0, seed=4)
        )
        channel.packet_out(0, Packet())
        assert [m.duplicate for m in channel.queue] == [False, True]
        net.run()
        assert all(m.delivered for m in channel.queue)


class TestControllerOutage:
    def test_outage_severs_every_switch(self):
        net = Network(ring(3))
        channel = ControlChannel(net)
        channel.fail_controller()
        assert not any(channel.connected(n) for n in range(3))
        assert not channel.packet_out(0, Packet())
        assert channel.packet_outs_lost == 1
        channel.restore_controller()
        assert all(channel.connected(n) for n in range(3))

    def test_restore_preserves_per_switch_disconnects(self):
        net = Network(ring(3))
        channel = ControlChannel(net)
        channel.disconnect(1)
        channel.fail_controller()
        channel.restore_controller()
        assert not channel.connected(1)
        assert channel.connected(0)

    def test_outage_is_idempotent(self):
        net = Network(line(2))
        channel = ControlChannel(net)
        channel.fail_controller()
        channel.fail_controller()
        channel.restore_controller()
        channel.restore_controller()
        assert channel.controller_up

    def test_in_flight_packet_in_dies_with_the_controller(self):
        net = Network(line(2))
        echo_to_controller(net, 0)
        received = []
        channel = ControlChannel(
            net, faults=ChannelFaultConfig(delay=5.0, seed=0)
        )
        channel.set_packet_in_handler(lambda node, pkt: received.append(node))
        net.inject(0, Packet())
        # The upcall is queued for t=5; the controller dies at t=0.
        channel.fail_controller()
        net.run()
        assert received == []
        assert channel.packet_ins_lost == 1

    def test_outage_window_schedules_both_edges(self):
        net = Network(line(2))
        channel = ControlChannel(net)
        channel.outage_window(start=10.0, duration=20.0)
        net.sim.at(15.0, lambda: None)
        net.sim.run(until=15.0)
        assert not channel.controller_up
        net.run()
        assert channel.controller_up

    def test_partition_window_and_flap_validate(self):
        net = Network(line(2))
        channel = ControlChannel(net)
        with pytest.raises(ValueError):
            channel.partition_window(0, 0.0, 0.0)
        with pytest.raises(ValueError):
            channel.outage_window(0.0, -1.0)
        with pytest.raises(ValueError):
            channel.flap(0, 0.0, 5.0, 5.0, cycles=0)

    def test_flap_cycles_down_and_up(self):
        net = Network(line(2))
        channel = ControlChannel(net)
        channel.flap(0, start=10.0, down=10.0, up=10.0, cycles=2)
        states = []
        for t in (5.0, 15.0, 25.0, 35.0, 45.0):
            net.sim.at(t, lambda: states.append(channel.connected(0)))
        net.run()
        assert states == [True, False, True, False, True]


class TestHandlerDetach:
    def test_none_releases_owned_sink(self):
        net = Network(line(2))
        channel = ControlChannel(net)
        channel.set_packet_in_handler(lambda node, pkt: None)
        assert net.controller_sink is not None
        channel.set_packet_in_handler(None)
        assert net.controller_sink is None

    def test_none_leaves_successor_undisturbed(self):
        net = Network(line(2))
        first = ControlChannel(net)
        first.set_packet_in_handler(lambda node, pkt: None)
        second = ControlChannel(net)
        second.set_packet_in_handler(lambda node, pkt: None)
        # The stale predecessor detaches; the successor keeps the sink.
        first.set_packet_in_handler(None)
        assert net.controller_sink is not None

    def test_baseline_and_engine_alternate_on_one_network(self):
        # The satellite regression: a controller app detaching after an
        # in-band engine claimed the sink must not silence the engine.
        net = Network(ring(4))
        channel = ControlChannel(net)
        channel.set_packet_in_handler(lambda node, pkt: None)
        engine = make_engine(net, SnapshotService(), "compiled")
        engine.install()
        sink_after_install = net.controller_sink
        assert sink_after_install is not None
        channel.set_packet_in_handler(None)
        assert net.controller_sink == sink_after_install
        # And re-claiming flips ownership back to the channel.
        channel.set_packet_in_handler(lambda node, pkt: None)
        assert net.controller_sink != sink_after_install


class TestCrashResync:
    def make_runtime(self, topo=None):
        net = Network(topo or grid(3, 3))
        channel = ControlChannel(net)
        runtime = SupervisedRuntime(net, mode="compiled", channel=channel)
        return net, channel, runtime

    def test_clean_restart_converges_first_round(self):
        net, channel, runtime = self.make_runtime()
        assert not runtime.snapshot(0).degraded
        channel.fail_controller()
        channel.restore_controller()
        report = runtime.resynchronize(0)
        assert report.converged
        assert report.rounds == 1
        assert report.reprogrammed_nodes == []
        assert report.epoch_after != report.epoch_before
        assert report.relearned_nodes == set(range(9))
        assert not report.topology_degraded

    def test_epoch_jump_clears_the_margin(self):
        _net, _channel, runtime = self.make_runtime()
        runtime.snapshot(0)
        before = runtime.clock.current
        report = runtime.resynchronize(0, margin=2)
        # Two burned epochs plus the re-learning snapshot's own epoch.
        assert report.epoch_before == before
        assert runtime.clock.current != before

    def test_garbled_switch_is_reprogrammed(self):
        net, channel, runtime = self.make_runtime()
        runtime.snapshot(0)
        engine = runtime._supervisors["snapshot"].engine
        # Garble node 4's program while the controller is "dead": drop every
        # flow entry from one table (a crash mid-programming looks like this).
        # An in-place edit is followed by touch(), as the switch requires.
        switch = engine.switches[4]
        table = next(iter(switch.tables.values()))
        table._entries = []
        table.touch()
        report = runtime.resynchronize(0)
        assert report.converged
        assert 4 in report.reprogrammed_nodes
        # The handshake healed the data plane: the next snapshot is exact.
        snap = runtime.snapshot(0)
        assert not snap.degraded
        assert snap.nodes == set(range(9))

    def test_set_field_edit_is_reprogrammed(self):
        # An in-place edit that changes only a SetField value, followed by
        # touch(), is drift the handshake must see and repair.
        _net, _channel, runtime = self.make_runtime()
        runtime.snapshot(0)
        (switch,) = runtime.switches_at(4)
        table, entry = next(
            (table, entry)
            for table in switch.tables.values()
            for entry in table.entries()
            if any(isinstance(a, SetField) for a in entry.instructions.apply_actions)
        )
        entry.instructions = replace(
            entry.instructions,
            apply_actions=tuple(
                replace(a, value=a.value + 1) if isinstance(a, SetField) else a
                for a in entry.instructions.apply_actions
            ),
        )
        table.touch()
        report = runtime.resynchronize(0)
        assert report.converged
        assert report.reprogrammed_nodes == [4], (
            "blind to an in-place SetField edit: node 4 not reprogrammed"
        )
        snap = runtime.snapshot(0)
        assert not snap.degraded
        assert snap.nodes == set(range(9))

    def test_garbled_after_a_cached_digest_is_reprogrammed(self):
        # A first handshake caches every switch's digest (and every
        # expected digest); garbling through the public API afterwards
        # must still be seen.
        net, channel, runtime = self.make_runtime()
        assert runtime.resynchronize(0).reprogrammed_nodes == []
        (switch,) = runtime.switches_at(4)
        table = next(iter(switch.tables.values()))
        assert table.remove()
        report = runtime.resynchronize(0)
        assert report.converged
        assert report.reprogrammed_nodes == [4]
        snap = runtime.snapshot(0)
        assert not snap.degraded
        assert snap.nodes == set(range(9))

    def test_resync_binds_the_replacement_drain(self, monkeypatch):
        # The switch reprogrammed in place keeps its binding: its arrivals
        # take its fast path's drain entry right away, not Switch.process
        # until the next supervised call rebinds it.
        net = Network(grid(3, 3), fast_path=True)
        runtime = SupervisedRuntime(net, mode="compiled")
        runtime.snapshot(0)
        (victim,) = runtime.switches_at(4)
        victim.crash()
        victim.reboot()
        drained, processed = [], []
        real_drain, real_process = FastPath.drain, Switch.process

        def drain(self, packet, in_port):
            drained.append(self._switch)
            return real_drain(self, packet, in_port)

        def process(self, packet, in_port):
            processed.append(self)
            return real_process(self, packet, in_port)

        monkeypatch.setattr(FastPath, "drain", drain)
        monkeypatch.setattr(Switch, "process", process)
        report = runtime.resynchronize(0)
        assert report.reprogrammed_nodes == [4]
        (replacement,) = runtime.switches_at(4)
        drained.clear()
        processed.clear()
        net.inject(4, Packet(fields={FIELD_SVC: SnapshotService().service_id}))
        net.run()
        assert drained[0] is replacement
        assert processed == []

    def test_unreachable_switch_reported_not_hung(self):
        net, channel, runtime = self.make_runtime()
        runtime.snapshot(0)
        channel.disconnect(5)
        report = runtime.resynchronize(0)
        assert report.converged
        assert set(report.unreachable_nodes) == {5}
        statuses = {a.status for a in report.attempts if a.node == 5}
        assert statuses == {READOPT_UNREACHABLE}

    def test_crashed_switch_is_reported_dark_not_replaced(self):
        # A box that crashed and never rebooted, then garbled, is dark: the
        # repair reports it rather than reprogramming a dead switch, and
        # the box stays down.
        _net, _channel, runtime = self.make_runtime()
        runtime.snapshot(0)
        (victim,) = runtime.switches_at(4)
        victim.crash()
        table = next(iter(victim.tables.values()))
        assert table.remove()
        report = runtime.resynchronize(0)
        assert report.converged
        assert report.dark_nodes == [4]
        assert report.reprogrammed_nodes == []
        assert {a.status for a in report.attempts if a.node == 4} == {READOPT_DARK}
        assert runtime.switches_at(4) == [victim]
        assert victim.down

    def test_resync_report_feeds_the_chaos_oracle(self):
        from repro.net.chaos import repair_problems

        _net, channel, runtime = self.make_runtime(ring(5))
        runtime.snapshot(0)
        channel.fail_controller()
        channel.restore_controller()
        report = runtime.resynchronize(0)
        assert repair_problems(report) == []
