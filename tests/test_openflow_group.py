"""Group table semantics: ALL, INDIRECT, fast failover, round-robin SELECT."""

from __future__ import annotations

import pytest

from repro.openflow.actions import GroupAction, Instructions, Output, SetField
from repro.openflow.errors import GroupError
from repro.openflow.group import Bucket, Group, GroupTable, GroupType
from repro.openflow.match import Match
from repro.openflow.packet import Packet
from repro.openflow.switch import Switch


def make_switch(live_ports=None):
    live = set(live_ports or [])
    return Switch(0, num_ports=9, liveness=lambda port: port in live)


def run(switch: Switch, group_id: int, packet=None):
    """Run group *group_id* on *packet* as a pipeline does, from a table-0
    entry that applies it; returns the emitted (port, packet) pairs."""
    if not switch.tables:
        switch.install(0, Match(), Instructions([GroupAction(group_id)]))
    outputs = switch.process(packet or Packet(), in_port=1)
    return [(out.port, out.packet) for out in outputs]


class TestAllGroup:
    def test_every_bucket_runs_on_a_clone(self):
        switch = make_switch()
        switch.add_group(
            Group(
                1,
                GroupType.ALL,
                [
                    Bucket([SetField("x", 1), Output(1)]),
                    Bucket([SetField("x", 2), Output(2)]),
                ],
            )
        )
        packet = Packet()
        outputs = run(switch, 1, packet)
        assert [(port, pkt.get("x")) for port, pkt in outputs] == [(1, 1), (2, 2)]
        # The original packet is untouched (buckets saw clones).
        assert packet.get("x") == 0


class TestIndirectGroup:
    def test_single_bucket(self):
        switch = make_switch()
        switch.add_group(Group(1, GroupType.INDIRECT, [Bucket([Output(3)])]))
        assert [p for p, _ in run(switch, 1)] == [3]

    def test_multiple_buckets_rejected(self):
        with pytest.raises(GroupError):
            Group(1, GroupType.INDIRECT, [Bucket([]), Bucket([])])

    def test_empty_indirect_is_noop(self):
        switch = make_switch()
        switch.add_group(Group(1, GroupType.INDIRECT, []))
        assert run(switch, 1) == []


class TestFastFailover:
    def _group(self):
        return Group(
            1,
            GroupType.FF,
            [
                Bucket([Output(1)], watch_port=1),
                Bucket([Output(2)], watch_port=2),
                Bucket([Output(9)], watch_port=None),  # unconditional
            ],
        )

    def test_first_live_bucket_wins(self):
        switch = make_switch(live_ports={1, 2})
        switch.add_group(self._group())
        assert [p for p, _ in run(switch, 1)] == [1]

    def test_failover_to_second(self):
        switch = make_switch(live_ports={2})
        switch.add_group(self._group())
        assert [p for p, _ in run(switch, 1)] == [2]

    def test_failover_to_unconditional(self):
        switch = make_switch(live_ports=set())
        switch.add_group(self._group())
        assert [p for p, _ in run(switch, 1)] == [9]

    def test_all_watched_down_no_terminal_drops(self):
        switch = make_switch(live_ports=set())
        switch.add_group(
            Group(1, GroupType.FF, [Bucket([Output(1)], watch_port=1)])
        )
        assert run(switch, 1) == []


class TestSelectRoundRobin:
    def test_cursor_advances_and_wraps(self):
        switch = make_switch()
        switch.add_group(
            Group(
                1,
                GroupType.SELECT,
                [Bucket([SetField("v", j)]) for j in range(3)],
            )
        )
        seen = []
        for _ in range(7):
            packet = Packet()
            run(switch, 1, packet)
            seen.append(packet.get("v"))
        assert seen == [0, 1, 2, 0, 1, 2, 0]

    def test_empty_select_rejected_at_execute(self):
        switch = make_switch()
        switch.add_group(Group(1, GroupType.SELECT, []))
        with pytest.raises(GroupError):
            run(switch, 1)


class TestChaining:
    def test_bucket_can_invoke_group(self):
        switch = make_switch()
        switch.add_group(Group(2, GroupType.INDIRECT, [Bucket([Output(7)])]))
        switch.add_group(Group(1, GroupType.INDIRECT, [Bucket([GroupAction(2)])]))
        assert [p for p, _ in run(switch, 1)] == [7]

    def test_loop_detected(self):
        switch = make_switch()
        switch.add_group(Group(1, GroupType.INDIRECT, [Bucket([GroupAction(1)])]))
        with pytest.raises(GroupError):
            run(switch, 1)

    def test_mutual_loop_detected(self):
        switch = make_switch()
        switch.add_group(Group(1, GroupType.INDIRECT, [Bucket([GroupAction(2)])]))
        switch.add_group(Group(2, GroupType.INDIRECT, [Bucket([GroupAction(1)])]))
        with pytest.raises(GroupError):
            run(switch, 1)


class TestTableManagement:
    def test_duplicate_id_rejected(self):
        table = GroupTable()
        table.add(Group(1, GroupType.ALL, []))
        with pytest.raises(GroupError):
            table.add(Group(1, GroupType.ALL, []))

    def test_unknown_id_rejected(self):
        with pytest.raises(GroupError):
            GroupTable().get(42)

    def test_contains_and_len(self):
        table = GroupTable()
        table.add(Group(5, GroupType.ALL, []))
        assert 5 in table
        assert 6 not in table
        assert len(table) == 1

    def test_packet_count(self):
        switch = make_switch()
        group = switch.add_group(Group(1, GroupType.INDIRECT, [Bucket([])]))
        run(switch, 1)
        run(switch, 1)
        assert group.packet_count == 2
