"""Fast-path cache invalidation: mutations take effect on the next packet.

The fast path caches compiled tables per ``FlowTable.version``, compiled
group programs per ``GroupTable.version`` and recorded entry chains per
switch program generation; port liveness is *never* cached.  Each test
mutates a live switch and asserts the very next packet behaves exactly like
a fresh interpreted switch would — no stale dispatch or replayed chain, no
lost dynamic state (round-robin cursors, counters), no recompile needed for
failover flips.
"""

from __future__ import annotations

import pytest

from repro.core.determinism import PacketIdAllocator
from repro.openflow.actions import (
    DecTtl,
    GroupAction,
    Instructions,
    Output,
    SetField,
)
from repro.openflow.errors import GroupError
from repro.openflow.fastpath import FastTable
from repro.openflow.group import Bucket, Group, GroupType
from repro.openflow.match import Match
from repro.openflow.packet import Packet
from repro.openflow.switch import Switch


def _switch(fast_path=True, liveness=None) -> Switch:
    return Switch(node_id=0, num_ports=4, liveness=liveness, fast_path=fast_path)


def _ports(outputs):
    return [out.port for out in outputs]


def _process(switch, fields=None, in_port=1):
    return switch.process(Packet(fields=dict(fields or {})), in_port)


class TestTableMutations:
    def test_add_entry_visible_immediately(self):
        switch = _switch()
        switch.install(0, Match(), Instructions(apply_actions=(Output(1),)))
        assert _ports(_process(switch)) == [1]  # compiled now
        switch.install(
            0, Match(a=5), Instructions(apply_actions=(Output(2),)), priority=9
        )
        assert _ports(_process(switch, {"a": 5})) == [2]
        assert _ports(_process(switch, {"a": 4})) == [1]

    def test_remove_entry_visible_immediately(self):
        switch = _switch()
        high = Match(a=5)
        switch.install(0, Match(), Instructions(apply_actions=(Output(1),)))
        switch.install(
            0, high, Instructions(apply_actions=(Output(2),)), priority=9
        )
        assert _ports(_process(switch, {"a": 5})) == [2]
        removed = switch.table(0).remove(match=high)
        assert len(removed) == 1
        assert _ports(_process(switch, {"a": 5})) == [1]

    def test_remove_all_causes_table_miss(self):
        switch = _switch()
        switch.install(0, Match(), Instructions(apply_actions=(Output(1),)))
        assert _ports(_process(switch)) == [1]
        switch.table(0).remove()  # OpenFlow delete-all
        misses = switch.table_misses
        assert _process(switch) == []
        assert switch.table_misses == misses + 1

    def test_modify_swaps_instructions(self):
        switch = _switch()
        match = Match(a=1)
        switch.install(0, match, Instructions(apply_actions=(Output(1),)))
        assert _ports(_process(switch, {"a": 1})) == [1]
        switch.table(0).modify(
            match, Instructions(apply_actions=(SetField("b", 7), Output(3)))
        )
        out = _process(switch, {"a": 1})
        assert _ports(out) == [3]
        assert out[0].packet.fields["b"] == 7

    def test_goto_target_added_later(self):
        """A goto to a table that does not exist yet starts raising; adding
        the table (with an entry) heals it on the next packet."""
        from repro.openflow.errors import TableError

        switch = _switch()
        switch.install(0, Match(), Instructions(goto_table=1))
        with pytest.raises(TableError):
            _process(switch)
        switch.install(1, Match(), Instructions(apply_actions=(Output(2),)))
        assert _ports(_process(switch)) == [2]

    def test_packet_counts_continue_across_recompile(self):
        switch = _switch()
        entry = switch.install(
            0, Match(), Instructions(apply_actions=(Output(1),))
        )
        _process(switch)
        _process(switch)
        assert entry.packet_count == 2
        switch.install(
            0, Match(a=9), Instructions(apply_actions=(Output(2),)), priority=5
        )  # forces a recompile of table 0
        _process(switch)
        assert entry.packet_count == 3  # same FlowEntry object, not a reset


class TestGroupMutations:
    def test_group_added_after_first_compile(self):
        """An entry pointing at a not-yet-installed group raises at
        execution (interpreter timing); installing the group heals it."""
        switch = _switch()
        switch.install(
            0, Match(), Instructions(apply_actions=(GroupAction(7),))
        )
        with pytest.raises(GroupError):
            _process(switch)
        switch.add_group(
            Group(7, GroupType.INDIRECT, [Bucket(actions=(Output(2),))])
        )
        assert _ports(_process(switch)) == [2]

    def test_select_cursor_survives_recompile(self):
        """SELECT round-robin state lives on the Group object, not in the
        compiled program — a recompile must not rewind it."""
        switch = _switch()
        group = switch.add_group(
            Group(
                5,
                GroupType.SELECT,
                [Bucket(actions=(Output(p),)) for p in (1, 2, 3)],
            )
        )
        switch.install(
            0, Match(), Instructions(apply_actions=(GroupAction(5),))
        )
        assert _ports(_process(switch)) == [1]
        assert group.rr_next == 1
        # Mutate the flow table: recompiles the entry closures and (via the
        # embedded programs) the group dispatch.
        switch.install(
            0, Match(a=1), Instructions(apply_actions=(Output(4),)), priority=9
        )
        assert _ports(_process(switch)) == [2]  # continues, no rewind
        assert _ports(_process(switch)) == [3]
        assert _ports(_process(switch)) == [1]

    def test_ff_liveness_flip_needs_no_invalidation(self):
        """Failover takes the same per-packet liveness path as the
        interpreter: flipping a port re-routes the very next packet with no
        table or group mutation at all."""
        live = {1: True, 2: True}
        switch = _switch(liveness=lambda port: live.get(port, True))
        switch.add_group(
            Group(
                3,
                GroupType.FF,
                [
                    Bucket(actions=(Output(1),), watch_port=1),
                    Bucket(actions=(Output(2),), watch_port=2),
                ],
            )
        )
        switch.install(
            0, Match(), Instructions(apply_actions=(GroupAction(3),))
        )
        versions = (switch.table(0).version, switch.groups.version)
        assert _ports(_process(switch)) == [1]
        live[1] = False
        assert _ports(_process(switch)) == [2]
        live[1] = True
        assert _ports(_process(switch)) == [1]
        live[1] = live[2] = False
        assert _process(switch) == []  # no live bucket: silent drop
        # No mutation happened: the compiled caches were never invalidated.
        assert (switch.table(0).version, switch.groups.version) == versions

    def test_flattened_indirect_group_still_counts(self):
        """Single-bucket INDIRECT groups are inlined into the entry closure;
        the flattening must keep bumping group and bucket counters."""
        switch = _switch()
        group = switch.add_group(
            Group(9, GroupType.INDIRECT, [Bucket(actions=(Output(2),))])
        )
        switch.install(
            0, Match(), Instructions(apply_actions=(GroupAction(9),))
        )
        _process(switch)
        _process(switch)
        assert group.packet_count == 2
        assert group.buckets[0].packet_count == 2


class TestExplicitInvalidation:
    def test_in_place_edit_plus_invalidate(self):
        """Editing an entry object in place bypasses the version counters
        (documented); ``invalidate_fast_path`` is the escape hatch."""
        switch = _switch()
        entry = switch.install(
            0, Match(), Instructions(apply_actions=(Output(1),))
        )
        assert _ports(_process(switch)) == [1]
        entry.instructions = Instructions(apply_actions=(Output(3),))
        assert _ports(_process(switch)) == [1]  # stale, by design
        switch.invalidate_fast_path()
        assert _ports(_process(switch)) == [3]

    def test_touch_is_equivalent_to_invalidate(self):
        switch = _switch()
        entry = switch.install(
            0, Match(), Instructions(apply_actions=(Output(1),))
        )
        assert _ports(_process(switch)) == [1]
        entry.instructions = Instructions(apply_actions=(Output(2),))
        switch.table(0).touch()
        assert _ports(_process(switch)) == [2]

    def test_enable_disable_round_trip(self):
        switch = _switch(fast_path=False)
        switch.install(0, Match(), Instructions(apply_actions=(Output(1),)))
        assert not switch.fast_path_enabled
        assert _ports(_process(switch)) == [1]
        switch.enable_fast_path()
        assert switch.fast_path_enabled
        assert _ports(_process(switch)) == [1]
        switch.disable_fast_path()
        assert not switch.fast_path_enabled
        assert _ports(_process(switch)) == [1]


def _records(switch, table_id=0):
    """cookie -> compiled record of every indexed entry of *table_id*."""
    _version, fast = switch._fast_path._tables[table_id]
    return {compiled.entry.cookie: compiled for compiled in fast.entries()}


def _two_rule_switch(fast_path=True) -> Switch:
    switch = _switch(fast_path=fast_path)
    switch.install(
        0, Match(a=1), Instructions(apply_actions=(SetField("b", 7), Output(1))),
        priority=5, cookie="one",
    )
    switch.install(
        0, Match(a=2), Instructions(apply_actions=(GroupAction(7),)),
        priority=5, cookie="two",
    )
    switch.install(0, Match(), Instructions(apply_actions=(Output(4),)), cookie="rest")
    switch.add_group(Group(7, GroupType.INDIRECT, [Bucket(actions=(Output(2),))]))
    return switch


class TestFirstHitClosures:
    """Building a table's index compiles no instruction closures: an
    entry's op tuple is compiled the first time the entry is matched."""

    def test_unhit_entries_hold_no_compiled_ops(self):
        switch = _two_rule_switch()
        assert _ports(_process(switch, {"a": 1})) == [1]
        records = _records(switch)
        assert records["one"].resolved and len(records["one"].ops) == 2
        for cookie in ("two", "rest"):
            # Still its own placeholder op, nothing compiled behind it.
            assert not records[cookie].resolved
            assert records[cookie].ops == (records[cookie],)
            assert records[cookie].lookup_safe is None

    def test_first_hit_compiles_exactly_one_entry(self, monkeypatch):
        switch = _two_rule_switch()
        resolved = []
        original = switch._fast_path._resolve_entry

        def counting(compiled):
            resolved.append(compiled.entry.cookie)
            return original(compiled)

        monkeypatch.setattr(switch._fast_path, "_resolve_entry", counting)
        for fields in ({"a": 1}, {"a": 1}, {"a": 2}, {"a": 1}, {"a": 2}):
            _process(switch, fields)
        assert resolved == ["one", "two"]

    def test_first_hit_bumps_the_reference_counters(self):
        fast, reference = _two_rule_switch(True), _two_rule_switch(False)
        for switch in (fast, reference):
            for fields in ({"a": 2}, {"a": 1}, {"a": 3}, {"a": 2}):
                _process(switch, fields)

        def counters(switch):
            group = switch.groups.get(7)
            return (
                switch.packets_processed,
                switch.table_misses,
                [(e.cookie, e.packet_count) for e in switch.table(0).entries()],
                group.packet_count,
                group.buckets[0].packet_count,
            )

        assert counters(fast) == counters(reference)

    def test_group_mutation_before_first_hit_is_honoured(self):
        """The index is built (by a packet for another entry) while group 7
        does not exist; the entry pointing at it is first hit after the
        group arrived, and must run it — flattened, counters included."""
        switch = _switch()
        switch.install(0, Match(a=1), Instructions(apply_actions=(Output(1),)))
        switch.install(
            0, Match(a=2), Instructions(apply_actions=(GroupAction(7),))
        )
        assert _ports(_process(switch, {"a": 1})) == [1]  # index built
        group = switch.add_group(
            Group(7, GroupType.INDIRECT, [Bucket(actions=(Output(3),))])
        )
        assert _ports(_process(switch, {"a": 2})) == [3]
        group.buckets[0].actions = (Output(2),)  # in place ...
        switch.groups.touch()  # ... and declared
        assert _ports(_process(switch, {"a": 2})) == [2]
        assert group.packet_count == 2

    def test_table_mutation_before_first_hit_is_honoured(self):
        switch = _two_rule_switch()
        assert _ports(_process(switch, {"a": 1})) == [1]  # index built
        switch.table(0).modify(
            Match(a=2), Instructions(apply_actions=(Output(3),))
        )
        assert _ports(_process(switch, {"a": 2})) == [3]
        assert switch.groups.get(7).packet_count == 0

    def test_warm_leaves_nothing_lazy(self, monkeypatch):
        switch = _two_rule_switch()
        switch.install(1, Match(), Instructions(apply_actions=(Output(1),)))

        def no_compile(compiled):
            raise AssertionError("warm() left an entry to compile in the loop")

        # The records built by warm() carry this as their first-hit hook.
        monkeypatch.setattr(switch._fast_path, "_resolve_entry", no_compile)
        switch.warm_fast_path()
        for table_id in (0, 1):
            assert all(c.resolved for c in _records(switch, table_id).values())
            assert all(
                c not in c.ops for c in _records(switch, table_id).values()
            )
        assert _ports(_process(switch, {"a": 1})) == [1]
        assert _ports(_process(switch, {"a": 2})) == [2]
        assert _ports(_process(switch, {"a": 3})) == [4]

    def test_mid_batch_first_hit_records_and_replays_real_ops(self):
        """A batch of key-equal packets on a cold switch: the first packet
        resolves the entries it hits *while its chain is being recorded*;
        every later packet replays that chain.  The recorded steps must
        carry the real ops (not the spent placeholder), and the final-hop
        copy elision must draw packet ids exactly as the scalar path."""

        def build():
            switch = _switch()
            switch.install(
                0, Match(a=1), Instructions(
                    apply_actions=(SetField("b", 7),), goto_table=1
                ), cookie="first",
            )
            switch.install(
                1, Match(b=7), Instructions(
                    apply_actions=(SetField("c", 1), Output(2))
                ), cookie="second",
            )
            return switch

        def arrivals():
            ids = PacketIdAllocator()
            return [
                (Packet(fields={"a": 1}, packet_id=ids.allocate(), ids=ids), 1)
                for _ in range(5)
            ]

        scalar = build()
        expected = [
            [(o.port, sorted(o.packet.fields.items()), o.packet.packet_id)
             for o in scalar.process(packet, port)]
            for packet, port in arrivals()
        ]

        batched = build()
        observed = [None] * 5

        def deliver(index, outputs):
            observed[index] = [
                (port, sorted(pkt.fields.items()), pkt.packet_id)
                for port, pkt in outputs
            ]

        batched.process_batch(arrivals(), deliver)
        assert observed == expected
        for table_id, cookie in ((0, "first"), (1, "second")):
            record = _records(batched, table_id)[cookie]
            assert record.resolved and record not in record.ops
            assert record.entry.packet_count == 5


# --------------------------------------------------------------------- #
# The persistent chain cache                                            #
# --------------------------------------------------------------------- #


def _count_lookups(monkeypatch) -> list[int]:
    """Patch FastTable.lookup to count table lookups (one cell)."""
    calls = [0]
    original = FastTable.lookup

    def counting(self, fields, in_port, metadata):
        calls[0] += 1
        return original(self, fields, in_port, metadata)

    monkeypatch.setattr(FastTable, "lookup", counting)
    return calls


def _drain(switch):
    """Attach *switch*'s drain entry to a recording emitter; returns
    (drain, emitted), emitted holding (port, packet id) per emission."""
    emitted = []

    def emit(node, port, packet):
        emitted.append((port, packet.packet_id))

    return switch.fast_path.attach(switch.node_id, emit), emitted


def _recorded(switch) -> list:
    """The recorded chains of *switch* (not the seen-once or pinned marks)."""
    return [
        chain for chain in switch.fast_path._chains.values()
        if isinstance(chain, tuple)
    ]


def _ff_switch(live):
    switch = _switch(liveness=lambda port: live.get(port, True))
    switch.add_group(
        Group(
            3,
            GroupType.FF,
            [
                Bucket(actions=(Output(1),), watch_port=1),
                Bucket(actions=(Output(2),), watch_port=2),
            ],
        )
    )
    switch.install(
        0, Match(a=1), Instructions(apply_actions=(SetField("b", 1),), goto_table=1)
    )
    switch.install(1, Match(b=1), Instructions(apply_actions=(GroupAction(3),)))
    return switch


class TestChainCache:
    def test_replay_does_no_table_lookups(self, monkeypatch):
        """One lookup per table, and then none: the first two packets of a
        key walk both tables (the second records the chain), every later
        key-equal packet replays."""
        switch = _ff_switch({})
        lookups = _count_lookups(monkeypatch)
        for _ in range(5):
            assert _ports(_process(switch, {"a": 1})) == [1]
        assert lookups[0] == 4
        assert len(_recorded(switch)) == 1
        assert switch.packets_processed == 5
        assert [e.packet_count for _t, e in switch.iter_entries()] == [5, 5]

    def test_ff_flip_between_replays_takes_the_new_bucket(self, monkeypatch):
        live = {1: True, 2: True}
        switch = _ff_switch(live)
        drain, emitted = _drain(switch)
        for _ in range(2):  # walked, then walked and recorded
            assert drain(Packet(fields={"a": 1}), 3)
        lookups = _count_lookups(monkeypatch)
        live[1] = False
        assert drain(Packet(fields={"a": 1}), 3)
        live[2] = False
        assert not drain(Packet(fields={"a": 1}), 3)  # no live bucket
        live[1] = True
        assert drain(Packet(fields={"a": 1}), 3)
        assert [port for port, _id in emitted] == [1, 1, 2, 1]
        assert lookups[0] == 0  # every flip was seen by a replay
        group = switch.groups.get(3)
        assert group.packet_count == 5
        assert [b.packet_count for b in group.buckets] == [3, 1]

    def test_select_cursor_advances_once_per_replay(self, monkeypatch):
        switch = _switch()
        group = switch.add_group(
            Group(
                5,
                GroupType.SELECT,
                [Bucket(actions=(Output(p),)) for p in (1, 2, 3)],
            )
        )
        switch.install(0, Match(a=1), Instructions(apply_actions=(GroupAction(5),)))
        drain, emitted = _drain(switch)
        lookups = _count_lookups(monkeypatch)
        for _ in range(5):
            assert drain(Packet(fields={"a": 1}), 1)
        assert [port for port, _id in emitted] == [1, 2, 3, 1, 2]
        assert lookups[0] == 2  # two walks, then replays
        assert group.rr_next == 2
        assert group.packet_count == 5
        assert [b.packet_count for b in group.buckets] == [2, 2, 1]

    @pytest.mark.parametrize("unsafe", ["dec_ttl", "group"])
    def test_unsafe_non_final_step_pins_its_key(self, unsafe, monkeypatch):
        """A DecTtl or group step before another lookup can send key-equal
        packets to different entries, so its key is never replayed."""

        def build(fast_path):
            switch = _switch(fast_path=fast_path)
            if unsafe == "dec_ttl":
                first = (DecTtl("ttl"),)
            else:
                switch.add_group(
                    Group(
                        5,
                        GroupType.SELECT,
                        [Bucket(actions=(SetField("ttl", v),)) for v in (1, 2)],
                    )
                )
                first = (GroupAction(5),)
            switch.install(
                0, Match(a=1), Instructions(apply_actions=first, goto_table=1)
            )
            switch.install(1, Match(ttl=1), Instructions(apply_actions=(Output(1),)))
            switch.install(1, Match(ttl=2), Instructions(apply_actions=(Output(2),)))
            return switch

        fast, reference = build(True), build(False)
        lookups = _count_lookups(monkeypatch)
        for _ in range(4):
            assert _ports(_process(fast, {"a": 1, "ttl": 2})) == _ports(
                _process(reference, {"a": 1, "ttl": 2})
            )
        assert _recorded(fast) == []
        assert lookups[0] == 8  # two per packet: the key never replays

    def test_table_miss_chains_replay_the_miss(self, monkeypatch):
        switch = _switch()
        first = switch.install(
            0, Match(a=1), Instructions(apply_actions=(SetField("c", 1),), goto_table=1)
        )
        switch.install(1, Match(b=5), Instructions(apply_actions=(Output(1),)))
        drain, emitted = _drain(switch)
        lookups = _count_lookups(monkeypatch)
        for _ in range(4):
            assert not drain(Packet(fields={"a": 1}), 1)
        assert emitted == []
        assert lookups[0] == 4  # two walks, then replays
        (chain,) = _recorded(switch)
        assert chain[2] is True  # recorded as a miss
        assert switch.table_misses == 4
        assert first.packet_count == 4

    def test_drain_elides_the_final_copy_with_scalar_packet_ids(self):
        """The drain emits the arrival itself on an elidable replay (the
        third packet on), with the id the scalar path's clone would have
        drawn."""

        def run(step):
            ids = PacketIdAllocator()
            switch = _ff_switch({})
            seen = []
            drain, emitted = _drain(switch)
            for _ in range(4):
                packet = Packet(fields={"a": 1}, packet_id=ids.allocate(), ids=ids)
                if step == "drain":
                    drain(packet, 3)
                    seen.append(emitted[-1][1])
                else:
                    (out,) = switch.process(packet, 3)
                    seen.append(out.packet.packet_id)
            return seen

        assert run("drain") == run("process") == [2, 4, 6, 8]

    def test_in_place_edit_then_invalidate_between_drains(self):
        switch = _switch()
        entry = switch.install(0, Match(), Instructions(apply_actions=(Output(1),)))
        drain, emitted = _drain(switch)
        drain(Packet(), 1)
        drain(Packet(), 1)
        entry.instructions = Instructions(apply_actions=(Output(3),))
        switch.invalidate_fast_path()
        drain(Packet(), 1)
        drain(Packet(), 1)
        assert [port for port, _id in emitted] == [1, 1, 3, 3]

    def test_reboot_and_readopt_between_drains(self):
        expected = _switch(fast_path=False)
        expected.install(0, Match(), Instructions(apply_actions=(Output(2),)))
        switch = _switch()
        switch.install(0, Match(), Instructions(apply_actions=(Output(1),)))
        drain, emitted = _drain(switch)
        assert drain(Packet(), 1)
        switch.crash()
        assert not drain(Packet(), 1)  # down: dropped, not processed
        switch.reboot()
        assert not drain(Packet(), 1)  # bare: a table miss
        switch.adopt_program(expected)
        assert drain(Packet(), 1)
        assert drain(Packet(), 1)
        assert [port for port, _id in emitted] == [1, 2, 2]
        assert switch.packets_processed == 4
        assert switch.table_misses == 1

    def test_reactive_install_between_drains(self):
        switch = _switch()
        switch.install(0, Match(), Instructions(apply_actions=(Output(1),)))
        drain, emitted = _drain(switch)
        drain(Packet(fields={"a": 7}), 1)
        drain(Packet(fields={"a": 7}), 1)
        switch.install(
            0, Match(a=7), Instructions(apply_actions=(Output(4),)), priority=10
        )
        drain(Packet(fields={"a": 7}), 1)
        drain(Packet(fields={"a": 8}), 1)
        assert [port for port, _id in emitted] == [1, 1, 4, 1]


def test_mid_batch_reboot_then_install_is_visible():
    """After a mid-batch reboot + adopt_program, a later mid-batch install
    lands in the *new* tables; the program generation sees it, so no chain
    recorded before it is replayed.  Same answer through process and
    process_batch."""

    def expected_program():
        switch = _switch(fast_path=False)
        switch.install(0, Match(), Instructions(apply_actions=(Output(2),)))
        return switch

    def build():
        switch = _switch()
        switch.install(0, Match(), Instructions(apply_actions=(Output(1),)))
        return switch

    def mutate(switch, index):
        if index == 0:
            switch.crash()
            switch.reboot()
            switch.adopt_program(expected_program())
        elif index == 2:
            switch.install(
                0, Match(), Instructions(apply_actions=(Output(4),)), priority=10
            )

    scalar = build()
    scalar_ports = []
    for index in range(5):
        scalar_ports += _ports(_process(scalar))
        mutate(scalar, index)

    batched = build()
    batched_ports = []

    def deliver(index, outputs):
        batched_ports.extend(port for port, _packet in outputs)
        mutate(batched, index)

    batched.process_batch([(Packet(), 1) for _ in range(5)], deliver)
    assert scalar_ports == batched_ports == [1, 2, 2, 4, 4]
