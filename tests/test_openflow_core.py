"""Packets, actions, flow tables: the single-switch building blocks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.determinism import PacketIdAllocator, seeded_rng
from repro.openflow.actions import (
    DecTtl,
    Instructions,
    Output,
    PopLabel,
    PushLabel,
    SetField,
)
from repro.openflow.errors import ActionError, InstallError, TableFullError
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.group import Bucket, Group, GroupType
from repro.openflow.match import Match
from repro.openflow.packet import Packet
from repro.openflow.switch import Switch, SwitchFaultConfig


class TestPacket:
    def test_absent_field_reads_zero(self):
        assert Packet().get("anything") == 0

    def test_set_get_roundtrip(self):
        packet = Packet()
        packet.set("x", 7)
        assert packet.get("x") == 7

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            Packet().set("x", -1)

    def test_stack_push_pop(self):
        packet = Packet()
        packet.push(("a", 1))
        packet.push(("b", 2))
        assert packet.pop() == ("b", 2)
        assert packet.pop() == ("a", 1)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            Packet().pop()

    def test_copy_is_independent(self):
        packet = Packet(fields={"x": 1})
        packet.push(("r",))
        clone = packet.copy()
        clone.set("x", 2)
        clone.pop()
        assert packet.get("x") == 1
        assert packet.stack == [("r",)]

    def test_copy_gets_fresh_id(self):
        ids = PacketIdAllocator()
        packet = Packet(packet_id=ids.allocate(), ids=ids)
        assert (packet.packet_id, packet.copy().packet_id) == (1, 2)

    def test_packet_without_network_carries_id_zero(self):
        packet = Packet()
        assert (packet.packet_id, packet.copy().packet_id) == (0, 0)


class TestActions:
    def _emitted(self):
        out = []
        return out, lambda port, pkt: out.append((port, pkt))

    def test_set_field(self):
        packet = Packet()
        out, emit = self._emitted()
        SetField("x", 3).apply(packet, emit, in_port=1)
        assert packet.get("x") == 3
        assert out == []

    def test_output_emits(self):
        packet = Packet()
        out, emit = self._emitted()
        Output(4).apply(packet, emit, in_port=1)
        assert out == [(4, packet)]

    def test_push_pop_label(self):
        packet = Packet()
        out, emit = self._emitted()
        PushLabel(("rec", 1)).apply(packet, emit, 1)
        assert packet.stack == [("rec", 1)]
        PopLabel().apply(packet, emit, 1)
        assert packet.stack == []

    def test_pop_on_empty_is_noop(self):
        packet = Packet()
        out, emit = self._emitted()
        PopLabel().apply(packet, emit, 1)  # must not raise
        assert packet.stack == []

    def test_dec_ttl_floors_at_zero(self):
        packet = Packet(fields={"ttl": 1})
        out, emit = self._emitted()
        DecTtl().apply(packet, emit, 1)
        assert packet.get("ttl") == 0
        DecTtl().apply(packet, emit, 1)
        assert packet.get("ttl") == 0

    def test_instructions_metadata_consistency(self):
        with pytest.raises(ActionError):
            Instructions(write_metadata=(0xFF, 0x0F))

    def test_instructions_describe(self):
        text = Instructions(
            apply_actions=(SetField("x", 1), Output(2)), goto_table=3
        ).describe()
        assert "SetField" in text and "goto:3" in text


class TestFlowTable:
    def test_lookup_priority_order(self):
        table = FlowTable(0)
        low = table.install(Match(), Instructions(), priority=1, cookie="low")
        high = table.install(Match(x=1), Instructions(), priority=10, cookie="high")
        assert table.lookup({"x": 1}) is high
        assert table.lookup({"x": 2}) is low

    def test_miss_returns_none(self):
        table = FlowTable(0)
        table.install(Match(x=1), Instructions())
        assert table.lookup({"x": 2}) is None

    def test_counters_increment(self):
        table = FlowTable(0)
        entry = table.install(Match(), Instructions())
        table.lookup({})
        table.lookup({})
        assert entry.packet_count == 2

    def test_insertion_order_breaks_ties(self):
        table = FlowTable(0)
        first = table.install(Match(), Instructions(), priority=5)
        table.install(Match(), Instructions(), priority=5)
        assert table.lookup({}) is first

    def test_entries_sorted_by_priority(self):
        table = FlowTable(0)
        table.install(Match(), Instructions(), priority=1)
        table.install(Match(), Instructions(), priority=9)
        priorities = [e.priority for e in table.entries()]
        assert priorities == sorted(priorities, reverse=True)

    def test_negative_table_id_rejected(self):
        from repro.openflow.errors import TableError

        with pytest.raises(TableError):
            FlowTable(-1)

    def test_len(self):
        table = FlowTable(0)
        assert len(table) == 0
        table.install(Match(), Instructions())
        assert len(table) == 1


# --------------------------------------------------------------------- #
# Bulk load ≡ sequential install                                        #
# --------------------------------------------------------------------- #
#
# Whole programs reach a switch through FlowTable.load / GroupTable.load /
# Switch.load_program; single entries through add / install / add_group.
# The two must be indistinguishable: same match order, same seq numbers,
# same lookup winners, same digest, same evictions and errors.

VALUES = st.integers(0, 3)

#: (priority, match fields, output port): few priorities and few values, so
#: equal-priority ties and overlapping matches are the common case.
RULES = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.dictionaries(st.sampled_from(["a", "b"]), VALUES, max_size=2),
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=16,
)


def _entries(rules, start=0):
    return [
        FlowEntry(
            Match(**fields),
            Instructions(apply_actions=(Output(port),)),
            priority,
            cookie=f"rule-{index}",
        )
        for index, (priority, fields, port) in enumerate(rules, start)
    ]


def _table_state(table):
    return [
        (entry.cookie, entry.priority, entry.seq) for entry in table.entries()
    ]


def _winners(table):
    return [
        getattr(table.lookup({"a": a, "b": b}), "cookie", None)
        for a in range(4)
        for b in range(4)
    ]


@settings(max_examples=200, deadline=None)
@given(RULES, RULES, st.booleans())
def test_bulk_load_equals_sequential_install(present, program, read_first):
    """Loading *program* in one step into a table already holding *present*
    (read, hence sorted, or not) gives the table that installing it entry
    by entry gives."""
    bulk, sequential = Switch(0, 3), Switch(0, 3)
    for switch in (bulk, sequential):
        for entry in _entries(present):
            switch.table(0).add(entry)
        if read_first:
            _table_state(switch.tables[0])
    bulk.load_program({0: _entries(program, len(present))})
    for entry in _entries(program, len(present)):
        sequential.install(
            0, entry.match, entry.instructions, entry.priority, entry.cookie
        )
    assert _table_state(bulk.tables[0]) == _table_state(sequential.tables[0])
    assert sorted(seq for _c, _p, seq in _table_state(bulk.tables[0])) == list(
        range(len(present) + len(program))
    )
    assert bulk.inventory_digest() == sequential.inventory_digest()
    assert _winners(bulk.tables[0]) == _winners(sequential.tables[0])
    # One step: the load is one mutation, however many entries it carries.
    assert bulk.tables[0].version == len(present) + 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.booleans(), RULES, RULES)
def test_bulk_load_applies_capacity_entry_by_entry(capacity, evict, present, program):
    """A capacity-bounded table sees every entry of a bulk load under its
    eviction policy: same evictions, same TableFullError at the same entry
    with the same prefix left behind."""

    def drive(load):
        table = FlowTable(0)
        for entry in _entries(present):
            table.add(entry)
        table.set_capacity(capacity, evict=evict)
        entries = _entries(program, len(present))
        error = None
        try:
            if load:
                table.load(entries)
            else:
                for entry in entries:
                    table.add(entry)
        except TableFullError as exc:
            error = str(exc)
        return _table_state(table), table.evictions, error, _winners(table)

    assert drive(load=True) == drive(load=False)


def _reference_adopt(switch, expected, config, rng, faults_left):
    """The re-adoption push spelled out operation by operation: the model
    :meth:`Switch.adopt_program` must match draw for draw."""
    entries = list(expected.iter_entries())
    groups = list(expected.groups.groups())
    total = len(entries) + len(groups)
    cut = total
    if faults_left > 0 and total and rng.random() < config.partial_install_prob:
        faults_left -= 1
        cut = rng.randrange(total)
    switch.tables = {}
    switch.groups = type(switch.groups)()
    done = 0
    for table_id, entry in entries:
        if done == cut:
            break
        switch.install(
            table_id, entry.match, entry.instructions, entry.priority, entry.cookie
        )
        done += 1
    for group in groups:
        if done == cut:
            break
        switch.add_group(
            Group(
                group.group_id,
                group.group_type,
                [Bucket(b.actions, b.watch_port) for b in group.buckets],
            )
        )
        done += 1
    message = None
    if done < total:
        message = (
            f"switch {switch.node_id}: program push interrupted after "
            f"{done}/{total} operations"
        )
    return message, faults_left


@settings(max_examples=150, deadline=None)
@given(
    RULES,
    RULES,
    st.integers(0, 2),
    st.floats(0.3, 1.0),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_adopt_program_cut_equals_sequential_push(
    table0, table1, group_count, prob, budget, seed
):
    """Under an active fault config, the bulk-loading adopt_program leaves
    the same prefix, draws the same RNG values and raises the same message
    as the operation-by-operation push, retry after retry."""
    expected = Switch(0, 3)
    expected.load_program(
        {0: _entries(table0), 1: _entries(table1, len(table0))},
        [
            Group(gid, GroupType.FF, [Bucket([Output(1)], 1), Bucket([Output(2)])])
            for gid in range(1, group_count + 1)
        ],
    )
    config = SwitchFaultConfig(
        partial_install_prob=prob, fail_budget=budget, seed=seed
    )
    adopted = Switch(0, 3)
    adopted.set_faults(config)
    reference = Switch(0, 3)
    rng, faults_left = seeded_rng(seed), budget
    for _attempt in range(budget + 2):
        message, faults_left = _reference_adopt(
            reference, expected, config, rng, faults_left
        )
        try:
            adopted.adopt_program(expected)
            raised = None
        except InstallError as exc:
            raised = str(exc)
        assert raised == message
        assert adopted.describe() == reference.describe()
        assert [
            (table_id, entry.seq) for table_id, entry in adopted.iter_entries()
        ] == [(table_id, entry.seq) for table_id, entry in reference.iter_entries()]
        if message is None:
            break
    assert adopted.inventory_digest() == expected.inventory_digest()
    assert adopted._fault_rng.random() == rng.random()
