"""A switch's program is built where a traversal reads it, and only there.

Three parts of a compiled program wait for their first reader: a flow
entry's index record (made on its key's first hit), a group's bucket
closure (compiled on the bucket's first selection) and a sweep row's
fast-failover group (built by the group table on its first read).  These
tests pin how little a cold snapshot builds, that building a deferred group
is not a program change, and that deferred groups load by the same
duplicate-id rule as eager ones.
"""

from __future__ import annotations

import pytest

from repro.core.compiler import compile_service
from repro.core.runtime import SmartSouthRuntime
from repro.core.services.snapshot import SnapshotService
from repro.net.simulator import Network
from repro.net.topology import abilene, fat_tree
from repro.openflow.actions import Instructions, Output
from repro.openflow.errors import GroupError
from repro.openflow.fastpath import CompiledEntry, compile_table
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.group import (
    DeferredFailoverGroup,
    Group,
    GroupTable,
    GroupType,
)
from repro.openflow.match import Match


def _deferred_ids(table: GroupTable) -> list[int]:
    return [
        gid for gid, group in table._groups.items()
        if type(group) is DeferredFailoverGroup
    ]


def _records(fast) -> int:
    """Index records a table has made, without making any."""
    made = sum(
        type(head) is CompiledEntry
        for _key_fn, buckets, _signature in fast.groups
        for head in buckets.values()
    )
    return made + (type(fast.residue) is CompiledEntry)


class TestColdSnapshotBuildsLittle:
    """One fat_tree(8) snapshot from root 0 on the fast path."""

    @pytest.fixture(scope="class")
    def switches(self):
        runtime = SmartSouthRuntime(
            Network(fat_tree(8), fast_path=True), mode="compiled"
        )
        outcome = runtime.snapshot(0)
        assert len(outcome.nodes) == 80 and len(outcome.links) == 256
        return runtime.engine_for(SnapshotService()).switches.values()

    def test_groups_built_are_the_groups_run(self, switches):
        total = sum(len(switch.groups) for switch in switches)
        built = total - sum(switch.groups._deferred for switch in switches)
        programs = sum(len(switch.fast_path._programs) for switch in switches)
        assert (built, total) == (433, 4096)
        assert programs == built

    def test_index_records_are_the_rows_hit(self, switches):
        entries = sum(switch.rule_count() for switch in switches)
        records = sum(
            _records(fast)
            for switch in switches
            for _version, fast in switch.fast_path._tables.values()
        )
        assert (records, entries) == (1824, 9024)

    def test_buckets_compiled_are_the_buckets_selected(self, switches):
        programs = [
            program
            for switch in switches
            for program in switch.fast_path._programs.values()
        ]
        compiled = sum(
            run is not None for program in programs for run in program.runs
        )
        available = sum(len(program.group.buckets) for program in programs)
        # No link is down, so every fast-failover group runs bucket 0.
        assert compiled == len(programs) == 433
        assert available == 1977


class TestDeferredReadIsNotAMutation:
    """Building a deferred group on first read leaves the group-table
    version, the program generation and the cached inventory digest where
    they were: the built group is exactly what was loaded."""

    def _switch(self):
        network = Network(abilene(), fast_path=True)
        return compile_service(network, 0, SnapshotService())

    def test_get_and_groups_move_nothing(self):
        switch = self._switch()
        table = switch.groups
        deferred = _deferred_ids(table)
        assert len(deferred) > 1
        before = (table.version, switch.program_generation)
        table.get(deferred[0])
        assert (table.version, switch.program_generation) == before, (
            "reading a deferred group moved the program version"
        )
        digest = switch.inventory_digest()  # builds the rest via groups()
        cached = switch._digest
        assert not _deferred_ids(table)
        assert (table.version, switch.program_generation) == before, (
            "reading a deferred group moved the program version"
        )
        table.groups()
        assert switch.inventory_digest() == digest
        assert switch._digest is cached, (
            "reading a deferred group moved the program version"
        )

    def test_fast_path_keeps_its_compiles_across_a_first_read(self):
        switch = self._switch()
        fast = switch.fast_path
        fast._sync()  # what the first packet does
        tables = dict(fast._tables)
        switch.groups.get(_deferred_ids(switch.groups)[0])
        switch.groups.groups()
        assert (fast._generation, fast._groups_version) == (
            switch.program_generation, switch.groups.version
        ), "reading a deferred group moved the program version"
        assert fast._tables == tables

    def test_built_group_equals_its_eager_build(self):
        switch = self._switch()
        for gid in _deferred_ids(switch.groups):
            recipe = switch.groups._groups[gid]
            eager = recipe.build()
            assert switch.groups.get(gid) == eager
            assert eager.group_type is GroupType.FF


def _recipe(group_id: int) -> DeferredFailoverGroup:
    return DeferredFailoverGroup(group_id, (1,), [(), (Output(1),)], (Output(9),))


class TestDeferredLoadDuplicates:
    """A duplicate id stops :meth:`GroupTable.load` and the groups before
    it stay loaded, whether either side is deferred or eager."""

    @pytest.mark.parametrize(
        "first, duplicate",
        [
            (lambda gid: Group(gid, GroupType.FF), lambda gid: Group(gid, GroupType.FF)),
            (_recipe, _recipe),
            (_recipe, lambda gid: Group(gid, GroupType.FF)),
            (lambda gid: Group(gid, GroupType.FF), _recipe),
        ],
        ids=["eager-eager", "deferred-deferred", "deferred-eager", "eager-deferred"],
    )
    def test_duplicate_stops_the_load(self, first, duplicate):
        table = GroupTable()
        with pytest.raises(GroupError, match="duplicate group id 5"):
            table.load([first(5), _recipe(6), duplicate(5), _recipe(7)])
        assert [gid for gid in (5, 6, 7) if gid in table] == [5, 6]
        assert len(table) == 2
        assert table.version == 1
        assert [group.group_id for group in table.groups()] == [5, 6]
        assert not _deferred_ids(table)

    def test_duplicate_of_an_earlier_load_is_refused_unbuilt(self):
        table = GroupTable()
        table.load([_recipe(5)])
        with pytest.raises(GroupError, match="duplicate group id 5"):
            table.load([_recipe(5)])
        with pytest.raises(GroupError, match="duplicate group id 5"):
            table.add(Group(5, GroupType.FF))
        assert _deferred_ids(table) == [5]  # the checks read ids alone


class TestIndexKeepsTheFirstEntryOfAKey:
    def test_shadowed_same_key_entry_is_never_indexed(self):
        table = FlowTable(0)
        first = table.add(
            FlowEntry(Match(a=1), Instructions(apply_actions=(Output(1),)), 5)
        )
        table.add(FlowEntry(Match(a=1), Instructions(apply_actions=(Output(2),)), 5))
        residue = table.add(
            FlowEntry(Match(), Instructions(apply_actions=(Output(3),)), 0)
        )
        table.add(FlowEntry(Match(), Instructions(apply_actions=(Output(4),)), 0))
        fast = compile_table(table)
        assert _records(fast) == 0
        assert fast.lookup({"a": 1}, 1, 0).entry is first
        assert _records(fast) == 2  # the key's head and the residue head
        assert {record.entry.seq for record in fast.entries()} == {
            first.seq, residue.seq
        }
