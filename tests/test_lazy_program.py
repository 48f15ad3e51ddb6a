"""A switch's program is built where a traversal reads it, and only there.

Four parts of a compiled program wait for their first reader: a flow row
(its match and entry, built by the deferred table on its key's first hit),
the row's index record (made on the same hit), a group's bucket closure
(compiled on the bucket's first selection) and a sweep row's fast-failover
group (built by the group table on its first read).  These tests pin how
little a cold snapshot and a cold-start cycle build, that building a
deferred group or materialising a deferred table is not a program change,
and that deferred groups load by the same duplicate-id rule as eager ones.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro.core.compiler import compile_service
from repro.core.runtime import SmartSouthRuntime
from repro.core.services.snapshot import SnapshotService
from repro.net.simulator import Network
from repro.net.topology import abilene, fat_tree
from repro.openflow.actions import Instructions, Output
from repro.openflow.errors import GroupError
from repro.openflow import fastpath, flowtable, match
from repro.openflow.deferred import DeferredTable
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


class _Built:
    """Counts the ``Match``, ``FlowEntry`` and ``CompiledEntry`` objects
    made and the ready-made rows declared while it is entered."""

    COUNTED = (
        (match.Match, "__init__", "Match"),
        (flowtable.FlowEntry, "__init__", "FlowEntry"),
        (fastpath.CompiledEntry, "__init__", "CompiledEntry"),
        (DeferredTable, "add_rule", "ready_made"),
    )

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._saved: list = []

    def __enter__(self) -> Counter:
        for owner, name, label in self.COUNTED:
            original = getattr(owner, name)
            self._saved.append((owner, name, original))

            def counted(*args, _original=original, _label=label, **kwargs):
                self.counts[_label] += 1
                return _original(*args, **kwargs)

            setattr(owner, name, counted)
        return self.counts

    def __exit__(self, *exc) -> None:
        for owner, name, original in self._saved:
            setattr(owner, name, original)


class TestColdSnapshotBuildsLittle:
    """One fat_tree(8) snapshot from root 0 on the fast path."""

    @pytest.fixture(scope="class")
    def cold(self):
        with _Built() as built:
            runtime = SmartSouthRuntime(
                Network(fat_tree(8), fast_path=True), mode="compiled"
            )
            outcome = runtime.snapshot(0)
        assert len(outcome.nodes) == 80 and len(outcome.links) == 256
        return runtime.engine_for(SnapshotService()).switches.values(), built

    @pytest.fixture(scope="class")
    def switches(self, cold):
        return cold[0]

    def test_rows_built_are_the_rows_hit(self, cold):
        # An eager compile builds all 9 024 matches and entries.
        _switches, built = cold
        assert built["Match"] == built["FlowEntry"] == built["CompiledEntry"]
        assert built["FlowEntry"] == 1824

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


class TestMaterialiseIsNotAMutation:
    """Materialising a deferred table (any reader but the fast path) builds
    exactly the rows that were loaded: table versions, the program
    generation, the fast path's compiles and the cached inventory digest
    stay where they were."""

    def _state(self, switch):
        fast = switch.fast_path
        return (
            {table_id: table.version for table_id, table in switch.tables.items()},
            switch.program_generation,
            fast._generation,
            dict(fast._tables),
        )

    def test_readers_move_nothing(self):
        network = Network(abilene(), fast_path=True)
        runtime = SmartSouthRuntime(network, mode="compiled")
        runtime.snapshot(0)  # the fast path indexes and hits some rows
        for switch in runtime.engine_for(SnapshotService()).switches.values():
            assert any(table.deferred for table in switch.tables.values())
            before = self._state(switch)
            first = next(iter(switch.tables.values()))
            list(first.entries())
            assert self._state(switch) == before, (
                "materialising a deferred table moved the program version"
            )
            digest = switch.inventory_digest()  # materialises the rest
            cached = switch._digest
            assert not any(table.deferred for table in switch.tables.values())
            assert self._state(switch) == before, (
                "materialising a deferred table moved the program version"
            )
            assert switch.inventory_digest() == digest
            assert switch._digest is cached, (
                "materialising a deferred table moved the program version"
            )

    def test_rows_hit_before_are_the_rows_materialised(self):
        switch = compile_service(Network(abilene(), fast_path=True), 0, SnapshotService())
        fast = switch.fast_path
        fast._sync()
        table = switch.tables[1]
        record = fast._fast_table(1).lookup({"start": 0}, 0, 0)
        assert record.entry in list(table.entries())
        assert fast._fast_table(1).lookup({"start": 0}, 0, 0) is record, (
            "materialising a deferred table moved the program version"
        )


class TestColdStartCycleBuildsTheRowsItHits:
    """One seed-11 ``cold_start`` cycle of the end-to-end benchmark (five
    services on four topologies, each op a fresh compile and one call)."""

    def test_cycle(self, monkeypatch):
        root = Path(__file__).resolve().parent.parent
        monkeypatch.syspath_prepend(str(root / "benchmarks" / "e2e"))
        import workloads

        workloads.load_program("cold_start")
        ops = workloads.ColdStart(11).cycle()
        with _Built() as built:
            for op in ops:
                assert op.finish(op.run()).complaint is None, op.name
        # An eager compile builds 172 778 entries and 162 338 matches here.
        assert built["FlowEntry"] <= built["CompiledEntry"]
        assert built["Match"] <= built["CompiledEntry"] + built["ready_made"]


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
