"""A deferred table declares what the built table would be.

The compiler hands every flow table of a fast-path switch over as a
:class:`~repro.openflow.deferred.DeferredTable`: per row a priority and a
recipe, plus the index the fast path would derive from the built rows,
declared by key.  Two things must hold for every program the compiler
emits, and :func:`~repro.openflow.fastpath.compile_table` is the oracle
for both:

* materialising the table gives what an eager load of the same rows gives:
  the same entries in the same match order, with the same ``seq`` numbers
  and the same ``describe()``;
* the declared index is the one ``compile_table`` derives from the
  materialised table: the same signatures and keys, and per key the same
  first entry (the only one a lookup can return), the residue likewise.
"""

from __future__ import annotations

import random

import pytest

from repro.core.compiler import compile_service, compile_services
from repro.net.simulator import Network
from repro.net.topology import abilene, fat_tree, ring, star
from repro.openflow.actions import Instructions, Output
from repro.openflow.deferred import DeferredTable
from repro.openflow.errors import TableError
from repro.openflow.fastpath import compile_table
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import FieldTest, Match
from tests.test_program_identity import MULTI, SERVICES

TOPOLOGIES = {
    "ring4": lambda: ring(4),
    "star5": lambda: star(5),
    "abilene": abilene,
    "fat_tree4": lambda: fat_tree(4),
}


def _eager(plan: DeferredTable, table_id: int) -> FlowTable:
    """The eager emission of *plan*: its rows built in position order and
    loaded as a list into a fresh table."""
    table = FlowTable(table_id)
    rows = []
    for make, arg, priority in zip(plan.makes, plan.args, plan.priorities):
        match, instructions, cookie = make(arg)
        rows.append(FlowEntry(match, instructions, priority, cookie))
    table.load(rows)
    return table


def _context(entry: FlowEntry) -> tuple[dict, int, int]:
    """A ``(fields, in_port, metadata)`` context *entry*'s match hits."""
    fields, in_port, metadata = {}, 0, 0
    for name, test in entry.match.tests.items():
        if name == "in_port":
            in_port = test.value
        elif name == "metadata":
            metadata = test.value
        else:
            fields[name] = test.value
    return fields, in_port, metadata


def _heads(fast) -> dict:
    """``{signature: {key: first FlowEntry}}`` of *fast*, plus the residue
    head under the key None, resolving declared positions through the
    table's own record maker."""
    heads = {
        signature: {
            key: head if type(head) is FlowEntry else fast._make(head).entry
            for key, head in buckets.items()
        }
        for _key_fn, buckets, signature in fast.groups
    }
    residue = fast.residue
    if residue is not None and type(residue) is not FlowEntry:
        residue = fast._make(residue).entry
    heads[None] = residue
    return heads


def assert_declares_its_table(table: FlowTable, label: str) -> None:
    """Materialise pending *table* and hold its rows and its declared index
    against the eager oracles."""
    plan = table.deferred
    assert plan is not None, f"table is not deferred: {label}"
    declared = compile_table(table)  # pending: the declared index
    assert table.deferred is plan, f"indexing materialised the table: {label}"
    eager = _eager(plan, table.table_id)
    table.materialise()
    built = list(table.entries())
    assert [(e.priority, e.seq, e.cookie, e.describe()) for e in built] == [
        (e.priority, e.seq, e.cookie, e.describe()) for e in eager.entries()
    ], f"materialised rows differ from the eager emission: {label}"
    derived = compile_table(table)  # materialised: indexed from the entries
    assert _heads(declared) == _heads(derived), (
        f"declared index differs from compile_table's: {label}"
    )
    key_fns = {signature: key_fn for key_fn, _b, signature in declared.groups}
    for signature, buckets in _heads(declared).items():
        if signature is None:
            continue
        for key, entry in buckets.items():
            context = _context(entry)
            assert key_fns[signature](*context) == key, (
                f"declared key misreads {entry.cookie}: {label}"
            )


def _program_cases():
    for topology_name in TOPOLOGIES:
        for service_name in [*SERVICES, "multi"]:
            yield pytest.param(topology_name, service_name,
                               id=f"{service_name}-{topology_name}")


def _compile(network: Network, node: int, service_name: str, fast_path: bool):
    if service_name == "multi":
        services = [SERVICES[name]() for name in MULTI]
        return compile_services(network, node, services, fast_path=fast_path)
    return compile_service(network, node, SERVICES[service_name](), fast_path=fast_path)


@pytest.mark.parametrize("topology_name, service_name", list(_program_cases()))
def test_compiled_tables_declare_their_index(topology_name, service_name):
    """On a fast-path switch every table is deferred and declares its index;
    materialised, the switch is the one the compiler builds at once for a
    switch without a fast path."""
    network = Network(TOPOLOGIES[topology_name]())
    for node in network.topology.nodes():
        switch = _compile(network, node, service_name, fast_path=True)
        for table_id, table in switch.tables.items():
            assert_declares_its_table(
                table, f"{service_name} on {topology_name}, node {node}, "
                f"table {table_id}"
            )
        eager = _compile(network, node, service_name, fast_path=False)
        assert not any(table.deferred for table in eager.tables.values())
        assert switch.describe() == eager.describe(), (
            f"deferred and eager programs differ: {service_name} on "
            f"{topology_name}, node {node}"
        )


def _instructions(port: int) -> Instructions:
    return Instructions(apply_actions=(Output(port),))


def _load(plan: DeferredTable) -> FlowTable:
    table = FlowTable(0)
    table.load(plan)
    return table


class TestSameKeyRows:
    """Rows sharing a key: only the first in match order is indexed."""

    def test_first_of_equal_priority_rows_is_declared(self):
        plan = DeferredTable()
        for port, priority in ((1, 5), (2, 5), (3, 4)):
            plan.add_rule(Match(a=1), _instructions(port), priority, f"a:{port}")
        plan.add_rule(Match(), _instructions(8), 0, "residue:8")
        plan.add_rule(Match(), _instructions(9), 0, "residue:9")
        assert_declares_its_table(_load(plan), "equal priorities")

    def test_later_higher_priority_row_displaces_the_first(self):
        plan = DeferredTable()
        plan.add_rule(Match(a=1), _instructions(1), 5, "a:low")
        plan.add_rule(Match(a=1), _instructions(2), 7, "a:high")
        plan.add_rule(Match(a=1), _instructions(3), 7, "a:high-again")
        plan.add_rule(Match(), _instructions(8), 0, "residue:low")
        plan.add_rule(Match(), _instructions(9), 1, "residue:high")
        assert_declares_its_table(_load(plan), "displaced")

    @pytest.mark.parametrize("seed", range(8))
    def test_random_overlapping_rows(self, seed):
        rng = random.Random(seed)
        plan = DeferredTable()
        shapes = [("a",), ("a", "b"), ("in_port", "b"), ("metadata",), ()]
        for index in range(40):
            tests = []
            for name in rng.choice(shapes):
                if name == "metadata":
                    tests.append(FieldTest(name, rng.randrange(2) << 8, 0xFF00))
                else:
                    tests.append(FieldTest(name, rng.randrange(3)))
            plan.add_rule(
                Match(tests), _instructions(index), rng.randrange(3), f"r{index}"
            )
        assert_declares_its_table(_load(plan), f"seed {seed}")


def test_a_deferred_table_loads_once():
    plan = DeferredTable()
    plan.add_rule(Match(a=1), _instructions(1), 1, "")
    _load(plan)
    with pytest.raises(TableError, match="loaded once"):
        _load(plan)


def test_into_a_nonempty_table_it_loads_like_a_list():
    table = FlowTable(0)
    table.install(Match(a=2), _instructions(5), 3, "present")
    plan = DeferredTable()
    plan.add_rule(Match(a=1), _instructions(1), 1, "later")
    table.load(plan)
    assert table.deferred is None
    assert [(e.cookie, e.seq) for e in table.entries()] == [
        ("present", 0), ("later", 1)
    ]
