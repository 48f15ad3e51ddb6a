"""Emitted programs are byte-identical to the pinned ones.

The compiler's output is part of the observable contract: lint, the model
checker, the inventory-digest handshake of ``readopt`` / ``resynchronize``
and every chaos report read it.  ``tests/golden/program_digests.json`` pins,
for every built-in service (plus one multi-service switch) on six fixed
topologies, what each node's switch holds: its ``inventory_digest()`` (rules
in match order with priorities, matches, instructions and cookies; groups in
insertion order with their buckets), its rule and group counts, and a hash
of every table's ``(priority, seq, cookie)`` order, which adds the install
sequence the digest does not cover.  A change that reorders, drops or
rewrites any rule or group shows up here before it shows up as a chaos or
model-check diff.  Deliberate changes to the emitted tables regenerate the
file with::

    PYTHONPATH=src python -m pytest tests/test_program_identity.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.compiler import compile_service, compile_services
from repro.core.services.anycast import AnycastService, PriocastService
from repro.core.services.base import PlainTraversalService
from repro.core.services.blackhole import BlackholeService, BlackholeTtlService
from repro.core.services.critical import CriticalNodeService
from repro.core.services.snapshot import ChunkedSnapshotService, SnapshotService
from repro.net.simulator import Network
from repro.net.topology import abilene, fat_tree, from_edge_list, ring, star, torus

GOLDEN = Path(__file__).parent / "golden" / "program_digests.json"

#: Anycast / priocast membership on nodes every topology below has; the
#: priority 130 expands to several range cubes in the bid table.
GROUPS = {1: {0, 2}, 2: {1}}
PRIORITIES = {1: {0: 3, 2: 5}, 2: {1: 130}}


def _circulant9():
    """Nine nodes, each wired to its neighbours at distance 1, 2 and 3:
    every node has degree 6."""
    links = [(u, (u + step) % 9) for step in (1, 2, 3) for u in range(9)]
    return from_edge_list(9, links, "circulant9")


TOPOLOGIES = {
    "ring8": lambda: ring(8),
    "star5": lambda: star(5),
    "fat_tree4": lambda: fat_tree(4),
    "torus3x3": lambda: torus(3, 3),
    "abilene": abilene,
    "circulant9": _circulant9,
}

SERVICES = {
    "plain": PlainTraversalService,
    "snapshot": SnapshotService,
    "snapshot_chunked": lambda: ChunkedSnapshotService(4),
    "anycast": lambda: AnycastService(GROUPS),
    "priocast": lambda: PriocastService(PRIORITIES),
    "critical": CriticalNodeService,
    "blackhole": lambda: BlackholeService(counter_start=1),
    "blackhole_ttl": BlackholeTtlService,
}

#: The services sharing one switch in the ``compile_services`` case.
MULTI = ("snapshot", "anycast", "critical", "blackhole")


def _describe(switch) -> dict:
    order = {
        str(table_id): [
            [entry.priority, entry.seq, entry.cookie]
            for entry in switch.tables[table_id].entries()
        ]
        for table_id in sorted(switch.tables)
    }
    return {
        "digest": switch.inventory_digest(),
        "rules": switch.rule_count(),
        "groups": switch.group_count(),
        "order": hashlib.sha256(
            json.dumps(order, sort_keys=True).encode()
        ).hexdigest()[:16],
    }


def _programs(topology_name: str) -> dict:
    """``{service: {node: description}}`` for one topology."""
    network = Network(TOPOLOGIES[topology_name]())
    nodes = list(network.topology.nodes())
    programs = {
        name: {
            str(node): _describe(compile_service(network, node, make()))
            for node in nodes
        }
        for name, make in SERVICES.items()
    }
    programs["multi"] = {
        str(node): _describe(
            compile_services(network, node, [SERVICES[name]() for name in MULTI])
        )
        for node in nodes
    }
    return programs


@pytest.mark.parametrize("topology_name", list(TOPOLOGIES))
def test_program_identity(request, topology_name):
    observed = _programs(topology_name)
    if request.config.getoption("--regen"):
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[topology_name] = observed
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    assert GOLDEN.exists(), (
        "missing tests/golden/program_digests.json — run pytest "
        "tests/test_program_identity.py --regen"
    )
    golden = json.loads(GOLDEN.read_text())[topology_name]
    assert sorted(observed) == sorted(golden)
    for service, nodes in golden.items():
        for node, pinned in nodes.items():
            assert observed[service][node] == pinned, (
                f"program drift: {service} on {topology_name}, node {node}"
            )
