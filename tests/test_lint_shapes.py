"""Lint runs its local analyses once per switch shape, and that is exact.

``LintContext`` computes reachable entries (SS001), shadowed entries
(SS002) and ambiguous overlaps (SS008) for the first node of each
:func:`~repro.analysis.symbolic.local_shape` and serves the result to every
node of that shape.  These tests hold the shared facts against a fresh
per-node :class:`SwitchAnalyzer` on every node of the compiled corpus,
check that the key tells apart switches that differ in what the analyses
read, and pin how many propagations a lint run makes.
"""

from __future__ import annotations

import pytest

from repro.analysis.lint import LintContext, lint_engine
from repro.analysis.symbolic import FieldWidths, SwitchAnalyzer, local_shape
from repro.core.compiler import compile_service, compile_services
from repro.core.engine import make_engine
from repro.core.fields import cur_field, par_field
from repro.core.services.anycast import AnycastService, PriocastService
from repro.core.services.base import PlainTraversalService
from repro.core.services.blackhole import BlackholeService, BlackholeTtlService
from repro.core.services.critical import CriticalNodeService
from repro.core.services.snapshot import ChunkedSnapshotService, SnapshotService
from repro.net.simulator import Network
from repro.net.topology import abilene, fat_tree, grid, ring, star, torus
from repro.openflow.actions import Instructions, Output, PushLabel, SetField
from repro.openflow.match import FieldTest, Match
from repro.openflow.switch import Switch

TOPOLOGIES = {
    "ring4": lambda: ring(4),
    "star5": lambda: star(5),
    "abilene": abilene,
    "grid3x3": lambda: grid(3, 3),
    "torus3x3": lambda: torus(3, 3),
    "fat_tree4": lambda: fat_tree(4),
}

SERVICES = {
    "plain": PlainTraversalService,
    "snapshot": SnapshotService,
    "snapshot_chunked": lambda: ChunkedSnapshotService(4),
    "anycast": lambda: AnycastService({1: {0, 2}, 2: {1}}),
    "priocast": lambda: PriocastService({1: {0: 3, 2: 5}, 2: {1: 130}}),
    "critical": CriticalNodeService,
    "blackhole": lambda: BlackholeService(counter_start=1),
    "blackhole_ttl": BlackholeTtlService,
}


def assert_shared_facts_exact(switches, topology) -> int:
    """Every node's shared facts equal a fresh per-node analysis; returns
    the number of shapes."""
    ctx = LintContext(switches, topology)
    shapes: dict[tuple, list[int]] = {}
    for node in ctx.nodes():
        shapes.setdefault(local_shape(switches[node], ctx.widths), []).append(node)
    for first, *rest in shapes.values():
        if not rest:
            continue
        # The context analyzes the first node asked for; the rest are served.
        ctx.reached(first), ctx.shadows(first), ctx.overlaps(first)
        for node in rest:
            fresh = SwitchAnalyzer(
                switches[node], ctx.widths, ff_first_only=False,
                project_unmatched=True,
            )
            assert ctx.reached(node) == set(fresh.analyze().hits), node
            # Facts name the node's own entry objects, not the first node's.
            served, expected = ctx.shadows(node), fresh.shadowed_entries()
            assert len(served) == len(expected), node
            for (t1, i1, e1, c1), (t2, i2, e2, c2) in zip(served, expected):
                assert (t1, i1, c1) == (t2, i2, c2) and e1 is e2, node
            served, expected = ctx.overlaps(node), fresh.ambiguous_overlaps()
            assert len(served) == len(expected), node
            for (t1, p1, a1, b1), (t2, p2, a2, b2) in zip(served, expected):
                assert (t1, p1) == (t2, p2) and a1 is a2 and b1 is b2, node
    return len(shapes)


class TestShapeSharingIsExact:
    @pytest.mark.parametrize("topology_name", list(TOPOLOGIES))
    def test_every_service(self, topology_name):
        topology = TOPOLOGIES[topology_name]()
        network = Network(topology)
        for make in SERVICES.values():
            service = make()
            switches = {
                node: compile_service(network, node, service)
                for node in topology.nodes()
            }
            assert_shared_facts_exact(switches, topology)

    def test_multi_service_switches(self):
        topology = abilene()
        network = Network(topology)
        names = ("snapshot", "anycast", "critical", "blackhole")
        switches = {
            node: compile_services(network, node, [SERVICES[n]() for n in names])
            for node in topology.nodes()
        }
        assert assert_shared_facts_exact(switches, topology) < len(switches)


def _switch(node=1, value=1, port=2, mask=0xFF, other=2, cur=0):
    """One entry over *node*'s own tags plus a test on node *other*'s tag."""
    switch = Switch(node, 3)
    switch.install(
        0,
        Match(
            [
                FieldTest(cur_field(node), cur),
                FieldTest(par_field(other), 1),
            ]
        ),
        Instructions(
            apply_actions=(
                SetField(par_field(node), value),
                PushLabel(("visit", node)),
                Output(port),
            ),
            write_metadata=(1, mask),
        ),
        priority=5,
        cookie="entry",
    )
    return switch


def _keys(a, b):
    widths = FieldWidths.for_switches([a, b])
    return local_shape(a, widths), local_shape(b, widths)


class TestShapeSeparation:
    def test_own_tags_and_label_contents_are_normalised(self):
        a, b = _keys(_switch(node=1, other=5), _switch(node=3, other=5))
        assert a == b

    def test_set_field_value(self):
        a, b = _keys(_switch(value=1), _switch(value=2))
        assert a != b, "blind to a SetField value: equal shape keys"

    def test_output_port(self):
        a, b = _keys(_switch(port=2), _switch(port=3))
        assert a != b, "blind to an Output port: equal shape keys"

    def test_write_metadata_mask(self):
        a, b = _keys(_switch(mask=0xFF), _switch(mask=0xF))
        assert a != b, "blind to a write-metadata mask: equal shape keys"

    def test_match_value(self):
        a, b = _keys(_switch(cur=0), _switch(cur=1))
        assert a != b, "blind to a match value: equal shape keys"

    def test_test_on_another_nodes_tag(self):
        a, b = _keys(_switch(other=2), _switch(other=3))
        assert a != b, "blind to another node's tag field: equal shape keys"


class TestAnalysisCount:
    """``SwitchAnalyzer.analyze`` runs once per shape, not once per switch."""

    @pytest.mark.parametrize(
        "topology, service, analyses",
        [
            (lambda: ring(8), SnapshotService, 1),
            (abilene, SnapshotService, 2),
            (lambda: grid(3, 3), SnapshotService, 3),
            # Priocast matches opt_id = node + 1: every switch is its own shape.
            (abilene, PriocastService, 11),
        ],
    )
    def test_propagations_per_lint_run(self, monkeypatch, topology, service, analyses):
        calls = []
        analyze = SwitchAnalyzer.analyze

        def counted(self, *args, **kwargs):
            calls.append(self.switch.node_id)
            return analyze(self, *args, **kwargs)

        monkeypatch.setattr(SwitchAnalyzer, "analyze", counted)
        lint_engine(make_engine(Network(topology()), service(), "compiled"))
        assert len(calls) == analyses
