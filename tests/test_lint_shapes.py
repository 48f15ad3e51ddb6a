"""Lint runs its analyses once per switch shape, and that is exact.

``LintContext`` computes reachable entries (SS001), shadowed entries
(SS002) and ambiguous overlaps (SS008) for the first node of each
:func:`~repro.analysis.symbolic.local_shape` and serves the result to every
node of that shape.  Its network walks step through one
:class:`~repro.analysis.symbolic.TransferMemo`, which propagates once per
walk shape and projected input.  These tests hold the shared facts against
a fresh per-node :class:`SwitchAnalyzer` on every node of the compiled
corpus, hold every memoised walk step against a fresh propagation of its
full cube, check that the key tells apart switches that differ in what the
analyses read, and pin how many propagations a lint run makes.
"""

from __future__ import annotations

import pytest

from repro.analysis.lint import LintConfig, LintContext, lint_engine
from repro.analysis.symbolic import (
    FieldWidths,
    SwitchAnalyzer,
    TransferMemo,
    local_shape,
)
from repro.core.compiler import compile_service, compile_services
from repro.core.engine import make_engine
from repro.core.fields import FIELD_SCRATCH, FIELD_TTL, cur_field, par_field
from repro.core.services.anycast import AnycastService, PriocastService
from repro.core.services.base import PlainTraversalService
from repro.core.services.blackhole import BlackholeService, BlackholeTtlService
from repro.core.services.critical import CriticalNodeService
from repro.core.services.snapshot import ChunkedSnapshotService, SnapshotService
from repro.net.simulator import Network
from repro.net.topology import abilene, fat_tree, grid, line, ring, star, torus
from repro.openflow.actions import (
    DecTtl,
    GroupAction,
    Instructions,
    Output,
    PushLabel,
    SetField,
)
from repro.openflow.group import Bucket, Group, GroupType
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
            # Priocast's opt_id = node + 1 is a placeholder in the shape, so
            # without members its switches share one shape per degree.
            (abilene, PriocastService, 2),
            # Two members, each with its own bid value, and the rest.
            (lambda: ring(8), lambda: PriocastService({1: {7: 1, 5: 2}}), 3),
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


def count_lint_work(monkeypatch, engines) -> tuple[int, int, int]:
    """(local analyses, walk propagations, walk states) over one lint run
    of each engine."""
    counts = {"analyze": 0, "walk": 0}
    analyze, propagate = SwitchAnalyzer.analyze, SwitchAnalyzer.propagate
    contexts: list[LintContext] = []
    init = LintContext.__init__

    def counted_analyze(self, *args, **kwargs):
        counts["analyze"] += 1
        return analyze(self, *args, **kwargs)

    def counted_propagate(self, *args, **kwargs):
        counts["walk"] += self.ff_first_only  # walk analyzers take FF bucket 0
        return propagate(self, *args, **kwargs)

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        contexts.append(self)

    monkeypatch.setattr(SwitchAnalyzer, "analyze", counted_analyze)
    monkeypatch.setattr(SwitchAnalyzer, "propagate", counted_propagate)
    monkeypatch.setattr(LintContext, "__init__", recorded_init)
    for engine in engines:
        lint_engine(engine)
    states = sum(
        walk.states
        for ctx in contexts
        for walks in ctx.walks().values()
        for walk in walks
    )
    return counts["analyze"], counts["walk"], states


class TestWalkPropagationCount:
    """Walk steps propagate once per walk shape and projected input; the
    walks themselves visit exactly the states they did unshared."""

    @pytest.mark.parametrize(
        "topology, service, propagations, states",
        [
            (lambda: ring(8), BlackholeService, 97, 3512),
            (abilene, BlackholeService, 309, 14138),
            (abilene, PriocastService, 329, 891),
        ],
    )
    def test_per_lint_run(self, monkeypatch, topology, service, propagations, states):
        engine = make_engine(Network(topology()), service(), "compiled")
        _analyses, walked, visited = count_lint_work(monkeypatch, [engine])
        assert (walked, visited) == (propagations, states)

    def test_verify_workload_cycle(self, monkeypatch):
        """The lint half of one cycle of the e2e ``verify`` workload at seed
        11, which ran 6 775 walk propagations (one per state) and 31 local
        analyses before walk steps and priocast shapes were shared."""
        members = {
            "ring8": {7: 1, 5: 2}, "grid3x3": {0: 2, 2: 1}, "abilene": {0: 1, 9: 2}
        }
        services = {
            "snapshot": lambda _m: SnapshotService(),
            "anycast": lambda m: AnycastService({1: set(m)}),
            "priocast": lambda m: PriocastService({1: dict(m)}),
            "critical": lambda _m: CriticalNodeService(),
            "blackhole": lambda _m: BlackholeService(),
        }
        plan = [("ring8", name) for name in services] + [
            (topo, name)
            for topo in ("grid3x3", "abilene")
            for name in ("snapshot", "anycast", "critical")
        ]
        topologies = {"ring8": lambda: ring(8), "grid3x3": lambda: grid(3, 3),
                      "abilene": abilene}
        engines = [
            make_engine(
                Network(topologies[topo]()), services[name](members[topo]), "compiled"
            )
            for topo, name in plan
        ]
        assert count_lint_work(monkeypatch, engines) == (26, 684, 6775)


def assert_step_is_fresh(step, analyzer, cube, tokens) -> None:
    """One memoised walk step equals ``analyzer.propagate(cube)``: hit
    counts, misses in order and egresses in order, each with its full cube;
    and equal egress tokens of the node mean equal cubes.  *tokens* maps
    ``(node, token)`` and ``(node, cube key)`` each to the other."""
    hits, misses, egresses, cube_of, token_of = step
    fresh = analyzer.propagate(cube)
    keys = [cube_of(output).key() for output, *_where in egresses]
    got = (
        hits,
        [(table_id, miss.key()) for table_id, miss in misses],
        [(*row[1:], key) for row, key in zip(egresses, keys)],
    )
    want = (
        {at: len(cubes) for at, cubes in fresh.hits.items()},
        [(t, miss.key()) for t, cubes in fresh.misses.items() for miss in cubes],
        [(e.port, e.table_id, e.entry_index, e.source, e.cube.key())
         for e in fresh.egresses],
    )
    assert got == want, "memoised step differs from a fresh propagation"
    node = analyzer.switch.node_id
    for (output, *_where), key in zip(egresses, keys):
        token, key = (node, token_of(output)), (node, key)
        assert tokens.setdefault(token, key) == key, "one token, two cubes"
        assert tokens.setdefault(key, token) == token, "one cube, two tokens"


def check_walk_steps(monkeypatch, switches, topology, service, roots=None) -> None:
    """Walk *service* over *switches* with every step held against a fresh
    propagation."""
    tokens: dict = {}
    step = TransferMemo.step

    def checked(self, node, analyzer, cube):
        got = step(self, node, analyzer, cube)
        assert_step_is_fresh(got, analyzer, cube, tokens)
        return got

    with monkeypatch.context() as patch:
        patch.setattr(TransferMemo, "step", checked)
        config = LintConfig(roots=roots)
        assert LintContext(switches, topology, service, config).walks()


class TestWalkMemoIsExact:
    """A memo hit re-attaches the unread input constraints to the stored
    output; that is exact only if no field outside the read set changes on
    the way through.  The walks here run from the first node, every trigger
    class sharing one memo."""

    @pytest.mark.parametrize("topology_name", list(TOPOLOGIES))
    def test_every_service(self, monkeypatch, topology_name):
        topology = TOPOLOGIES[topology_name]()
        network = Network(topology)
        nodes = sorted(topology.nodes())
        for make in SERVICES.values():
            service = make()
            switches = {
                node: compile_service(network, node, service)
                for node in topology.nodes()
            }
            check_walk_steps(monkeypatch, switches, topology, service, (nodes[0],))

    def test_decrements_and_smart_counters_are_read(self, monkeypatch):
        """Node 1 decrements ``ttl`` and round-robins ``scratch`` without
        matching either, so both change on the way through it: the compiled
        corpus matches every field it decrements or counts in, so only this
        case sees a read set that leaves them out."""
        topology = line(2)
        root = Switch(0, 1)
        root.install(0, Match(), Instructions((SetField(FIELD_TTL, 5), Output(1))))
        counter = Switch(1, 1)
        buckets = [Bucket((SetField(FIELD_SCRATCH, value),)) for value in (1, 2)]
        counter.groups.add(Group(1, GroupType.SELECT, buckets))
        counter.install(
            0, Match(), Instructions((DecTtl(FIELD_TTL), GroupAction(1), Output(1)))
        )
        switches = {0: root, 1: counter}
        check_walk_steps(monkeypatch, switches, topology, PlainTraversalService())
