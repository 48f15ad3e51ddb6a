"""Stateful model checker: clean services stay clean, seeded faults are
caught by the right invariant, and every counterexample replays in the
simulator.

The seeded-violation matrix is the checker's own regression oracle: each
mutator injects one realistic compilation bug (a dropped parent-return
rule, swapped tag writes, a stale fast-failover watch port, a rotated
smart-counter group) and the test pins down *which* invariant must fire
and that the minimized counterexample reproduces the violation when its
trace is replayed as a deterministic simulator run.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import modelcheck
from repro.analysis.modelcheck import (
    INVARIANTS,
    CheckConfig,
    check_engine,
    hop_bound,
    invariant,
    observe,
    run_check,
    scenarios_for,
)
from repro.analysis.replay import confirms_violation, replay_counterexample
from repro.core.engine import make_engine
from repro.core.fields import (
    FIELD_GID,
    FIELD_RECCAP,
    FIELD_REPEAT,
    FIELD_TTL,
    cur_field,
    par_field,
)
from repro.core.services.anycast import AnycastService, PriocastService
from repro.core.services.base import PlainTraversalService
from repro.core.services.blackhole import BlackholeService, BlackholeTtlService
from repro.core.services.critical import CriticalNodeService
from repro.core.services.snapshot import ChunkedSnapshotService, SnapshotService
from repro.core.smart_counter import (
    build_counter_group,
    counter_bucket_value,
    counter_value,
    seed_counter,
)
from repro.net.failures import fail_edge_after_steps, fail_link_after_steps
from repro.net.simulator import Network
from repro.net.topology import abilene, grid, ring, star
from repro.openflow.actions import GroupAction, Instructions, SetField
from repro.openflow.errors import GroupError, PipelineError, TableError
from repro.openflow.group import Bucket, Group, GroupType
from repro.openflow.match import Match
from repro.openflow.packet import Packet
from repro.openflow.switch import Switch


def compiled(topology, service):
    engine = make_engine(Network(topology), service, "compiled")
    engine.install()
    return engine


# --------------------------------------------------------------------- #
# Seeded-fault mutators (shared with the property tests)                #
# --------------------------------------------------------------------- #


def drop_parent_rules(engine):
    """Delete every Send_parent degenerate-table rule: the traversal can
    descend but never climb back, so it must fail to complete."""
    for switch in engine.switches.values():
        for table in switch.tables.values():
            kept = [
                e
                for e in table._entries
                if not e.cookie.startswith("sweep:parent:")
            ]
            if len(kept) != len(table._entries):
                table._entries = kept
                table._sorted = False


def swap_par_cur(engine):
    """First_visit writes the parent port into *cur* instead of *par*:
    the classic transposed-tag compiler bug."""
    for node, switch in engine.switches.items():
        for table in switch.tables.values():
            for entry in table._entries:
                if not entry.cookie.startswith("classify:first_visit:"):
                    continue
                actions = list(entry.instructions.apply_actions)
                for i, action in enumerate(actions):
                    if (
                        isinstance(action, SetField)
                        and action.name == par_field(node)
                    ):
                        actions[i] = SetField(cur_field(node), action.value)
                object.__setattr__(
                    entry.instructions, "apply_actions", tuple(actions)
                )


def stale_ff_bucket(engine):
    """Clear one FF probe bucket's watch port: the group keeps emitting
    into a dead link instead of failing over (stale liveness)."""
    for switch in engine.switches.values():
        for group in switch.groups.groups():
            if group.group_type is not GroupType.FF:
                continue
            for bucket in group.buckets:
                if bucket.watch_port is not None:
                    object.__setattr__(bucket, "watch_port", None)
                    return


def rotate_counter(engine):
    """Rotate one SELECT group's buckets so bucket j writes j+1: the
    fetch-and-increment contract (bucket j writes j) is broken."""
    for switch in engine.switches.values():
        for group in switch.groups.groups():
            if group.group_type is GroupType.SELECT:
                object.__setattr__(
                    group,
                    "buckets",
                    tuple(group.buckets[1:]) + (group.buckets[0],),
                )
                return


def drop_found_report(engine):
    """Delete the verify-phase FOUND-report rules: a blackhole is walked
    right past without ever being named."""
    for switch in engine.switches.values():
        for table in switch.tables.values():
            kept = [
                e
                for e in table._entries
                if not e.cookie.startswith("vcheck:probe_report")
            ]
            if len(kept) != len(table._entries):
                table._entries = kept
                table._sorted = False


#: (mutator, service factory, checker config, expected invariant id).
SEEDED_FAULTS = [
    (drop_parent_rules, SnapshotService, dict(max_failures=0), "MC004"),
    (swap_par_cur, SnapshotService, dict(max_failures=0), "MC004"),
    (stale_ff_bucket, SnapshotService, dict(max_failures=1), "MC006"),
    (rotate_counter, BlackholeService, dict(max_failures=0), "MC003"),
    (drop_found_report, BlackholeService, dict(max_failures=1), "MC005"),
]


# --------------------------------------------------------------------- #
# Satellite 1: seedable smart-counter cursors                           #
# --------------------------------------------------------------------- #


class TestCounterSeeding:
    def test_build_with_start(self):
        group = build_counter_group(7, 8, start=5)
        assert counter_value(group) == 5
        assert [counter_bucket_value(group, j) for j in range(8)] == list(
            range(8)
        )

    def test_seed_counter(self):
        group = build_counter_group(7, 4)
        seed_counter(group, 3)
        assert counter_value(group) == 3
        with pytest.raises(ValueError):
            seed_counter(group, 4)
        with pytest.raises(ValueError):
            build_counter_group(7, 4, start=-1)

    def test_blackhole_counter_start_compiles(self):
        service = BlackholeService(counter_start=5)
        engine = compiled(ring(4), service)
        cursors = {
            g.rr_next
            for switch in engine.switches.values()
            for g in switch.groups.groups()
            if g.group_type is GroupType.SELECT
        }
        assert cursors == {5}
        with pytest.raises(ValueError):
            BlackholeService(counter_start=16)

    def test_seeded_cursor_is_deterministic(self):
        """Two networks with the same counter_start report identically."""
        outs = []
        for _ in range(2):
            engine = compiled(ring(4), BlackholeService(counter_start=3))
            engine.trigger(0, {FIELD_REPEAT: 3})
            engine.trigger(0, {FIELD_REPEAT: 0})
            outs.append(
                [(n, sorted(p.fields.items())) for n, p in engine.reports]
            )
        assert outs[0] == outs[1]


# --------------------------------------------------------------------- #
# Satellite 2: scheduled mid-traversal failures                         #
# --------------------------------------------------------------------- #


class TestStepScheduledFailures:
    def test_hook_for_past_step_fires_immediately(self):
        network = Network(ring(4))
        fired = []
        network.at_packet_step(0, lambda: fired.append("now"))
        assert fired == ["now"]
        with pytest.raises(ValueError):
            network.at_packet_step(-1, lambda: None)

    def test_fail_edge_mid_traversal(self):
        from repro.core.services.snapshot import decode_snapshot

        topology = ring(4)
        network = Network(topology)
        engine = make_engine(network, SnapshotService(), "compiled")
        observed = []
        fail_edge_after_steps(network, 2, 2)
        network.at_packet_step(
            2, lambda: observed.append(network.links[2].up)
        )
        engine.trigger(0)
        assert observed == [False]  # killed exactly at step 2
        assert not network.links[2].up
        # The sweep reroutes around the failure and still reports; the dead
        # link is (correctly) absent from the collected snapshot.
        assert engine.reports
        _nodes, links = decode_snapshot(engine.reports[0][1])
        assert len(links) == topology.num_edges - 1

    def test_fail_after_parent_link_loses_packet(self):
        """Failing the DFS tree edge *behind* the packet (step 3: the
        packet has already descended across it) kills the parent return —
        the paper-documented loss mode the completion invariant excuses."""
        topology = ring(4)
        network = Network(topology)
        engine = make_engine(network, SnapshotService(), "compiled")
        fail_edge_after_steps(network, 2, 3)
        engine.trigger(0)
        assert not engine.reports

    def test_fail_link_after_steps_validates(self):
        network = Network(ring(4))
        with pytest.raises(ValueError):
            fail_edge_after_steps(network, 99, 1)
        with pytest.raises(ValueError):
            fail_link_after_steps(network, 0, 2, 1)  # no chord in a ring


# --------------------------------------------------------------------- #
# Scenario construction                                                 #
# --------------------------------------------------------------------- #


class TestScenarios:
    def test_blackhole_placements(self):
        topo = ring(4)
        scenarios = scenarios_for(BlackholeService(), topo, 0, 1)
        assert len(scenarios) == 1 + topo.num_edges  # clean + each edge
        assert all(not s.allow_failures for s in scenarios)
        probe, verify = scenarios[0].triggers
        assert dict(probe.fields)[FIELD_REPEAT] == 3
        assert verify.at_quiescence

    def test_anycast_includes_unserved_gid(self):
        scenarios = scenarios_for(
            AnycastService({1: {2}, 5: {3}}), ring(4), 0, 1
        )
        gids = [s.gid for s in scenarios]
        assert gids == [1, 5, 6]  # configured groups + one unserved

    def test_chunked_carries_reccap(self):
        (scenario,) = scenarios_for(
            ChunkedSnapshotService(max_records=4), ring(4), 0, 1
        )
        assert dict(scenario.triggers[0].fields)[FIELD_RECCAP] == 4

    def test_ttl_budget_matches_topology(self):
        topo = grid(3, 3)
        scenarios = scenarios_for(BlackholeTtlService(), topo, 0, 1)
        assert (
            dict(scenarios[0].triggers[0].fields)[FIELD_TTL]
            == 4 * topo.num_edges + 4
        )

    def test_hop_bound_covers_real_traversal(self):
        """The MC001 budget must admit the exact Table 2 message count."""
        from repro.analysis.complexity import dfs_message_count

        for topo in (ring(4), star(5), abilene(), grid(3, 3)):
            assert hop_bound("snapshot", topo) >= dfs_message_count(
                topo.num_nodes, topo.num_edges
            )


# --------------------------------------------------------------------- #
# The invariant registry                                                #
# --------------------------------------------------------------------- #


class TestInvariantRegistry:
    def test_known_ids_registered(self):
        for inv_id in (
            "MC001",
            "MC002",
            "MC003",
            "MC004",
            "MC005",
            "MC006",
            "MC007",
            "MC008",
            "MC009",
        ):
            assert inv_id in INVARIANTS
            assert INVARIANTS[inv_id].doc

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError):

            @invariant("MC001", "dup", "step")
            def _dup(ctx, state, info):  # pragma: no cover
                return []

    def test_bad_scope_rejected(self):
        with pytest.raises(ValueError):
            invariant("MC999", "bad", "sometimes")

    def test_disable_suppresses(self):
        engine = compiled(ring(4), SnapshotService())
        drop_parent_rules(engine)
        report = run_check(
            engine.switches,
            ring(4),
            engine.service,
            CheckConfig(max_failures=0, disable={"MC004"}),
        )
        assert not any(
            c.violation.invariant == "MC004" for c in report.counterexamples
        )


# --------------------------------------------------------------------- #
# Clean services stay clean                                             #
# --------------------------------------------------------------------- #


def _service_matrix():
    return [
        pytest.param(PlainTraversalService, id="plain"),
        pytest.param(SnapshotService, id="snapshot"),
        pytest.param(
            lambda: ChunkedSnapshotService(max_records=4), id="chunked"
        ),
        pytest.param(lambda: AnycastService({1: {2}}), id="anycast"),
        pytest.param(
            lambda: PriocastService({1: {1: 10, 2: 20}}), id="priocast"
        ),
        pytest.param(BlackholeService, id="blackhole"),
        pytest.param(BlackholeTtlService, id="blackhole_ttl"),
    ]


@pytest.mark.parametrize("factory", _service_matrix())
@pytest.mark.parametrize(
    "topology", [ring(4), star(5)], ids=lambda t: t.name
)
def test_clean_service_checks_clean(topology, factory):
    report = check_engine(
        make_engine(Network(topology), factory(), "compiled"),
        CheckConfig(max_failures=1),
    )
    assert report.exit_code == 0, report.format_text(topology)
    assert report.states > 0


def test_abilene_snapshot_under_failures_clean():
    report = check_engine(
        make_engine(Network(abilene()), SnapshotService(), "compiled"),
        CheckConfig(max_failures=1),
    )
    assert report.exit_code == 0, report.format_text(abilene())


class TestCleanDeployment:
    """``tests/mutants.py`` runs this class as the killer of its FFORDER
    and RRADVANCE mutants: the switch and the checker share one pipeline
    walk (:func:`repro.openflow.switch.walk`) and one fast-failover
    bucket choice (:func:`repro.openflow.group.first_live_bucket`), so a
    bug in either must show in the checker's own verdict on a deployment
    that is otherwise correct.  Blackhole detection reads its smart
    counters, so its check sees a SELECT group that does not advance."""

    def test_snapshot_ring_checks_clean(self):
        report = check_engine(
            compiled(ring(4), SnapshotService()), CheckConfig(max_failures=0)
        )
        assert report.exit_code == 0, (
            f"clean deployment fails its check: {report.summary()}"
        )

    def test_blackhole_ring_checks_clean(self):
        report = check_engine(
            compiled(ring(4), BlackholeService()), CheckConfig(max_failures=1)
        )
        assert report.exit_code == 0, (
            f"clean deployment fails its check: {report.summary()}"
        )


# --------------------------------------------------------------------- #
# The checker's step is the switch's step, and leaves the switch alone  #
# --------------------------------------------------------------------- #


def _all_services():
    return _service_matrix() + [
        pytest.param(CriticalNodeService, id="critical")
    ]


@pytest.mark.parametrize("factory", _all_services())
@pytest.mark.parametrize(
    "topology", [ring(4), star(5), abilene()], ids=lambda t: t.name
)
def test_checker_step_equals_switch_process(topology, factory, monkeypatch):
    """Every step a clean exploration takes, one-failure branches included,
    emits what :meth:`Switch.process` emits for the same packet, arrival
    port, port liveness and SELECT cursors: the same ``(port, nonzero
    fields, stack)`` outputs in the same order."""
    steps = {}
    step_switch = modelcheck.step_switch

    def recording_step(switch, in_port, fields, stack, port_live, cursors):
        live = tuple(port_live(p) for p in range(1, switch.num_ports + 1))
        key = (
            switch.node_id, in_port, fields, stack, live,
            tuple(sorted(cursors.items())),
        )
        outcome = step_switch(switch, in_port, fields, stack, port_live, cursors)
        steps[key] = outcome
        return outcome

    monkeypatch.setattr(modelcheck, "step_switch", recording_step)
    report = check_engine(
        compiled(topology, factory()), CheckConfig(max_failures=1)
    )
    assert report.exit_code == 0, report.format_text(topology)
    assert steps

    reference = make_engine(
        Network(topology), factory(), "compiled", fast_path=False
    )
    reference.install()
    initial = {
        (node, group.group_id): group.rr_next
        for node, switch in reference.switches.items()
        for group in switch.groups.groups()
    }
    for key, outcome in steps.items():
        node, in_port, fields, stack, live, cursors = key
        assert outcome.error is None
        switch = reference.switches[node]
        switch.set_liveness(lambda port, live=live: live[port - 1])
        cursor = dict(cursors)
        for group in switch.groups.groups():
            key = (node, group.group_id)
            group.rr_next = cursor.get(key, initial[key])
        outputs = switch.process(Packet(dict(fields), list(stack)), in_port)
        assert [
            (port, observe(header), label_stack)
            for port, header, label_stack, _alt in outcome.emissions
        ] == [
            (out.port, observe(out.packet.fields), tuple(out.packet.stack))
            for out in outputs
        ], (node, in_port, observe(dict(fields)), stack, live, cursors)


@pytest.mark.parametrize("factory", _all_services())
def test_check_engine_leaves_the_engine_untouched(factory):
    """The checker reads the switches it steps and changes nothing on them:
    no counter, cursor, program or packet id moves."""
    engine = compiled(ring(4), factory())

    def fingerprint():
        out = []
        for node, switch in sorted(engine.switches.items()):
            out.append((
                node,
                switch.packets_processed,
                switch.table_misses,
                switch.inventory_digest(),
            ))
            out.extend(
                (node, table_id, entry.seq, entry.packet_count)
                for table_id, entry in switch.iter_entries()
            )
            out.extend(
                (
                    node,
                    group.group_id,
                    group.rr_next,
                    group.packet_count,
                    tuple(bucket.packet_count for bucket in group.buckets),
                )
                for group in switch.groups.groups()
            )
        return out

    before = fingerprint()
    ids = engine.network.ids
    packet_id = ids.allocate()
    report = check_engine(engine, CheckConfig(crash=True))
    assert report.exit_code == 0, report.format_text(ring(4))
    assert ids.allocate() == packet_id + 1
    assert fingerprint() == before


def _faulty_switch(error: str) -> Switch:
    """A switch whose pipeline hits the structural fault *error* on its
    first packet."""
    switch = Switch(0, num_ports=2)
    kind = error.split(":")[0]
    if kind in ("missing-table", "goto-backward", "pipeline-limit"):
        switch.install(0, Match(), Instructions(goto_table=1))
        switch.install(1, Match(), Instructions(goto_table=2))
        if kind == "goto-backward":
            switch.install(2, Match(), Instructions(goto_table=0))
        if kind == "pipeline-limit":
            switch.install(2, Match(), Instructions())
            switch.MAX_PIPELINE_STEPS = 2
        return switch
    group_id = 9 if kind == "unknown-group" else 1
    switch.install(0, Match(), Instructions([GroupAction(group_id)]))
    if kind == "group-loop":
        loop = Bucket([GroupAction(1)])
        switch.add_group(Group(1, GroupType.INDIRECT, [loop]))
    elif kind in ("empty-select", "select-cursor"):
        buckets = [] if kind == "empty-select" else [Bucket([]), Bucket([])]
        switch.add_group(Group(1, GroupType.SELECT, buckets, rr_next=5))
    return switch


#: step_switch's error -> (what Switch.process raises, its message).
PIPELINE_FAULTS = {
    "missing-table:2": (TableError, "switch 0: goto to missing table 2"),
    "goto-backward:2->0": (
        PipelineError, "switch 0: goto_table must move forward (2 -> 0)"
    ),
    "pipeline-limit": (
        PipelineError, "switch 0: pipeline exceeded 2 steps (rule loop?)"
    ),
    "group-loop:1": (GroupError, "group chaining loop through group 1"),
    "unknown-group:9": (GroupError, "unknown group id 9"),
    "empty-select:1": (GroupError, "SELECT group 1 has no buckets"),
    "select-cursor:1:5": (GroupError, "SELECT group 1 cursor 5 out of range"),
}


@pytest.mark.parametrize("error", sorted(PIPELINE_FAULTS))
def test_structural_faults_name_their_kind(error):
    """The one pipeline walk raises each structural fault once: the checker's
    step reports it as ``kind:detail`` (the MC008 text), and
    :meth:`Switch.process` raises it with its type, message, kind and detail
    — on the reference walk and on the compiled fast path alike."""
    outcome = modelcheck.step_switch(
        _faulty_switch(error), 1, (), (), lambda port: True, {}
    )
    assert outcome.error == error
    exc_type, message = PIPELINE_FAULTS[error]
    kind, _, detail = error.partition(":")
    for fast_path in (False, True):
        switch = _faulty_switch(error)
        if fast_path:
            switch.enable_fast_path()
        with pytest.raises(exc_type) as raised:
            switch.process(Packet(), 1)
        assert str(raised.value) == message, f"fast_path={fast_path}"
        got = (raised.value.kind, raised.value.detail)
        assert got == (kind, detail), f"fast_path={fast_path}"


# --------------------------------------------------------------------- #
# Satellite 3: the seeded-violation matrix                              #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "mutate,factory,config,expected",
    SEEDED_FAULTS,
    ids=[m.__name__ for m, _f, _c, _e in SEEDED_FAULTS],
)
def test_seeded_fault_caught_and_replays(mutate, factory, config, expected):
    topology = ring(4)
    engine = compiled(topology, factory())
    mutate(engine)
    report = run_check(
        engine.switches, topology, engine.service, CheckConfig(**config)
    )
    ids = {c.violation.invariant for c in report.counterexamples}
    assert expected in ids, f"{mutate.__name__}: got {ids or 'no violations'}"

    cex = next(
        c
        for c in report.counterexamples
        if c.violation.invariant == expected
    )
    service = factory()
    result = replay_counterexample(cex, topology, service, mutate=mutate)
    confirmed, evidence = confirms_violation(result, cex, topology, service)
    assert confirmed, f"{mutate.__name__}: replay did not confirm: {evidence}"


def test_counterexample_traces_are_minimal():
    """The minimizer must strip failure actions a violation doesn't need."""
    topology = ring(4)
    engine = compiled(topology, SnapshotService())
    drop_parent_rules(engine)  # violates with zero failures
    report = run_check(
        engine.switches, topology, engine.service, CheckConfig(max_failures=1)
    )
    cex = next(
        c
        for c in report.counterexamples
        if c.violation.invariant == "MC004"
    )
    assert not any(a[0] == "fail" for a in cex.trace)


# --------------------------------------------------------------------- #
# Report plumbing                                                       #
# --------------------------------------------------------------------- #


class TestReport:
    def test_exit_codes(self):
        topology = ring(4)
        clean = check_engine(
            make_engine(Network(topology), SnapshotService(), "compiled"),
            CheckConfig(max_failures=0),
        )
        assert clean.exit_code == 0

        engine = compiled(topology, SnapshotService())
        drop_parent_rules(engine)
        bad = run_check(
            engine.switches,
            topology,
            engine.service,
            CheckConfig(max_failures=0),
        )
        assert bad.exit_code == 1

        tiny = check_engine(
            make_engine(Network(topology), SnapshotService(), "compiled"),
            CheckConfig(max_failures=1, max_states=3),
        )
        assert tiny.exit_code == 2 and tiny.exhausted

    def test_json_round_trip(self):
        engine = compiled(ring(4), SnapshotService())
        swap_par_cur(engine)
        report = run_check(
            engine.switches,
            ring(4),
            engine.service,
            CheckConfig(max_failures=0),
        )
        payload = json.loads(report.to_json())
        assert payload["exit_code"] == 1
        (cex,) = payload["counterexamples"][:1]
        assert cex["violation"]["invariant"].startswith("MC")
        assert cex["trace"][0][0] == "inject"

    def test_cli_check(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "check",
                    "--topology",
                    "ring",
                    "--nodes",
                    "4",
                    "--service",
                    "snapshot",
                    "--max-failures",
                    "1",
                ]
            )
            == 0
        )
        assert "clean" in capsys.readouterr().out

    def test_cli_check_json(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "check",
                    "--topology",
                    "star",
                    "--nodes",
                    "5",
                    "--service",
                    "anycast",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["topology"] == "star-5"
        assert payload["counterexamples"] == []


# --------------------------------------------------------------------- #
# MC009: supervised epochs deliver at most once                          #
# --------------------------------------------------------------------- #


class TestEpochAtMostOnce:
    """MC009's safety half on synthetic terminal states, and its liveness
    half (the supervisor ledger) against real supervised runs."""

    @staticmethod
    def _violations(service, reports=(), deliveries=()):
        from types import SimpleNamespace

        ctx = SimpleNamespace(service=service)
        state = SimpleNamespace(reports=tuple(reports),
                                deliveries=tuple(deliveries))
        return list(INVARIANTS["MC009"].check(ctx, state))

    def test_single_completion_per_epoch_clean(self):
        reports = [
            (0, (("epoch", 1),), ()),
            (0, (("epoch", 2),), ()),
        ]
        assert self._violations(SnapshotService(), reports) == []

    def test_duplicate_epoch_report_flagged(self):
        reports = [
            (0, (("epoch", 3),), ()),
            (1, (("epoch", 3),), ()),
        ]
        violations = self._violations(SnapshotService(), reports)
        assert len(violations) == 1
        assert "epoch 3" in violations[0].message

    def test_epoch_zero_exempt(self):
        # Unsupervised traffic (epoch 0) may report as often as it likes.
        reports = [(0, (), ()), (1, (), ()), (2, (("epoch", 0),), ())]
        assert self._violations(SnapshotService(), reports) == []

    def test_anycast_counts_deliveries(self):
        deliveries = [(3, (("epoch", 4),)), (5, (("epoch", 4),))]
        violations = self._violations(
            AnycastService({1: {3, 5}}), deliveries=deliveries
        )
        assert len(violations) == 1

    def test_blackhole_found_multiplicity_tolerated(self):
        # Phase B may copy several FOUND reports per walk; only BH_DONE is
        # the completion observable for the blackhole services.
        reports = [
            (0, (("bh", 1), ("epoch", 6)), ()),
            (2, (("bh", 1), ("epoch", 6)), ()),
        ]
        assert self._violations(BlackholeService(), reports) == []
        done_twice = [
            (0, (("bh", 2), ("epoch", 6)), ()),
            (0, (("bh", 2), ("epoch", 6)), ()),
        ]
        assert len(self._violations(BlackholeService(), done_twice)) == 1

    def test_clean_supervised_runs_satisfy_the_ledger(self):
        from repro.control.supervisor import SupervisedRuntime, check_epoch_ledger

        net = Network(grid(3, 3))
        runtime = SupervisedRuntime(net)
        outcomes = [
            runtime.snapshot(0).supervision,
            runtime.critical(4).supervision,
            runtime.detect_blackhole(0).supervision,
            runtime.anycast(0, 1, {1: {8}}).supervision,
        ]
        for outcome in outcomes:
            assert check_epoch_ledger(outcome) == []

    def test_degraded_supervised_run_satisfies_the_ledger(self):
        from dataclasses import replace

        from repro.control.supervisor import (
            DEFAULT_RETRY,
            SupervisedRuntime,
            SupervisorConfig,
            check_epoch_ledger,
        )

        net = Network(ring(5))
        net.links[0].set_blackhole()
        config = SupervisorConfig(retry=replace(DEFAULT_RETRY, max_attempts=2))
        runtime = SupervisedRuntime(net, config=config)
        snap = runtime.snapshot(0)
        assert snap.degraded
        assert check_epoch_ledger(snap.supervision) == []


# --------------------------------------------------------------------- #
# Controller crash scenarios (MC010)                                    #
# --------------------------------------------------------------------- #


class TestCrashScenarios:
    """MC010: no stale epoch crosses a controller crash/resync boundary."""

    def test_crash_flag_adds_scenarios(self):
        topo = ring(4)
        service = SnapshotService()
        base = scenarios_for(service, topo, 0)
        withc = scenarios_for(service, topo, 0, crash=True)
        assert [s.name for s in base] == ["snapshot"]
        assert [s.name for s in withc] == ["snapshot", "snapshot:crash"]
        crash = withc[1]
        assert crash.crash == (1, 3)
        assert [t.after_env for t in crash.triggers] == [False, True]
        assert [dict(t.fields)["epoch"] for t in crash.triggers] == [1, 3]

    def test_crash_scenarios_round_trip_json(self):
        from repro.analysis.modelcheck import _crash_scenario

        payload = _crash_scenario("snapshot", 0).to_dict()
        assert payload["crash"] == [1, 3]
        assert payload["triggers"][1]["after_env"] is True
        json.dumps(payload)

    @pytest.mark.parametrize(
        "factory",
        [
            pytest.param(SnapshotService, id="snapshot"),
            pytest.param(PlainTraversalService, id="plain"),
        ],
    )
    def test_real_gate_survives_the_crash(self, factory):
        report = check_engine(
            make_engine(Network(ring(4)), factory(), "compiled"),
            CheckConfig(max_failures=0, crash=True),
        )
        assert report.exit_code == 0, report.format_text(ring(4))
        assert report.scenarios == 2

    def test_misplaced_gate_caught_by_mc010(self):
        from repro.analysis.modelcheck import (
            CRASH_EPOCHS,
            Explorer,
            ModelContext,
            Scenario,
            TriggerSpec,
            active_invariants,
        )
        from repro.core.fields import FIELD_EPOCH

        topo = ring(4)
        engine = compiled(topo, SnapshotService())
        pre, post = CRASH_EPOCHS
        # The gate guards node 2 while the traversal roots at node 0: the
        # stale straggler reports at an unguarded origin.
        scenario = Scenario(
            "snapshot:crash-misplaced-gate",
            "snapshot",
            2,
            (
                TriggerSpec(0, ((FIELD_EPOCH, pre),), label="pre-crash"),
                TriggerSpec(
                    0, ((FIELD_EPOCH, post),), after_env=True, label="retry"
                ),
            ),
            crash=(pre, post),
        )
        ctx = ModelContext(topo, engine.service, scenario)
        explorer = Explorer(
            engine.switches,
            topo,
            scenario,
            ctx,
            CheckConfig(max_failures=0, crash=True),
            active_invariants(),
        )
        found, _explored, _exhausted = explorer.explore()
        mc010 = [c for c in found if c.violation.invariant == "MC010"]
        assert mc010, [c.violation.format() for c in found]
        trace = mc010[0].trace
        # The crash survives minimization (only failures and extra triggers
        # are deletable) and renders readably.
        assert ("crash",) in trace
        from repro.analysis.modelcheck import format_action

        assert "crash" in format_action(("crash",))

    def test_crash_traces_refuse_replay(self):
        from repro.analysis.modelcheck import Counterexample, Violation
        from repro.analysis.modelcheck import _crash_scenario

        cex = Counterexample(
            scenario=_crash_scenario("snapshot", 0),
            violation=Violation("MC010", "crash-at-most-once", "synthetic"),
            trace=(("inject", 0), ("crash",), ("inject", 1)),
        )
        with pytest.raises(ValueError, match="crash"):
            replay_counterexample(cex, ring(4), SnapshotService())

    def test_cli_crash_flag(self, capsys):
        from repro.cli import main

        code = main([
            "check", "--topology", "ring", "--nodes", "4",
            "--service", "snapshot", "--crash",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 scenario(s)" in out


class TestSwitchCrashScenarios:
    def test_scenarios_enumerate_non_root_victims(self):
        scenarios = scenarios_for(
            SnapshotService(), ring(4), 0, max_failures=0, switch_crash=True
        )
        sw = [s for s in scenarios if s.sw_crash is not None]
        assert [s.sw_crash for s in sw] == [1, 2, 3]
        for scenario in sw:
            assert not scenario.allow_failures
            assert scenario.triggers[1].after_env

    def test_scenario_round_trips_json(self):
        from repro.analysis.modelcheck import _switch_crash_scenarios

        payload = _switch_crash_scenarios("snapshot", 0, ring(4))[0].to_dict()
        assert payload["sw_crash"] == 1
        assert payload["triggers"][1]["after_env"] is True
        json.dumps(payload)

    def test_switch_crash_traces_refuse_replay(self):
        from repro.analysis.modelcheck import (
            Counterexample,
            Violation,
            _switch_crash_scenarios,
        )

        cex = Counterexample(
            scenario=_switch_crash_scenarios("snapshot", 0, ring(4))[1],
            violation=Violation("MC011", "switch-crash-under-claims", "synthetic"),
            trace=(
                ("inject", 0), ("step", 0), ("sw-crash", 2), ("sw-reboot", 2),
                ("inject", 1),
            ),
        )
        with pytest.raises(ValueError, match="sw-crash"):
            replay_counterexample(cex, ring(4), SnapshotService())

    def test_sw_losses_are_environment_losses(self):
        from repro.analysis.modelcheck import ENVIRONMENT_LOSSES

        assert {"sw_down", "sw_bare"} <= ENVIRONMENT_LOSSES

    def test_action_formatting(self):
        from repro.analysis.modelcheck import format_action

        assert "crashes" in format_action(("sw-crash", 2))
        assert "bare" in format_action(("sw-reboot", 2))

    @pytest.mark.parametrize(
        "factory",
        [
            pytest.param(SnapshotService, id="snapshot"),
            pytest.param(PlainTraversalService, id="plain"),
        ],
    )
    def test_real_programs_only_under_claim(self, factory):
        report = check_engine(
            compiled(ring(4), factory()),
            CheckConfig(max_failures=0, switch_crash=True),
        )
        assert report.exit_code == 0, report.format_text(ring(4))
        assert report.scenarios == 4  # base + one per non-root victim

    def test_crash_mid_traversal_drops_then_bare_switch_miss_drops(self):
        from repro.analysis.modelcheck import (
            Explorer,
            ModelContext,
            _switch_crash_scenarios,
            active_invariants,
        )

        topo = ring(4)
        engine = compiled(topo, SnapshotService())
        scenario = _switch_crash_scenarios("snapshot", 0, topo)[1]  # victim 2
        ctx = ModelContext(topo, engine.service, scenario)
        explorer = Explorer(
            engine.switches, topo, scenario, ctx,
            CheckConfig(max_failures=0), active_invariants(),
        )
        state = explorer.initial_state()
        state, _ = explorer.apply(state, ("inject", 0))
        state, _ = explorer.apply(state, ("sw-crash", 2))
        while state.packets or state.next_trigger < len(scenario.triggers):
            if state.packets:
                state, _ = explorer.apply(
                    state, ("step", state.packets[0].pid)
                )
            elif state.env_fired == 1:
                state, _ = explorer.apply(state, ("sw-reboot", 2))
            else:
                state, _ = explorer.apply(state, ("inject", state.next_trigger))
        kinds = [loss[0] for loss in state.losses]
        assert kinds == ["sw_down", "sw_bare"]
        assert state.reports == ()  # pure under-claim, nothing fabricated
        assert explorer.terminal_violations(state) == []


class TestMC011Fires:
    def synthetic(self, **overrides):
        from repro.analysis.modelcheck import (
            GlobalState,
            ModelContext,
            _switch_crash_scenarios,
        )

        topo = ring(4)
        engine = compiled(topo, SnapshotService())
        scenario = _switch_crash_scenarios("snapshot", 0, topo)[1]  # victim 2
        ctx = ModelContext(topo, engine.service, scenario)
        fields = {
            "packets": (),
            "live": frozenset(range(topo.num_edges)),
            "cursors": (),
            "failures_left": 0,
            "next_trigger": 2,
            "extra_left": 0,
            "next_pid": 1,
            "reports": (),
            "deliveries": (),
            "losses": (),
            "env_mark": (0, 0),
        }
        fields.update(overrides)
        return ctx, GlobalState(**fields)

    def violations(self, ctx, state):
        return list(INVARIANTS["MC011"].check(ctx, state))

    def test_vacuous_without_a_fired_crash(self):
        ctx, state = self.synthetic(
            env_mark=None, reports=((2, (("snap_done", 1),), ()),)
        )
        assert self.violations(ctx, state) == []

    def test_report_from_the_victim_is_fabrication(self):
        ctx, state = self.synthetic(reports=((2, (), ()),))
        found = self.violations(ctx, state)
        assert any("stay silent" in v.message for v in found)

    def test_delivery_from_the_victim_is_fabrication(self):
        ctx, state = self.synthetic(deliveries=((2, ()),))
        found = self.violations(ctx, state)
        assert any("stay silent" in v.message for v in found)

    def test_sw_loss_at_non_victim_is_flagged(self):
        ctx, state = self.synthetic(losses=(("sw_down", 1, 1, -1),))
        found = self.violations(ctx, state)
        assert any("victim is 2" in v.message for v in found)

    def test_snapshot_over_claim_is_flagged(self):
        # A decoded stream naming a nonexistent link (0-2 is not a ring
        # edge) is a wrong result; a partial stream is a fine under-claim.
        ghost_stack = (
            ("visit", 0, 0),
            ("out", 2),
            ("visit", 2, 2),
        )
        ctx, state = self.synthetic(
            reports=((0, (("snapdone", 1),), ghost_stack),)
        )
        found = self.violations(ctx, state)
        assert any("nonexistent" in v.message for v in found)

    def test_honest_under_claims_pass(self):
        ctx, state = self.synthetic(
            losses=(("sw_down", 2, 1, -1), ("sw_bare", 2, 1, -1)),
            reports=((0, (), ()),),  # root-side report, no ghost content
        )
        assert self.violations(ctx, state) == []
