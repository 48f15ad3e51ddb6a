"""Switch crash/reboot semantics, table capacity, and re-adoption."""

from __future__ import annotations

import pytest

from repro.control.channel import ControlChannel
from repro.control.supervisor import (
    READOPT_DARK,
    READOPT_FAILED,
    READOPT_REPROGRAMMED,
    SupervisedRuntime,
    SupervisorConfig,
)
from repro.core import compiler
from repro.core.compiler import compile_service
from repro.openflow.actions import Instructions, Output, SetField
from repro.openflow.errors import InstallError, TableError, TableFullError
from repro.openflow.group import Bucket, Group, GroupType
from repro.openflow.match import Match
from repro.openflow.packet import Packet
from repro.openflow.switch import Switch, SwitchFaultConfig
from repro.net.simulator import Network
from repro.net.topology import ring, torus


def make_switch(num_ports=4):
    return Switch(1, num_ports, liveness=lambda p: True)


class TestCrashReboot:
    def test_crashed_switch_drops_everything(self):
        switch = make_switch()
        switch.install(0, Match(), Instructions(apply_actions=(Output(2),)))
        assert [o.port for o in switch.process(Packet(), in_port=1)] == [2]
        switch.crash()
        assert switch.down
        assert switch.process(Packet(), in_port=1) == []

    def test_crashed_switch_drops_batches(self):
        switch = make_switch()
        switch.install(0, Match(), Instructions(apply_actions=(Output(2),)))
        switch.crash()
        got = {}
        switch.process_batch(
            [(Packet(), 1), (Packet(), 1)],
            lambda index, outs: got.__setitem__(index, outs),
        )
        assert got == {0: [], 1: []}

    def test_crash_is_idempotent_and_preserves_state_until_reboot(self):
        switch = make_switch()
        switch.install(0, Match(), Instructions(apply_actions=(Output(2),)))
        before = switch.inventory_digest()
        switch.crash()
        switch.crash()
        # The dead box still *holds* its config; reboot is what loses it.
        assert switch.inventory_digest() == before

    def test_reboot_loses_tables_and_groups(self):
        switch = make_switch()
        switch.install(0, Match(), Instructions(apply_actions=(Output(2),)))
        switch.groups.add(
            Group(1, GroupType.ALL, [Bucket(actions=(Output(2),))])
        )
        switch.crash()
        switch.reboot()
        assert not switch.down
        assert switch.tables == {}
        assert list(switch.groups.groups()) == []
        # Bare table 0 miss-drops (does not raise).
        assert switch.process(Packet(), in_port=1) == []
        assert switch.table_misses == 1

    def test_reboot_without_crash_is_a_noop(self):
        switch = make_switch()
        switch.install(0, Match(), Instructions(apply_actions=(Output(2),)))
        before = switch.inventory_digest()
        switch.reboot()
        assert switch.inventory_digest() == before

    def test_reboot_invalidates_fast_path(self):
        # After a reboot, fresh FlowTables restart their version counters;
        # the reboot must invalidate the compiled cache so stale programs
        # can never be served for colliding (table-id, version) keys.
        switch = make_switch()
        switch.enable_fast_path()
        switch.install(0, Match(), Instructions(apply_actions=(Output(2),)))
        assert [o.port for o in switch.process(Packet(), in_port=1)] == [2]
        switch.crash()
        switch.reboot()
        assert switch.process(Packet(), in_port=1) == []
        switch.install(0, Match(), Instructions(apply_actions=(Output(3),)))
        assert [o.port for o in switch.process(Packet(), in_port=1)] == [3]


class TestFlowTableCapacity:
    def install_n(self, switch, n, priority=5):
        for i in range(n):
            switch.install(
                0,
                Match(x=i),
                Instructions(apply_actions=(Output(1),)),
                priority=priority,
            )

    def test_capacity_validates(self):
        switch = make_switch()
        with pytest.raises(TableError):
            switch.table(0).set_capacity(0)

    def test_full_table_raises_without_evict(self):
        switch = make_switch()
        switch.table(0).set_capacity(2)
        self.install_n(switch, 2)
        with pytest.raises(TableFullError) as err:
            self.install_n(switch, 1)
        assert err.value.table_id == 0
        assert err.value.capacity == 2
        assert len(switch.table(0)) == 2

    def test_evicts_lowest_priority_oldest_first(self):
        switch = make_switch()
        table = switch.table(0)
        table.set_capacity(2, evict=True)
        switch.install(0, Match(x=0), Instructions(), priority=1)
        switch.install(0, Match(x=1), Instructions(), priority=3)
        # Victim must be the priority-1 entry (strictly below incoming 5).
        switch.install(0, Match(x=2), Instructions(), priority=5)
        assert table.evictions == 1
        priorities = sorted(e.priority for e in table.entries())
        assert priorities == [3, 5]

    def test_equal_priority_never_evicted(self):
        # Eviction requires a *strictly* lower-priority victim: an install
        # storm at one priority cannot cannibalize its own rules.
        switch = make_switch()
        switch.table(0).set_capacity(2, evict=True)
        self.install_n(switch, 2, priority=5)
        with pytest.raises(TableFullError):
            self.install_n(switch, 1, priority=5)

    def test_shrink_below_occupancy_applies_on_next_install(self):
        switch = make_switch()
        self.install_n(switch, 4)
        switch.table(0).set_capacity(2)  # allowed; applied going forward
        assert len(switch.table(0)) == 4
        with pytest.raises(TableFullError):
            self.install_n(switch, 1)


class TestSwitchFaultConfig:
    def test_validates(self):
        with pytest.raises(ValueError):
            SwitchFaultConfig(partial_install_prob=1.5).validate()
        with pytest.raises(ValueError):
            SwitchFaultConfig(fail_budget=-1).validate()

    def test_inactive_config_allocates_no_rng(self):
        switch = make_switch()
        switch.set_faults(SwitchFaultConfig())
        assert switch._fault_rng is None

    def test_partial_install_fails_then_budget_exhausts(self):
        donor = make_switch()
        donor.install(0, Match(x=0), Instructions(), priority=1)
        donor.install(0, Match(x=1), Instructions(), priority=1)
        donor.install(1, Match(x=2), Instructions(), priority=1)
        target = make_switch()
        target.set_faults(
            SwitchFaultConfig(
                partial_install_prob=1.0, fail_budget=2, seed=11
            )
        )
        failures = 0
        for _attempt in range(4):
            try:
                target.adopt_program(donor)
            except InstallError:
                failures += 1
        assert failures == 2  # budget, then clean installs
        assert target.inventory_digest() == donor.inventory_digest()

    def test_seeded_faults_are_deterministic(self):
        donor = make_switch()
        for i in range(6):
            donor.install(0, Match(x=i), Instructions(), priority=1)

        def run(seed):
            target = make_switch()
            target.set_faults(
                SwitchFaultConfig(
                    partial_install_prob=0.5, fail_budget=2, seed=seed
                )
            )
            outcomes = []
            for _ in range(4):
                try:
                    target.adopt_program(donor)
                    outcomes.append("ok")
                except InstallError:
                    outcomes.append("fail")
            return outcomes, target.inventory_digest()

        assert run(7) == run(7)

    def test_interrupted_push_leaves_honest_drift(self):
        donor = make_switch()
        for i in range(8):
            donor.install(0, Match(x=i), Instructions(), priority=1)
        target = make_switch()
        target.set_faults(
            SwitchFaultConfig(
                partial_install_prob=1.0, fail_budget=1, seed=3
            )
        )
        with pytest.raises(InstallError):
            target.adopt_program(donor)
        assert target.inventory_digest() != donor.inventory_digest()


class TestDigestCoversEntryActions:
    """Flow entries are digested with their action arguments and the
    metadata mask, as group buckets are."""

    def entry(self, actions=(SetField("v1.cur", 1),), meta=(1, 0xFF)):
        switch = make_switch()
        switch.install(
            0, Match(x=1),
            Instructions(apply_actions=actions, write_metadata=meta), priority=1,
        )
        return switch

    def test_set_field_value_in_digest(self):
        a = self.entry(actions=(SetField("v1.cur", 1),))
        b = self.entry(actions=(SetField("v1.cur", 2),))
        assert a.inventory_digest() != b.inventory_digest(), (
            "blind to a SetField value: equal inventory digests"
        )

    def test_write_metadata_mask_in_digest(self):
        a, b = self.entry(meta=(1, 0xFF)), self.entry(meta=(1, 0xF))
        assert a.inventory_digest() != b.inventory_digest(), (
            "blind to a write-metadata mask: equal inventory digests"
        )


class TestDigestCoversGroups:
    def base(self):
        switch = make_switch()
        switch.install(0, Match(), Instructions(apply_actions=(Output(2),)))
        return switch

    def test_bucket_actions_in_digest(self):
        a, b = self.base(), self.base()
        a.groups.add(Group(1, GroupType.ALL, [Bucket(actions=(Output(2),))]))
        b.groups.add(Group(1, GroupType.ALL, [Bucket(actions=(Output(3),))]))
        assert a.inventory_digest() != b.inventory_digest()

    def test_ff_watch_port_in_digest(self):
        a, b = self.base(), self.base()
        a.groups.add(
            Group(
                1,
                GroupType.FF,
                [Bucket(actions=(Output(2),), watch_port=2)],
            )
        )
        b.groups.add(
            Group(
                1,
                GroupType.FF,
                [Bucket(actions=(Output(2),), watch_port=3)],
            )
        )
        assert a.inventory_digest() != b.inventory_digest()

    def test_set_field_payload_in_digest(self):
        a, b = self.base(), self.base()
        a.groups.add(
            Group(1, GroupType.ALL, [Bucket(actions=(SetField("x", 1),))])
        )
        b.groups.add(
            Group(1, GroupType.ALL, [Bucket(actions=(SetField("x", 2),))])
        )
        assert a.inventory_digest() != b.inventory_digest()


class TestReadopt:
    def runtime(self, channel=True):
        network = Network(ring(4))
        chan = ControlChannel(network) if channel else None
        runtime = SupervisedRuntime(
            network, mode="compiled", config=SupervisorConfig(), channel=chan
        )
        outcome = runtime.snapshot(0)
        assert outcome.ok
        return network, runtime

    def expected_digest(self, runtime, node):
        supervisor = runtime._supervisors[sorted(runtime._supervisors)[0]]
        expected = compile_service(
            runtime.network,
            node,
            supervisor.service,
            fast_path=getattr(supervisor.engine, "fast_path", None),
        )
        return expected.inventory_digest()

    def test_clean_fleet_converges_in_one_round(self):
        _network, runtime = self.runtime()
        report = runtime.readopt()
        assert report.converged
        assert report.rounds == 1
        assert report.reprogrammed_nodes == []

    def test_rebooted_switch_is_reprogrammed_to_fixed_point(self):
        _network, runtime = self.runtime()
        (victim,) = runtime.switches_at(2)
        victim.crash()
        victim.reboot()
        assert victim.tables == {}
        report = runtime.readopt()
        assert report.converged
        assert report.reprogrammed_nodes == [2]
        assert victim.inventory_digest() == self.expected_digest(runtime, 2)

    def test_dark_switch_reported_not_awaited(self):
        _network, runtime = self.runtime()
        (victim,) = runtime.switches_at(1)
        victim.crash()
        report = runtime.readopt()
        assert report.converged  # dark boxes don't block convergence
        assert report.dark_nodes == [1]
        assert any(a.status == READOPT_DARK for a in report.attempts)

    def test_unreachable_switch_reported_not_awaited(self):
        _network, runtime = self.runtime()
        runtime.channel.disconnect(3)
        report = runtime.readopt()
        assert report.converged
        assert report.unreachable_nodes == [3]

    def test_install_faults_retried_with_ledger(self):
        _network, runtime = self.runtime()
        (victim,) = runtime.switches_at(2)
        victim.crash()
        victim.reboot()
        victim.set_faults(
            SwitchFaultConfig(
                partial_install_prob=1.0, fail_budget=1, seed=5
            )
        )
        report = runtime.readopt()
        assert report.converged
        assert report.rounds == 2
        ledger = [
            (a.round_index, a.status)
            for a in report.attempts
            if a.node == 2
        ]
        assert ledger == [(0, READOPT_FAILED), (1, READOPT_REPROGRAMMED)]
        assert victim.inventory_digest() == self.expected_digest(runtime, 2)

    def test_budget_exhaustion_reports_unconverged(self):
        _network, runtime = self.runtime()
        (victim,) = runtime.switches_at(2)
        victim.crash()
        victim.reboot()
        victim.set_faults(
            SwitchFaultConfig(
                partial_install_prob=1.0, fail_budget=99, seed=5
            )
        )
        report = runtime.readopt(max_rounds=2)
        assert not report.converged
        assert report.drifted_nodes == [2]


class TestCrashMidTraversal:
    def test_seeded_crash_resyncs_to_fixed_point_with_audited_retries(self):
        """The acceptance scenario: a switch crashes mid-traversal, the
        supervised call degrades honestly, and re-adoption converges to the
        compiled program's digest with every retry in the attempt ledger."""
        network = Network(ring(4), seed=17)
        channel = ControlChannel(network)
        runtime = SupervisedRuntime(
            network,
            mode="compiled",
            config=SupervisorConfig(),
            channel=channel,
        )

        def crash_victims() -> None:
            for switch in runtime.switches_at(2):
                switch.crash()

        network.at_packet_step(3, crash_victims)
        outcome = runtime.snapshot(0)
        # The victim ate the traversal mid-flight: degraded, never a hang.
        assert not outcome.ok
        assert outcome.degraded

        (victim,) = runtime.switches_at(2)
        assert victim.down
        victim.reboot()
        victim.set_faults(
            SwitchFaultConfig(
                partial_install_prob=1.0, fail_budget=1, seed=23
            )
        )
        report = runtime.readopt()
        assert report.converged
        ledger = [
            (a.round_index, a.status)
            for a in report.attempts
            if a.node == 2
        ]
        assert ledger == [(0, READOPT_FAILED), (1, READOPT_REPROGRAMMED)]

        supervisor = runtime._supervisors[sorted(runtime._supervisors)[0]]
        expected = compile_service(
            network,
            2,
            supervisor.service,
            fast_path=getattr(supervisor.engine, "fast_path", None),
        )
        assert victim.inventory_digest() == expected.inventory_digest()
        # The fixed point is stable: another sweep reprograms nothing.
        again = runtime.readopt()
        assert again.converged and again.rounds == 1
        assert again.reprogrammed_nodes == []
        # And the recovered fleet serves a full, correct snapshot again.
        healed = runtime.snapshot(0)
        assert healed.ok
        assert healed.links == network.live_port_pairs()


class TestHandshakeWork:
    """The repair handshake pays only for switches whose program changed.

    Counted in work, not wall time: how many switches render their
    ``describe()`` text (the digest's cost) and how many programs are
    compiled, per repair call.
    """

    REPAIRS = {
        "readopt": lambda runtime: runtime.readopt(),
        "resynchronize": lambda runtime: runtime.resynchronize(0),
    }

    @pytest.fixture
    def work(self, monkeypatch):
        described: list[int] = []
        compiled: list[int] = []
        real_describe = Switch.describe
        real_compile = compiler.compile_service

        def describe(self):
            described.append(self.node_id)
            return real_describe(self)

        def compile_service(network, node, service, fast_path=None):
            compiled.append(node)
            return real_compile(network, node, service, fast_path=fast_path)

        monkeypatch.setattr(Switch, "describe", describe)
        monkeypatch.setattr(compiler, "compile_service", compile_service)
        return described, compiled

    def primed(self, repair, work):
        """A torus fleet after one repair call, with the counters reset."""
        network = Network(torus(3, 3))
        runtime = SupervisedRuntime(
            network, mode="compiled", channel=ControlChannel(network)
        )
        assert runtime.snapshot(0).ok
        report = self.REPAIRS[repair](runtime)
        assert report.converged and report.reprogrammed_nodes == []
        for counter in work:
            counter.clear()
        return network, runtime

    @pytest.mark.parametrize("repair", sorted(REPAIRS))
    def test_unchanged_fleet_costs_nothing(self, repair, work):
        _network, runtime = self.primed(repair, work)
        report = self.REPAIRS[repair](runtime)
        assert report.converged and report.reprogrammed_nodes == []
        assert work == ([], [])

    @pytest.mark.parametrize("repair", sorted(REPAIRS))
    def test_rebooted_victims_cost_their_own_work(self, repair, work):
        _network, runtime = self.primed(repair, work)
        victims = [2, 7]
        for node in victims:
            for switch in runtime.switches_at(node):
                switch.crash()
                switch.reboot()
        report = self.REPAIRS[repair](runtime)
        described, compiled = work
        assert report.converged
        assert sorted(report.reprogrammed_nodes) == victims
        # A bare digest, then the post-push re-verify, per victim.
        assert len(described) <= 2 * len(victims)
        assert set(described) <= set(victims)
        assert sorted(compiled) == victims

    def test_degree_change_recompiles_exactly_that_node(self, work):
        network, runtime = self.primed("readopt", work)
        topology = network.topology
        topology.add_link(5, topology.add_node())
        runtime.readopt()
        _described, compiled = work
        assert compiled == [5]
