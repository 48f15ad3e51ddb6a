"""Static verifier: reachability checks and multi-service coverage."""

from __future__ import annotations

import pytest

from repro.analysis.verify import verify_switch
from repro.core.compiler import compile_service, compile_services
from repro.core.services.base import PlainTraversalService
from repro.core.services.blackhole import BlackholeService
from repro.core.services.snapshot import SnapshotService
from repro.net.simulator import Network
from repro.net.topology import ring
from repro.openflow.actions import GroupAction, Instructions, Output
from repro.openflow.group import Bucket, Group, GroupType
from repro.openflow.match import Match


def clean_switch():
    return compile_service(Network(ring(4)), 0, PlainTraversalService())


class TestReachability:
    def test_clean_pipeline_has_no_orphans(self):
        report = verify_switch(clean_switch())
        assert report.ok and not report.warnings

    def test_orphan_table_warned(self):
        switch = clean_switch()
        switch.install(47, Match(), Instructions(), cookie="floating")
        report = verify_switch(switch)
        assert any("unreachable tables" in w for w in report.warnings)

    def test_orphan_group_warned(self):
        switch = clean_switch()
        switch.add_group(
            Group(777, GroupType.FF, [Bucket([Output(1)], watch_port=None)])
        )
        report = verify_switch(switch)
        assert any("never referenced" in w for w in report.warnings)

    def test_chained_groups_count_as_referenced(self):
        switch = clean_switch()
        switch.add_group(
            Group(801, GroupType.INDIRECT, [Bucket([Output(1)])])
        )
        switch.add_group(
            Group(800, GroupType.INDIRECT, [Bucket([GroupAction(801)])])
        )
        switch.install(
            0, Match(chain_test=1),
            Instructions(apply_actions=(GroupAction(800),)), priority=99,
        )
        report = verify_switch(switch)
        assert not any("never referenced" in w for w in report.warnings)

    def test_multiservice_pipeline_fully_reachable(self):
        switch = compile_services(
            Network(ring(4)), 0, [SnapshotService(), BlackholeService()]
        )
        report = verify_switch(switch)
        assert report.ok, report.errors
        assert not report.warnings, report.warnings


class TestGroupLoops:
    @pytest.mark.parametrize("chain", [[901], [901, 902]])
    def test_chaining_loop_is_an_error(self, chain):
        # GroupTable.add accepts buckets that chain back to an earlier
        # group; every group on the loop is an error, however long it is.
        switch = compile_service(Network(ring(4)), 0, SnapshotService())
        for gid, target in zip(chain, chain[1:] + chain[:1]):
            switch.add_group(
                Group(gid, GroupType.INDIRECT, [Bucket([GroupAction(target)])])
            )
        switch.install(
            0, Match(chain_test=1),
            Instructions(apply_actions=(GroupAction(901),)), priority=99,
            cookie="seed:group-loop",
        )
        report = verify_switch(switch)
        for gid in chain:
            assert any(
                f"group {gid} chains" in error and "itself" in error
                for error in report.errors
            ), report.errors


class TestMultiServiceCoverage:
    def test_classify_coverage_per_block(self):
        switch = compile_services(
            Network(ring(4)), 0, [SnapshotService(), BlackholeService()]
        )
        # Sabotage the second block's bounce coverage: remove its rules by
        # rebuilding the table without the bounce entries.
        from repro.core.compiler import SERVICE_BLOCK_TABLES, T_CLASSIFY

        blackhole_classify = 1 + SERVICE_BLOCK_TABLES + T_CLASSIFY
        table = switch.tables[blackhole_classify]
        table._entries = [
            e for e in table._entries if "bounce" not in e.cookie
        ]
        report = verify_switch(switch)
        assert any("bounce coverage" in e for e in report.errors)
