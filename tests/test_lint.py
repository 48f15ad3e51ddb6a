"""Lint framework tests: clean compiled pipelines pass, and each seeded
fault class is detected by its named rule id (the acceptance matrix of the
static-analysis layer)."""

from __future__ import annotations

import pytest

from repro.analysis.lint import (
    LINT_RULES,
    LintConfig,
    LintFinding,
    lint_engine,
    run_lint,
)
from repro.core.compiler import (
    T_CLASSIFY,
    T_SWEEP,
    compile_service,
    match_meta_sweep,
)
from repro.core.engine import CompiledEngine
from repro.core.services.base import PlainTraversalService
from repro.core.services.blackhole import BlackholeService
from repro.core.services.snapshot import SnapshotService
from repro.net.simulator import Network
from repro.net.topology import ring, star
from repro.openflow.actions import GroupAction, Instructions, Output, SetField
from repro.openflow.group import Bucket, Group, GroupType
from repro.openflow.match import Match


def compiled(topo, service=None):
    """node -> Switch for *service* on *topo* (fresh, mutable for faults)."""
    service = service or PlainTraversalService()
    net = Network(topo)
    switches = {
        node: compile_service(net, node, service) for node in topo.nodes()
    }
    return switches, service


def findings_for(report, rule_id):
    return [f for f in report.findings if f.rule == rule_id]


class TestCleanPipelines:
    def test_plain_ring_zero_errors(self):
        switches, service = compiled(ring(4))
        report = run_lint(switches, ring(4), service=service)
        assert report.errors == []

    def test_blackhole_star_zero_errors(self):
        topo = star(5)
        switches, service = compiled(topo, BlackholeService())
        report = run_lint(switches, topo, service=service)
        assert report.errors == []

    def test_engine_convenience(self):
        net = Network(ring(4))
        engine = CompiledEngine(net, PlainTraversalService())
        report = lint_engine(engine)
        assert report.errors == []
        assert report.service == "plain"
        assert report.nodes == 4

    def test_known_benign_dead_rule_is_warning_only(self):
        # The compiler over-emits the root s=1 sweep row (meta s=1 always
        # implies a nonzero parent): a true positive, kept at warning level.
        switches, service = compiled(ring(4))
        report = run_lint(switches, ring(4), service=service)
        dead = findings_for(report, "SS001")
        assert dead, "expected the benign sweep:root:s1 dead rows"
        assert all(f.severity == "warning" for f in dead)
        assert any(f.cookie == "sweep:root:s1" for f in dead)


class TestSeededFaults:
    """Each fault class must be caught by its named rule id."""

    def test_dead_rule_ss001(self):
        switches, service = compiled(ring(4))
        # metadata value 0xEE is never written by any classify rule.
        switches[0].tables[T_SWEEP].install(
            match_meta_sweep(0xEE),
            Instructions(apply_actions=[Output(1)]),
            priority=40,
            cookie="seed:dead",
        )
        report = run_lint(switches, ring(4), service=service)
        assert any(
            f.node == 0 and f.cookie == "seed:dead"
            for f in findings_for(report, "SS001")
        )

    def test_shadowed_rule_ss002(self):
        switches, service = compiled(ring(4))
        table = switches[1].tables[T_CLASSIFY]
        table.install(
            Match(start=3),
            Instructions(goto_table=T_SWEEP),
            priority=200,
            cookie="seed:cover",
        )
        table.install(
            Match(start=3, gid=5),
            Instructions(apply_actions=[Output(1)]),
            priority=150,
            cookie="seed:shadowed",
        )
        report = run_lint(switches, ring(4), service=service)
        hits = findings_for(report, "SS002")
        assert any(
            f.node == 1 and f.cookie == "seed:shadowed" and "seed:cover"
            in f.message
            for f in hits
        )
        assert all(f.severity == "error" for f in hits)

    def test_table_miss_ss003(self):
        topo = ring(4)
        switches, service = compiled(topo)
        # Strip the classify catch-all on one node: re-arrivals at an
        # already-visited node now fall off the table mid-traversal.
        table = switches[2].tables[T_CLASSIFY]
        table._entries = [
            e for e in table._entries if e.cookie != "classify:bounce"
        ]
        table._sorted = False
        report = run_lint(switches, topo, service=service)
        assert any(
            f.node == 2 and f.table == T_CLASSIFY
            for f in findings_for(report, "SS003")
        )

    def test_set_unmatched_field_ss004(self):
        topo = ring(4)
        switches, service = compiled(topo)
        switches[0].tables[T_SWEEP].install(
            match_meta_sweep(0xED),
            Instructions(apply_actions=[SetField("bogus_field", 1)]),
            priority=40,
            cookie="seed:vestigial-write",
        )
        report = run_lint(switches, topo, service=service)
        assert any(
            f.node == 0 and "bogus_field" in f.message
            for f in findings_for(report, "SS004")
        )

    def test_unreachable_sweep_port_ss005(self):
        # On a ring, a skipped probe is masked (the neighbour's probe gets
        # bounced back over the same edge) — but on a star, dropping the
        # hub's probe bucket for port 2 orphans that leaf entirely.
        topo = star(5)
        switches, service = compiled(topo)
        hub = topo.nodes()[0]
        for group in switches[hub].groups.groups():
            group.buckets = [
                b
                for b in group.buckets
                if not any(
                    isinstance(a, Output) and a.port == 2 for a in b.actions
                )
            ]
        report = run_lint(switches, topo, service=service)
        hits = findings_for(report, "SS005")
        assert hits and all(f.severity == "error" for f in hits)
        assert any(f"{hub}:2" in f.message for f in hits)

    def test_dangling_goto_ss006(self):
        topo = ring(4)
        switches, service = compiled(topo)
        switches[3].tables[T_CLASSIFY].install(
            Match(start=3),
            Instructions(goto_table=99),
            priority=180,
            cookie="seed:dangling",
        )
        report = run_lint(switches, topo, service=service)
        assert any(
            f.node == 3 and f.cookie == "seed:dangling" and "99" in f.message
            for f in findings_for(report, "SS006")
        )

    def test_missing_group_ss007(self):
        topo = ring(4)
        switches, service = compiled(topo)
        switches[0].tables[T_SWEEP].install(
            match_meta_sweep(0xEC),
            Instructions(apply_actions=[GroupAction(999)]),
            priority=40,
            cookie="seed:no-group",
        )
        report = run_lint(switches, topo, service=service)
        assert any(
            f.node == 0 and "999" in f.message
            for f in findings_for(report, "SS007")
        )

    @pytest.mark.parametrize("rule_id", ["SS004", "SS007"])
    @pytest.mark.parametrize("chain", [[901], [901, 902]])
    def test_group_chaining_loop_terminates(self, rule_id, chain):
        # GroupTable.add accepts groups whose buckets chain back to the
        # first; only execution refuses the loop.  Lint must finish and,
        # under SS007, name the loop as an error.
        topo = ring(4)
        switches, service = compiled(topo, SnapshotService())
        for gid, target in zip(chain, chain[1:] + chain[:1]):
            switches[0].groups.add(
                Group(gid, GroupType.INDIRECT, [Bucket([GroupAction(target)])])
            )
        switches[0].tables[T_SWEEP].install(
            match_meta_sweep(0xEC),
            Instructions(apply_actions=[GroupAction(901)]),
            priority=40,
            cookie="seed:group-loop",
        )
        report = run_lint(switches, topo, service=service, rules=[rule_id])
        loops = [
            f for f in findings_for(report, "SS007")
            if f.node == 0 and "901" in f.message and "loop" in f.message
        ]
        if rule_id == "SS007":
            assert [f.severity for f in loops] == ["error"]
            assert loops[0].cookie == "seed:group-loop"
        else:
            assert loops == []

    def test_ambiguous_overlap_ss008(self):
        topo = ring(4)
        switches, service = compiled(topo)
        table = switches[0].tables[T_CLASSIFY]
        table.install(
            Match(start=3),
            Instructions(apply_actions=[Output(1)]),
            priority=170,
            cookie="seed:overlap-a",
        )
        table.install(
            Match(start=3),
            Instructions(apply_actions=[Output(2)]),
            priority=170,
            cookie="seed:overlap-b",
        )
        report = run_lint(switches, topo, service=service)
        assert any(
            f.node == 0 and f.cookie in ("seed:overlap-a", "seed:overlap-b")
            for f in findings_for(report, "SS008")
        )


class TestConfigAndReport:
    def test_disable_suppresses_rule(self):
        switches, service = compiled(ring(4))
        config = LintConfig(disable=frozenset({"SS001"}))
        report = run_lint(switches, ring(4), service=service, config=config)
        assert findings_for(report, "SS001") == []
        assert "SS001" not in report.rules_run

    def test_rules_subset(self):
        switches, service = compiled(ring(4))
        report = run_lint(
            switches, ring(4), service=service,
            rules=["SS006", "SS007", "SS008"],
        )
        assert report.rules_run == ["SS006", "SS007", "SS008"]
        assert report.findings == []
        assert report.exit_code == 0

    def test_severity_override_downgrades(self):
        switches, service = compiled(ring(4))
        config = LintConfig(severity_overrides={"SS001": "info"})
        report = run_lint(switches, ring(4), service=service, config=config)
        assert report.warnings == []
        assert report.by_severity("info")
        assert report.exit_code == 0

    def test_exit_codes(self):
        topo = ring(4)
        switches, service = compiled(topo)
        clean = run_lint(switches, topo, service=service)
        assert clean.exit_code == 2  # benign dead-rule warnings only
        switches[3].tables[T_CLASSIFY].install(
            Match(start=3), Instructions(goto_table=99), priority=180,
            cookie="seed:dangling",
        )
        broken = run_lint(switches, topo, service=service)
        assert broken.exit_code == 1

    def test_no_service_skips_walk_rules_with_note(self):
        switches, _service = compiled(ring(4))
        report = run_lint(switches, ring(4), service=None)
        assert any("SS003" in note for note in report.notes)
        assert any("SS005" in note for note in report.notes)
        assert findings_for(report, "SS003") == []

    def test_roots_restriction(self):
        topo = ring(4)
        switches, service = compiled(topo)
        config = LintConfig(roots=(0,))
        report = run_lint(switches, topo, service=service, config=config)
        assert report.errors == []

    def test_json_shape(self):
        switches, service = compiled(ring(4))
        report = run_lint(switches, ring(4), service=service)
        payload = report.to_json()
        assert payload["service"] == "plain"
        assert set(payload["summary"]) == {
            "errors", "warnings", "info", "nodes", "rules_run",
        }
        for item in payload["findings"]:
            assert {"rule", "name", "severity", "message"} <= set(item)

    def test_text_format_lists_rule_ids_and_summary(self):
        switches, service = compiled(ring(4))
        report = run_lint(switches, ring(4), service=service)
        text = report.format_text()
        assert "warning[SS001]" in text
        assert text.strip().endswith(
            f"across {report.nodes} node(s)"
        )

    def test_registry_sanity(self):
        assert {
            "SS001", "SS002", "SS003", "SS004", "SS005", "SS006", "SS007",
            "SS008",
        } <= set(LINT_RULES)
        for rule in LINT_RULES.values():
            assert rule.doc, rule.rule_id
            assert rule.severity in ("error", "warning", "info")

    def test_finding_format_includes_hint(self):
        finding = LintFinding(
            rule="SSX",
            name="demo",
            severity="warning",
            message="msg",
            node=1,
            fix_hint="do the thing",
        )
        text = finding.format()
        assert "hint: do the thing" in text
        assert "node 1" in text


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
