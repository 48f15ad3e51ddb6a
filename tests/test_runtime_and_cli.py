"""The SmartSouthRuntime facade and the command-line driver."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.engine import make_engine
from repro.core.runtime import SmartSouthRuntime
from repro.core.services.base import PlainTraversalService
from repro.net.simulator import Network
from repro.net.topology import ring


class TestRuntimeFacade:
    def test_accepts_bare_topology(self):
        runtime = SmartSouthRuntime(ring(4))
        assert runtime.snapshot(0).ok

    def test_engines_are_cached_per_service(self):
        runtime = SmartSouthRuntime(ring(4))
        runtime.snapshot(0)
        first = runtime._engines["snapshot"]
        runtime.snapshot(1)
        assert runtime._engines["snapshot"] is first

    @pytest.mark.parametrize("mode", ["interpreted", "compiled"])
    def test_repeated_blackhole_detections_keep_one_engine(self, mode):
        """Every smart-counter detection needs a fresh install, but only the
        latest one's engine (a whole compiled network) may stay alive."""
        network = Network(ring(6))
        network.links[2].set_blackhole()
        runtime = SmartSouthRuntime(network, mode=mode)
        runtime.snapshot(0)
        verdicts, engine_counts = [], []
        for _ in range(4):
            verdict = runtime.detect_blackhole_smart(0)
            verdicts.append((verdict.found, verdict.location))
            engine_counts.append(len(runtime._engines))
        assert verdicts[0][0] and verdicts == [verdicts[0]] * 4
        assert engine_counts == [2] * 4  # snapshot + the current detection
        assert list(runtime._engines) == ["snapshot", "blackhole:4"]

    def test_services_can_interleave_on_one_network(self):
        runtime = SmartSouthRuntime(ring(5), mode="compiled")
        assert runtime.snapshot(0).ok
        assert runtime.critical(0).critical is False
        assert runtime.anycast(0, 1, {1: {2}}).delivered_at == 2
        assert runtime.snapshot(1).ok  # snapshot still works afterwards

    def test_traverse(self):
        runtime = SmartSouthRuntime(ring(5))
        result = runtime.traverse(0)
        assert result.reports
        assert result.in_band_messages == 12

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            make_engine(Network(ring(3)), PlainTraversalService(), "quantum")

    def test_result_helpers(self):
        runtime = SmartSouthRuntime(ring(4))
        result = runtime.anycast(0, 1, {1: {2}})
        assert result.completed
        assert result.delivered_at == 2


class TestCli:
    def test_snapshot_command(self, capsys):
        assert main(["snapshot", "--topology", "abilene"]) == 0
        out = capsys.readouterr().out
        assert "links discovered : 15" in out
        assert "matches live topology: True" in out

    def test_snapshot_with_failure(self, capsys):
        assert main(["snapshot", "--topology", "abilene", "--fail", "0-1"]) == 0
        out = capsys.readouterr().out
        assert "links discovered : 14" in out

    def test_critical_command(self, capsys):
        assert main(["critical", "--topology", "star", "--nodes", "5"]) == 0
        assert "critical nodes" in capsys.readouterr().out

    def test_anycast_command(self, capsys):
        code = main(
            ["anycast", "--topology", "ring", "--nodes", "8", "--members", "3,5"]
        )
        assert code == 0
        assert "delivered at     : 3" in capsys.readouterr().out

    def test_anycast_failure_exit_code(self):
        code = main(
            [
                "anycast", "--topology", "line", "--nodes", "4",
                "--members", "3", "--fail", "1-2",
            ]
        )
        assert code == 1

    def test_priocast_command(self, capsys):
        code = main(
            [
                "priocast", "--topology", "ring", "--nodes", "6",
                "--members", "2:5,4:9",
            ]
        )
        assert code == 0
        assert "delivered at     : 4" in capsys.readouterr().out

    def test_blackhole_smart_command(self, capsys):
        assert main(
            ["blackhole", "--topology", "ring", "--nodes", "6", "--edge", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "found            : True" in out

    def test_blackhole_ttl_command(self, capsys):
        assert main(
            [
                "blackhole", "--topology", "ring", "--nodes", "6",
                "--edge", "2", "--algorithm", "ttl",
            ]
        ) == 0
        assert "found            : True" in capsys.readouterr().out

    def test_blackhole_healthy_network(self, capsys):
        assert main(["blackhole", "--topology", "ring", "--nodes", "5"]) == 0
        assert "found            : False" in capsys.readouterr().out

    def test_table2_command(self, capsys):
        assert main(["table2", "--nodes", "30"]) == 0
        out = capsys.readouterr().out
        assert "Snapshot" in out and "Critical" in out

    def test_rules_command(self, capsys):
        assert main(["rules", "--topology", "abilene", "--service", "snapshot"]) == 0
        assert "rules" in capsys.readouterr().out

    def test_rules_dump(self, capsys):
        assert main(
            [
                "rules", "--topology", "ring", "--nodes", "4",
                "--service", "plain", "--dump", "0",
            ]
        ) == 0
        assert "table 1" in capsys.readouterr().out

    def test_unknown_topology_rejected(self):
        with pytest.raises(SystemExit):
            main(["snapshot", "--topology", "klein_bottle"])

    def test_unknown_service_rejected(self):
        with pytest.raises(SystemExit):
            main(["rules", "--service", "teleport"])

    def test_chunked_snapshot_command(self, capsys):
        assert main(
            ["snapshot", "--topology", "abilene", "--chunk", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "chunks" in out and "matches live topology: True" in out

    def test_loadaudit_command(self, capsys):
        assert main(
            ["loadaudit", "--topology", "ring", "--nodes", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "matches ground truth: True" in out

    def test_verify_command(self, capsys):
        assert main(
            ["verify", "--topology", "abilene", "--service", "blackhole"]
        ) == 0
        assert "0 errors" in capsys.readouterr().out

    def test_verify_unknown_service(self):
        with pytest.raises(SystemExit):
            main(["verify", "--service", "wormhole"])

    def test_trace_command(self, capsys):
        assert main(
            ["trace", "--topology", "ring", "--nodes", "5", "--limit", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "0:p1 -> 1:p1" in out and out.strip().endswith("...")

    def test_interpreted_mode_flag(self, capsys):
        assert main(
            ["snapshot", "--topology", "ring", "--nodes", "5", "--mode", "interpreted"]
        ) == 0
        assert "interpreted engine" in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("argv", "registered"),
        [
            (["lint", "--topology", "ring", "--disable", "SS01"], "SS001"),
            (["check", "--topology", "ring", "--disable", "MC04"], "MC004"),
        ],
        ids=["lint", "check"],
    )
    def test_unknown_disable_id_is_rejected(self, argv, registered):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        # A string code makes the interpreter print it and exit 1.
        message = exc.value.code
        assert isinstance(message, str)
        assert f"unknown rule id(s) {argv[-1]};" in message
        assert repr(registered) in message
