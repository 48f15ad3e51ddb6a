"""The seeded chaos-campaign harness and its CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.net.chaos import (
    DEGRADED_CORRECT,
    HUNG,
    PROFILES,
    RECOVERED,
    SERVICES,
    TOPOLOGIES,
    WRONG_RESULT,
    CampaignReport,
    ChaosConfig,
    RunRecord,
    run_campaign,
    run_one,
)


class TestChaosConfig:
    def test_defaults_valid(self):
        ChaosConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"runs": 0},
            {"services": ("snapshot", "nope")},
            {"topologies": ("torus3x3", "nope")},
            {"profiles": ("nope",)},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChaosConfig(**kwargs).validate()

    def test_stock_menus_cover_the_paper(self):
        assert set(SERVICES) == {"snapshot", "anycast", "blackhole", "critical"}
        assert set(TOPOLOGIES) == {"torus3x3", "complete5"}
        assert set(PROFILES) == {
            "lossy", "partition", "blackhole",
            "ctrl-lossy", "ctrl-flap", "ctrl-crash",
            "sw-crash", "sw-flap", "table-pressure",
        }


class TestRunOne:
    def test_seeded_run_is_deterministic(self):
        a = run_one(0, "snapshot", "torus3x3", "lossy", run_seed=42)
        b = run_one(0, "snapshot", "torus3x3", "lossy", run_seed=42)
        assert a.to_dict() == b.to_dict()

    def test_record_carries_fault_plan(self):
        record = run_one(0, "snapshot", "complete5", "lossy", run_seed=3)
        assert record.outcome in (RECOVERED, DEGRADED_CORRECT)
        for fault in record.faults:
            kind = fault.split(":")[0]
            assert kind in ("loss", "blackhole", "fail", "dup", "jitter",
                            "disconnect")

    def test_record_carries_the_call_ledger(self):
        # Every service's record reports the supervised call's epoch
        # attempts and the stale packets its gates squashed.
        for service in SERVICES:
            record = run_one(0, service, "torus3x3", "lossy", run_seed=5)
            assert record.attempts >= 1, (service, record.reason)
            assert record.stale_squashed >= 0
            assert record.to_dict()["attempts"] == record.attempts

    def test_blackhole_service_skips_visible_mid_failures(self):
        # §3.3 premise: failover masks visible failures before the sweep.
        for seed in range(12):
            record = run_one(0, "blackhole", "torus3x3", "partition", seed)
            assert not any(f.startswith("fail:") for f in record.faults)


class TestCampaign:
    def test_small_campaign_meets_the_bar(self):
        report = run_campaign(ChaosConfig(runs=24, seed=5))
        counts = report.outcome_counts()
        assert sum(counts.values()) == 24
        assert counts[WRONG_RESULT] == 0
        assert counts[HUNG] == 0
        assert report.ok

    def test_round_robin_covers_the_grid(self):
        report = run_campaign(ChaosConfig(runs=24, seed=1))
        combos = {(r.service, r.topology, r.profile) for r in report.records}
        assert len(combos) == 24  # 4 services x 2 topologies x 3 profiles

    def test_same_seed_byte_identical_json(self):
        config = ChaosConfig(runs=12, seed=8)
        assert run_campaign(config).to_json() == run_campaign(config).to_json()

    def test_different_seed_differs(self):
        a = run_campaign(ChaosConfig(runs=12, seed=0))
        b = run_campaign(ChaosConfig(runs=12, seed=1))
        assert a.to_json() != b.to_json()

    def test_report_verdict_logic(self):
        config = ChaosConfig(runs=1)
        ok = CampaignReport(config=config, records=[
            RunRecord(0, "snapshot", "torus3x3", "lossy", 0, 0, [], RECOVERED),
        ])
        assert ok.ok
        lied = CampaignReport(config=config, records=[
            RunRecord(0, "snapshot", "torus3x3", "lossy", 0, 0, [], WRONG_RESULT),
        ])
        assert not lied.ok
        hung = CampaignReport(config=config, records=[
            RunRecord(0, "snapshot", "torus3x3", "lossy", 0, 0, [], HUNG),
        ])
        assert not hung.ok

    def test_summary_mentions_every_outcome_class(self):
        report = run_campaign(ChaosConfig(runs=6, seed=2))
        text = report.format_summary()
        for token in ("recovered", "degraded-correct", "wrong-result", "hung",
                      "verdict:"):
            assert token in text


class TestChaosCli:
    def test_cli_summary_and_exit_code(self, capsys):
        code = cli_main(["chaos", "--runs", "6", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos campaign: 6 runs, seed 3" in out
        assert "verdict: OK" in out

    def test_cli_json_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code = cli_main([
            "chaos", "--runs", "6", "--seed", "3", "--json",
            "--json-out", str(out_file),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert len(payload["records"]) == 6
        assert json.loads(out_file.read_text()) == payload

    def test_cli_subset_filters(self, capsys):
        code = cli_main([
            "chaos", "--runs", "4", "--services", "anycast",
            "--topologies", "complete5", "--profiles", "lossy",
        ])
        assert code == 0
        assert "anycast" in capsys.readouterr().out

    def test_cli_rejects_unknown_service(self):
        with pytest.raises(SystemExit):
            cli_main(["chaos", "--runs", "2", "--services", "nope"])


class TestControlPlaneProfiles:
    def test_ctrl_lossy_plans_channel_faults(self):
        record = run_one(0, "snapshot", "torus3x3", "ctrl-lossy", run_seed=1)
        assert any(f.startswith("channel:") for f in record.faults)
        assert record.outcome in (RECOVERED, DEGRADED_CORRECT)

    def test_ctrl_flap_plans_flap_windows(self):
        record = run_one(0, "snapshot", "torus3x3", "ctrl-flap", run_seed=1)
        assert any(f.startswith("flap:") for f in record.faults)

    def test_ctrl_crash_runs_fire_resync(self):
        # Over a seed sweep, at least one crash fires mid-run, and every
        # fired crash produces a converged resync with an epoch jump.
        fired = 0
        for seed in range(12):
            record = run_one(0, "snapshot", "torus3x3", "ctrl-crash", seed)
            assert record.outcome in (RECOVERED, DEGRADED_CORRECT), (
                record.reason
            )
            resync = record.detail.get("resync")
            if resync is None:
                continue
            fired += 1
            assert resync["converged"]
            before, after = resync["epoch_jump"]
            assert after != before
        assert fired > 0

    def test_anycast_is_control_plane_immune(self):
        # Anycast delivery needs no management plane at all: a crash run
        # cannot even schedule the crash (channel is None by construction).
        for seed in range(6):
            record = run_one(0, "anycast", "complete5", "ctrl-crash", seed)
            assert not any(
                f.startswith("ctrl-crash@") for f in record.faults
            )

    def test_control_runs_are_seed_deterministic(self):
        for profile in ("ctrl-lossy", "ctrl-flap", "ctrl-crash"):
            a = run_one(0, "snapshot", "torus3x3", profile, run_seed=7)
            b = run_one(0, "snapshot", "torus3x3", profile, run_seed=7)
            assert a.to_dict() == b.to_dict()


class TestControlPlaneOracles:
    def test_outage_liveness_holds_on_stock_topologies(self):
        from repro.net.chaos import check_outage_liveness

        for topology in ("torus3x3", "complete5"):
            assert check_outage_liveness(0, topology) == []

    def test_resync_problems_flags_missing_jump(self):
        from repro.control.supervisor import RepairReport
        from repro.net.chaos import repair_problems

        stuck = RepairReport(
            converged=True, rounds=1, epoch_before=5, epoch_after=5,
            relearned_nodes={0},
        )
        assert any("epoch" in p for p in repair_problems(stuck))

    def test_resync_problems_flags_divergence(self):
        from repro.control.supervisor import RepairReport
        from repro.net.chaos import repair_problems

        diverged = RepairReport(
            converged=False, rounds=3, drifted_nodes=[2], epoch_before=5,
            epoch_after=8, relearned_nodes={0},
        )
        assert any("converge" in p for p in repair_problems(diverged))
        clean = RepairReport(
            converged=True, rounds=1, epoch_before=5, epoch_after=8,
            relearned_nodes={0},
        )
        assert repair_problems(clean) == []


class TestControlCampaign:
    def test_small_control_campaign_meets_the_bar(self):
        from repro.net.chaos import control_plane_config, run_control_campaign

        report = run_control_campaign(control_plane_config(runs=24, seed=3))
        counts = report.outcome_counts()
        assert counts[WRONG_RESULT] == 0
        assert counts[HUNG] == 0
        assert report.outage_liveness is not None
        assert all(not v for v in report.outage_liveness.values())
        assert report.ok

    def test_liveness_failure_flips_the_verdict(self):
        from repro.net.chaos import ChaosConfig as _Config

        report = CampaignReport(config=_Config(runs=1), records=[
            RunRecord(0, "snapshot", "torus3x3", "lossy", 0, 0, [], RECOVERED),
        ])
        assert report.ok
        report.outage_liveness = {"torus3x3": ["snapshot hung"]}
        assert not report.ok
        assert "outage-liveness" in report.format_summary()

    def test_control_campaign_byte_identical(self):
        from repro.net.chaos import control_plane_config, run_control_campaign

        assert (
            run_control_campaign(control_plane_config(runs=18, seed=4)).to_json()
            == run_control_campaign(control_plane_config(runs=18, seed=4)).to_json()
        )


class TestControlCli:
    def test_cli_control_flag(self, capsys):
        code = cli_main(["chaos", "--runs", "18", "--seed", "2", "--control"])
        out = capsys.readouterr().out
        assert code == 0
        assert "outage-liveness" in out
        assert "verdict: OK" in out

    def test_cli_control_json_carries_liveness(self, capsys):
        code = cli_main([
            "chaos", "--runs", "9", "--seed", "2", "--control", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert set(payload["outage_liveness"]) == {"torus3x3", "complete5"}
        assert all(not v for v in payload["outage_liveness"].values())
        from repro.net.chaos import CONTROL_PROFILES

        assert {r["profile"] for r in payload["records"]} <= set(
            CONTROL_PROFILES
        )


class TestSwitchPlaneProfiles:
    def test_sw_crash_plans_victim_and_outage(self):
        record = run_one(0, "snapshot", "torus3x3", "sw-crash", run_seed=1)
        assert any(f.startswith("sw-crash:") for f in record.faults)
        assert record.outcome in (RECOVERED, DEGRADED_CORRECT)

    def test_sw_flap_plans_cycles(self):
        record = run_one(0, "snapshot", "torus3x3", "sw-flap", run_seed=1)
        flaps = [f for f in record.faults if f.startswith("sw-flap:")]
        assert flaps and "down" in flaps[0] and "up" in flaps[0]

    def test_table_pressure_records_eviction_stats(self):
        fired = 0
        for seed in range(8):
            record = run_one(
                0, "snapshot", "torus3x3", "table-pressure", seed
            )
            assert record.outcome in (RECOVERED, DEGRADED_CORRECT), (
                record.reason
            )
            stats = record.detail.get("table_pressure")
            if stats is None:
                continue
            fired += 1
            assert stats["installed"] <= stats["capacity"]
            assert (
                stats["installed"] + stats["rejected"] + stats["evicted"]
                >= stats["capacity"]
            )
        assert fired > 0

    def test_switch_runs_carry_readopt_oracle(self):
        converged = 0
        for seed in range(8):
            record = run_one(0, "snapshot", "torus3x3", "sw-crash", seed)
            readopt = record.detail.get("readopt")
            assert readopt is not None
            assert readopt["converged"]
            assert not readopt["dark"]
            converged += 1
            if readopt["reprogrammed"]:
                # The retry ledger audits every attempt of the recovery.
                assert sum(readopt["ledger"].values()) > 0
        assert converged == 8

    def test_blackhole_is_exempt_from_switch_faults(self):
        # Blackhole detection builds a fresh engine per attempt, so there
        # is no persistent switch whose recovery the oracle could observe.
        for seed in range(4):
            record = run_one(0, "blackhole", "torus3x3", "sw-crash", seed)
            assert not any(f.startswith("sw-") for f in record.faults)
            assert "readopt" not in record.detail

    def test_switch_runs_are_seed_deterministic(self):
        for profile in ("sw-crash", "sw-flap", "table-pressure"):
            a = run_one(0, "snapshot", "torus3x3", profile, run_seed=7)
            b = run_one(0, "snapshot", "torus3x3", profile, run_seed=7)
            assert a.to_dict() == b.to_dict()


class TestSwitchPlaneOracles:
    def test_readopt_problems_flags_divergence_and_dark(self):
        from repro.control.supervisor import RepairReport
        from repro.net.chaos import repair_problems

        diverged = RepairReport(
            converged=False, rounds=4, drifted_nodes=[2]
        )
        assert any("converge" in p for p in repair_problems(diverged))
        dark = RepairReport(converged=True, rounds=1, dark_nodes=[3])
        assert any("dark" in p for p in repair_problems(dark))
        # A readopt report carries no epoch jump, and needs none.
        clean = RepairReport(converged=True, rounds=1)
        assert repair_problems(clean) == []


class TestSwitchCampaign:
    def test_small_switch_campaign_meets_the_bar(self):
        from repro.net.chaos import switch_plane_config

        report = run_campaign(switch_plane_config(runs=18, seed=3))
        counts = report.outcome_counts()
        assert counts[WRONG_RESULT] == 0
        assert counts[HUNG] == 0
        assert report.ok

    def test_switch_campaign_byte_identical(self):
        from repro.net.chaos import switch_plane_config

        assert (
            run_campaign(switch_plane_config(runs=12, seed=4)).to_json()
            == run_campaign(switch_plane_config(runs=12, seed=4)).to_json()
        )

    def test_switch_config_uses_switch_profiles(self):
        from repro.net.chaos import SWITCH_PROFILES, switch_plane_config

        config = switch_plane_config(runs=9, seed=0)
        assert config.profiles == SWITCH_PROFILES
        config.validate()


class TestReplay:
    def test_replay_reproduces_a_recorded_run(self):
        from repro.net.chaos import replay_run, switch_plane_config

        report = run_campaign(switch_plane_config(runs=6, seed=5))
        payload = json.loads(report.to_json())
        record, mismatches = replay_run(payload, 3)
        assert mismatches == []
        assert record.to_dict() == payload["records"][3]

    def test_replay_rejects_unknown_run(self):
        from repro.net.chaos import replay_run

        report = run_campaign(ChaosConfig(runs=2))
        with pytest.raises(ValueError):
            replay_run(json.loads(report.to_json()), 99)

    def test_replay_reports_divergence(self):
        from repro.net.chaos import replay_run

        report = run_campaign(ChaosConfig(runs=2))
        payload = json.loads(report.to_json())
        payload["records"][1]["outcome"] = "wrong-result"
        _record, mismatches = replay_run(payload, 1)
        assert any("outcome" in m for m in mismatches)


class TestSwitchCli:
    def test_cli_switch_flag(self, capsys):
        code = cli_main(["chaos", "--runs", "9", "--seed", "2", "--switch"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: OK" in out

    def test_cli_switch_json_uses_switch_profiles(self, capsys):
        from repro.net.chaos import SWITCH_PROFILES

        code = cli_main([
            "chaos", "--runs", "9", "--seed", "2", "--switch", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert {r["profile"] for r in payload["records"]} <= set(
            SWITCH_PROFILES
        )

    def test_cli_replay_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "campaign.json"
        assert cli_main([
            "chaos", "--runs", "6", "--seed", "5", "--switch",
            "--json-out", str(out_file),
        ]) == 0
        capsys.readouterr()
        code = cli_main([
            "chaos", "--replay", str(out_file), "--run", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "matched the record" in out

    def test_cli_replay_needs_run_index(self, tmp_path):
        out_file = tmp_path / "campaign.json"
        out_file.write_text("{}")
        with pytest.raises(SystemExit):
            cli_main(["chaos", "--replay", str(out_file)])


def _invent_link(runtime, result, root, *args):
    # Two ports numbered past every switch's degree: no such link exists.
    result.links.add(frozenset({(0, 90), (1, 91)}))


def _deliver_to_non_member(runtime, result, root, gid, groups):
    result.delivered_at = min(
        n for n in runtime.network.topology.nodes() if n not in groups[gid]
    )


def _flag_quiet_port(runtime, result, root):
    from repro.core.services.blackhole import BlackholeVerdict

    link = next(
        link for link in runtime.network.links
        if link.up and not any(link.dropped.values())
    )
    location = (link.edge.a.node, link.edge.a.port)
    result.verdict = BlackholeVerdict(found=True, location=location)


def _flip_verdict(runtime, result, node):
    result.critical = not result.critical


#: service -> (SupervisedRuntime method, falsifier of an accepted answer,
#: the run's WRONG_RESULT reason).
LIES = {
    "snapshot": ("snapshot", _invent_link, "invents links"),
    "anycast": ("anycast", _deliver_to_non_member, "non-member"),
    "blackhole": ("detect_blackhole", _flag_quiet_port, "never dropped"),
    "critical": ("critical", _flip_verdict, "neither pre nor post"),
}


class TestOraclesCatchLies:
    """Falsify an accepted answer of the real runtime: both the campaign
    runner and the outage preflight must call it a lie."""

    @staticmethod
    def _plant(monkeypatch, service):
        from repro.control.supervisor import SupervisedRuntime

        method, falsify, _reason = LIES[service]
        honest = getattr(SupervisedRuntime, method)
        lies: list[bool] = []

        def lying(self, *args):
            result = honest(self, *args)
            if not result.degraded:
                falsify(self, result, *args)
                lies.append(True)
            return result

        monkeypatch.setattr(SupervisedRuntime, method, lying)
        return lies

    @pytest.mark.parametrize("service", SERVICES)
    def test_campaign_run_records_the_lie(self, monkeypatch, service):
        lies = self._plant(monkeypatch, service)
        for seed in range(8):
            record = run_one(0, service, "torus3x3", "lossy", run_seed=seed)
            if lies:
                break
        assert lies, "no accepted answer to falsify"
        assert record.outcome == WRONG_RESULT, record.reason
        assert LIES[service][2] in record.reason

    @pytest.mark.parametrize("service", SERVICES)
    def test_outage_preflight_reports_the_lie(self, monkeypatch, service):
        from repro.net.chaos import check_outage_liveness

        lies = self._plant(monkeypatch, service)
        problems = check_outage_liveness(0, "torus3x3")
        assert lies, "no accepted answer to falsify"
        assert problems
        assert all(problem.startswith(service) for problem in problems), problems
