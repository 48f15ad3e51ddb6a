"""Experiment R-failover: fast failover keeps the data plane functions alive.

The paper's robustness claim (§1–2): "By additionally leveraging the
OpenFlow fast failover mechanism, the data plane functions can also be made
robust to failures."  This harness sweeps the number of pre-execution link
failures on 2-connected topologies and measures:

* traversal completion rate and node coverage *with* FF sweep groups, and
* the same with failover disabled (an ablation: the sweep group watches
  nothing, so the first dead port kills the packet — what a naive
  port-sequential encoding without FF would do).
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.engine import make_engine
from repro.core.services.base import PlainTraversalService
from repro.core.runtime import SmartSouthRuntime
from repro.net.simulator import Network
from repro.net.topology import erdos_renyi, torus

from conftest import fmt_row

BASELINE_PATH = (
    Path(__file__).parent / "baselines" / "robustness_baseline.json"
)
WIDTHS = (10, 10, 14, 14, 16)
TRIALS = 30


def _disable_failover(engine) -> None:
    """Ablation: make every FF sweep bucket unconditional, so the group
    always fires its first bucket even when the port's link is down."""
    from repro.openflow.group import GroupType

    engine.install()
    for switch in engine.switches.values():
        for group in switch.groups.groups():
            if group.group_type is GroupType.FF:
                for bucket in group.buckets:
                    bucket.watch_port = None


def _coverage_trial(topology, kills: int, seed: int, failover: bool):
    rng = random.Random(seed)
    net = Network(topology)
    edge_ids = rng.sample(range(topology.num_edges), kills)
    net.fail_edges(edge_ids)
    engine = make_engine(net, PlainTraversalService(), "compiled")
    if not failover:
        _disable_failover(engine)
    result = engine.trigger(0)
    visited = {0}
    for u, _pu, v, _pv in net.trace.hop_sequence():
        visited.update((u, v))
    component = _live_component(net, 0)
    return bool(result.reports), visited == component


def _live_component(net, root: int) -> set[int]:
    adj: dict[int, set[int]] = {u: set() for u in net.topology.nodes()}
    for link in net.links:
        if link.up:
            adj[link.edge.a.node].add(link.edge.b.node)
            adj[link.edge.b.node].add(link.edge.a.node)
    seen = {root}
    frontier = [root]
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


@pytest.mark.parametrize("kills", [0, 1, 2, 4, 8])
def test_failover_sweep(benchmark, emit, kills):
    topo = torus(4, 4)  # 4-regular, stays connected under few failures

    def trial_block():
        with_ff = sum(
            _coverage_trial(topo, kills, seed, failover=True)[1]
            for seed in range(TRIALS)
        )
        without_ff = sum(
            _coverage_trial(topo, kills, seed, failover=False)[1]
            for seed in range(TRIALS)
        )
        return with_ff, without_ff

    with_ff, without_ff = benchmark.pedantic(trial_block, rounds=1, iterations=1)
    if kills == 0:
        emit("\n=== R-failover: live-component coverage rate, torus-4x4, "
             f"{TRIALS} trials ===")
        emit(fmt_row(
            ["failures", "", "FF on", "FF off", ""], WIDTHS,
        ))
    emit(fmt_row(
        [kills, "", f"{with_ff}/{TRIALS}", f"{without_ff}/{TRIALS}", ""],
        WIDTHS,
    ))
    # With FF the traversal always covers the live component.
    assert with_ff == TRIALS
    # Without FF any failure adjacent to the walk kills it.
    if kills >= 2:
        assert without_ff < TRIALS


@pytest.mark.parametrize("kills", [1, 3, 5])
def test_snapshot_under_failures(benchmark, emit, kills):
    """The snapshot stays exact on whatever remains reachable."""
    topo = erdos_renyi(24, 0.25, seed=3)

    def trial_block():
        exact = 0
        for seed in range(TRIALS):
            rng = random.Random(1000 + seed)
            net = Network(topo)
            net.fail_edges(rng.sample(range(topo.num_edges), kills))
            runtime = SmartSouthRuntime(net, mode="compiled")
            snap = runtime.snapshot(0)
            component = _live_component(net, 0)
            expected = {
                pair
                for pair in net.live_port_pairs()
                if all(endpoint[0] in component for endpoint in pair)
            }
            if snap.ok and snap.links == expected and snap.nodes == component:
                exact += 1
        return exact

    exact = benchmark.pedantic(trial_block, rounds=1, iterations=1)
    emit(
        f"R-failover snapshot: {kills} failures -> exact live snapshot in "
        f"{exact}/{TRIALS} trials"
    )
    assert exact == TRIALS


def test_anycast_vs_failures_sweep(benchmark, emit):
    """Delivery success as failures accumulate: in-band anycast succeeds
    exactly when a member stays reachable (no controller involved)."""
    topo = erdos_renyi(20, 0.25, seed=9)
    members = {17, 18}

    def sweep():
        rows = []
        for kills in (0, 2, 4, 8, 12):
            delivered = reachable = 0
            for seed in range(TRIALS):
                rng = random.Random(seed * 31 + kills)
                net = Network(topo)
                net.fail_edges(rng.sample(range(topo.num_edges), kills))
                runtime = SmartSouthRuntime(net, mode="compiled")
                result = runtime.anycast(0, 1, {1: members})
                component = _live_component(net, 0)
                if members & component:
                    reachable += 1
                    if result.delivered_at in members:
                        delivered += 1
                else:
                    assert result.delivered_at is None
            rows.append((kills, reachable, delivered))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit("\n=== R-failover anycast: delivered / member-reachable trials ===")
    emit(fmt_row(["failures", "", "reachable", "delivered", ""], WIDTHS))
    for kills, reachable, delivered in rows:
        emit(fmt_row([kills, "", reachable, delivered, ""], WIDTHS))
        assert delivered == reachable  # delivery iff reachable, always


def test_supervision_under_loss_sweep(benchmark, emit):
    """Experiment R-supervision: epoch-tagged retries vs. silent loss.

    Fast failover only masks *visible* failures; a lossy link silently
    swallows the traversal and the unsupervised service simply never
    answers.  Sweep the per-crossing loss probability and compare the
    plain runtime's completion rate against the supervised runtime, whose
    watchdog + retry loop must always return — a fresh result or an
    explicit honest degradation, never a hang.
    """
    from repro.control.supervisor import (
        DEFAULT_RETRY,
        SupervisedRuntime,
        SupervisorConfig,
    )

    topo = torus(3, 3)
    trials = 15

    def sweep():
        rows = []
        for loss in (0.0, 0.1, 0.2, 0.3):
            bare_done = supervised_done = answered = retries = 0
            for seed in range(trials):
                rng = random.Random(seed * 97 + int(loss * 100))
                lossy = rng.sample(range(topo.num_edges), 4)

                net = Network(topo, seed=seed)
                for edge_id in lossy:
                    net.links[edge_id].set_loss(loss)
                runtime = SmartSouthRuntime(net, mode="compiled")
                if runtime.snapshot(0).ok:
                    bare_done += 1

                net2 = Network(topo, seed=seed)
                for edge_id in lossy:
                    net2.links[edge_id].set_loss(loss)
                supervised = SupervisedRuntime(
                    net2,
                    config=SupervisorConfig(
                        retry=replace(DEFAULT_RETRY, max_attempts=6)
                    ),
                )
                snap = supervised.snapshot(0)
                answered += 1  # the call returned (no hang) by construction
                if snap.ok:
                    supervised_done += 1
                retries += snap.supervision.attempts_used - 1
            rows.append((loss, bare_done, supervised_done, answered, retries))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit("\n=== R-supervision: snapshot completion under silent loss, "
         f"torus-3x3, {trials} trials ===")
    emit(fmt_row(["loss", "bare ok", "supervised ok", "answered", "retries"],
                 WIDTHS))
    for loss, bare, sup, answered, retries in rows:
        emit(fmt_row([loss, f"{bare}/{trials}", f"{sup}/{trials}",
                      f"{answered}/{trials}", retries], WIDTHS))
        # The supervised runtime always answers; with retries it completes
        # at least as often as the single-shot bare runtime.
        assert answered == trials
        assert sup >= bare
    # Loss-free, both complete every time.
    assert rows[0][1] == trials and rows[0][2] == trials


def test_recovery_vs_control_loss_sweep(benchmark, emit, request):
    """Experiment R-control: recovery cost as the *control channel* degrades.

    Unlike ``test_supervision_under_loss_sweep`` (lossy data-plane links),
    here the data plane is healthy and the management channel drops the
    controller's own packet-outs.  Sweep the per-message loss probability
    and measure, per loss level:

    * the supervised snapshot's recovery time (simulator time to an
      answer — retries and backoff included, so it grows with loss);
    * attempts spent (the retry bill the channel extracts);
    * after a full controller crash/restart, whether ``resynchronize``
      (an epoch jump, an in-band relearn, then the ``readopt`` sweep)
      passes the chaos campaign's repair oracle, and in how many
      handshake rounds.

    All metrics are seeded-simulator quantities, not wall-clock, so the
    committed baseline (``benchmarks/baselines/robustness_baseline.json``)
    is machine-independent.  The gate fails if a loss level stops
    recovering, stops converging, or its recovery time / attempt bill
    grows more than 50% over baseline.  After an intentional supervisor
    or channel change, regenerate with::

        PYTHONPATH=src python -m pytest benchmarks/bench_robustness.py \\
            --update-robustness-baseline
    """
    from repro.control.channel import ChannelFaultConfig, ControlChannel
    from repro.control.supervisor import (
        DEFAULT_RETRY,
        SupervisedRuntime,
        SupervisorConfig,
    )
    from repro.net.chaos import repair_problems
    from repro.net.topology import torus

    topo = torus(3, 3)
    trials = 12
    losses = (0.0, 0.1, 0.2, 0.3)

    def sweep():
        rows = []
        for loss in losses:
            recovered = attempts = converged = rounds = 0
            recovery_time = 0.0
            for seed in range(trials):
                net = Network(topo, seed=seed)
                faults = ChannelFaultConfig(
                    loss_prob=loss, delay=1.0,
                    seed=seed * 13 + int(loss * 100),
                )
                channel = ControlChannel(
                    net, faults=faults if faults.active else None
                )
                runtime = SupervisedRuntime(
                    net, mode="compiled",
                    config=SupervisorConfig(
                        retry=replace(DEFAULT_RETRY, max_attempts=6)
                    ),
                    channel=channel,
                )
                started = net.sim.now
                snap = runtime.snapshot(0)
                if not snap.degraded:
                    recovered += 1
                attempts += snap.supervision.attempts_used
                recovery_time += net.sim.now - started
                # Crash the controller and resynchronize over the same
                # lossy channel.
                channel.fail_controller()
                channel.restore_controller()
                report = runtime.resynchronize(0)
                if not repair_problems(report):
                    converged += 1
                rounds += report.rounds
            rows.append({
                "loss": loss,
                "recovered": recovered,
                "mean_attempts": attempts / trials,
                "mean_recovery_time": recovery_time / trials,
                "converged": converged,
                "mean_resync_rounds": rounds / trials,
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    emit("\n=== R-control: supervised recovery vs control-channel loss, "
         f"torus-3x3, {trials} trials ===")
    emit(fmt_row(["loss", "recovered", "attempts", "rec. time",
                  "resync rounds"], WIDTHS))
    for row in rows:
        emit(fmt_row([
            row["loss"], f"{row['recovered']}/{trials}",
            f"{row['mean_attempts']:.2f}",
            f"{row['mean_recovery_time']:.1f}",
            f"{row['mean_resync_rounds']:.1f} ({row['converged']}/{trials})",
        ], WIDTHS))

    if request.config.getoption("--update-robustness-baseline"):
        baseline = json.loads(BASELINE_PATH.read_text())
        baseline["control_loss_sweep"] = {
            str(row["loss"]): {
                "mean_attempts": round(row["mean_attempts"], 2),
                "mean_recovery_time": round(row["mean_recovery_time"], 1),
            }
            for row in rows
        }
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        return

    baseline = json.loads(BASELINE_PATH.read_text())["control_loss_sweep"]
    for row in rows:
        level = f"loss={row['loss']}"
        # Liveness gates: every level recovers and every resync converges.
        assert row["recovered"] == trials, (
            f"{level}: only {row['recovered']}/{trials} supervised "
            "snapshots recovered a fresh exact answer"
        )
        assert row["converged"] == trials, (
            f"{level}: only {row['converged']}/{trials} post-crash "
            "resynchronizations converged"
        )
        # Cost gates: no >50% growth over the committed baseline.
        base = baseline[str(row["loss"])]
        for metric in ("mean_attempts", "mean_recovery_time"):
            ceiling = base[metric] * 1.5
            assert row[metric] <= ceiling, (
                f"{level}: {metric} {row[metric]:.2f} exceeds 1.5x the "
                f"committed baseline {base[metric]} — if intentional, "
                "rerun with --update-robustness-baseline"
            )
    # The sweep tells the paper's story: a lossier channel costs strictly
    # more retries than a fault-free one, but never correctness.
    assert rows[-1]["mean_attempts"] > rows[0]["mean_attempts"]


def test_recovery_vs_switch_loss_sweep(benchmark, emit, request):
    """Experiment R-switch: re-adoption cost as the *data plane* loses boxes.

    The control-loss sweep above degrades the management channel; here the
    switches themselves fail.  Sweep the number of simultaneously crashed
    switches on a torus: each victim reboots *bare* (tables, groups and
    fast-path state gone) with a seeded partial-install fault armed, and
    ``readopt`` must repair the fleet.  Per loss level we measure:

    * handshake rounds and interrupted pushes (the retry bill the fault
      model extracts);
    * whether re-adoption converged and the healed snapshot is exact.

    All metrics are seeded quantities, so the committed baseline
    (``switch_loss_sweep`` in ``robustness_baseline.json``) is
    machine-independent.  The gate fails if a level stops converging or
    healing, or if rounds / failed installs grow more than 50% over
    baseline.  Regenerate after an intentional change with::

        PYTHONPATH=src python -m pytest benchmarks/bench_robustness.py \\
            --update-robustness-baseline
    """
    from repro.control.supervisor import (
        DEFAULT_RETRY,
        READOPT_FAILED,
        SupervisedRuntime,
        SupervisorConfig,
    )
    from repro.openflow.switch import SwitchFaultConfig

    topo = torus(3, 3)
    trials = 12
    loss_levels = (1, 2, 3)

    def sweep():
        rows = []
        for victims in loss_levels:
            converged = healed = rounds = failed = 0
            for seed in range(trials):
                rng = random.Random(seed * 101 + victims)
                net = Network(topo, seed=seed)
                runtime = SupervisedRuntime(
                    net, mode="compiled",
                    config=SupervisorConfig(
                        retry=replace(DEFAULT_RETRY, max_attempts=6)
                    ),
                )
                assert runtime.snapshot(0).ok
                lost = rng.sample(range(1, topo.num_nodes), victims)
                for node in lost:
                    for switch in runtime.switches_at(node):
                        switch.crash()
                        switch.reboot()
                        switch.set_faults(SwitchFaultConfig(
                            partial_install_prob=0.6,
                            fail_budget=1,
                            seed=seed * 977 + node,
                        ))
                report = runtime.readopt()
                if report.converged:
                    converged += 1
                rounds += report.rounds
                failed += sum(
                    1 for attempt in report.attempts
                    if attempt.status == READOPT_FAILED
                )
                snap = runtime.snapshot(0)
                if snap.ok and snap.links == net.live_port_pairs():
                    healed += 1
            rows.append({
                "victims": victims,
                "converged": converged,
                "healed": healed,
                "mean_rounds": rounds / trials,
                "mean_failed_installs": failed / trials,
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    emit("\n=== R-switch: re-adoption vs crashed switches, torus-3x3, "
         f"{trials} trials ===")
    emit(fmt_row(["victims", "converged", "healed", "rounds",
                  "failed inst."], WIDTHS))
    for row in rows:
        emit(fmt_row([
            row["victims"], f"{row['converged']}/{trials}",
            f"{row['healed']}/{trials}",
            f"{row['mean_rounds']:.2f}",
            f"{row['mean_failed_installs']:.2f}",
        ], WIDTHS))

    if request.config.getoption("--update-robustness-baseline"):
        baseline = json.loads(BASELINE_PATH.read_text())
        baseline["switch_loss_sweep"] = {
            str(row["victims"]): {
                "mean_rounds": round(row["mean_rounds"], 2),
                "mean_failed_installs": round(
                    row["mean_failed_installs"], 2
                ),
            }
            for row in rows
        }
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        return

    baseline = json.loads(BASELINE_PATH.read_text())["switch_loss_sweep"]
    for row in rows:
        level = f"victims={row['victims']}"
        assert row["converged"] == trials, (
            f"{level}: only {row['converged']}/{trials} re-adoptions "
            "converged"
        )
        assert row["healed"] == trials, (
            f"{level}: only {row['healed']}/{trials} healed snapshots "
            "were exact"
        )
        base = baseline[str(row["victims"])]
        for metric in ("mean_rounds", "mean_failed_installs"):
            ceiling = base[metric] * 1.5
            assert row[metric] <= ceiling, (
                f"{level}: {metric} {row[metric]:.2f} exceeds 1.5x the "
                f"committed baseline {base[metric]} — if intentional, "
                "rerun with --update-robustness-baseline"
            )
    # More lost boxes cost strictly more interrupted pushes to repair.
    assert (rows[-1]["mean_failed_installs"]
            > rows[0]["mean_failed_installs"])
