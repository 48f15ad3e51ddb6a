"""Experiment X-packetloss (+ smart-counter microbenchmarks).

Reproduces the §3.3 packet-loss extension: per-port in/out smart counters,
compared across each link by a detection traversal, with several prime
moduli against wrap-around false negatives — including the paper's own
caveat ("counters may overflow ... a packet may be lost (a false
negative)"), measured explicitly.
"""

from __future__ import annotations

import random

import pytest

from repro.core.fields import FIELD_SCRATCH
from repro.core.runtime import SmartSouthRuntime
from repro.core.smart_counter import build_counter_group
from repro.net.simulator import Network
from repro.net.topology import erdos_renyi, grid
from repro.openflow.actions import GroupAction, Instructions
from repro.openflow.match import Match
from repro.openflow.packet import Packet
from repro.openflow.switch import Switch

from conftest import fmt_row

WIDTHS = (16, 12, 14, 14, 16)
TRIALS = 15


def test_counter_fetch_throughput(benchmark):
    """Microbenchmark: fetch-and-increment through the pipeline, from a
    table-0 entry that applies the counter group."""
    switch = Switch(0, num_ports=1)
    switch.add_group(build_counter_group(1, 8))
    switch.install(0, Match(), Instructions([GroupAction(1)]))
    packet = Packet()

    def fetch():
        switch.process(packet, in_port=1)
        return packet.get(FIELD_SCRATCH)

    benchmark(fetch)


@pytest.mark.parametrize("loss_rate", [0.05, 0.2, 0.5])
def test_loss_detection_accuracy(benchmark, emit, loss_rate):
    """Detection accuracy at different loss rates (moduli 5 and 7)."""
    topo = grid(3, 4)

    def trial_block():
        agree = flagged_total = lossy_total = 0
        for seed in range(TRIALS):
            net = Network(topo, seed=seed)
            rng = random.Random(seed)
            lossy = rng.sample(range(topo.num_edges), 3)
            for edge_id in lossy:
                net.links[edge_id].set_loss(loss_rate)
            runtime = SmartSouthRuntime(net)
            monitor = runtime.loss_monitor((5, 7))
            monitor.send_traffic(13)
            for link in net.links:
                link.clear()  # heal so the check traversal survives
            report = monitor.check(0)
            truth = monitor.detectable_losses()
            if report.flagged == truth:
                agree += 1
            flagged_total += len(report.flagged)
            lossy_total += len(truth)
        return agree, flagged_total, lossy_total

    agree, flagged, truth = benchmark.pedantic(trial_block, rounds=1, iterations=1)
    if loss_rate == 0.05:
        emit("\n=== X-packetloss: detection matches counter-visible ground "
             f"truth ({TRIALS} trials, moduli 5,7) ===")
        emit(fmt_row(
            ["loss rate", "exact match", "flagged dirs", "lossy dirs", ""],
            WIDTHS,
        ))
    emit(fmt_row([loss_rate, f"{agree}/{TRIALS}", flagged, truth, ""], WIDTHS))
    assert agree == TRIALS


def test_false_negative_rate_vs_moduli(benchmark, emit):
    """The overflow caveat, quantified: a loss count ≡ 0 mod every counter
    is invisible; more primes shrink the blind set exactly as predicted."""

    moduli_sets = [(5,), (5, 7), (5, 7, 11)]

    def analyse():
        rows = []
        for moduli in moduli_sets:
            product = 1
            for m in moduli:
                product *= m
            blind = [
                k for k in range(1, 400) if all(k % m == 0 for m in moduli)
            ]
            rows.append((moduli, product, len(blind), blind[:3]))
        return rows

    rows = benchmark.pedantic(analyse, rounds=1, iterations=1)
    emit("\n=== X-packetloss: blind loss counts (k in 1..399) per modulus set ===")
    emit(fmt_row(["moduli", "lcm", "#blind", "examples", ""], WIDTHS))
    for moduli, product, blind_count, examples in rows:
        emit(fmt_row([str(moduli), product, blind_count, str(examples), ""],
                     WIDTHS))
    assert [r[2] for r in rows] == [79, 11, 1]  # 399//5, 399//35, 399//385


def test_blind_spot_demonstrated_end_to_end(benchmark, emit):
    """Lose exactly lcm(5,7)=35 packets: the (5,7) monitor is blind, the
    (5,7,11) monitor catches it."""
    from repro.net.link import Direction
    from repro.net.topology import line

    def run():
        outcomes = {}
        for moduli in ((5, 7), (5, 7, 11)):
            net = Network(line(3))
            runtime = SmartSouthRuntime(net)
            monitor = runtime.loss_monitor(moduli)
            link = net.links[0]
            link.set_blackhole(Direction.A_TO_B)
            monitor.send_traffic(35)
            link.clear()
            outcomes[moduli] = len(monitor.check(0).flagged)
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("\nX-packetloss blind spot: 35 lost packets -> "
         f"flagged with (5,7): {outcomes[(5, 7)]}, "
         f"with (5,7,11): {outcomes[(5, 7, 11)]}")
    assert outcomes[(5, 7)] == 0
    assert outcomes[(5, 7, 11)] >= 1


def test_counter_state_is_per_switch_group(benchmark, emit):
    """Smart counters really live in switch group state: two switches'
    counters advance independently under interleaved traffic."""
    topo = erdos_renyi(10, 0.3, seed=2)

    def run():
        from repro.core.engine import make_engine
        from repro.core.fields import FIELD_REPEAT
        from repro.core.services.blackhole import BlackholeService

        net = Network(topo)
        engine = make_engine(net, BlackholeService(), "compiled")
        engine.trigger(0, fields={FIELD_REPEAT: 3})
        # After the probe phase every healthy port counter reads >= 2.
        cursors = []
        for switch in engine.switches.values():
            for group in switch.groups.groups():
                from repro.openflow.group import GroupType

                if group.group_type is GroupType.SELECT:
                    cursors.append(group.rr_next)
        return cursors

    cursors = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(f"\nsmart counters after probe phase: min={min(cursors)}, "
         f"max={max(cursors)} (healthy ports count >= 2)")
    assert min(cursors) >= 2
