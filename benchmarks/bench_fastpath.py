"""Experiment F-fastpath: indexed dispatch vs the interpreted entry scan.

Measures packet-step throughput of both switch engines — the interpreted
linear priority scan and the compiled fast path of
:mod:`repro.openflow.fastpath` — over recorded traversal workloads on the
scalability topologies (the mean-degree-6 random graphs of
``bench_scalability``, a dense complete graph, and a star hub whose O(Δ²)
sweep tables are the worst case for linear scan).

The workload is recorded once per topology: a full snapshot traversal runs
on the real simulator and every pipeline arrival ``(node, fields, stack,
in_port)`` is captured by wrapping the installed handlers.  Replaying that
arrival sequence through a fresh switch set — no simulator, no trace —
times nothing but the per-packet pipeline, which is exactly what the fast
path accelerates.

Gates:

* **Target**: the fast path must reach the headline >=5x speedup on every
  workload.
* **Regression**: that speedup must stay within 20% of the committed
  baseline (``benchmarks/baselines/fastpath_baseline.json``).  Speedup is a
  same-machine ratio, so the gate is stable across runners of different
  absolute speed.

Experiment F-batch measures the batched packet engine: >=10k concurrent
trigger packets — one storm-sized batch at a hub switch — drained through
:meth:`FastPath.process_batch` versus the same packets through scalar
:meth:`FastPath.process` calls.  Both replay chains from the switch's
persistent chain cache; the batch additionally elides the final copy of
the arrivals it owns.  Its gate is that the batched drain is not slower
than the scalar one (>= 0.9x, room for timer noise); there is no
committed ratio.  Run only this experiment with ``--batch``.

After an intentional perf change, regenerate the baseline with::

    PYTHONPATH=src python -m pytest benchmarks/bench_fastpath.py \
        --update-fastpath-baseline
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.core.compiler import compile_service
from repro.core.engine import make_engine
from repro.core.fields import FIELD_GID, FIELD_SVC
from repro.core.services.anycast import AnycastService
from repro.core.services.snapshot import SnapshotService
from repro.net.simulator import Network
from repro.net.topology import complete, erdos_renyi, star
from repro.openflow.packet import LOCAL_PORT, Packet

from conftest import fmt_row

BASELINE_PATH = Path(__file__).parent / "baselines" / "fastpath_baseline.json"
SPEEDUP_TARGET = 5.0
#: The batched drain must not be slower than the scalar one.
BATCH_SPEEDUP_FLOOR = 0.9
#: Concurrent trigger packets per measured batch (the ISSUE floor is 10k).
BATCH_PACKETS = 10_000
REGRESSION_TOLERANCE = 0.8  # fail if speedup < 80% of the baseline
WIDTHS = (16, 10, 12, 12, 10, 10)
BATCH_WIDTHS = (20, 10, 13, 13, 10)

#: (name, topology factory, replay repeats).  Repeats are sized so each
#: engine replays a few thousand arrivals — enough to dominate timer noise
#: without making the bench slow.
WORKLOADS = [
    ("erdos50_deg6", lambda: erdos_renyi(50, 6.0 / 49, seed=5), 8),
    ("complete12", lambda: complete(12), 20),
    ("star16", lambda: star(17), 100),
]


def record_workload(topo, service_factory=SnapshotService, trigger_fields=None):
    """Run one service traversal and capture every pipeline arrival.

    Handlers are wrapped *after* ``engine.install()`` — ``trigger()`` would
    call install itself and rebind the handlers, clobbering the recorders —
    so the trigger packet is injected and run manually.
    """
    if trigger_fields is None:
        trigger_fields = {FIELD_SVC: SnapshotService.service_id}
    net = Network(topo)
    engine = make_engine(net, service_factory(), "compiled")
    engine.install()
    arrivals = []
    for node, switch in engine.switches.items():
        def recorder(packet, in_port, node=node, orig=switch.process):
            arrivals.append(
                (node, dict(packet.fields), list(packet.stack), in_port)
            )
            return orig(packet, in_port)

        net.set_handler(node, recorder)
    net.inject(0, Packet(fields=dict(trigger_fields)), in_port=LOCAL_PORT)
    net.run()
    assert arrivals, "traversal produced no pipeline arrivals"
    return net, arrivals


def _fresh_switches(net, fast: bool):
    switches = {
        node: compile_service(net, node, SnapshotService(), fast_path=fast)
        for node in net.topology.nodes()
    }
    if fast:
        for switch in switches.values():
            switch.warm_fast_path()  # compile outside the timed region
    return switches


def _outputs_signature(outputs):
    """Engine-comparable view of a PacketOut list (packet ids are global
    allocation order, not semantics, so they are excluded)."""
    return [
        (out.port, sorted(out.packet.fields.items()), list(out.packet.stack))
        for out in outputs
    ]


def replay_throughput(net, arrivals, fast: bool, repeat: int) -> float:
    """Replay the arrival sequence *repeat* times; packets per second."""
    switches = _fresh_switches(net, fast)
    batches = [
        [
            (node, Packet(fields=dict(fields), stack=list(stack)), in_port)
            for node, fields, stack, in_port in arrivals
        ]
        for _ in range(repeat)
    ]
    start = time.perf_counter()
    for batch in batches:
        for node, packet, in_port in batch:
            switches[node].process(packet, in_port)
    elapsed = time.perf_counter() - start
    return len(arrivals) * repeat / elapsed


def _load_baseline() -> dict:
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "name,topo_factory,repeat", WORKLOADS, ids=[w[0] for w in WORKLOADS]
)
def test_fastpath_speedup(benchmark, emit, request, name, topo_factory, repeat):
    net, arrivals = record_workload(topo_factory())

    # Spot-check engine agreement on this workload before timing it (the
    # deep byte-identical checks live in tests/test_fastpath_differential.py).
    slow_switches = _fresh_switches(net, fast=False)
    fast_switches = _fresh_switches(net, fast=True)
    for node, fields, stack, in_port in arrivals:
        slow_out = slow_switches[node].process(
            Packet(fields=dict(fields), stack=list(stack)), in_port
        )
        fast_out = fast_switches[node].process(
            Packet(fields=dict(fields), stack=list(stack)), in_port
        )
        assert _outputs_signature(slow_out) == _outputs_signature(fast_out)

    def measure():
        slow = replay_throughput(net, arrivals, fast=False, repeat=repeat)
        fast = replay_throughput(net, arrivals, fast=True, repeat=repeat)
        return slow, fast

    slow, fast = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = fast / slow

    if name == WORKLOADS[0][0]:
        emit("\n=== F-fastpath: packet-step throughput, interpreted vs compiled ===")
        emit(fmt_row(
            ["workload", "arrivals", "slow pkt/s", "fast pkt/s",
             "speedup", "baseline"], WIDTHS,
        ))
    baseline = _load_baseline()
    base_speedup = baseline["workloads"][name]["speedup"]
    emit(fmt_row(
        [name, len(arrivals), f"{slow:,.0f}", f"{fast:,.0f}",
         f"{speedup:.2f}x", f"{base_speedup:.2f}x"], WIDTHS,
    ))

    if request.config.getoption("--update-fastpath-baseline"):
        baseline["workloads"][name]["speedup"] = round(speedup, 2)
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        return

    # Gate 1: the headline target.
    assert speedup >= SPEEDUP_TARGET, (
        f"{name}: fast path speedup {speedup:.2f}x below the "
        f"{SPEEDUP_TARGET}x target"
    )
    # Gate 2: no >20% regression against the committed baseline.
    floor = base_speedup * REGRESSION_TOLERANCE
    assert speedup >= floor, (
        f"{name}: fast path speedup {speedup:.2f}x regressed more than "
        f"20% below the committed baseline {base_speedup:.2f}x "
        f"(floor {floor:.2f}x) — if intentional, rerun with "
        f"--update-fastpath-baseline"
    )


# --------------------------------------------------------------------- #
# Experiment F-batch: batched drain mode vs scalar fast path            #
# --------------------------------------------------------------------- #

#: (name, topology factory, service factory, trigger fields factory).
#: Each workload records one real traversal, takes the *hottest* arrival
#: shape (the hub's — where a storm's simultaneous triggers pile up) and
#: replays BATCH_PACKETS copies of it as one batch.
BATCH_WORKLOADS = [
    (
        "snapshot_star16_hub",
        lambda: star(17),
        SnapshotService,
        lambda: {FIELD_SVC: SnapshotService.service_id},
    ),
    (
        "snapshot_complete12",
        lambda: complete(12),
        SnapshotService,
        lambda: {FIELD_SVC: SnapshotService.service_id},
    ),
    (
        "anycast_star9_hub",
        lambda: star(10),
        lambda: AnycastService({2: {1, 2}}),
        lambda: {FIELD_SVC: AnycastService.service_id, FIELD_GID: 2},
    ),
]


def _hot_arrival(arrivals):
    """The most frequent recorded arrival shape (the hub switch's)."""
    keyed = Counter(
        (node, tuple(sorted(fields.items())), tuple(map(tuple, stack)), ip)
        for node, fields, stack, ip in arrivals
    )
    (node, fields, stack, in_port), _count = keyed.most_common(1)[0]
    return node, dict(fields), [list(record) for record in stack], in_port


def _batch_items(fields, stack, in_port, count):
    return [
        (
            Packet(fields=dict(fields), stack=[list(r) for r in stack]),
            in_port,
        )
        for _ in range(count)
    ]


def _batch_counters(switch):
    return (
        switch.packets_processed,
        switch.table_misses,
        [
            (table_id, entry.seq, entry.packet_count)
            for table_id, entry in switch.iter_entries()
        ],
        [
            (
                group.group_id,
                group.packet_count,
                group.rr_next,
                [bucket.packet_count for bucket in group.buckets],
            )
            for group in switch.groups.groups()
        ],
    )


@pytest.mark.batch
@pytest.mark.parametrize(
    "name,topo_factory,service_factory,trigger_factory",
    BATCH_WORKLOADS,
    ids=[w[0] for w in BATCH_WORKLOADS],
)
def test_batch_speedup(
    benchmark, emit, name, topo_factory, service_factory, trigger_factory
):
    net, arrivals = record_workload(
        topo_factory(), service_factory, trigger_factory()
    )
    node, fields, stack, in_port = _hot_arrival(arrivals)

    def fresh():
        switch = compile_service(net, node, service_factory(), fast_path=True)
        switch.warm_fast_path()
        return switch

    # Spot-check drain-mode agreement on this workload before timing it:
    # identical per-packet outputs and identical counter state (the deep
    # byte-identical checks live in tests/test_batch_differential.py).
    scalar_switch, batch_switch = fresh(), fresh()
    probe = 64
    scalar_out = [
        [
            (out.port, sorted(out.packet.fields.items()), list(out.packet.stack))
            for out in scalar_switch.process(pkt, ip)
        ]
        for pkt, ip in _batch_items(fields, stack, in_port, probe)
    ]
    batch_out = [None] * probe

    def check_deliver(index, outputs):
        batch_out[index] = [
            (port, sorted(pkt.fields.items()), list(pkt.stack))
            for port, pkt in outputs
        ]

    batch_switch.process_batch(
        _batch_items(fields, stack, in_port, probe), check_deliver
    )
    assert scalar_out == batch_out
    assert _batch_counters(scalar_switch) == _batch_counters(batch_switch)

    def drop(index, outputs):
        pass

    def measure():
        switch = fresh()
        items = _batch_items(fields, stack, in_port, BATCH_PACKETS)
        start = time.perf_counter()
        for pkt, ip in items:
            switch.process(pkt, ip)
        scalar_tp = BATCH_PACKETS / (time.perf_counter() - start)

        switch = fresh()
        items = _batch_items(fields, stack, in_port, BATCH_PACKETS)
        start = time.perf_counter()
        switch.process_batch(items, drop)
        batch_tp = BATCH_PACKETS / (time.perf_counter() - start)
        return scalar_tp, batch_tp

    scalar_tp, batch_tp = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = batch_tp / scalar_tp

    if name == BATCH_WORKLOADS[0][0]:
        emit(
            "\n=== F-batch: batched drain vs scalar fast path "
            f"({BATCH_PACKETS:,} concurrent trigger packets) ==="
        )
        emit(fmt_row(
            ["workload", "packets", "scalar pkt/s", "batch pkt/s", "speedup"],
            BATCH_WIDTHS,
        ))
    emit(fmt_row(
        [name, BATCH_PACKETS, f"{scalar_tp:,.0f}", f"{batch_tp:,.0f}",
         f"{speedup:.2f}x"], BATCH_WIDTHS,
    ))
    assert speedup >= BATCH_SPEEDUP_FLOOR, (
        f"{name}: batched drain at {speedup:.2f}x of the scalar fast path, "
        f"below the {BATCH_SPEEDUP_FLOOR}x floor"
    )
