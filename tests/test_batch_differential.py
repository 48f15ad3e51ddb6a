"""Differential conformance: batched drain mode ≡ scalar drain mode.

The batched engine's acceptance check, mirroring
``test_fastpath_differential``: every scenario of the full service matrix —
snapshot / anycast / priocast / blackhole × the chaos topologies × seeded
fault profiles — runs once through the scalar event loop (one arrival per
handler call, the reference semantics) and once through the batched loop
(same-time same-node arrivals grouped into one ``process_batch`` call), and
every observable must be *byte-identical*: the full event trace, every
report and delivery, message accounting, and the complete per-entry /
per-group / per-bucket counter state including SELECT round-robin cursors.

The plain matrix mostly produces single-packet waves (batches of one); the
high-fan-out storm scenarios (:data:`repro.net.scenario.FANOUT_SCENARIOS`)
inject 8–16 simultaneous triggers so real multi-packet batches form, which
is where grouping, memoized lookups, and batch splitting actually execute.
"""

from __future__ import annotations

import json

import pytest

from repro.net.chaos import PROFILES, TOPOLOGIES
from repro.net.scenario import FANOUT_SCENARIOS, SERVICES, run_scenario

SEEDS = (11, 42)

MATRIX = [
    (service, topology, profile, seed)
    for service in SERVICES
    for topology in sorted(TOPOLOGIES)
    for profile in sorted(PROFILES)
    for seed in SEEDS
]

#: Storm scenarios run through both drain modes too — these are the runs
#: where batches are actually larger than one packet.
STORM_MATRIX = list(FANOUT_SCENARIOS)

#: A small interpreted-pipeline slice: batching is a property of the event
#: loop and the Switch.process_batch protocol, not of the fast path, so the
#: interpreted per-entry scan must batch identically as well.
INTERPRETED_MATRIX = [
    ("snapshot-storm", "torus3x3", "lossy", 11),
    ("priocast-storm", "torus3x3", "lossy", 42),
    ("blackhole", "complete5", "blackhole", 11),
]


def _first_divergence(scalar: dict, batched: dict) -> str:
    """A readable pointer at the first differing observable."""
    for key in scalar:
        if scalar[key] == batched[key]:
            continue
        if key == "trace":
            scalar_lines = scalar[key].splitlines()
            batched_lines = batched[key].splitlines()
            for i, (a, b) in enumerate(zip(scalar_lines, batched_lines)):
                if a != b:
                    return f"trace line {i}:\n  scalar:  {a}\n  batched: {b}"
            return (
                f"trace length: scalar={len(scalar_lines)} "
                f"batched={len(batched_lines)}"
            )
        return (
            f"{key}:\n  scalar:  {json.dumps(scalar[key])[:500]}\n"
            f"  batched: {json.dumps(batched[key])[:500]}"
        )
    return "no divergence"


def _assert_modes_identical(service, topology, profile, seed, fast_path):
    scalar = run_scenario(
        service, topology, profile, seed, fast_path=fast_path, batch=False
    )
    batched = run_scenario(
        service, topology, profile, seed, fast_path=fast_path, batch=True
    )
    assert scalar == batched, _first_divergence(scalar, batched)
    # Byte-identical, not merely equal: the JSON encodings must match too
    # (the golden corpus pins this format, in both modes).
    assert json.dumps(scalar, sort_keys=True) == json.dumps(
        batched, sort_keys=True
    )


@pytest.mark.parametrize(
    "service,topology,profile,seed",
    MATRIX,
    ids=[f"{s}-{t}-{p}-s{seed}" for s, t, p, seed in MATRIX],
)
def test_batch_byte_identical(service, topology, profile, seed):
    _assert_modes_identical(service, topology, profile, seed, fast_path=True)


@pytest.mark.parametrize(
    "service,topology,profile,seed",
    STORM_MATRIX,
    ids=[f"{s}-{t}-{p}-s{seed}" for s, t, p, seed in STORM_MATRIX],
)
def test_storm_batch_byte_identical(service, topology, profile, seed):
    _assert_modes_identical(service, topology, profile, seed, fast_path=True)


@pytest.mark.parametrize(
    "service,topology,profile,seed",
    INTERPRETED_MATRIX,
    ids=[f"{s}-{t}-{p}-s{seed}" for s, t, p, seed in INTERPRETED_MATRIX],
)
def test_interpreted_batch_byte_identical(service, topology, profile, seed):
    _assert_modes_identical(service, topology, profile, seed, fast_path=False)


def test_matrix_covers_all_services_and_faults():
    """The matrix really spans the ISSUE's grid (guards against silent
    shrinkage when chaos profiles or topologies are renamed)."""
    services = {m[0] for m in MATRIX}
    topologies = {m[1] for m in MATRIX}
    profiles = {m[2] for m in MATRIX}
    assert services == {"snapshot", "anycast", "priocast", "blackhole"}
    assert topologies == set(TOPOLOGIES)
    assert profiles == set(PROFILES)
    assert len(MATRIX) == len(services) * len(topologies) * len(profiles) * len(
        SEEDS
    )


def test_storm_matrix_covers_fanout_services():
    """Every storm service variant appears, and storms really fan out:
    each injects at least 8 simultaneous triggers (the roots list in the
    aggregated result) and drains them in one run."""
    services = {m[0] for m in STORM_MATRIX}
    assert services == {"snapshot-storm", "anycast-storm", "priocast-storm"}
    for service, topology, profile, seed in STORM_MATRIX:
        observed = run_scenario(
            service, topology, profile, seed, fast_path=True, batch=True
        )
        assert observed["error"] is None
        (aggregate,) = observed["results"]
        assert len(aggregate["roots"]) >= 8


def test_storms_produce_multi_packet_batches():
    """The whole point of the storm corpus: batched runs must actually see
    batches larger than one packet, or the differential suite is vacuous."""
    from repro.core.engine import make_engine
    from repro.net.chaos import _plan_faults
    from repro.net.scenario import _PLAN_SALT, _build_storm
    from repro.net.simulator import Network
    from repro.core.determinism import seeded_rng

    service_name, topology_name, profile_name, seed = STORM_MATRIX[0]
    topology = TOPOLOGIES[topology_name]()
    network = Network(topology, seed=seed, fast_path=True, batch=True)
    plan_rng = seeded_rng(seed ^ _PLAN_SALT)
    root = plan_rng.randrange(topology.num_nodes)
    _plan_faults(
        network, PROFILES[profile_name], service_name, root, plan_rng, None
    )
    service, triggers = _build_storm(service_name, topology, root, plan_rng)
    engine = make_engine(network, service, "compiled", fast_path=True, batch=True)

    batch_sizes = []
    original = network._run_segment

    def spy(node, handler, run, base, end):
        batch_sizes.append(end - base)
        return original(node, handler, run, base, end)

    network._run_segment = spy
    for trigger_root, fields, from_controller in triggers:
        engine.trigger(
            trigger_root,
            fields=dict(fields),
            from_controller=from_controller,
            run=False,
        )
    network.run()
    assert batch_sizes, "batched run never reached the segment runner"
    assert max(batch_sizes) >= 2, (
        f"storm produced only single-packet segments: {batch_sizes[:20]}"
    )


def _crash_root_mid_segment(batch: bool):
    """Four same-root snapshot triggers on fat_tree(4): in batch mode they
    form one segment at the root, and a step hook crashes the root after
    its first packet."""
    from repro.core.engine import make_engine
    from repro.core.services.snapshot import SnapshotService
    from repro.net.simulator import Network
    from repro.net.topology import fat_tree

    network = Network(fat_tree(4), fast_path=True, batch=batch)
    engine = make_engine(
        network, SnapshotService(), "compiled", fast_path=True, batch=batch
    )
    engine.install()
    root = engine.switches[0]
    network.at_packet_step(1, root.crash)
    for _ in range(4):
        engine.trigger(0, run=False)
    network.run()
    return root, network.trace


def test_crash_mid_segment_stops_the_rest_of_the_batch():
    """The crash flag is read per packet, not once per segment: the
    crashed root drops the three arrivals still queued behind it."""
    scalar_root, scalar_trace = _crash_root_mid_segment(batch=False)
    batched_root, batched_trace = _crash_root_mid_segment(batch=True)
    assert batched_trace.to_jsonl() == scalar_trace.to_jsonl()
    assert scalar_root.packets_processed == batched_root.packets_processed == 1
    assert len(batched_trace) == 24
