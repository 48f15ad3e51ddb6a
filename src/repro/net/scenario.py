"""Seeded scenario runner: one chaos scenario → one observable dict.

One *scenario* is a fully seeded run: a service, a chaos topology, a fault
profile, and a seed.  :func:`run_scenario` executes it on one switch engine
(interpreted or fast path) and returns every observable as one
JSON-serializable dict — the full event trace, per-trigger outcomes, and a
complete counters snapshot (per-entry, per-group, per-bucket, round-robin
cursors).  Two engines (or two *processes*) are *byte-identical* on a
scenario iff their observable dicts (and hence their JSON encodings) are
equal.

Three consumers share this module:

* the fast-path differential suite (``tests/test_fastpath_differential.py``)
  compares both engines on a scenario matrix;
* the golden-trace corpus (``tests/test_golden_traces.py``) pins the
  fast-path observables of :data:`GOLDEN_SCENARIOS` against history;
* the double-run determinism gate
  (:mod:`repro.analysis.doublerun`) hashes the same observables in
  two subprocesses under different ``PYTHONHASHSEED`` values and demands
  identical digests.

Determinism notes:

* Packet ids come from the scenario's own network (``network.ids``), so
  identical behaviour yields identical ids whatever ran before in the
  process; they are compared, not masked.
* Fault plans draw from a seed-derived RNG (the chaos harness's
  ``_plan_faults``); the same seed produces the same plan everywhere.
* Link loss/jitter draws come from the network's own seeded RNG *during*
  the run, so the draw sequence — and everything after it — stays identical
  only while the run emits exactly the same packets in the same order.
  A divergence amplifies instead of averaging out, which is the point.
"""

from __future__ import annotations

from repro.core.determinism import Rng, seeded_rng
from repro.core.engine import make_engine
from repro.core.fields import FIELD_GID, FIELD_REPEAT
from repro.core.services.anycast import AnycastService, PriocastService
from repro.core.services.blackhole import (
    REPEAT_PROBE,
    REPEAT_VERIFY,
    BlackholeService,
)
from repro.core.services.snapshot import SnapshotService
from repro.net.chaos import PROFILES, TOPOLOGIES, _plan_faults
from repro.net.simulator import Network

#: The services the differential matrix covers (the paper's case studies
#: plus priocast, which exercises SELECT groups hardest).
SERVICES = ("snapshot", "anycast", "priocast", "blackhole")

#: Twelve pinned scenarios: every service × both chaos topologies, profiles
#: and seeds varied so lossy, partition and blackhole faults all appear.
#: The golden-trace corpus and the double-run determinism gate both walk
#: this list.
GOLDEN_SCENARIOS = (
    ("snapshot", "torus3x3", "lossy", 11),
    ("snapshot", "complete5", "partition", 42),
    ("snapshot", "torus3x3", "blackhole", 7),
    ("anycast", "torus3x3", "partition", 11),
    ("anycast", "complete5", "lossy", 42),
    ("anycast", "complete5", "blackhole", 3),
    ("priocast", "torus3x3", "blackhole", 11),
    ("priocast", "complete5", "lossy", 7),
    ("priocast", "torus3x3", "partition", 42),
    ("blackhole", "torus3x3", "lossy", 42),
    ("blackhole", "complete5", "blackhole", 11),
    ("blackhole", "complete5", "partition", 7),
)

#: High-fan-out scenarios: a "-storm" service injects 8–16 simultaneous
#: triggers (roots drawn with replacement, so several land on one switch in
#: the same time bucket) and drains them in one event-loop run.  These are
#: the corpus entries that actually exercise batched dispatch — the batched
#: engine must reproduce them byte for byte, interleavings included.
FANOUT_SCENARIOS = (
    ("snapshot-storm", "torus3x3", "lossy", 11),
    ("snapshot-storm", "complete5", "blackhole", 42),
    ("anycast-storm", "complete5", "partition", 7),
    ("priocast-storm", "torus3x3", "lossy", 42),
)

#: Mixed into the scenario seed for fault planning (the chaos harness's
#: constant, so fault plans look like chaos campaign plans).
_PLAN_SALT = 0x9E3779B9


def _build_run(service_name: str, topology, root: int, rng: Rng):
    """The service instance and its trigger list for one scenario.

    Returns ``(service, triggers)`` where each trigger is
    ``(fields, from_controller)``.
    """
    others = [n for n in topology.nodes() if n != root]
    if service_name == "snapshot":
        return SnapshotService(), [({}, True)]
    if service_name == "anycast":
        members = set(rng.sample(others, min(2, len(others))))
        return AnycastService({2: members}), [({FIELD_GID: 2}, False)]
    if service_name == "priocast":
        chosen = rng.sample(others, min(3, len(others)))
        priorities = {2: {node: rng.randint(1, 255) for node in chosen}}
        return PriocastService(priorities), [({FIELD_GID: 2}, False)]
    if service_name == "blackhole":
        # Probe then verify: the two-phase smart-counter detection, which
        # exercises SELECT round-robin cursors across triggers.
        return BlackholeService(), [
            ({FIELD_REPEAT: REPEAT_PROBE}, True),
            ({FIELD_REPEAT: REPEAT_VERIFY}, True),
        ]
    raise ValueError(f"unknown scenario service {service_name!r}")


def _build_storm(service_name: str, topology, root: int, rng: Rng):
    """A "-storm" scenario: the base service, triggered many times at once.

    Returns ``(service, triggers)`` where each trigger is
    ``(root, fields, from_controller)``.  The base service's configuration
    draws happen first (identical to the plain scenario), then 8–16 trigger
    roots are drawn with replacement over all nodes.
    """
    base = service_name[: -len("-storm")]
    if base not in ("snapshot", "anycast", "priocast"):
        raise ValueError(f"unknown storm service {service_name!r}")
    service, proto = _build_run(base, topology, root, rng)
    count = 8 + rng.randrange(9)
    triggers = []
    for _ in range(count):
        trigger_root = rng.randrange(topology.num_nodes)
        for fields, from_controller in proto:
            triggers.append((trigger_root, fields, from_controller))
    return service, triggers


def _packet_view(packet) -> dict:
    return {
        "packet_id": packet.packet_id,
        "hops": packet.hops,
        "fields": sorted(packet.fields.items()),
        "stack": [list(record) for record in packet.stack],
    }


def _result_view(result) -> dict:
    return {
        "root": result.root,
        "reports": [
            [node, _packet_view(packet)] for node, packet in result.reports
        ],
        "deliveries": [
            [node, _packet_view(packet)] for node, packet in result.deliveries
        ],
        "in_band_messages": result.in_band_messages,
        "out_band_messages": result.out_band_messages,
    }


def counters_snapshot(switch) -> dict:
    """Every OpenFlow counter a switch exposes, in deterministic order."""
    entries = [
        [
            table_id,
            entry.seq,
            entry.priority,
            entry.cookie,
            entry.packet_count,
        ]
        for table_id, entry in switch.iter_entries()
    ]
    groups = [
        [
            group.group_id,
            group.group_type.value,
            group.packet_count,
            group.rr_next,
            [bucket.packet_count for bucket in group.buckets],
        ]
        for group in switch.groups.groups()
    ]
    return {
        "packets_processed": switch.packets_processed,
        "table_misses": switch.table_misses,
        "entries": entries,
        "groups": groups,
    }


def run_scenario(
    service_name: str,
    topology_name: str,
    profile_name: str,
    seed: int,
    fast_path: bool,
    batch: bool = False,
) -> dict:
    """Run one seeded chaos scenario on one engine; return its observables.

    ``batch=True`` runs the same scenario through the batched drain mode
    (grouped same-time arrivals, batched fast-path dispatch); the
    observable dict is required to be byte-identical either way.
    """
    storm = service_name.endswith("-storm")
    topology = TOPOLOGIES[topology_name]()
    network = Network(topology, seed=seed, fast_path=fast_path, batch=batch)
    plan_rng = seeded_rng(seed ^ _PLAN_SALT)
    root = plan_rng.randrange(topology.num_nodes)
    faults = _plan_faults(
        network, PROFILES[profile_name], service_name, root, plan_rng, None
    )
    if storm:
        service, triggers = _build_storm(service_name, topology, root, plan_rng)
    else:
        service, triggers = _build_run(service_name, topology, root, plan_rng)
    engine = make_engine(
        network, service, "compiled", fast_path=fast_path, batch=batch
    )

    results = []
    error = None
    try:
        if storm:
            # All triggers enter the event queue before it drains once:
            # simultaneous same-node arrivals form real batches.
            trace = network.trace
            mark_in = trace.in_band_messages
            mark_out = trace.out_band_messages
            for trigger_root, fields, from_controller in triggers:
                engine.trigger(
                    trigger_root,
                    fields=dict(fields),
                    from_controller=from_controller,
                    run=False,
                )
            network.run()
            results.append(
                {
                    "roots": [t[0] for t in triggers],
                    "reports": [
                        [node, _packet_view(packet)]
                        for node, packet in engine.reports
                    ],
                    "deliveries": [
                        [node, _packet_view(packet)]
                        for node, packet in engine.deliveries
                    ],
                    "in_band_messages": trace.in_band_messages - mark_in,
                    "out_band_messages": trace.out_band_messages - mark_out,
                }
            )
        else:
            for fields, from_controller in triggers:
                result = engine.trigger(
                    root, fields=dict(fields), from_controller=from_controller
                )
                results.append(_result_view(result))
    except Exception as exc:  # noqa: BLE001 - errors are observables too
        error = [type(exc).__name__, str(exc)]

    assert all(
        switch.fast_path_enabled == fast_path
        for switch in engine.switches.values()
    ), "engine flag did not reach the switches"
    assert engine.batch == batch and network.batch == batch, (
        "batch flag did not reach the network"
    )

    return {
        "scenario": {
            "service": service_name,
            "topology": topology_name,
            "profile": profile_name,
            "seed": seed,
            "root": root,
        },
        "faults": faults,
        "results": results,
        "error": error,
        "trace": network.trace.to_jsonl(),
        "trace_summary": sorted(network.trace.summary().items()),
        "counters": {
            str(node): counters_snapshot(switch)
            for node, switch in sorted(engine.switches.items())
        },
    }
