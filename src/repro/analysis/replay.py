"""Replay model-checker counterexamples in the discrete-event simulator.

A :class:`~repro.analysis.modelcheck.Counterexample` is an *action trace*:
trigger injections, link failures and packet steps.  Because both the
checker and the simulator count time in **packet steps** (pipeline
executions — see :meth:`Network.at_packet_step`), the trace converts
directly into a deterministic simulator schedule:

* ``("fail", e)`` after *k* step actions →
  :func:`~repro.net.failures.fail_edge_after_steps` at step *k*;
* ``("inject", i)`` after *k* step actions → ``engine.trigger(run=False)``
  immediately (*k* = 0) or hooked at packet step *k*;
* blackholes from the scenario → ``link.set_blackhole()`` before anything
  moves (a blackhole looks *up* to fast-failover, so it never changes the
  schedule — it only swallows).

After the scheduled prefix the simulator simply runs to quiescence, which
mirrors the checker's deterministic trace closure.  The replay then asks:
*does the simulator exhibit the same violation?*  For terminal-scope
invariants this is literal: the simulator's observables (controller
reports, local deliveries, dead-port/swallow losses, final live-link set)
are packed into a synthetic terminal :class:`GlobalState` and judged by the
**same** invariant implementations the checker used, over the same
observable (:func:`~repro.analysis.modelcheck.observe`).  The checker's
step already runs the switch's own match and action code, so the replay
is the end-to-end confirmation of a trace in the timed simulator — links,
event order and the engine's sinks included — not a reimplementation of
the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable

from repro.analysis.modelcheck import (
    INVARIANTS,
    Counterexample,
    GlobalState,
    ModelContext,
    Scenario,
    hop_bound,
    observe,
)
from repro.core.engine import make_engine
from repro.core.smart_counter import counter_bucket_value
from repro.net.failures import fail_edge_after_steps
from repro.net.simulator import Network, SimulationLimitError
from repro.net.topology import Topology
from repro.net.trace import EventKind
from repro.openflow.errors import OpenFlowError
from repro.openflow.group import GroupType

#: Event budget for one replay; generous, but a rule loop hits it fast.
DEFAULT_REPLAY_EVENTS = 200_000


@dataclass
class ReplayResult:
    """Everything one simulator replay produced."""

    scenario: Scenario
    #: (node, ((field, value), ...), stack) — the checker's report shape.
    reports: list[tuple] = dataclass_field(default_factory=list)
    #: (node, ((field, value), ...)) — the checker's delivery shape.
    deliveries: list[tuple] = dataclass_field(default_factory=list)
    dead_ports: int = 0
    swallowed: int = 0
    packet_steps: int = 0
    looped: bool = False
    pipeline_error: str | None = None
    live: frozenset[int] = frozenset()
    network: Network | None = None
    engine: object | None = None

    def terminal_state(self) -> GlobalState:
        """Pack the observables into a checker-shaped terminal state."""
        losses = []
        losses.extend(("dead_port", -1, 0, -1) for _ in range(self.dead_ports))
        losses.extend(("swallowed", -1, 0, -1) for _ in range(self.swallowed))
        if self.looped or self.pipeline_error:
            # The run never went quiescent; count it as an in-flight loss so
            # completion invariants do not judge a truncated run.
            losses.append(("dead_port", -1, 0, -1))
        return GlobalState(
            packets=(),
            live=self.live,
            cursors=(),
            failures_left=0,
            next_trigger=len(self.scenario.triggers),
            extra_left=0,
            next_pid=0,
            reports=tuple(self.reports),
            deliveries=tuple(self.deliveries),
            losses=tuple(losses),
        )


def replay_counterexample(
    counterexample: Counterexample,
    topology: Topology,
    service,
    mutate: Callable | None = None,
    max_events: int = DEFAULT_REPLAY_EVENTS,
) -> ReplayResult:
    """Execute *counterexample*'s trace as a deterministic simulator run.

    *mutate*, when given, receives the freshly-installed compiled engine —
    the same fault-injection hook the checker's callers use, so a seeded
    rule fault is applied identically on both sides of the differential
    check.
    """
    scenario = counterexample.scenario
    event = next((a for a in counterexample.trace if a in scenario.events), None)
    if event is not None:
        # Environment-event traces (MC010's controller crash, MC011's switch
        # crash and bare reboot) need the origin epoch gate or a crashed
        # switch, which the simulator replay does not model yet; refusing
        # beats a silently-divergent replay.
        raise ValueError(
            f"{event[0]} counterexamples are not replayable; inspect the "
            "trace with Counterexample.format() instead"
        )
    network = Network(topology)
    engine = make_engine(network, service, "compiled")
    engine.install()
    if mutate is not None:
        mutate(engine)
    for edge_id in scenario.blackholes:
        network.links[edge_id].set_blackhole()

    steps = 0
    for action in counterexample.trace:
        kind = action[0]
        if kind == "step":
            steps += 1
        elif kind == "fail":
            fail_edge_after_steps(network, action[1], steps)
        elif kind in ("inject", "inject-extra"):
            index = action[1] if kind == "inject" else 0
            spec = scenario.triggers[index]

            def _inject(spec=spec):
                engine.trigger(
                    spec.root,
                    spec.field_dict(),
                    from_controller=True,
                    run=False,
                )

            if steps == 0:
                _inject()
            else:
                network.at_packet_step(steps, _inject)
    if not any(a[0] in ("inject", "inject-extra") for a in counterexample.trace):
        # A purely-terminal counterexample (e.g. a pre-traversal failure
        # branch minimized down to nothing): still run the triggers.
        for spec in scenario.triggers:
            engine.trigger(
                spec.root, spec.field_dict(), from_controller=True, run=False
            )

    result = ReplayResult(scenario=scenario, network=network, engine=engine)
    try:
        network.run(max_events=max_events)
    except SimulationLimitError:
        result.looped = True
    except OpenFlowError as exc:
        result.pipeline_error = f"{type(exc).__name__}: {exc}"

    result.reports = [
        (node, observe(packet.fields), tuple(packet.stack))
        for node, packet in engine.reports
    ]
    result.deliveries = [
        (node, observe(packet.fields)) for node, packet in engine.deliveries
    ]
    result.dead_ports = network.trace.count(EventKind.DEAD_PORT)
    result.swallowed = network.trace.count(EventKind.DROP)
    result.packet_steps = network.packet_steps
    result.live = frozenset(
        link.edge.edge_id for link in network.links if link.up
    )
    return result


#: Invariants whose violation the simulator confirms via the shared
#: terminal-state oracle.
_TERMINAL_IDS = frozenset({"MC002T", "MC004", "MC005", "MC007"})


def confirms_violation(
    result: ReplayResult,
    counterexample: Counterexample,
    topology: Topology,
    service,
) -> tuple[bool, str]:
    """Does the replay exhibit the counterexample's violation?

    Returns ``(confirmed, evidence)`` where *evidence* is a one-line
    human-readable justification (or the reason confirmation failed).
    """
    violation = counterexample.violation
    inv_id = violation.invariant

    if inv_id in _TERMINAL_IDS:
        ctx = ModelContext(topology, service, result.scenario)
        state = result.terminal_state()
        found = [
            v
            for v in INVARIANTS[inv_id].check(ctx, state)
            if v.invariant == inv_id
        ]
        if found:
            return True, f"simulator observables violate: {found[0].message}"
        return False, "simulator observables satisfy the invariant"

    if inv_id == "MC001":
        bound = hop_bound(service.name, topology)
        budget = bound + 2 * len(result.scenario.triggers) + 4
        if result.looped:
            return True, "simulator hit its event budget (forwarding loop)"
        if result.pipeline_error and "PipelineError" in result.pipeline_error:
            return True, f"pipeline looped: {result.pipeline_error}"
        if result.packet_steps > budget:
            return (
                True,
                f"{result.packet_steps} packet steps exceed the "
                f"{budget}-step budget",
            )
        return False, f"run quiesced in {result.packet_steps} steps"

    if inv_id == "MC002":
        # Pops on an empty stack are silent in the simulator; their effect
        # is a record-starved final stream — judged by the terminal oracle.
        from repro.analysis.modelcheck import _duplicate_link_records
        from repro.core.services.snapshot import (
            SnapshotDecodeError,
            decode_snapshot,
        )

        for node, _fields, stack in result.reports:
            if _duplicate_link_records(stack):
                return True, f"duplicate edge record in report from {node}"
            try:
                decode_snapshot(list(stack))
            except SnapshotDecodeError as exc:
                return True, f"malformed record stream: {exc}"
        return False, "all simulator record streams decode cleanly"

    if inv_id == "MC003":
        switches = getattr(result.engine, "switches", {})
        for node, switch in switches.items():
            for group in switch.groups.groups():
                if group.group_type is not GroupType.SELECT:
                    continue
                for index in range(len(group.buckets)):
                    value = counter_bucket_value(group, index)
                    if value != index:
                        return (
                            True,
                            f"node {node} group {group.group_id} bucket "
                            f"{index} writes {value}",
                        )
        return False, "every SELECT bucket writes its own index"

    if inv_id == "MC006":
        if result.dead_ports:
            return (
                True,
                f"simulator recorded {result.dead_ports} dead-port "
                f"emission(s)",
            )
        return False, "no dead-port emission in the simulator trace"

    if inv_id == "MC008":
        if result.pipeline_error:
            return True, f"pipeline raised: {result.pipeline_error}"
        return False, "no pipeline execution error in the simulator"

    return False, f"no simulator oracle for invariant {inv_id}"
