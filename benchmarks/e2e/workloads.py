"""The six workloads of the end-to-end benchmark.

A workload turns ``--seed`` into inputs (wiring of the random graphs,
roots, group members, priorities, planted faults, crash victims, chaos
seeds, op order), performs its declared set-up, and hands the runner one
*cycle*: a fixed list of ops.  The runner repeats whole cycles until the
run's time is up, so every percentile is taken over a sample whose
composition is exactly the cycle's, however fast the machine is.

An op is a closed-loop request by one caller: ``run()`` is timed and ends
with the decoded answer in the caller's hands; ``finish()`` is untimed,
judges the answer with :mod:`oracles`, and clears the network's trace.

Op *mixes* are the ones ISSUE 11 fixed; a cycle is the smallest list that
has the mix exactly, so the op count scales with ``--seconds`` and the mix
never does.

Only the public facades are driven, and always through their module
attribute at call time, so the traced run's shims (tracing.py) see every
call.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable

import oracles

#: Facade modules, bound by :func:`load_program` (run.py times that call
#: as part of ``setup_s``).
P = SimpleNamespace()

_CORE_MODULES = {
    "runtime": "repro.core.runtime",
    "engine": "repro.core.engine",
    "simulator": "repro.net.simulator",
    "topology": "repro.net.topology",
    "fields": "repro.core.fields",
    "snapshot": "repro.core.services.snapshot",
    "anycast": "repro.core.services.anycast",
    "critical": "repro.core.services.critical",
    "blackhole": "repro.core.services.blackhole",
}
_EXTRA_MODULES = {
    "fault_recovery": {
        "supervisor": "repro.control.supervisor",
        "failures": "repro.net.failures",
        "chaos": "repro.net.chaos",
    },
    "verify": {"analysis": "repro.analysis"},
}


def load_program(workload: str) -> None:
    """Import the facades *workload* drives."""
    wanted = dict(_CORE_MODULES)
    wanted.update(_EXTRA_MODULES.get(workload, {}))
    for alias, module in wanted.items():
        setattr(P, alias, importlib.import_module(module))


# --------------------------------------------------------------------- #
# Engines                                                               #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class EngineSpec:
    """One rung of the engine ladder."""

    name: str
    mode: str
    fast_path: bool
    batch: bool

    def flags(self) -> dict[str, bool]:
        """Only the switched-on engine flags, so a rung that does not use
        a flag keeps working if a later change retires it."""
        return {
            name: True for name in ("fast_path", "batch") if getattr(self, name)
        }


INTERPRETED = EngineSpec("interpreted", "interpreted", False, False)
REFERENCE = EngineSpec("reference", "compiled", False, False)
FAST = EngineSpec("fast", "compiled", True, False)
FAST_BATCH = EngineSpec("fast_batch", "compiled", True, True)
LADDER = (INTERPRETED, REFERENCE, FAST, FAST_BATCH)


def new_network(topo, spec: EngineSpec):
    return P.simulator.Network(topo, **spec.flags())


def new_runtime(network, spec: EngineSpec):
    return P.runtime.SmartSouthRuntime(network, mode=spec.mode, **spec.flags())


# --------------------------------------------------------------------- #
# Ops                                                                   #
# --------------------------------------------------------------------- #


@dataclass
class Verdict:
    """What ``finish`` hands the runner."""

    #: Digestable answer (sets, tuples, numbers) — feeds ``sim_digest``.
    answer: Any
    #: None, or why the answer disagrees with ground truth.
    complaint: str | None = None
    hops: int = 0
    out_band: int = 0


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    finish: Callable[[Any], Verdict]
    #: Engine-agnostic (may be replayed under every ladder engine).
    ladder: bool = True


def seeded(seed: int, label: str) -> random.Random:
    """An independent stream per (seed, purpose); string seeding is
    SHA-512 based, hence stable across processes."""
    return random.Random(f"e2e/{seed}/{label}")


def regular_links(n: int, rng: random.Random, cycles: int = 3) -> list[tuple[int, int]]:
    """Wiring of a seeded connected ``2*cycles``-regular simple graph: the
    union of *cycles* random Hamiltonian cycles sharing no link.

    Every node has the same degree whatever the seed, so the rule count —
    and with it compile time — does not move with the seed; only the
    wiring does.  (``erdos_renyi`` moves the maximum degree, and the
    emitter is quadratic in it; ``random_regular`` fails to sample degree
    6.)
    """
    seen: set[frozenset[int]] = set()
    links: list[tuple[int, int]] = []
    for _ in range(cycles):
        while True:
            order = list(range(n))
            rng.shuffle(order)
            ring = [(order[i], order[(i + 1) % n]) for i in range(n)]
            if not any(frozenset(link) in seen for link in ring):
                break
        links.extend(ring)
        seen.update(frozenset(link) for link in ring)
    return links


#: The one anycast / priocast group id the workloads use.
GID = 1


@dataclass
class ServiceInputs:
    """Seeded per-network inputs of the service calls."""

    groups: dict[int, set[int]] = field(default_factory=dict)
    priorities: dict[int, dict[int, int]] = field(default_factory=dict)
    planted_edge: int | None = None


def draw_members(rng: random.Random, num_nodes: int, count: int = 3) -> ServiceInputs:
    members = rng.sample(range(num_nodes), count)
    ranks = list(range(1, count + 1))
    rng.shuffle(ranks)
    return ServiceInputs(
        groups={GID: set(members)},
        priorities={GID: dict(zip(members, ranks))},
    )


def call_service(runtime, service: str, root: int, inputs: ServiceInputs):
    """One facade call (the timed part of a service op)."""
    if service == "snapshot":
        return runtime.snapshot(root)
    if service == "anycast":
        return runtime.anycast(root, GID, inputs.groups)
    if service == "priocast":
        return runtime.priocast(root, GID, inputs.priorities)
    if service == "critical":
        return runtime.critical(root)
    if service == "traverse":
        return runtime.traverse(root)
    if service == "blackhole":
        return runtime.detect_blackhole_smart(root)
    raise ValueError(f"unknown service {service!r}")


def judge_service(network, service: str, root: int, inputs: ServiceInputs, out) -> Verdict:
    """Compare one facade answer with ground truth (untimed)."""
    if service == "snapshot":
        return Verdict(
            (out.nodes, out.links),
            oracles.expect_snapshot(network, root, out.nodes, out.links),
            out.result.in_band_messages,
            out.result.out_band_messages,
        )
    if service == "anycast":
        return Verdict(
            out.delivered_at,
            oracles.expect_anycast(network, root, inputs.groups[GID], out.delivered_at),
            out.in_band_messages,
            out.out_band_messages,
        )
    if service == "priocast":
        return Verdict(
            out.delivered_at,
            oracles.expect_priocast(
                network, root, inputs.priorities[GID], out.delivered_at
            ),
            out.in_band_messages,
            out.out_band_messages,
        )
    if service == "critical":
        return Verdict(
            out.critical,
            oracles.expect_critical(network, root, out.critical),
            out.result.in_band_messages,
            out.result.out_band_messages,
        )
    if service == "traverse":
        return Verdict(
            out.completed,
            oracles.expect_traverse(
                network, root, out.completed, out.in_band_messages
            ),
            out.in_band_messages,
            out.out_band_messages,
        )
    if service == "blackhole":
        return Verdict(
            (out.found, out.location),
            oracles.expect_blackhole(
                network, inputs.planted_edge, out.found, out.location
            ),
            out.in_band_messages,
            out.out_band_messages,
        )
    raise ValueError(f"unknown service {service!r}")


# --------------------------------------------------------------------- #
# Workload base                                                         #
# --------------------------------------------------------------------- #


class Workload:
    """Inputs in ``__init__``, declared set-up in :meth:`setup`, one cycle
    of ops from :meth:`cycle`."""

    name = ""
    why = ""
    #: The engine the workload is defined on.
    spec = FAST
    #: What one op is, for the printed report.
    op_is = ""

    def __init__(self, seed: int, spec: EngineSpec | None = None) -> None:
        self.seed = seed
        if spec is not None:
            self.spec = spec

    def setup(self) -> None:
        """Work the workload declares as set-up (timed into ``setup_s``)."""

    def cycle(self) -> list[Op]:
        raise NotImplementedError


# --------------------------------------------------------------------- #
# cold_start                                                            #
# --------------------------------------------------------------------- #

_FIVE = ("snapshot", "anycast", "priocast", "critical", "blackhole")


class ColdStart(Workload):
    name = "cold_start"
    why = (
        "Topology factory to first decoded answer on a fresh runtime: compile, "
        "install and fast-path compile are nearly all of it, the drain almost none."
    )
    op_is = "factory -> Network -> SmartSouthRuntime(compiled, fast) -> first call"

    #: One cycle: (topology, rounds of the five services), 20 + 15 + 10 + 5
    #: ops, the issue's 40/30/20/10 % with the services rotating.
    MIX = (("fat_tree4", 4), ("torus6x6", 3), ("regular50", 2), ("fat_tree8", 1))

    def __init__(self, seed: int, spec: EngineSpec | None = None) -> None:
        super().__init__(seed, spec)
        rng = seeded(seed, "cold_start")
        wiring = regular_links(50, rng)
        self.factories: dict[str, Callable[[], Any]] = {
            "fat_tree4": lambda: P.topology.fat_tree(4),
            "torus6x6": lambda: P.topology.torus(6, 6),
            "regular50": lambda: P.topology.from_edge_list(50, wiring, "regular50"),
            "fat_tree8": lambda: P.topology.fat_tree(8),
        }
        sizes = {"fat_tree4": (20, 32), "torus6x6": (36, 72),
                 "regular50": (50, 150), "fat_tree8": (80, 256)}
        self.plan: list[tuple[str, str, int, ServiceInputs]] = []
        for topo_name, rounds in self.MIX:
            nodes, edges = sizes[topo_name]
            for service in _FIVE * rounds:
                inputs = draw_members(rng, nodes)
                if service == "blackhole":
                    inputs.planted_edge = rng.randrange(edges)
                self.plan.append((topo_name, service, rng.randrange(nodes), inputs))
        rng.shuffle(self.plan)

    def cycle(self) -> list[Op]:
        return [self._op(*row) for row in self.plan]

    def _op(self, topo_name: str, service: str, root: int, inputs: ServiceInputs) -> Op:
        spec = self.spec
        build = self.factories[topo_name]

        def run():
            network = new_network(build(), spec)
            if inputs.planted_edge is not None:
                network.links[inputs.planted_edge].set_blackhole()
            runtime = new_runtime(network, spec)
            return network, call_service(runtime, service, root, inputs)

        def finish(result) -> Verdict:
            network, out = result
            return judge_service(network, service, root, inputs, out)

        return Op(f"{service}@{topo_name}", run, finish)


# --------------------------------------------------------------------- #
# warm_steady                                                           #
# --------------------------------------------------------------------- #


class WarmSteady(Workload):
    name = "warm_steady"
    why = (
        "Service calls on an installed runtime (scalar fast path): compile cost is "
        "zero, so packet processing, event loop, trace append and decode are all of it."
    )
    op_is = "one service call on an installed runtime, G(100, deg 6)"

    SERVICES = ("snapshot", "critical", "anycast", "priocast", "traverse")
    NODES = 100
    ROOTS = 20

    def __init__(self, seed: int, spec: EngineSpec | None = None) -> None:
        super().__init__(seed, spec)
        rng = seeded(seed, "warm_steady")
        self.wiring = regular_links(self.NODES, rng)
        self.inputs = draw_members(rng, self.NODES)
        roots = rng.sample(range(self.NODES), self.ROOTS)
        self.plan = [(service, root) for root in roots for service in self.SERVICES]
        rng.shuffle(self.plan)

    def setup(self) -> None:
        topo = P.topology.from_edge_list(self.NODES, self.wiring, "regular100")
        self.network = new_network(topo, self.spec)
        self.runtime = new_runtime(self.network, self.spec)
        for service in self.SERVICES:
            call_service(self.runtime, service, 0, self.inputs)
        self.network.trace.clear()

    def cycle(self) -> list[Op]:
        return [self._op(service, root) for service, root in self.plan]

    def _op(self, service: str, root: int) -> Op:
        runtime, network, inputs = self.runtime, self.network, self.inputs

        def run():
            return call_service(runtime, service, root, inputs)

        def finish(out) -> Verdict:
            verdict = judge_service(network, service, root, inputs, out)
            network.trace.clear()
            return verdict

        return Op(service, run, finish)


# --------------------------------------------------------------------- #
# storm_shared / storm_spread                                           #
# --------------------------------------------------------------------- #


class Storm(Workload):
    """100 triggers enqueued with ``trigger(run=False)``, one
    ``network.run()``, then every answer decoded."""

    spec = FAST_BATCH
    TRIGGERS = 100
    #: Snapshot on even storms, anycast on odd.
    PATTERN = ("snapshot", "anycast")
    #: The anycast group is the last edge switch alone, and is not drawn:
    #: an anycast storm costs the walk to a member, so a drawn group moves
    #: the anycast half's share of the run's time severalfold with the
    #: seed.  From 16 of the 20 roots this walk is 32-38 hops, two fifths
    #: of a snapshot's 90, so anycast storms are a quarter of the time.
    MEMBERS = (19,)
    shared = True

    def __init__(self, seed: int, spec: EngineSpec | None = None) -> None:
        super().__init__(seed, spec)
        rng = seeded(seed, self.name)
        nodes = 20  # fat_tree(4)
        self.inputs = ServiceInputs(groups={GID: set(self.MEMBERS)})
        order = list(range(nodes))
        rng.shuffle(order)
        # One cycle: the root rotates per storm through every node twice,
        # the second time round with the services swapped, so each node is
        # the root once under each service.
        self.plan: list[tuple[str, list[int]]] = []
        for index in range(2 * nodes):
            root = order[index % nodes]
            service = self.PATTERN[(index + index // nodes) % 2]
            if self.shared:
                roots = [root] * self.TRIGGERS
            else:
                roots = [rng.randrange(nodes) for _ in range(self.TRIGGERS)]
            self.plan.append((service, roots))

    def setup(self) -> None:
        spec = self.spec
        self.network = new_network(P.topology.fat_tree(4), spec)
        services = {
            "snapshot": P.snapshot.SnapshotService(),
            "anycast": P.anycast.AnycastService(self.inputs.groups),
        }
        self.engines = {
            name: P.engine.make_engine(self.network, service, spec.mode, **spec.flags())
            for name, service in services.items()
        }
        for engine in self.engines.values():
            engine.install()

    def cycle(self) -> list[Op]:
        return [self._op(service, roots) for service, roots in self.plan]

    def _op(self, service: str, roots: list[int]) -> Op:
        network = self.network
        engine = self.engines[service]
        members = self.inputs.groups[GID]
        gid_fields = {P.fields.FIELD_GID: GID}

        def run_snapshot():
            mark = len(engine.reports)
            for root in roots:
                engine.trigger(root, run=False)
            network.run()
            decode = P.snapshot.decode_snapshot
            answers = []
            for reporter, packet in engine.reports[mark:]:
                nodes, links = decode(packet)
                nodes.add(reporter)
                answers.append((reporter, nodes, links))
            return answers

        def run_anycast():
            mark = len(engine.deliveries)
            for root in roots:
                engine.trigger(
                    root, fields=gid_fields, from_controller=False, run=False
                )
            network.run()
            return [node for node, _packet in engine.deliveries[mark:]]

        def finish(answers) -> Verdict:
            complaint = None
            if len(answers) != len(roots):
                complaint = f"{service} storm: {len(answers)} answers for {len(roots)} triggers"
            elif service == "snapshot":
                # Identical traversals finish in trigger order; spread ones
                # finish in any order, so match answers to roots by reporter.
                if sorted(a[0] for a in answers) != sorted(roots):
                    complaint = "snapshot storm: reporters differ from roots"
                for reporter, nodes, links in answers:
                    complaint = complaint or oracles.expect_snapshot(
                        network, reporter, nodes, links
                    )
            else:
                for node in answers:
                    # fat_tree(4) is connected: every root reaches a member.
                    complaint = complaint or oracles.expect_anycast(
                        network, roots[0], members, node
                    )
            trace = network.trace
            verdict = Verdict(
                answers, complaint, trace.in_band_messages, trace.out_band_messages
            )
            trace.clear()
            del engine.reports[:], engine.deliveries[:]
            return verdict

        run = run_snapshot if service == "snapshot" else run_anycast
        return Op(f"{service}_storm", run, finish)


class StormShared(Storm):
    name = "storm_shared"
    why = (
        "100 same-root triggers in one drain: key-equal packets pile up at the "
        "same switch and time, the case chain replay and copy elision were built for."
    )
    op_is = "100 triggers at one root (run=False) + one network.run(), fat_tree(4)"
    shared = True


class StormSpread(Storm):
    name = "storm_spread"
    why = (
        "The same 100-trigger drain with uniformly drawn roots: almost no two "
        "packets share a chain key, so batching is pure overhead."
    )
    op_is = "100 triggers at drawn roots (run=False) + one network.run(), fat_tree(4)"
    shared = False


# --------------------------------------------------------------------- #
# fault_recovery                                                        #
# --------------------------------------------------------------------- #


class FaultRecovery(Workload):
    name = "fault_recovery"
    why = (
        "Writes beside reads: crash/reboot + readopt, resynchronize, node isolation "
        "and chaos runs interleave adopt_program, digests and recompiles with lookups."
    )
    op_is = "readopt | resynchronize | isolate+snapshot+restore | one chaos run, torus(6,6)"

    #: (kind, ops per cycle): a quarter each.
    MIX = (("readopt", 12), ("resync", 12), ("isolate", 12), ("chaos", 12))
    #: Chaos runs cycle a link-, a control- and a switch-plane profile.
    CHAOS = (("lossy", "snapshot"), ("ctrl-crash", "critical"), ("sw-crash", "anycast"))
    ROWS = COLS = 6

    def __init__(self, seed: int, spec: EngineSpec | None = None) -> None:
        super().__init__(seed, spec)
        rng = seeded(seed, "fault_recovery")
        nodes = self.ROWS * self.COLS
        self.plan: list[tuple] = []
        for kind, count in self.MIX:
            for index in range(count):
                root = rng.randrange(nodes)
                if kind == "readopt":
                    self.plan.append((kind, root, rng.sample(range(nodes), 3)))
                elif kind == "resync":
                    self.plan.append((kind, root))
                elif kind == "isolate":
                    victim = rng.choice([n for n in range(nodes) if n != root])
                    self.plan.append((kind, root, victim))
                else:
                    profile, service = self.CHAOS[index % len(self.CHAOS)]
                    self.plan.append((kind, rng.randrange(1 << 20), (profile, service)))
        rng.shuffle(self.plan)

    def setup(self) -> None:
        topo = P.topology.torus(self.ROWS, self.COLS)
        self.network = new_network(topo, self.spec)
        self.runtime = P.supervisor.SupervisedRuntime(self.network, mode=self.spec.mode)
        self.runtime.snapshot(0)
        self.network.trace.clear()

    def cycle(self) -> list[Op]:
        makers = {
            "readopt": self._readopt,
            "resync": self._resync,
            "isolate": self._isolate,
            "chaos": self._chaos,
        }
        return [makers[row[0]](*row[1:]) for row in self.plan]

    def _reboot(self, node: int) -> None:
        for switch in self.runtime.switches_at(node):
            switch.crash()
            switch.reboot()

    def _healed(self, root: int, converged: bool, reprogrammed, want, snap) -> Verdict:
        network = self.network
        complaint = oracles.expect_healed(
            network, root, converged, snap.degraded, snap.nodes, snap.links
        )
        if complaint is None and sorted(reprogrammed) != sorted(want):
            complaint = f"repair@{root}: reprogrammed {sorted(reprogrammed)}, rebooted {sorted(want)}"
        trace = network.trace
        verdict = Verdict(
            (converged, sorted(reprogrammed), snap.nodes, snap.links),
            complaint, trace.in_band_messages, trace.out_band_messages,
        )
        trace.clear()
        return verdict

    def _readopt(self, root: int, victims: list[int]) -> Op:
        runtime = self.runtime

        def run():
            for node in victims:
                self._reboot(node)
            report = runtime.readopt()
            return report, runtime.snapshot(root)

        def finish(result) -> Verdict:
            report, snap = result
            return self._healed(
                root, report.converged, report.reprogrammed_nodes, victims, snap
            )

        return Op("readopt", run, finish, ladder=False)

    def _resync(self, root: int) -> Op:
        runtime = self.runtime
        # The victim is the root's first-port neighbour: every attempt of
        # resynchronize's own re-learning snapshot then dies at hop one,
        # so the op's cost is the handshake and the retry budget, not
        # where a drawn victim happens to sit in DFS order.
        victim = self.network.topology.neighbor(root, 1).node

        def run():
            self._reboot(victim)
            report = runtime.resynchronize(root)
            return report, runtime.snapshot(root)

        def finish(result) -> Verdict:
            report, snap = result
            return self._healed(
                root, report.converged, report.reprogrammed_nodes, [victim], snap
            )

        return Op("resync", run, finish, ladder=False)

    def _isolate(self, root: int, victim: int) -> Op:
        runtime, network = self.runtime, self.network

        def run():
            failed = P.failures.isolate_node(network, victim)
            snap = runtime.snapshot(root)
            P.failures.restore_node(network, victim)
            return failed, snap

        def finish(result) -> Verdict:
            failed, snap = result
            # Judge against the topology as it was during the call.
            network.fail_edges(failed)
            complaint = oracles.expect_snapshot(network, root, snap.nodes, snap.links)
            if snap.degraded:
                complaint = f"isolate@{victim}: snapshot from {root} is degraded"
            P.failures.restore_node(network, victim)
            trace = network.trace
            verdict = Verdict(
                (snap.nodes, snap.links), complaint,
                trace.in_band_messages, trace.out_band_messages,
            )
            trace.clear()
            return verdict

        return Op("isolate", run, finish)

    def _chaos(self, chaos_seed: int, choice: tuple[str, str]) -> Op:
        profile, service = choice

        def run():
            config = P.chaos.ChaosConfig(
                runs=1, seed=chaos_seed, services=(service,),
                topologies=("torus3x3",), profiles=(profile,),
            )
            return P.chaos.run_campaign(config)

        def finish(report) -> Verdict:
            record = report.records[0]
            complaint = None
            if not report.ok:
                complaint = f"chaos {profile}/{service}: {record.outcome} ({record.reason})"
            return Verdict((record.outcome, record.attempts, record.faults), complaint)

        return Op(f"chaos:{profile}", run, finish, ladder=False)


# --------------------------------------------------------------------- #
# verify                                                                #
# --------------------------------------------------------------------- #


class Verify(Workload):
    name = "verify"
    why = (
        "lint_engine and check_engine verdicts on fixed compiled rule sets: moves "
        "only when the analyzers or the emitted tables change."
    )
    op_is = "one lint_engine or check_engine verdict on a compiled engine"
    spec = REFERENCE

    def __init__(self, seed: int, spec: EngineSpec | None = None) -> None:
        super().__init__(seed, spec)
        rng = seeded(seed, "verify")
        self.members = {
            "ring8": draw_members(rng, 8, count=2),
            "grid3x3": draw_members(rng, 9, count=2),
            "abilene": draw_members(rng, 11, count=2),
            "ring6": draw_members(rng, 6, count=2),
        }
        three = ("snapshot", "anycast", "critical")
        self.plan: list[tuple[str, str, str, int]] = []
        for service in _FIVE:
            self.plan.append(("lint", "ring8", service, 0))
        for topo_name in ("grid3x3", "abilene"):
            for service in three:
                self.plan.append(("lint", topo_name, service, 0))
        for topo_name, budgets in (("abilene", (0, 1)), ("ring6", (0, 1, 2))):
            for service in _FIVE:
                for budget in budgets:
                    self.plan.append(("check", topo_name, service, budget))
        rng.shuffle(self.plan)

    def _service(self, topo_name: str, service: str):
        inputs = self.members[topo_name]
        if service == "snapshot":
            return P.snapshot.SnapshotService()
        if service == "anycast":
            return P.anycast.AnycastService(inputs.groups)
        if service == "priocast":
            return P.anycast.PriocastService(inputs.priorities)
        if service == "critical":
            return P.critical.CriticalNodeService()
        return P.blackhole.BlackholeService()

    def setup(self) -> None:
        factories = {
            "ring8": lambda: P.topology.ring(8),
            "grid3x3": lambda: P.topology.grid(3, 3),
            "abilene": P.topology.abilene,
            "ring6": lambda: P.topology.ring(6),
        }
        self.engines: dict[tuple[str, str], Any] = {}
        for _verb, topo_name, service, _budget in self.plan:
            key = (topo_name, service)
            if key in self.engines:
                continue
            network = new_network(factories[topo_name](), self.spec)
            engine = P.engine.make_engine(
                network, self._service(topo_name, service), "compiled"
            )
            engine.install()
            self.engines[key] = engine

    def cycle(self) -> list[Op]:
        return [self._op(*row) for row in self.plan]

    def _op(self, verb: str, topo_name: str, service: str, budget: int) -> Op:
        engine = self.engines[(topo_name, service)]
        if verb == "lint":

            def run():
                return P.analysis.lint_engine(engine)

            def finish(report) -> Verdict:
                complaint = None
                if report.errors:
                    complaint = (
                        f"lint {service}@{topo_name}: {len(report.errors)} error finding(s)"
                    )
                return Verdict((len(report.findings), report.exit_code), complaint)

            return Op(f"lint:{service}@{topo_name}", run, finish, ladder=False)

        def run():
            config = P.analysis.CheckConfig(max_failures=budget)
            return P.analysis.check_engine(engine, config)

        def finish(report) -> Verdict:
            complaint = None
            if report.exit_code != 0:
                complaint = (
                    f"check {service}@{topo_name} b={budget}: exit {report.exit_code}"
                )
            return Verdict((report.states, report.scenarios, report.exit_code), complaint)

        return Op(f"check:{service}@{topo_name}:b{budget}", run, finish, ladder=False)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (ColdStart, WarmSteady, StormShared, StormSpread, FaultRecovery, Verify)
}
