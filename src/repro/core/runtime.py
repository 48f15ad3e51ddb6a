"""High-level runtime: one facade for all SmartSouth services.

:class:`SmartSouthRuntime` owns a :class:`~repro.net.simulator.Network` and
exposes each case study as a single method call — the API a troubleshooting
application or an in-band controller agent would use.  Engines are created
lazily per service and cached; triggering one service rebinds the network's
handlers, exactly as installing that service's tables would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.engine import TraversalResult, _BaseEngine, make_engine
from repro.core.fields import FIELD_GID
from repro.core.services.anycast import AnycastService, PriocastService
from repro.core.services.base import PlainTraversalService, Service
from repro.core.services.blackhole import (
    BlackholeService,
    BlackholeTtlService,
    BlackholeVerdict,
    LossCheckService,
    PacketLossMonitor,
    SmartCounterBlackholeDetector,
    TtlBinarySearchDetector,
)
from repro.core.services.critical import (
    CRITICAL,
    FIELD_CRITICAL,
    CriticalNodeService,
)
from repro.core.services.snapshot import SnapshotService, decode_snapshot
from repro.net.simulator import Network
from repro.net.topology import Topology


@dataclass
class SnapshotOutcome:
    """A decoded topology snapshot."""

    nodes: set[int]
    links: set[frozenset[tuple[int, int]]]
    result: TraversalResult

    @property
    def ok(self) -> bool:
        return bool(self.result.reports)


@dataclass
class CriticalOutcome:
    """Verdict of a critical-node check."""

    node: int
    critical: bool
    result: TraversalResult


@dataclass
class ChainOutcome:
    """Result of a service-chain resolution (anycast chaining extension)."""

    path: list[int] = field(default_factory=list)  # delivery node per leg
    legs: list[TraversalResult] = field(default_factory=list)
    completed: bool = False

    @property
    def in_band_messages(self) -> int:
        return sum(leg.in_band_messages for leg in self.legs)


class SmartSouthRuntime:
    """All four data-plane functions over one network."""

    def __init__(
        self,
        network: Network | Topology,
        mode: str = "interpreted",
        fast_path: bool | None = None,
        batch: bool | None = None,
    ) -> None:
        if isinstance(network, Topology):
            network = Network(network)
        self.network = network
        self.mode = mode
        #: Compiled-switch engine flag (None: the network's default); see
        #: :mod:`repro.openflow.fastpath` and docs/FASTPATH.md.
        self.fast_path = network.fast_path if fast_path is None else fast_path
        #: Batched drain-mode flag, wired like ``fast_path`` (None: the
        #: network's default); see the batching section of docs/FASTPATH.md.
        self.batch = network.batch if batch is None else batch
        self._engines: dict[str, _BaseEngine] = {}
        #: Smart-counter detections run so far (each needs a fresh install).
        self._blackhole_runs = 0

    # ------------------------------------------------------------------ #
    # Engine management                                                  #
    # ------------------------------------------------------------------ #

    def engine_for(
        self, service: Service, key: str | None = None
    ) -> _BaseEngine:
        """Build (or fetch) an engine running *service*.

        Engines are cached by *key* (default: the service name), so repeated
        calls reuse one rule installation; callers with configurable
        services must fold the full configuration into the key.
        """
        key = key or service.name
        engine = self._engines.get(key)
        if engine is None:
            engine = make_engine(
                self.network,
                service,
                self.mode,
                fast_path=self.fast_path,
                batch=self.batch,
            )
            self._engines[key] = engine
        return engine

    # ------------------------------------------------------------------ #
    # Case study 1: snapshot                                             #
    # ------------------------------------------------------------------ #

    def snapshot(self, root: int) -> SnapshotOutcome:
        """Collect the live topology reachable from *root*."""
        engine = self.engine_for(SnapshotService())
        result = engine.trigger(root)
        if result.reports:
            reporter, packet = result.reports[-1]
            nodes, links = decode_snapshot(packet)
            # An isolated root never sends, hence never records itself; the
            # packet-in's source switch identifies it to the requester.
            nodes.add(reporter)
        else:
            nodes, links = set(), set()
        return SnapshotOutcome(nodes=nodes, links=links, result=result)

    def snapshot_chunked(self, root: int, max_records: int = 16):
        """Snapshot split across packets of at most *max_records* records
        (the paper's §3.1 splitting remark).

        Returns (nodes, links, stats) or None if the traversal died.
        """
        from repro.core.services.snapshot import (
            ChunkedSnapshotCollector,
            ChunkedSnapshotService,
        )

        service = ChunkedSnapshotService(max_records)
        engine = self.engine_for(service, key=f"snapshot_chunked:{max_records}")
        return ChunkedSnapshotCollector(engine).run(root)

    # ------------------------------------------------------------------ #
    # Case study 2: anycast / priocast / service chains                  #
    # ------------------------------------------------------------------ #

    def anycast(
        self, root: int, gid: int, groups: Mapping[int, set[int]]
    ) -> TraversalResult:
        """Deliver a request to any member of group *gid* (host-injected:
        0 out-of-band messages)."""
        service = AnycastService(groups)
        config = sorted((g, tuple(sorted(m))) for g, m in groups.items())
        engine = self.engine_for(service, key=f"anycast:{config}")
        return engine.trigger(root, fields={FIELD_GID: gid}, from_controller=False)

    def priocast(
        self, root: int, gid: int, priorities: Mapping[int, Mapping[int, int]]
    ) -> TraversalResult:
        """Deliver to the highest-priority reachable member of *gid*."""
        service = PriocastService(priorities)
        config = sorted(
            (g, tuple(sorted(p.items()))) for g, p in priorities.items()
        )
        engine = self.engine_for(service, key=f"priocast:{config}")
        return engine.trigger(root, fields={FIELD_GID: gid}, from_controller=False)

    def service_chain(
        self, root: int, chain: list[int], groups: Mapping[int, set[int]]
    ) -> ChainOutcome:
        """Resolve a chain of anycast groups (middlebox chaining, §3.2).

        Each leg is one anycast traversal; the next leg is injected at the
        previous delivery point, as a middlebox forwarding the packet onward
        through its own self port would.
        """
        outcome = ChainOutcome()
        at = root
        for gid in chain:
            result = self.anycast(at, gid, groups)
            outcome.legs.append(result)
            delivered = result.delivered_at
            if delivered is None:
                return outcome  # chain broken: some group unreachable
            outcome.path.append(delivered)
            at = delivered
        outcome.completed = True
        return outcome

    # ------------------------------------------------------------------ #
    # Case study 3: blackhole detection                                  #
    # ------------------------------------------------------------------ #

    def detect_blackhole_smart(self, root: int) -> BlackholeVerdict:
        """Two-phase smart-counter detection (3 out-of-band messages).

        Each call gets a fresh install: smart counters are stateful switch
        groups, and the detection's "fetch = 1" test assumes they start
        from zero (a real controller would reset the groups instead).  The
        previous detection's engine — a whole compiled network — is dropped
        first, so repeated detections hold one engine, not one per call.
        """
        self._engines.pop(f"blackhole:{self._blackhole_runs}", None)
        self._blackhole_runs += 1
        engine = self.engine_for(
            BlackholeService(), key=f"blackhole:{self._blackhole_runs}"
        )
        return SmartCounterBlackholeDetector(engine).run(root)

    def detect_blackhole_ttl(self, root: int) -> BlackholeVerdict:
        """TTL binary-search detection (O(log E) probes)."""
        engine = self.engine_for(BlackholeTtlService())
        return TtlBinarySearchDetector(engine).run(root)

    def loss_monitor(self, moduli: tuple[int, ...] = (5, 7)) -> PacketLossMonitor:
        """Build a packet-loss monitor (interpreted engines only)."""
        service = LossCheckService(moduli)
        engine = make_engine(self.network, service, "interpreted")
        self._engines[f"losscheck:{moduli}"] = engine
        return PacketLossMonitor(engine)

    def load_monitor(self, moduli: tuple[int, ...] = (5, 7, 11)):
        """Build a per-link load monitor (the §4 smart-counter remark;
        interpreted engines only)."""
        from repro.core.services.load import LoadAuditService, LoadMonitor

        service = LoadAuditService(moduli)
        engine = make_engine(self.network, service, "interpreted")
        self._engines[f"loadaudit:{moduli}"] = engine
        return LoadMonitor(engine)

    # ------------------------------------------------------------------ #
    # Case study 4: critical node                                        #
    # ------------------------------------------------------------------ #

    def critical(self, node: int) -> CriticalOutcome:
        """Is *node* an articulation point of the live topology?"""
        engine = self.engine_for(CriticalNodeService())
        result = engine.trigger(node)
        verdict = False
        for _reporter, packet in result.reports:
            if packet.get(FIELD_CRITICAL) == CRITICAL:
                verdict = True
        return CriticalOutcome(node=node, critical=verdict, result=result)

    # ------------------------------------------------------------------ #
    # Plain traversal (connectivity probe)                               #
    # ------------------------------------------------------------------ #

    def traverse(self, root: int) -> TraversalResult:
        """Run the bare DFS; completes iff the root's component is healthy."""
        engine = self.engine_for(PlainTraversalService())
        return engine.trigger(root)
