"""Load inference from smart counters (the paper's §4 remark).

"The smart counter concept introduced in this paper may also be used to
infer network loads."  This module makes that concrete: per-port smart
counters count arriving data packets modulo several pairwise-coprime
moduli; an audit traversal reads every counter bank in-band (each fetch
returns the pre-increment value, i.e. the true count) and records the
readings on the packet's label stack, snapshot-style.  The controller then
reconstructs each port's load modulo the moduli product with the Chinese
remainder theorem — so counters of size 5, 7 and 11 jointly measure loads
up to 384 packets with three tiny round-robin groups per port.

One audit perturbs every counter by exactly +1 per modulus (the fetch *is*
an increment); :class:`LoadMonitor` tracks the number of audits performed
and corrects subsequent readings accordingly.

Interpreted-engine only, like the packet-loss monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.core.services.base import HookContext
from repro.core.services.blackhole import BH_DONE, FIELD_BH, LossCheckService
from repro.net.link import Direction
from repro.net.simulator import Network

if TYPE_CHECKING:
    from repro.core.engine import _BaseEngine
from repro.openflow.packet import CONTROLLER_PORT
from repro.core.fields import FIELD_SVC


def crt(residues: Mapping[int, int]) -> int:
    """Solve x ≡ r (mod m) for all (m, r) pairs; moduli must be pairwise
    coprime.  Returns the unique x in [0, ∏m)."""
    total = 0
    product = 1
    for modulus in residues:
        product *= modulus
    for modulus, residue in residues.items():
        partial = product // modulus
        total += residue * partial * pow(partial, -1, modulus)
    return total % product


class LoadAuditService(LossCheckService):
    """Audit traversal: read every port's Cin counter bank into the packet.

    Inherits the data-packet counting rules (``svc = 0`` arrivals increment
    ``Cin<port>.m<modulus>``) from :class:`LossCheckService` and replaces
    the loss-comparison hooks with counter collection.
    """

    name = "loadaudit"
    service_id = 10

    # Disable the loss-monitor traversal hooks.
    def on_arrival(self, ctx: HookContext) -> int | None:
        return None

    def visit_not_from_cur(self, ctx: HookContext) -> None:
        pass

    def send_next_neighbor(self, ctx: HookContext) -> None:
        pass

    def send_parent(self, ctx: HookContext) -> None:
        pass

    # Collect readings once per node.
    def _audit(self, ctx: HookContext) -> None:
        for port in range(1, ctx.deg + 1):
            for modulus in self.moduli:
                value = ctx.counters.fetch_inc(
                    f"Cin{port}.m{modulus}", modulus
                )
                ctx.packet.push(("load", ctx.node, port, modulus, value))

    def on_trigger(self, ctx: HookContext) -> None:
        self._audit(ctx)

    def first_visit(self, ctx: HookContext) -> None:
        self._audit(ctx)

    def finish(self, ctx: HookContext) -> None:
        ctx.packet.set(FIELD_BH, BH_DONE)
        ctx.out = CONTROLLER_PORT


@dataclass
class LoadReport:
    """Reconstructed per-port loads."""

    #: (node, in-port) -> inferred packets received, modulo `modulus_product`.
    loads: dict[tuple[int, int], int] = field(default_factory=dict)
    modulus_product: int = 1
    in_band_messages: int = 0
    out_band_messages: int = 0

    def load_between(self, network: Network, u: int, v: int) -> int | None:
        """Inferred load on the (first) u->v link direction."""
        edge = network.topology.find_edge(u, v)
        if edge is None:
            return None
        far = edge.other(u)
        return self.loads.get((far.node, far.port))


class LoadMonitor:
    """Traffic generation + in-band audit + CRT reconstruction."""

    def __init__(self, engine: "_BaseEngine") -> None:
        if not isinstance(engine.service, LoadAuditService):
            raise TypeError("LoadMonitor needs a LoadAuditService engine")
        self.engine = engine
        self.moduli = engine.service.moduli
        self.modulus_product = 1
        for modulus in self.moduli:
            self.modulus_product *= modulus
        self._audits = 0
        #: Data packets actually delivered per (receiver node, in-port) —
        #: kept separately because audit traversals also cross links but
        #: are not data traffic.
        self._data_delivered: dict[tuple[int, int], int] = {}

    def send_traffic(self, loads: Mapping[tuple[int, int], int]) -> None:
        """Send `count` data packets out of each given (node, port)."""
        self.engine.install()
        network: Network = self.engine.network
        before = [dict(link.delivered) for link in network.links]
        for (node, port), count in loads.items():
            if network.topology.port_edge(node, port) is None:
                raise ValueError(f"({node}, {port}) is not a connected port")
            for _ in range(count):
                packet = network.packet({FIELD_SVC: 0, "data_out": port})
                network.inject(node, packet)
        network.run()
        for link, old in zip(network.links, before):
            for direction, endpoint in (
                (Direction.A_TO_B, link.edge.b),
                (Direction.B_TO_A, link.edge.a),
            ):
                delta = link.delivered[direction] - old[direction]
                if delta:
                    key = (endpoint.node, endpoint.port)
                    self._data_delivered[key] = (
                        self._data_delivered.get(key, 0) + delta
                    )

    def send_uniform_traffic(self, packets_per_direction: int) -> None:
        """Convenience: the same load on every link direction."""
        network: Network = self.engine.network
        loads = {}
        for edge in network.topology.edges():
            loads[(edge.a.node, edge.a.port)] = packets_per_direction
            loads[(edge.b.node, edge.b.port)] = packets_per_direction
        self.send_traffic(loads)

    def audit(self, root: int) -> LoadReport:
        """Run one audit traversal and reconstruct loads via CRT."""
        network: Network = self.engine.network
        mark_in = network.trace.in_band_messages
        mark_out = network.trace.out_band_messages
        result = self.engine.trigger(root)
        report = LoadReport(modulus_product=self.modulus_product)
        report.in_band_messages = network.trace.in_band_messages - mark_in
        report.out_band_messages = network.trace.out_band_messages - mark_out
        if not result.reports:
            return report
        _node, packet = result.reports[-1]
        readings: dict[tuple[int, int], dict[int, int]] = {}
        for record in packet.stack:
            if record[0] != "load":
                continue
            _tag, node, port, modulus, value = record
            # Correct for the increments performed by earlier audits.
            corrected = (value - self._audits) % modulus
            readings.setdefault((node, port), {})[modulus] = corrected
        for key, residues in readings.items():
            report.loads[key] = crt(residues)
        self._audits += 1
        return report

    def ground_truth(self) -> dict[tuple[int, int], int]:
        """Actual *data* packets delivered per (receiving node, in-port),
        modulo the modulus product (what a correct audit must reconstruct).
        Ports that never received data read 0."""
        network: Network = self.engine.network
        truth: dict[tuple[int, int], int] = {}
        for link in network.links:
            for endpoint in (link.edge.a, link.edge.b):
                key = (endpoint.node, endpoint.port)
                truth[key] = (
                    self._data_delivered.get(key, 0) % self.modulus_product
                )
        return truth
