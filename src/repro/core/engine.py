"""Traversal engines: one service, one network, two implementations.

:class:`InterpretedEngine` executes the paper's pseudocode directly
(:mod:`repro.core.template`); :class:`CompiledEngine` executes the OpenFlow
rule sets produced by :mod:`repro.core.compiler` on simulated switches.
Both expose the same two-stage API the paper describes: :meth:`install`
(the offline stage) and :meth:`trigger` (the runtime stage).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.fields import FIELD_SVC
from repro.core.services.base import Service
from repro.core.template import TemplateInterpreter
from repro.net.simulator import Network
from repro.openflow.packet import LOCAL_PORT, Packet
from repro.openflow.switch import Switch


@dataclass
class TraversalResult:
    """What one trigger produced."""

    root: int
    packet: Packet
    #: Controller packet-ins during this run, as (node, packet).
    reports: list[tuple[int, Packet]] = field(default_factory=list)
    #: Local deliveries during this run (anycast receivers), as (node, packet).
    deliveries: list[tuple[int, Packet]] = field(default_factory=list)
    in_band_messages: int = 0
    out_band_messages: int = 0

    @property
    def delivered_at(self) -> int | None:
        """Node id of the first local delivery, if any."""
        return self.deliveries[0][0] if self.deliveries else None

    @property
    def completed(self) -> bool:
        """True if the run produced any report or delivery."""
        return bool(self.reports or self.deliveries)


def _bind_switches(
    network: Network, switches: dict[int, Switch], batch: bool
) -> None:
    """Claim the network's nodes for compiled *switches*.

    Each node gets the switch's reference pipeline as its handler; a fast
    path switch's drain entry then takes every scalar arrival directly
    (one call per hop, emitting through the network's emitter), and in
    batch mode the switch's batch pipeline takes same-node segments.
    """
    for node, switch in switches.items():
        network.set_handler(node, switch.process)
        fast = switch.fast_path
        if fast is not None:
            network.set_drain(node, fast.attach)
        if batch:
            network.set_batch_handler(node, switch.process_batch)


class _BaseEngine:
    """Shared install/trigger plumbing."""

    mode = "abstract"

    def __init__(self, network: Network, service: Service) -> None:
        self.network = network
        self.service = service
        self.reports: list[tuple[int, Packet]] = []
        self.deliveries: list[tuple[int, Packet]] = []
        self._installed = False

    def _on_report(self, node: int, packet: Packet) -> None:
        self.reports.append((node, packet))

    def _on_delivery(self, node: int, packet: Packet) -> None:
        self.deliveries.append((node, packet))

    def install(self) -> None:
        """Offline stage: install the service on every node.

        Safe to call repeatedly; several engines can share one network (the
        last engine to install or trigger owns the handlers and sinks).
        """
        if not self._installed:
            self._do_install()
            self._installed = True
        self._bind()

    def _do_install(self) -> None:
        raise NotImplementedError

    def _bind(self) -> None:
        """(Re)claim the network's handlers and controller/delivery sinks.

        The engine's sinks are passive collectors (they only append to the
        report/delivery lists), so batched segments may keep running while
        they are attached.
        """
        self.network.set_controller_sink(self._on_report, passive=True)
        self.network.set_delivery_sink(self._on_delivery, passive=True)
        self._bind_handlers()

    def _bind_handlers(self) -> None:
        raise NotImplementedError

    def trigger(
        self,
        root: int,
        fields: dict[str, int] | None = None,
        from_controller: bool = True,
        payload=None,
        run: bool = True,
    ) -> TraversalResult:
        """Runtime stage: inject one trigger packet at *root* and run the
        network to quiescence.

        ``from_controller`` decides whether the injection is accounted as an
        out-of-band packet-out (anycast requests come from hosts and are
        not).  With ``run=False`` the packet is only enqueued — the caller
        drives the event loop and reads ``engine.reports`` itself (used for
        timing experiments with overlapping traversals); the returned
        result then carries no reports or message counts.
        """
        self.install()
        packet_fields = {FIELD_SVC: self.service.service_id}
        if fields:
            packet_fields.update(fields)
        packet = self.network.packet(packet_fields, payload=payload)

        trace = self.network.trace
        mark_reports = len(self.reports)
        mark_deliveries = len(self.deliveries)
        mark_in = trace.in_band_messages
        mark_out = trace.out_band_messages

        self.network.inject(
            root, packet, in_port=LOCAL_PORT, from_controller=from_controller
        )
        if not run:
            return TraversalResult(root=root, packet=packet)
        self.network.run()

        return TraversalResult(
            root=root,
            packet=packet,
            reports=self.reports[mark_reports:],
            deliveries=self.deliveries[mark_deliveries:],
            in_band_messages=trace.in_band_messages - mark_in,
            out_band_messages=trace.out_band_messages - mark_out,
        )


class InterpretedEngine(_BaseEngine):
    """Reference engine: interprets Algorithm 1 + hooks directly."""

    mode = "interpreted"

    def __init__(self, network: Network, service: Service) -> None:
        super().__init__(network, service)
        self.interpreter = TemplateInterpreter(network, service)

    def _do_install(self) -> None:
        pass  # nothing to precompute; handlers are bound in _bind_handlers

    def _bind_handlers(self) -> None:
        self.interpreter.install()


class CompiledEngine(_BaseEngine):
    """Compiled engine: OpenFlow rule sets on simulated switches.

    ``fast_path`` picks the switches' packet engine: the interpreted
    per-entry scan (False) or the indexed dispatch of
    :mod:`repro.openflow.fastpath` (True); None defers to the network's
    ``fast_path`` default.  ``batch`` additionally registers the switches'
    batched pipelines and flips the network into batched drain mode
    (None: network default) — same wiring pattern as ``fast_path``.  All
    combinations are observably identical.
    """

    mode = "compiled"

    def __init__(
        self,
        network: Network,
        service: Service,
        fast_path: bool | None = None,
        batch: bool | None = None,
    ) -> None:
        super().__init__(network, service)
        self.switches: dict[int, Switch] = {}
        self.fast_path = network.fast_path if fast_path is None else fast_path
        self.batch = network.batch if batch is None else batch

    def _do_install(self) -> None:
        from repro.core.compiler import compile_service

        for node in self.network.topology.nodes():
            self.switches[node] = compile_service(
                self.network, node, self.service, fast_path=self.fast_path
            )

    def _bind_handlers(self) -> None:
        self.network.batch = self.batch
        _bind_switches(self.network, self.switches, self.batch)

    def total_rules(self) -> int:
        self.install()
        return sum(s.rule_count() for s in self.switches.values())

    def total_groups(self) -> int:
        self.install()
        return sum(s.group_count() for s in self.switches.values())


def make_engine(
    network: Network,
    service: Service,
    mode: str = "interpreted",
    fast_path: bool | None = None,
    batch: bool | None = None,
) -> _BaseEngine:
    """Factory: ``mode`` is "interpreted" or "compiled"; ``fast_path``
    selects the compiled switches' packet engine and ``batch`` the batched
    drain mode (None: network default for both)."""
    if mode == "interpreted":
        return InterpretedEngine(network, service)
    if mode == "compiled":
        return CompiledEngine(network, service, fast_path=fast_path, batch=batch)
    raise ValueError(f"unknown engine mode {mode!r}")


class MultiServiceEngine:
    """Several SmartSouth services hosted on one data plane simultaneously.

    In compiled mode every switch gets one pipeline whose table 0 dispatches
    on the packet's ``svc`` field into per-service table blocks (see
    :func:`repro.core.compiler.compile_services`); in interpreted mode a
    per-node dispatcher routes each packet to its service's interpreter.
    Packets with an unknown service id are dropped, as a table-0 miss would.
    """

    def __init__(
        self,
        network: Network,
        services: list[Service],
        mode: str = "compiled",
        fast_path: bool | None = None,
        batch: bool | None = None,
    ) -> None:
        if mode not in ("interpreted", "compiled"):
            raise ValueError(f"unknown engine mode {mode!r}")
        ids = [service.service_id for service in services]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate service ids in {ids}")
        self.network = network
        self.mode = mode
        self.fast_path = network.fast_path if fast_path is None else fast_path
        self.batch = network.batch if batch is None else batch
        self.services: dict[int, Service] = {
            service.service_id: service for service in services
        }
        self.reports: list[tuple[int, Packet]] = []
        self.deliveries: list[tuple[int, Packet]] = []
        self.switches: dict[int, Switch] = {}
        self._interpreters: dict[int, TemplateInterpreter] = {}
        self._installed = False

    def _on_report(self, node: int, packet: Packet) -> None:
        self.reports.append((node, packet))

    def _on_delivery(self, node: int, packet: Packet) -> None:
        self.deliveries.append((node, packet))

    def install(self) -> None:
        if not self._installed:
            if self.mode == "compiled":
                from repro.core.compiler import compile_services

                ordered = list(self.services.values())
                for node in self.network.topology.nodes():
                    self.switches[node] = compile_services(
                        self.network, node, ordered, fast_path=self.fast_path
                    )
            else:
                self._interpreters = {
                    sid: TemplateInterpreter(self.network, service)
                    for sid, service in self.services.items()
                }
            self._installed = True
        self.network.set_controller_sink(self._on_report, passive=True)
        self.network.set_delivery_sink(self._on_delivery, passive=True)
        if self.mode == "compiled":
            self.network.batch = self.batch
            _bind_switches(self.network, self.switches, self.batch)
        else:
            for node in self.network.topology.nodes():
                self.network.set_handler(node, self._make_dispatcher(node))

    def _make_dispatcher(self, node: int):
        def dispatch(packet: Packet, in_port: int):
            interpreter = self._interpreters.get(packet.get(FIELD_SVC))
            if interpreter is None:
                return []  # unknown service id: drop (table-0 miss)
            return interpreter.process(node, packet, in_port)

        return dispatch

    def trigger(
        self,
        service: Service | int,
        root: int,
        fields: dict[str, int] | None = None,
        from_controller: bool = True,
    ) -> TraversalResult:
        """Run one trigger of *service* (an instance or its id) at *root*."""
        self.install()
        service_id = service if isinstance(service, int) else service.service_id
        if service_id not in self.services:
            raise KeyError(f"service id {service_id} not installed")
        packet_fields = {FIELD_SVC: service_id}
        if fields:
            packet_fields.update(fields)
        packet = self.network.packet(packet_fields)

        trace = self.network.trace
        mark_reports = len(self.reports)
        mark_deliveries = len(self.deliveries)
        mark_in = trace.in_band_messages
        mark_out = trace.out_band_messages
        self.network.inject(
            root, packet, in_port=LOCAL_PORT, from_controller=from_controller
        )
        self.network.run()
        return TraversalResult(
            root=root,
            packet=packet,
            reports=self.reports[mark_reports:],
            deliveries=self.deliveries[mark_deliveries:],
            in_band_messages=trace.in_band_messages - mark_in,
            out_band_messages=trace.out_band_messages - mark_out,
        )

    def total_rules(self) -> int:
        self.install()
        return sum(s.rule_count() for s in self.switches.values())
