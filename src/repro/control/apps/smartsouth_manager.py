"""SmartSouth as a proper controller application.

The engines in :mod:`repro.core.engine` drive triggers directly for tests
and benchmarks; this app runs the same two-stage lifecycle through the
*management channel* instead, which is what a deployment would do — and
what makes the paper's robustness story measurable:

* the **offline stage** installs the compiled pipelines proactively
  (before any management-plane outage);
* the **runtime stage** must reach *one* switch to trigger a function and
  receive its verdict.  If that one switch is unreachable the trigger
  fails — but any other connected switch can serve as the entry point,
  whereas controller-driven alternatives (LLDP, probing) need the whole
  management plane.
"""

from __future__ import annotations

from repro.control.controller import Controller, ControllerApp
from repro.core.compiler import compile_services
from repro.core.fields import FIELD_SVC
from repro.core.services.base import Service
from repro.core.services.snapshot import SnapshotService, decode_snapshot
from repro.openflow.packet import LOCAL_PORT, Packet


class SmartSouthManager(ControllerApp):
    """Install SmartSouth pipelines and run services over the channel."""

    name = "smartsouth_manager"

    def __init__(self, services: list[Service]) -> None:
        super().__init__()
        self.services = {service.service_id: service for service in services}
        if len(self.services) != len(services):
            raise ValueError("duplicate service ids")
        self.verdicts: list[tuple[int, Packet]] = []
        #: The installed pipelines (the controller's own record of the
        #: offline stage — e.g. for group-stats polling).
        self.switches: dict[int, object] = {}

    def attached(self, controller: Controller) -> None:
        super().attached(controller)
        # Offline stage: proactive installation, before any outage — so we
        # program the switches directly rather than through the (possibly
        # already degraded) channel.
        network = controller.network
        ordered = list(self.services.values())
        for node in network.topology.nodes():
            switch = compile_services(network, node, ordered)
            self.switches[node] = switch
            network.set_handler(node, switch.process)

    def packet_in(self, node: int, packet: Packet) -> None:
        if packet.get(FIELD_SVC) in self.services:
            self.verdicts.append((node, packet))

    # ------------------------------------------------------------------ #
    # Runtime stage                                                      #
    # ------------------------------------------------------------------ #

    def trigger(
        self,
        service: Service | int,
        root: int,
        fields: dict[str, int] | None = None,
    ) -> list[tuple[int, Packet]] | None:
        """Trigger *service* at *root* via the channel.

        Returns the packet-in verdicts of this run, or None when the entry
        switch is unreachable over the management network.
        """
        controller = self.controller
        assert controller is not None
        service_id = service if isinstance(service, int) else service.service_id
        if service_id not in self.services:
            raise KeyError(f"service id {service_id} not installed")
        packet_fields = {FIELD_SVC: service_id}
        if fields:
            packet_fields.update(fields)
        mark = len(self.verdicts)
        sent = controller.channel.packet_out(
            root, controller.network.packet(packet_fields), in_port=LOCAL_PORT
        )
        if not sent:
            return None
        controller.network.run()
        return self.verdicts[mark:]

    def snapshot(self, root: int):
        """Convenience: trigger a snapshot and decode it.

        Returns (nodes, links) or None if the entry switch is unreachable
        or the traversal's verdict never arrived.
        """
        if SnapshotService.service_id not in self.services:
            raise KeyError("SnapshotService not installed")
        verdicts = self.trigger(SnapshotService.service_id, root)
        if not verdicts:
            return None
        reporter, packet = verdicts[-1]
        nodes, links = decode_snapshot(packet)
        nodes.add(reporter)
        return nodes, links

    def first_reachable_switch(self) -> int | None:
        """The entry point a degraded deployment would use."""
        controller = self.controller
        assert controller is not None
        for node in controller.network.topology.nodes():
            if controller.channel.connected(node):
                return node
        return None
