"""LLDP-style controller-driven topology discovery (the baseline).

This is the Floodlight ``TopologyService`` the paper contrasts with the
in-band snapshot ([1] in the paper): the controller emits one probe per
switch port (a packet-out with ``output:port``) and learns a link when the
far switch punts the probe back as a packet-in.

The crucial weakness reproduced here: discovering the link (u,p)-(v,q)
requires *both* u and v to be reachable over the management network — the
packet-out dies if u is disconnected, the packet-in dies if v is.  The
SmartSouth snapshot instead needs management connectivity to a *single*
switch.  ``benchmarks/bench_baselines.py`` measures exactly this.
"""

from __future__ import annotations

from repro.control.controller import Controller, ControllerApp
from repro.control.retry import DEFAULT_POLICY, RetryPolicy, retry_rounds
from repro.openflow.actions import Instructions, Output, SetField
from repro.openflow.match import Match
from repro.openflow.packet import CONTROLLER_PORT, Packet
from repro.openflow.switch import Switch

#: Probe marker field and its source annotations.
FIELD_LLDP = "lldp"
FIELD_LLDP_SRC = "lldp_src"
FIELD_LLDP_PORT = "lldp_port"
FIELD_LLDP_IN = "lldp_in"


def build_lldp_switch(node: int, num_ports: int, liveness) -> Switch:
    """The proactive rule set: punt LLDP probes to the controller, tagging
    the arrival port (per-port rules — OpenFlow cannot copy in_port)."""
    switch = Switch(node, num_ports, liveness)
    for port in range(1, num_ports + 1):
        switch.install(
            0,
            Match(**{FIELD_LLDP: 1, "in_port": port}),
            Instructions(
                apply_actions=(
                    SetField(FIELD_LLDP_IN, port),
                    Output(CONTROLLER_PORT),
                )
            ),
            priority=10,
            cookie=f"lldp:{port}",
        )
    # Everything else is dropped (miss).
    return switch


class LldpTopologyService(ControllerApp):
    """Discover the topology by per-port probing."""

    name = "topology_service"

    def __init__(self) -> None:
        super().__init__()
        self.links: set[frozenset[tuple[int, int]]] = set()
        self.nodes_seen: set[int] = set()

    def attached(self, controller: Controller) -> None:
        super().attached(controller)
        # Punt rules are installed proactively, before any management-plane
        # outage; the outage then silences packet-outs and packet-ins (the
        # channel filters both), which is the interesting failure mode.
        network = controller.network
        for node in network.topology.nodes():
            switch = build_lldp_switch(
                node, network.topology.degree(node), network.liveness_fn(node)
            )
            network.set_handler(node, switch.process)

    def packet_in(self, node: int, packet: Packet) -> None:
        if packet.get(FIELD_LLDP) != 1:
            return
        src = packet.get(FIELD_LLDP_SRC)
        src_port = packet.get(FIELD_LLDP_PORT)
        in_port = packet.get(FIELD_LLDP_IN)
        self.links.add(frozenset(((src, src_port), (node, in_port))))
        self.nodes_seen.update((src, node))

    def crashed(self) -> None:
        """Everything LLDP knows, it learned from the network: lose it."""
        self.links.clear()
        self.nodes_seen.clear()

    def _confirmed_ports(self) -> set[tuple[int, int]]:
        """Ports already known to anchor a discovered link."""
        return {endpoint for link in self.links for endpoint in link}

    def discover(
        self, policy: RetryPolicy | None = None
    ) -> set[frozenset[tuple[int, int]]]:
        """Run discovery to a fixed point; returns the learned link set.

        The first round probes every port; retry rounds (bounded by
        *policy*) re-probe only ports no discovered link anchors yet, so a
        probe or its punt-back lost on a faulty channel gets another
        chance, while a fault-free run that discovers everything in round
        one sends exactly the classic 2E probes.
        """
        controller = self.controller
        assert controller is not None
        network = controller.network
        targets = [
            (node, port)
            for node in network.topology.nodes()
            for port in range(1, network.topology.degree(node) + 1)
        ]

        def probe_round(index: int) -> None:
            confirmed = self._confirmed_ports() if index else set()
            for node, port in targets:
                if (node, port) in confirmed:
                    continue
                probe = network.packet(
                    fields={
                        FIELD_LLDP: 1,
                        FIELD_LLDP_SRC: node,
                        FIELD_LLDP_PORT: port,
                    }
                )
                controller.channel.packet_out_port(node, port, probe)
            network.run()

        def pending() -> int:
            confirmed = self._confirmed_ports()
            return sum(1 for target in targets if target not in confirmed)

        retry_rounds(network, policy or DEFAULT_POLICY, probe_round, pending)
        return set(self.links)
