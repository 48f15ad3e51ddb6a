"""Controller-driven per-link probing: the blackhole-detection baseline.

The controller (which knows the topology) sends one probe across every link
direction via packet-out and expects the far switch to punt it back as a
packet-in.  A direction whose probe never returns is flagged.  This costs
Θ(E) out-of-band messages *per check* — the paper's smart-counter algorithm
needs three — and requires management connectivity to every switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.control.controller import Controller, ControllerApp
from repro.control.retry import DEFAULT_POLICY, RetryPolicy, retry_rounds
from repro.openflow.actions import Instructions, Output, SetField
from repro.openflow.match import Match
from repro.openflow.packet import CONTROLLER_PORT, Packet
from repro.openflow.switch import Switch

FIELD_PROBE = "probe"
FIELD_PROBE_ID = "probe_id"
FIELD_PROBE_IN = "probe_in"


def build_probe_switch(node: int, num_ports: int, liveness) -> Switch:
    """Punt probe packets to the controller, tagging the arrival port."""
    switch = Switch(node, num_ports, liveness)
    for port in range(1, num_ports + 1):
        switch.install(
            0,
            Match(**{FIELD_PROBE: 1, "in_port": port}),
            Instructions(
                apply_actions=(
                    SetField(FIELD_PROBE_IN, port),
                    Output(CONTROLLER_PORT),
                )
            ),
            priority=10,
            cookie=f"probe:{port}",
        )
    return switch


@dataclass
class ProbeResult:
    """Outcome of one full probing round."""

    #: Directions whose probe vanished, as (from_node, from_port).
    silent: set[tuple[int, int]] = field(default_factory=set)
    probes_sent: int = 0
    out_band_messages: int = 0


class ProbeBlackholeDetector(ControllerApp):
    """Probe every link direction and report the silent ones."""

    name = "probe_blackhole"

    def __init__(self) -> None:
        super().__init__()
        self._returned: set[int] = set()
        self._sent: dict[int, tuple[int, int]] = {}

    def attached(self, controller: Controller) -> None:
        super().attached(controller)
        network = controller.network
        for node in network.topology.nodes():
            switch = build_probe_switch(
                node, network.topology.degree(node), network.liveness_fn(node)
            )
            network.set_handler(node, switch.process)

    def packet_in(self, node: int, packet: Packet) -> None:
        if packet.get(FIELD_PROBE) == 1:
            self._returned.add(packet.get(FIELD_PROBE_ID))

    def crashed(self) -> None:
        """Probe bookkeeping is learned state: lose it with the process."""
        self._returned.clear()
        self._sent.clear()

    def _returned_directions(self) -> set[tuple[int, int]]:
        return {
            self._sent[pid] for pid in self._returned if pid in self._sent
        }

    def check(self, policy: RetryPolicy | None = None) -> ProbeResult:
        """Probe all link directions; re-probe the silent ones.

        A direction is only reported silent once retry rounds (bounded by
        *policy*) confirm it: a real blackhole eats the re-probe exactly
        like the first probe, while a message lost on a faulty management
        channel does not repeat.  A healthy fault-free network answers
        every probe in round one, keeping the classic 2E message cost.
        """
        controller = self.controller
        assert controller is not None
        network = controller.network
        channel = controller.channel
        mark = channel.out_band_messages
        self._returned.clear()
        self._sent.clear()

        directions = [
            (endpoint.node, endpoint.port)
            for edge in network.topology.edges()
            for endpoint in (edge.a, edge.b)
        ]
        probe_count = 0

        def probe_round(index: int) -> None:
            nonlocal probe_count
            returned = self._returned_directions() if index else set()
            for direction in directions:
                if direction in returned:
                    continue
                probe_count += 1
                self._sent[probe_count] = direction
                packet = network.packet(
                    fields={FIELD_PROBE: 1, FIELD_PROBE_ID: probe_count}
                )
                channel.packet_out_port(direction[0], direction[1], packet)
            network.run()

        def pending() -> int:
            return len(directions) - len(self._returned_directions())

        retry_rounds(network, policy or DEFAULT_POLICY, probe_round, pending)

        returned = self._returned_directions()
        silent = {d for d in directions if d not in returned}
        return ProbeResult(
            silent=silent,
            probes_sent=probe_count,
            out_band_messages=channel.out_band_messages - mark,
        )
