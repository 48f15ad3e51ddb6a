"""Reactive shortest-path routing: the anycast baseline.

The controller computes a shortest path from the source to the nearest
group member over its *view* of the topology and installs one forwarding
rule per path switch.  When a link on the path fails afterwards, delivery
fails until the controller (a) hears about the failure, (b) recomputes and
(c) reinstalls — each step costing out-of-band messages and time.  The
in-band anycast needs none of that: its fast-failover traversal routes
around the failure immediately.

``benchmarks/bench_baselines.py`` sweeps failure counts and compares
delivery success without controller intervention, plus the message cost of
recovery.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.control.controller import Controller, ControllerApp
from repro.net.topology import Topology
from repro.openflow.actions import Instructions, Output
from repro.openflow.match import Match
from repro.openflow.packet import LOCAL_PORT, Packet
from repro.openflow.switch import Switch

FIELD_FLOW = "flow"


@dataclass
class PathInstall:
    """An installed unicast path."""

    flow_id: int
    path: list[int]
    #: (node, out_port) hops, in order.
    hops: list[tuple[int, int]] = field(default_factory=list)
    rule_installs: int = 0


class ReactiveAnycastRouting(ControllerApp):
    """Shortest-path-to-nearest-member routing with reactive repair."""

    name = "reactive_routing"

    def __init__(self, groups: dict[int, set[int]]) -> None:
        super().__init__()
        self.groups = {gid: set(members) for gid, members in groups.items()}
        self.view: Topology | None = None
        self._switches: dict[int, Switch] = {}
        self._next_flow = 1
        self.rule_installs = 0
        self.recomputations = 0

    def crashed(self) -> None:
        """The routing view is soft state; the installed rules are not —
        they live in the switches and keep forwarding during the outage."""
        self.view = None

    def restarted(self) -> None:
        """Restart from static configuration: re-adopt the configured
        topology (link liveness is still consulted per repair)."""
        if self.controller is not None:
            self.view = self.controller.network.topology

    def attached(self, controller: Controller) -> None:
        super().attached(controller)
        network = controller.network
        self.view = network.topology  # the view taken at install time
        for node in network.topology.nodes():
            switch = Switch(
                node, network.topology.degree(node), network.liveness_fn(node)
            )
            self._switches[node] = switch
            network.set_handler(node, switch.process)

    # -- path computation ---------------------------------------------- #

    def _shortest_path(
        self, src: int, targets: set[int], respect_failures: bool
    ) -> list[int] | None:
        """BFS on the view; ``respect_failures`` uses true liveness (what a
        notified controller would know)."""
        controller = self.controller
        assert controller is not None and self.view is not None
        network = controller.network
        if src in targets:
            return [src]
        parents: dict[int, int] = {src: src}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for port, edge in self.view.ports(node):
                if respect_failures and not network.links[edge.edge_id].up:
                    continue
                far = edge.other(node).node
                if far in parents:
                    continue
                parents[far] = node
                if far in targets:
                    path = [far]
                    while path[-1] != src:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                queue.append(far)
        return None

    def install_path(
        self, src: int, gid: int, respect_failures: bool = False
    ) -> PathInstall | None:
        """Compute and install a path from *src* to the nearest member.

        Returns None when no path exists — or when the controller has
        crashed and not yet restarted (no view, no routing).
        """
        if self.view is None:
            return None
        members = self.groups.get(gid, set())
        path = self._shortest_path(src, members, respect_failures)
        if path is None:
            return None
        assert self.view is not None
        flow_id = self._next_flow
        self._next_flow += 1
        install = PathInstall(flow_id=flow_id, path=path)
        for here, there in zip(path, path[1:]):
            edge = self.view.find_edge(here, there)
            assert edge is not None
            port = edge.endpoint(here).port
            self._switches[here].install(
                0,
                Match(**{FIELD_FLOW: flow_id}),
                Instructions(apply_actions=(Output(port),)),
                priority=10,
                cookie=f"flow:{flow_id}",
            )
            install.hops.append((here, port))
            install.rule_installs += 1
            self.rule_installs += 1
        # Delivery rule at the member.
        self._switches[path[-1]].install(
            0,
            Match(**{FIELD_FLOW: flow_id}),
            Instructions(apply_actions=(Output(LOCAL_PORT),)),
            priority=10,
            cookie=f"flow:{flow_id}:deliver",
        )
        install.rule_installs += 1
        self.rule_installs += 1
        return install

    # -- sending --------------------------------------------------------- #

    def send(self, src: int, install: PathInstall) -> int | None:
        """Send one packet along the installed path; returns the delivery
        node or None (packet died at a failed link)."""
        controller = self.controller
        assert controller is not None
        network = controller.network
        delivered: list[int] = []

        previous_sink = None

        def sink(node: int, packet: Packet) -> None:
            delivered.append(node)

        network.set_delivery_sink(sink)
        packet = network.packet({FIELD_FLOW: install.flow_id})
        network.inject(src, packet, in_port=LOCAL_PORT)
        network.run()
        network.set_delivery_sink(previous_sink)
        return delivered[0] if delivered else None

    def repair(self, src: int, gid: int) -> tuple[PathInstall | None, int]:
        """Reactive repair after a failure: recompute against true liveness.

        Returns (new install, control messages spent) — one failure
        notification plus one rule install per path hop.
        """
        self.recomputations += 1
        install = self.install_path(src, gid, respect_failures=True)
        messages = 1 + (install.rule_installs if install else 0)
        return install, messages
