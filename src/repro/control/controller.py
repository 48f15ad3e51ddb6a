"""A minimal SDN controller and app model (Ryu/Floodlight-flavoured).

The controller multiplexes packet-ins to its registered apps and lets apps
send packet-outs.  It exists to host the
*baseline* applications the paper compares against (controller-driven
topology discovery, probing, reactive routing); SmartSouth itself needs the
controller only to trigger services and receive verdicts.

The controller process can also **crash**: :meth:`Controller.crash` takes
the whole management plane down and makes every app drop its soft state —
the failure mode distributed-controller work (Yazıcı et al., PAPERS.md)
treats as a first-class event.  :meth:`Controller.restart` brings the
channel back up, but deliberately restores *nothing*: a restarted
controller knows only its static configuration and must re-learn the
network (see :meth:`~repro.control.supervisor.SupervisedRuntime.resynchronize`
and each app's retry loop).
"""

from __future__ import annotations

from repro.control.channel import ChannelFaultConfig, ControlChannel
from repro.net.simulator import Network
from repro.openflow.packet import Packet


class ControllerApp:
    """Base class for controller applications."""

    name = "app"

    def __init__(self) -> None:
        self.controller: Controller | None = None

    def attached(self, controller: "Controller") -> None:
        """Called once when registered."""
        self.controller = controller

    def packet_in(self, node: int, packet: Packet) -> None:
        """Override to receive packet-ins."""

    def crashed(self) -> None:
        """The controller process died: drop all soft state.

        Apps override this to forget anything learned from the network
        (discovered links, installed-state caches, routing decisions);
        static configuration survives, learned state must not.
        """

    def restarted(self) -> None:
        """The controller came back (empty-handed): re-learn as needed."""


class Controller:
    """The network operating system: apps + channel."""

    def __init__(
        self, network: Network, faults: ChannelFaultConfig | None = None
    ) -> None:
        self.network = network
        self.channel = ControlChannel(network, faults=faults)
        self.apps: list[ControllerApp] = []
        self.alive = True
        self.crashes = 0
        self.channel.set_packet_in_handler(self._dispatch_packet_in)

    def register(self, app: ControllerApp) -> ControllerApp:
        self.apps.append(app)
        app.attached(self)
        return app

    def _dispatch_packet_in(self, node: int, packet: Packet) -> None:
        if not self.alive:
            return
        for app in self.apps:
            app.packet_in(node, packet)

    # -- crash / restart ---------------------------------------------------

    def crash(self) -> None:
        """Kill the controller process.

        The management plane goes down with it (every switch loses its
        connection at once) and every app loses its soft state.  The data
        plane — installed rules, groups, in-flight packets — is untouched:
        that independence is the paper's headline claim, and the
        outage-liveness chaos oracle checks it.
        """
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        self.channel.fail_controller()
        for app in self.apps:
            app.crashed()

    def restart(self) -> None:
        """Bring a crashed controller back up, soft-state empty.

        Only connectivity is restored; re-learning the topology, the
        installed-state reconciliation handshake, and the epoch jump are the
        resynchronization protocol's job, not the process manager's.
        """
        if self.alive:
            return
        self.alive = True
        self.channel.restore_controller()
        for app in self.apps:
            app.restarted()

    def run(self) -> None:
        """Drain the network's event queue."""
        self.network.run()
