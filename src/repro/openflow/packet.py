"""Packets processed by the simulated OpenFlow pipeline.

A packet carries

* *header fields* — a mapping from field name to a non-negative integer.
  SmartSouth stores its whole traversal state here (``start``, per-node
  ``v<i>.par`` / ``v<i>.cur`` tags, service fields such as ``gid`` or
  ``repeat``).  Real switches would carve these out of unused header bits or
  pushed labels; :mod:`repro.core.fields` provides the exact bit-packing so
  header sizes can be measured.
* a *label stack* — an MPLS-like stack of small tuples, used by the snapshot
  service to accumulate topology records with push/pop actions.
* an opaque *payload* plus bookkeeping (an id and a hop counter used by
  traces only, never matched on).

Ids come from the packet's network (:meth:`repro.net.simulator.Network.packet`);
a copy draws from its parent's source.  A packet built without a network
carries id 0, and so do its copies.

Reserved port numbers follow the OpenFlow convention but use negative values
so they can never collide with physical port numbers (which are 1-based;
``0`` means "no port" and doubles as "parent of the DFS root").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.determinism import NULL_IDS, NullIds, PacketIdAllocator

#: Reserved port: send the packet to the controller (out-of-band upcall).
CONTROLLER_PORT = -1
#: Reserved port: send the packet back through the port it arrived on.
IN_PORT = -2
#: Reserved port: deliver the packet to the switch itself (the paper's
#: "self" port used by anycast receivers).
LOCAL_PORT = -3
#: Pseudo port number meaning "no port"; also the parent port of the DFS root.
NO_PORT = 0

_RESERVED_PORT_NAMES = {
    CONTROLLER_PORT: "CONTROLLER",
    IN_PORT: "IN_PORT",
    LOCAL_PORT: "LOCAL",
    NO_PORT: "NONE",
}

__all__ = [
    "CONTROLLER_PORT",
    "IN_PORT",
    "LOCAL_PORT",
    "NO_PORT",
    "Packet",
    "is_physical_port",
    "port_name",
]


def port_name(port: int) -> str:
    """Return a human-readable name for *port* (physical or reserved)."""
    return _RESERVED_PORT_NAMES.get(port, str(port))


def is_physical_port(port: int) -> bool:
    """True if *port* denotes a real switch port (1-based numbering)."""
    return port >= 1


@dataclass(slots=True)
class Packet:
    """A mutable packet instance flowing through the data plane.

    Field values must be non-negative integers.  Reading an absent field
    yields ``0`` — this mirrors the paper's assumption that "all the tag
    fields are initialized to 0" without having to materialize every
    per-node tag in every packet.
    """

    fields: dict[str, int] = field(default_factory=dict)
    stack: list[tuple[Any, ...]] = field(default_factory=list)
    payload: Any = None
    packet_id: int = 0
    hops: int = 0
    #: Where copies draw their ids: the network's allocator, or null (0).
    ids: PacketIdAllocator | NullIds = field(
        default=NULL_IDS, compare=False, repr=False
    )

    def get(self, name: str) -> int:
        """Return the value of header field *name* (0 if unset)."""
        return self.fields.get(name, 0)

    def set(self, name: str, value: int) -> None:
        """Set header field *name* to *value* (must be a non-negative int)."""
        if value < 0:
            raise ValueError(f"field {name!r} set to negative value {value}")
        self.fields[name] = value

    def push(self, record: tuple[Any, ...]) -> None:
        """Push *record* onto the label stack."""
        self.stack.append(record)

    def pop(self) -> tuple[Any, ...]:
        """Pop and return the top label-stack record."""
        if not self.stack:
            raise IndexError("pop from empty packet label stack")
        return self.stack.pop()

    def copy(self) -> "Packet":
        """Return an independent copy with the next id from this packet's
        id source.

        Every emission clones, so this skips the generated ``__init__``.
        """
        clone = Packet.__new__(Packet)
        clone.fields = dict(self.fields)
        clone.stack = list(self.stack)
        clone.payload = self.payload
        ids = self.ids
        clone.packet_id = ids.allocate()
        clone.hops = self.hops
        clone.ids = ids
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = {k: v for k, v in sorted(self.fields.items()) if v}
        return f"Packet(#{self.packet_id}, hops={self.hops}, {shown})"

