"""SmartSouth header-field names and the exact bit-level tag layout.

The paper reserves, per node *i*, header bits for the tag ``v_i``: the parent
port ``pkt.v_i.par`` and the currently-probed port ``pkt.v_i.cur``, plus
global fields (``start`` and per-service fields).  In the simulator these are
named packet fields; :class:`TagLayout` computes the *packed* layout a real
deployment would use, so the header-size numbers in the paper's §3.5 (the
"O(n log n) bits" DFS part, the 0.5 KB packet budget) can be measured rather
than estimated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.net.topology import Topology
from repro.openflow.packet import Packet

# --------------------------------------------------------------------- #
# Field names                                                           #
# --------------------------------------------------------------------- #

#: Traversal phase: 0 = not started, 1 = first traversal, 2 = second
#: (priocast's second phase).  The paper extends ``start`` "to be ternary".
FIELD_START = "start"
#: Service selector, so several services can share a pipeline.  Value 0 is
#: reserved for ordinary data traffic (counted by the packet-loss monitor).
FIELD_SVC = "svc"
#: Anycast group id carried by the request.
FIELD_GID = "gid"
#: Priocast: id of the best receiver found so far.
FIELD_OPT_ID = "opt_id"
#: Priocast: priority of the best receiver found so far.
FIELD_OPT_VAL = "opt_val"
#: Blackhole: echo/phase state (3 = probe, 2/1 = echo, 0 = verify phase).
FIELD_REPEAT = "repeat"
#: Blackhole (TTL variant): remaining hop budget.
FIELD_TTL = "ttl"
#: First out-port used by the root (priocast restart, critical node).
FIELD_FIRST_PORT = "firstport"
#: Set on packets travelling to a DFS parent (critical-node detection).
FIELD_TO_PARENT = "toparent"
#: Scratch field written by smart-counter groups (a fetch result).
FIELD_SCRATCH = "scratch"
#: Second scratch field (packet-loss monitor comparisons).
FIELD_SCRATCH2 = "scratch2"
#: Service-chain position (anycast chaining extension).
FIELD_CHAIN_IDX = "chain_idx"
#: Remaining record budget of a chunked snapshot (decremented per record).
FIELD_RECCAP = "reccap"
#: Set on the final snapshot report (vs. an intermediate chunk).
FIELD_SNAP_DONE = "snapdone"
#: Supervision epoch tag (0 = unsupervised).  The traversal supervisor
#: stamps each trigger with the current epoch so the origin can squash
#: stale packets from abandoned attempts (see ``repro.core.epoch``).
FIELD_EPOCH = "epoch"

#: Field bit-widths for the packed layout (per-node tags are sized from the
#: topology; these are the global fields).
GLOBAL_FIELD_BITS: dict[str, int] = {
    FIELD_START: 2,
    FIELD_SVC: 4,
    FIELD_GID: 16,
    FIELD_OPT_ID: 16,
    FIELD_OPT_VAL: 8,
    FIELD_REPEAT: 2,
    FIELD_TTL: 16,
    FIELD_FIRST_PORT: 8,
    FIELD_TO_PARENT: 1,
    FIELD_SCRATCH: 8,
    FIELD_SCRATCH2: 8,
    FIELD_CHAIN_IDX: 4,
    FIELD_RECCAP: 8,
    FIELD_SNAP_DONE: 1,
    FIELD_EPOCH: 6,
}

#: Width (bits) of the supervision epoch tag: epochs live in 1..2^bits - 1
#: and wrap around, giving a 63-epoch staleness window.
EPOCH_BITS = GLOBAL_FIELD_BITS[FIELD_EPOCH]

#: Width (bits) of the priocast priority / opt_val domain.
OPT_VAL_BITS = GLOBAL_FIELD_BITS[FIELD_OPT_VAL]


def par_field(node: int) -> str:
    """Name of node *node*'s parent-port tag field (``pkt.v_i.par``)."""
    return f"v{node}.par"


def cur_field(node: int) -> str:
    """Name of node *node*'s current-port tag field (``pkt.v_i.cur``)."""
    return f"v{node}.cur"


def port_bits(degree: int) -> int:
    """Bits needed to store a port number 0..degree."""
    return max(1, degree.bit_length())


# --------------------------------------------------------------------- #
# Packed layout                                                         #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class FieldSlot:
    """Bit position of one field in the packed header."""

    name: str
    offset: int
    width: int


class TagLayout:
    """The packed bit layout of a SmartSouth header for a given topology.

    Layout: global fields first, then per-node ``par``/``cur`` slots sized by
    each node's degree.  :meth:`pack`/:meth:`unpack` round-trip a packet's
    SmartSouth fields through the packed representation, proving the layout
    is faithful; :meth:`total_bits` feeds the header-size experiments.
    """

    def __init__(self, topology: Topology) -> None:
        self._slots: dict[str, FieldSlot] = {}
        offset = 0
        for name, width in GLOBAL_FIELD_BITS.items():
            self._slots[name] = FieldSlot(name, offset, width)
            offset += width
        self._tag_offset = offset
        for node in topology.nodes():
            width = port_bits(topology.degree(node))
            for name in (par_field(node), cur_field(node)):
                self._slots[name] = FieldSlot(name, offset, width)
                offset += width
        self._total_bits = offset
        self._topology = topology

    @property
    def total_bits(self) -> int:
        """Size of the packed header in bits."""
        return self._total_bits

    @property
    def total_bytes(self) -> int:
        """Size of the packed header in whole bytes."""
        return (self._total_bits + 7) // 8

    @property
    def tag_bits(self) -> int:
        """Bits used by the per-node DFS tags only (the paper's
        "another O(n log n) bits")."""
        return self._total_bits - self._tag_offset

    def slot(self, name: str) -> FieldSlot:
        return self._slots[name]

    def pack(self, fields: Mapping[str, int]) -> int:
        """Pack a field mapping into a single integer header."""
        header = 0
        for name, value in fields.items():
            slot = self._slots.get(name)
            if slot is None:
                raise KeyError(f"field {name!r} not in layout")
            if value < 0 or value >= (1 << slot.width):
                raise ValueError(
                    f"value {value} does not fit field {name!r} "
                    f"({slot.width} bits)"
                )
            header |= value << slot.offset
        return header

    def unpack(self, header: int) -> dict[str, int]:
        """Unpack an integer header into a {field: value} mapping.

        Zero-valued fields are omitted, matching the packet model's
        "absent reads as 0" convention.
        """
        fields: dict[str, int] = {}
        for slot in self._slots.values():
            value = (header >> slot.offset) & ((1 << slot.width) - 1)
            if value:
                fields[slot.name] = value
        return fields

    def pack_packet(self, packet: Packet) -> int:
        """Pack the SmartSouth fields of *packet* (others are ignored)."""
        known = {k: v for k, v in packet.fields.items() if k in self._slots}
        return self.pack(known)

    # ------------------------------------------------------------------ #
    # Record (label-stack) sizing, for snapshot payload measurements     #
    # ------------------------------------------------------------------ #

    def record_bits(self) -> dict[str, int]:
        """Bit cost of each snapshot record type on this topology."""
        node_bits = max(1, (self._topology.num_nodes - 1).bit_length())
        pbits = port_bits(self._topology.max_degree())
        type_bits = 2  # VISIT / OUT / RET
        return {
            "visit": type_bits + node_bits + pbits,
            "out": type_bits + pbits,
            "ret": type_bits,
        }

    def stack_bits(self, stack: list[tuple]) -> int:
        """Packed size in bits of a snapshot record stack."""
        costs = self.record_bits()
        total = 0
        for record in stack:
            kind = record[0]
            total += costs.get(kind, costs["visit"])
        return total
