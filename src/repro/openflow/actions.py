"""Actions and instructions of the simulated OpenFlow pipeline.

Only actions that exist in OpenFlow 1.3 are modelled; in particular there is
deliberately *no* "copy in_port into a header field" and no "compare two
fields" action — the SmartSouth compiler must (and does) work around both by
enumerating per-port and per-value-pair rules, exactly as a real deployment
would (see the paper's reference [2]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Sequence

from repro.openflow.errors import ActionError
from repro.openflow.packet import Packet

#: Callback used by actions that emit the packet somewhere: called with
#: (out_port, packet).  Reserved ports from :mod:`repro.openflow.packet` are
#: resolved by the switch, not here.
EmitFn = Callable[[int, Packet], None]


class Action:
    """Base class for all actions."""

    def apply(self, packet: Packet, emit: EmitFn, in_port: int) -> None:
        raise NotImplementedError

    @property
    def text(self) -> str:
        """The action with every argument, as :meth:`Switch.describe` (and
        so the inventory digest) renders it.  Subclasses spell it out;
        this fallback is the repr."""
        return repr(self)


@dataclass(frozen=True)
class SetField(Action):
    """``set_field``: write a constant into a header field."""

    name: str
    value: int

    def apply(self, packet: Packet, emit: EmitFn, in_port: int) -> None:
        packet.set(self.name, self.value)

    @property
    def text(self) -> str:
        return f"set {self.name!r}={self.value}"


@dataclass(frozen=True)
class Output(Action):
    """``output``: emit the packet on a port (physical or reserved)."""

    port: int

    def apply(self, packet: Packet, emit: EmitFn, in_port: int) -> None:
        emit(self.port, packet)

    @property
    def text(self) -> str:
        return f"output {self.port}"


@dataclass(frozen=True)
class GroupAction(Action):
    """``group``: hand the packet to a group-table entry."""

    group_id: int

    def apply(self, packet: Packet, emit: EmitFn, in_port: int) -> None:
        # Resolved by the switch, which owns the group table; reaching this
        # method means the action was applied outside a switch pipeline.
        raise ActionError("GroupAction must be executed by a switch pipeline")

    @property
    def text(self) -> str:
        return f"group {self.group_id}"


@dataclass(frozen=True)
class PushLabel(Action):
    """``push``: push a constant record onto the packet's label stack.

    The snapshot service uses this to accumulate topology records; a real
    switch would push an MPLS label or a VLAN tag per record.
    """

    record: tuple[Any, ...]

    def apply(self, packet: Packet, emit: EmitFn, in_port: int) -> None:
        packet.push(self.record)

    @property
    def text(self) -> str:
        return f"push {self.record!r}"


@dataclass(frozen=True)
class PopLabel(Action):
    """``pop``: discard the top label-stack record."""

    count: int = 1

    def apply(self, packet: Packet, emit: EmitFn, in_port: int) -> None:
        for _ in range(self.count):
            if packet.stack:
                packet.pop()

    @property
    def text(self) -> str:
        return f"pop {self.count}"


@dataclass(frozen=True)
class DecTtl(Action):
    """``dec_ttl``: decrement a TTL-like header field (floor at 0)."""

    field_name: str = "ttl"

    def apply(self, packet: Packet, emit: EmitFn, in_port: int) -> None:
        value = packet.get(self.field_name)
        packet.set(self.field_name, max(0, value - 1))

    @property
    def text(self) -> str:
        return f"dec_ttl {self.field_name!r}"


@dataclass(frozen=True)
class Instructions:
    """The instruction set attached to a flow entry.

    ``apply_actions`` run immediately in order; ``write_metadata`` updates the
    pipeline metadata register (masked); ``goto_table`` continues matching in
    a strictly later table (enforced by the switch).
    """

    apply_actions: Sequence[Action] = field(default_factory=tuple)
    goto_table: int | None = None
    write_metadata: tuple[int, int] | None = None  # (value, mask)

    def __post_init__(self) -> None:
        object.__setattr__(self, "apply_actions", tuple(self.apply_actions))
        if self.write_metadata is not None:
            value, mask = self.write_metadata
            if value & ~mask:
                raise ActionError(
                    f"metadata value {value:#x} has bits outside mask {mask:#x}"
                )

    @cached_property
    def text(self) -> str:
        """Full rendering: every action with its arguments, the metadata
        write with its mask, the goto.  :meth:`Switch.describe` (and so the
        inventory digest) reads it; it is built on first use and kept,
        since instructions are immutable and shared across entries."""
        text = "[" + ", ".join([action.text for action in self.apply_actions]) + "]"
        if self.write_metadata is not None:
            value, mask = self.write_metadata
            text += f" meta={value:#x}/{mask:#x}"
        if self.goto_table is not None:
            text += f" goto:{self.goto_table}"
        return text

    def describe(self) -> str:
        """Short human-readable rendering, used by the verifier and traces."""
        parts = [type(action).__name__ for action in self.apply_actions]
        if self.write_metadata is not None:
            parts.append(f"meta={self.write_metadata[0]:#x}")
        if self.goto_table is not None:
            parts.append(f"goto:{self.goto_table}")
        return ",".join(parts) if parts else "(none)"
