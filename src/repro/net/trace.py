"""Execution traces and message accounting.

Every observable event of a run is recorded: link crossings (the paper's
*in-band messages*), controller interactions (*out-of-band messages*), local
deliveries, and drops.  The Table 2 reproduction reads its numbers straight
from these traces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterator


class EventKind(enum.Enum):
    """What happened."""

    #: A packet crossed a link (one in-band message).
    HOP = "hop"
    #: A packet was silently dropped on a link (blackhole / loss).
    DROP = "drop"
    #: A packet was emitted to a dead port (no link, or link down).
    DEAD_PORT = "dead_port"
    #: A switch pipeline produced no output (table miss / no live FF bucket).
    PIPELINE_DROP = "pipeline_drop"
    #: A packet was delivered to the switch itself (anycast "self" port).
    DELIVERED = "delivered"
    #: A packet was sent to the controller (out-of-band packet-in).
    PACKET_IN = "packet_in"
    #: The controller injected a packet at a switch (out-of-band packet-out).
    PACKET_OUT = "packet_out"


@dataclass(frozen=True)
class TraceEvent:
    """One trace record."""

    time: float
    kind: EventKind
    node: int
    packet_id: int
    #: HOP/DROP: (from_node, from_port, to_node, to_port); otherwise ().
    detail: tuple[Any, ...] = ()


_HOP = EventKind.HOP
_DROP = EventKind.DROP
_PACKET_IN = EventKind.PACKET_IN
_PACKET_OUT = EventKind.PACKET_OUT
_DELIVERED = EventKind.DELIVERED


class Trace:
    """An append-only event log with message-accounting helpers.

    The paper's two message counts and the delivery count are kept as
    counters updated by :meth:`record`, so reading them costs the same
    however long the log has grown (callers read them around every
    trigger).
    """

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        self._in_band = 0
        self._out_band = 0
        self._deliveries = 0

    def record(self, event: TraceEvent) -> None:
        self._events.append(event)
        # Identity tests, not a dict keyed by kind: hashing an Enum member
        # is a Python-level call, and this runs once per event.
        kind = event.kind
        if kind is _HOP or kind is _DROP:
            self._in_band += 1
        elif kind is _PACKET_IN or kind is _PACKET_OUT:
            self._out_band += 1
        elif kind is _DELIVERED:
            self._deliveries += 1

    def events(self, kind: EventKind | None = None) -> Iterator[TraceEvent]:
        if kind is None:
            return iter(self._events)
        return (e for e in self._events if e.kind is kind)

    def count(self, kind: EventKind) -> int:
        return sum(1 for _ in self.events(kind))

    # ------------------------------------------------------------------ #
    # The paper's accounting view                                        #
    # ------------------------------------------------------------------ #

    @property
    def in_band_messages(self) -> int:
        """Messages that crossed a data-plane link (attempted crossings count:
        a packet swallowed by a blackhole was still *sent*)."""
        return self._in_band

    @property
    def out_band_messages(self) -> int:
        """Controller interactions: packet-ins plus packet-outs."""
        return self._out_band

    @property
    def deliveries(self) -> int:
        return self._deliveries

    def hops_of(self, packet_ids: set[int]) -> int:
        """In-band messages restricted to the given packet ids."""
        return sum(
            1
            for e in self._events
            if e.kind in (EventKind.HOP, EventKind.DROP)
            and e.packet_id in packet_ids
        )

    def hop_sequence(self) -> list[tuple[int, int, int, int]]:
        """All link crossings as (from_node, from_port, to_node, to_port).

        This is the sequence the differential tests compare between the
        interpreted and compiled engines.
        """
        return [e.detail for e in self.events(EventKind.HOP)]

    def last_time(self) -> float:
        return self._events[-1].time if self._events else 0.0

    def clear(self) -> None:
        self._events.clear()
        self._in_band = self._out_band = self._deliveries = 0

    def __len__(self) -> int:
        return len(self._events)

    def summary(self) -> dict[str, int]:
        """Event counts by kind (plus the paper's two aggregate numbers)."""
        out: dict[str, int] = {kind.value: self.count(kind) for kind in EventKind}
        out["in_band"] = self.in_band_messages
        out["out_band"] = self.out_band_messages
        return out

    # ------------------------------------------------------------------ #
    # Export (debugging / offline analysis)                              #
    # ------------------------------------------------------------------ #

    def to_jsonl(self) -> str:
        """One JSON object per event, in order — loadable by any tooling."""
        import json

        lines = []
        for event in self._events:
            lines.append(
                json.dumps(
                    {
                        "t": event.time,
                        "kind": event.kind.value,
                        "node": event.node,
                        "packet": event.packet_id,
                        "detail": list(event.detail),
                    },
                    separators=(",", ":"),
                )
            )
        return "\n".join(lines)

    def format_hops(self, limit: int | None = None) -> str:
        """A human-readable hop log: ``t=3.0  2:p1 -> 5:p2``."""
        rows = []
        for event in self.events(EventKind.HOP):
            u, pu, v, pv = event.detail
            rows.append(f"t={event.time:<6g} {u}:p{pu} -> {v}:p{pv}")
            if limit is not None and len(rows) >= limit:
                rows.append("...")
                break
        return "\n".join(rows)
