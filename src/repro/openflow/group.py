"""The OpenFlow group table.

Four group types are modelled:

* ``ALL`` — execute every bucket on a clone of the packet (multicast).
* ``INDIRECT`` — execute the single bucket.
* ``FF`` (fast failover) — execute the first *live* bucket.  Liveness of a
  bucket is defined by its ``watch_port``; a bucket with no watch port is
  unconditionally live.  This is the OpenFlow 1.3 mechanism SmartSouth uses
  to skip failed ports without consulting the controller.
* ``SELECT`` with a **round-robin** bucket-selection policy (an optional
  OpenFlow 1.3 feature the paper's NoviKit switches support).  Successive
  packets applied to the group execute successive buckets, wrapping around.
  The paper's *smart counters* are built exactly from this: a group with k
  buckets, bucket j writing j into a scratch field, is a fetch-and-increment
  counter modulo k.

Group chaining (a bucket invoking another group) is permitted as in OF 1.3,
but cycles are rejected at execution time.  Groups run inside the pipeline
walk (:func:`repro.openflow.switch.walk`); this module holds them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.openflow.actions import Action
from repro.openflow.errors import GroupError

#: Liveness oracle: maps a physical port number to "is the attached link up".
LivenessFn = Callable[[int], bool]


class GroupType(enum.Enum):
    """OpenFlow 1.3 group types (SELECT uses round-robin selection)."""

    ALL = "all"
    INDIRECT = "indirect"
    FF = "fast_failover"
    SELECT = "select_round_robin"


@dataclass
class Bucket:
    """An action bucket.

    ``watch_port`` is only meaningful for ``FF`` groups: the bucket is live
    iff the watched port's link is up.  ``None`` means always live (used for
    the terminal "send to parent" bucket of SmartSouth's sweep groups).
    ``packet_count`` mirrors OpenFlow's per-bucket statistics, which the
    control plane can read with a group-stats request.
    """

    actions: Sequence[Action]
    watch_port: int | None = None
    packet_count: int = 0

    def __post_init__(self) -> None:
        self.actions = tuple(self.actions)


@dataclass
class Group:
    """A group-table entry."""

    group_id: int
    group_type: GroupType
    buckets: list[Bucket] = field(default_factory=list)
    #: Round-robin cursor (SELECT groups only): index of the next bucket.
    rr_next: int = 0
    #: Number of times the group was executed.
    packet_count: int = 0

    def __post_init__(self) -> None:
        if self.group_type is GroupType.INDIRECT and len(self.buckets) > 1:
            raise GroupError(
                f"INDIRECT group {self.group_id} must have at most one bucket"
            )


def first_live_bucket(
    buckets: Sequence[Bucket], liveness: LivenessFn
) -> int | None:
    """Index of the bucket a fast-failover group runs: the first whose
    watch port is live (a bucket with no watch port always is), or None
    when every bucket is dead and the packet drops.  Pure: the pipeline
    walk and the model checker's MC006 evidence share it."""
    for index, bucket in enumerate(buckets):
        if bucket.watch_port is None or liveness(bucket.watch_port):
            return index
    return None


class GroupTable:
    """All groups of one switch."""

    #: Called after every mutation (see :attr:`Switch.program_generation`).
    on_mutate: Callable[[], None] | None = None

    def __init__(self) -> None:
        self._groups: dict[int, Group] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Mutation counter; the fast path invalidates compiled group
        programs when it changes.  Port-liveness flips are *not* mutations
        (failover consults the liveness oracle per packet)."""
        return self._version

    def _mutated(self) -> None:
        self._version += 1
        if self.on_mutate is not None:
            self.on_mutate()

    def touch(self) -> None:
        """Record an out-of-band mutation (bucket lists edited in place)."""
        self._mutated()

    def add(self, group: Group) -> Group:
        if group.group_id in self._groups:
            raise GroupError(f"duplicate group id {group.group_id}")
        self._groups[group.group_id] = group
        self._mutated()
        return group

    def load(self, groups: Sequence[Group]) -> None:
        """Add *groups*, in order, as one mutation (one version bump).

        Equivalent to :meth:`add` on each group in turn, including where a
        duplicate id stops it: the groups before the duplicate stay added.
        """
        try:
            for group in groups:
                if group.group_id in self._groups:
                    raise GroupError(f"duplicate group id {group.group_id}")
                self._groups[group.group_id] = group
        finally:
            self._mutated()

    def get(self, group_id: int) -> Group:
        try:
            return self._groups[group_id]
        except KeyError:
            raise GroupError(
                f"unknown group id {group_id}", "unknown-group", group_id
            ) from None

    def __contains__(self, group_id: int) -> bool:
        return group_id in self._groups

    def __len__(self) -> int:
        return len(self._groups)

    def groups(self) -> Sequence[Group]:
        return list(self._groups.values())
