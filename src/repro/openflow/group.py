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


class DeferredFailoverGroup:
    """A fast-failover group handed to :meth:`GroupTable.load` as its id
    and the tuples it is built from, and built on its first read.

    :meth:`build` makes one bucket per listed port *q*, running
    ``sends[q]`` while *q* is live, then the always-live *terminal* bucket
    — the shape of the compiler's sweep groups.  A program whose traversals
    read few of its groups never builds the rest.
    """

    __slots__ = ("group_id", "ports", "sends", "terminal")

    def __init__(
        self,
        group_id: int,
        ports: tuple[int, ...],
        sends: Sequence[Sequence[Action]],
        terminal: Sequence[Action],
    ) -> None:
        self.group_id = group_id
        self.ports = ports
        self.sends = sends
        self.terminal = terminal

    def build(self) -> Group:
        """The group itself, fresh (counters at zero)."""
        sends = self.sends
        buckets = [Bucket(sends[q], q) for q in self.ports]
        buckets.append(Bucket(self.terminal))
        return Group(self.group_id, GroupType.FF, buckets)


class GroupTable:
    """All groups of one switch.

    Groups loaded as :class:`DeferredFailoverGroup` are built on first
    read.  Building is not a mutation: it leaves :attr:`version` (and so
    the switch's program generation, its fast path and its cached
    inventory digest) alone, since the built group is exactly what was
    loaded.  Membership, size and duplicate-id checks work on ids and
    build nothing.
    """

    #: Called after every mutation (see :attr:`Switch.program_generation`).
    on_mutate: Callable[[], None] | None = None

    def __init__(self) -> None:
        self._groups: dict[int, Group | DeferredFailoverGroup] = {}
        #: How many values of ``_groups`` are still deferred.
        self._deferred = 0
        self._version = 0

    @property
    def version(self) -> int:
        """Mutation counter; the fast path invalidates compiled group
        programs when it changes.  Port-liveness flips are *not* mutations
        (failover consults the liveness oracle per packet), and neither is
        building a deferred group."""
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

    def load(self, groups: Sequence[Group | DeferredFailoverGroup]) -> None:
        """Add *groups*, in order, as one mutation (one version bump).

        Equivalent to :meth:`add` on each group in turn, including where a
        duplicate id stops it: the groups before the duplicate stay added.
        A :class:`DeferredFailoverGroup` takes its place in that order and
        is built on first read.
        """
        table = self._groups
        try:
            for group in groups:
                group_id = group.group_id
                if group_id in table:
                    raise GroupError(f"duplicate group id {group_id}")
                table[group_id] = group
                if type(group) is DeferredFailoverGroup:
                    self._deferred += 1
        finally:
            self._mutated()

    def _build(self, deferred: DeferredFailoverGroup) -> Group:
        """Swap *deferred* for the group it builds (not a mutation)."""
        group = self._groups[deferred.group_id] = deferred.build()
        self._deferred -= 1
        return group

    def get(self, group_id: int) -> Group:
        try:
            group = self._groups[group_id]
        except KeyError:
            raise GroupError(
                f"unknown group id {group_id}", "unknown-group", group_id
            ) from None
        if self._deferred and type(group) is DeferredFailoverGroup:
            return self._build(group)
        return group

    def __contains__(self, group_id: int) -> bool:
        return group_id in self._groups

    def __len__(self) -> int:
        return len(self._groups)

    def groups(self) -> list[Group]:
        """Every group in insertion order, deferred ones built."""
        if self._deferred:
            for group in list(self._groups.values()):
                if type(group) is DeferredFailoverGroup:
                    self._build(group)
        return list(self._groups.values())
