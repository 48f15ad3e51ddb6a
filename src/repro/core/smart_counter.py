"""Smart counters (§3.3): fetch-and-increment from round-robin groups.

A smart counter with k values is an OpenFlow ``SELECT`` group with a
round-robin bucket-selection policy and k buckets, where bucket j's action
writes j into a packet header field.  Applying the group to a packet
therefore *fetches* the counter value (it lands in the packet, where flow
tables can match it) and *increments* the counter (the round-robin cursor
advances), wrapping to 0 on overflow — exactly the paper's construction.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.fields import FIELD_SCRATCH
from repro.openflow.actions import SetField
from repro.openflow.group import Bucket, Group, GroupType


def counter_writes(
    modulus: int, field_name: str = FIELD_SCRATCH
) -> list[tuple[SetField, ...]]:
    """The bucket action tuples of a k-valued counter: bucket j writes j.

    Immutable, so every counter of that size on *field_name* can share one
    list (the compiler builds it once per network).
    """
    if modulus < 2:
        raise ValueError("a smart counter needs at least 2 values")
    return [(SetField(field_name, j),) for j in range(modulus)]


def counter_group(
    group_id: int, writes: Sequence[tuple[SetField, ...]], start: int = 0
) -> Group:
    """A round-robin SELECT group over the bucket actions *writes* (see
    :func:`counter_writes`), its cursor seeded at *start*."""
    if not 0 <= start < len(writes):
        raise ValueError(f"counter start {start} not in [0, {len(writes)})")
    return Group(
        group_id=group_id,
        group_type=GroupType.SELECT,
        buckets=[Bucket(actions=actions) for actions in writes],
        rr_next=start,
    )


def build_counter_group(
    group_id: int,
    modulus: int,
    field_name: str = FIELD_SCRATCH,
    start: int = 0,
) -> Group:
    """Build a k-valued smart counter as a round-robin SELECT group.

    ``modulus`` is k (the number of buckets); each application writes the
    pre-increment value into ``field_name``.  Bucket order is canonical —
    bucket j writes value j — so a counter's behaviour is fully determined
    by its cursor, never by construction order.  ``start`` seeds the cursor
    (the first fetch returns ``start``), which lets the model checker and
    the simulator replay counter-dependent traversals bit-identically.
    """
    return counter_group(group_id, counter_writes(modulus, field_name), start)


def counter_value(group: Group) -> int:
    """The value a fetch would return next (the round-robin cursor).

    Only the control plane can call this (via group statistics); the data
    plane must fetch-and-increment.
    """
    return group.rr_next


def seed_counter(group: Group, start: int) -> None:
    """Reset a counter group's cursor so the next fetch returns *start*.

    Control-plane only (a group-mod in real OpenFlow); used to restore a
    deterministic counter state before a replay.
    """
    if not 0 <= start < len(group.buckets):
        raise ValueError(
            f"counter start {start} not in [0, {len(group.buckets)})"
        )
    group.rr_next = start


def counter_bucket_value(group: Group, index: int) -> int | None:
    """The value bucket *index* writes, or None if it is not a pure
    set-field bucket (a malformed counter; the model checker flags it)."""
    bucket = group.buckets[index]
    values = [a.value for a in bucket.actions if isinstance(a, SetField)]
    return values[-1] if values else None
