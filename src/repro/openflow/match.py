"""OXM-style match expressions.

A :class:`Match` is a conjunction of per-field tests.  Each test is either an
exact value or a (value, mask) pair, as in OpenFlow's OXM TLVs.  Matching is
evaluated against a *context* mapping: the packet's header fields overlaid
with the pipeline registers ``in_port`` and ``metadata`` (absent fields read
as 0, mirroring zero-initialized tags).

OpenFlow has no native range or field-to-field comparison; the SmartSouth
compiler uses

* :func:`encode_range` — the classic range-to-prefix decomposition, turning an
  integer interval into O(2·width) masked matches (used for the priocast
  ``opt_val < priority`` test, cf. the paper's reference [2]), and
* per-(value, value) rule enumeration for field comparisons such as the
  snapshot service's ``in < cur`` (emitted by the compiler itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.openflow.errors import MatchError


@dataclass(frozen=True)
class FieldTest:
    """A single masked test: ``context[name] & mask == value``."""

    name: str
    value: int
    mask: int | None = None  # None means exact match on all bits

    def __post_init__(self) -> None:
        if self.value < 0:
            raise MatchError(f"negative match value for {self.name!r}")
        if self.mask is not None:
            if self.mask < 0:
                raise MatchError(f"negative mask for {self.name!r}")
            if self.value & ~self.mask:
                raise MatchError(
                    f"match value {self.value:#x} has bits outside mask "
                    f"{self.mask:#x} for field {self.name!r}"
                )

    def hits(self, context: Mapping[str, int]) -> bool:
        """Evaluate this test against *context* (missing fields read as 0)."""
        observed = context.get(self.name, 0)
        if self.mask is None:
            return observed == self.value
        return (observed & self.mask) == self.value

    @property
    def is_wildcard(self) -> bool:
        """True if this test constrains nothing (``mask == 0`` matches every
        value; OXM allows such TLVs and they must not affect semantics)."""
        return self.mask == 0


class Match:
    """A conjunction of :class:`FieldTest` objects.

    The empty match (``Match()``) matches every packet — it is the
    table-miss wildcard.
    """

    __slots__ = ("_tests",)

    def __init__(self, tests: Iterable[FieldTest] = (), **exact: int) -> None:
        by_name: dict[str, FieldTest] = {}
        for test in tests:
            if test.name in by_name:
                raise MatchError(f"duplicate test on field {test.name!r}")
            by_name[test.name] = test
        for name, value in exact.items():
            if name in by_name:
                raise MatchError(f"duplicate test on field {name!r}")
            by_name[name] = FieldTest(name, value)
        self._tests: dict[str, FieldTest] = by_name

    @property
    def tests(self) -> Mapping[str, FieldTest]:
        """The per-field tests, keyed by field name."""
        return self._tests

    def hits(self, context: Mapping[str, int]) -> bool:
        """True if every field test is satisfied by *context*."""
        for test in self._tests.values():
            if not test.hits(context):
                return False
        return True

    def extended(self, *tests: FieldTest, **exact: int) -> "Match":
        """Return a new match with additional tests added."""
        combined = list(self._tests.values()) + list(tests)
        new = Match(combined)
        for name, value in exact.items():
            if name in new._tests:
                raise MatchError(f"duplicate test on field {name!r}")
            new._tests[name] = FieldTest(name, value)
        return new

    def field_names(self) -> frozenset[str]:
        """The set of field names this match constrains."""
        return frozenset(self._tests)

    def __len__(self) -> int:
        return len(self._tests)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self._tests == other._tests

    def __hash__(self) -> int:
        return hash(frozenset(self._tests.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._tests:
            return "Match(*)"
        parts = []
        for test in self._tests.values():
            if test.mask is None:
                parts.append(f"{test.name}={test.value}")
            else:
                parts.append(f"{test.name}={test.value:#x}/{test.mask:#x}")
        return "Match(" + ", ".join(parts) + ")"


# --------------------------------------------------------------------- #
# (value, mask) cube algebra                                            #
# --------------------------------------------------------------------- #
#
# A masked pair ``(value, mask)`` denotes the set ``{x : x & mask == value}``
# — a *cube* over one field.  ``mask = None`` denotes an exact match (all
# bits), ``mask = 0`` denotes the full domain (a wildcard: OXM permits such
# TLVs and they must constrain nothing).  These primitives back both the
# pairwise-overlap verifier and the header-space symbolic engine in
# :mod:`repro.analysis.symbolic`.


def pairs_intersect(
    value_a: int,
    mask_a: int | None,
    value_b: int,
    mask_b: int | None,
) -> tuple[int, int | None] | None:
    """Intersection of two single-field cubes, or ``None`` if empty.

    Returns a (value, mask) pair describing exactly the values satisfying
    both inputs; the result mask is ``None`` when either input was exact.
    """
    if mask_a is None and mask_b is None:
        return (value_a, None) if value_a == value_b else None
    if mask_a is None:
        return (value_a, None) if (value_a & mask_b) == value_b else None
    if mask_b is None:
        return (value_b, None) if (value_b & mask_a) == value_a else None
    common = mask_a & mask_b
    if (value_a & common) != (value_b & common):
        return None
    return (value_a | value_b, mask_a | mask_b)


def full_mask(width: int, value: int = 0) -> int:
    """All-ones mask wide enough for *width* bits and for *value*."""
    return (1 << max(width, value.bit_length())) - 1


def pair_subtract(
    value_a: int,
    mask_a: int,
    value_b: int,
    mask_b: int,
    width: int,
) -> list[tuple[int, int]]:
    """Set difference A \\ B of two single-field cubes, as a list of cubes.

    Both masks must be finite here (callers widen exact tests to
    ``full_mask(width, value)`` first).  The classic header-space expansion:
    if A and B disagree on a commonly-constrained bit they are disjoint and
    the result is A itself; otherwise, for every bit B constrains but A does
    not, emit a copy of A with that bit flipped relative to B (each such
    cube misses B, and together they cover A \\ B).  The result cubes are
    pairwise disjoint.
    """
    common = mask_a & mask_b
    if (value_a & common) != (value_b & common):
        return [(value_a, mask_a)]
    result: list[tuple[int, int]] = []
    accum_value, accum_mask = value_a, mask_a
    extra = mask_b & ~mask_a & full_mask(width, value_b)
    while extra:
        bit = extra & -extra
        extra ^= bit
        flipped = (value_b & bit) ^ bit
        result.append((accum_value | flipped, accum_mask | bit))
        # Later cubes pin this bit to B's value so the pieces stay disjoint.
        accum_value |= value_b & bit
        accum_mask |= bit
    return result


def encode_range(lo: int, hi: int, width: int) -> list[tuple[int, int]]:
    """Decompose the interval [*lo*, *hi*] into masked (value, mask) pairs.

    The decomposition is the standard prefix expansion used by classifier
    compilers: it emits at most ``2*width - 2`` pairs, each describing the
    set ``{x : x & mask == value}`` over *width*-bit integers.  Matching any
    pair is equivalent to ``lo <= x <= hi``.

    Raises :class:`MatchError` if the interval is empty or out of range.
    """
    top = (1 << width) - 1
    if not 0 <= lo <= hi <= top:
        raise MatchError(f"bad range [{lo}, {hi}] for width {width}")
    pairs: list[tuple[int, int]] = []
    full = (1 << width) - 1

    def emit(prefix_value: int, prefix_len: int) -> None:
        host_bits = width - prefix_len
        mask = (full >> host_bits) << host_bits
        pairs.append((prefix_value & mask, mask))

    # Greedily cover [lo, hi] with maximal aligned power-of-two blocks.
    cursor = lo
    while cursor <= hi:
        # Largest block size aligned at `cursor` that fits in the interval.
        size = 1
        while True:
            next_size = size << 1
            if cursor & (next_size - 1):
                break
            if cursor + next_size - 1 > hi:
                break
            size = next_size
        prefix_len = width - size.bit_length() + 1
        emit(cursor, prefix_len)
        cursor += size
    return pairs
