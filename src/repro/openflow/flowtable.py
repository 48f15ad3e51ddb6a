"""Flow tables: priority-ordered sets of match → instructions entries."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator, Mapping, Sequence

from repro.openflow.actions import Instructions
from repro.openflow.errors import TableError, TableFullError
from repro.openflow.match import Match


_PRIORITY = attrgetter("priority")


@dataclass
class FlowEntry:
    """One flow-table entry.

    ``cookie`` is an opaque label the compiler uses to tag which template
    state an entry implements (useful for verification and debugging);
    ``packet_count`` mirrors OpenFlow's per-entry counters.  ``seq`` is the
    table-assigned insertion sequence number: it is the documented tie-break
    among equal-priority overlapping entries (earliest installed wins) and
    the identity the fast path sorts on.
    """

    match: Match
    instructions: Instructions
    priority: int = 0
    cookie: str = ""
    packet_count: int = 0
    seq: int = -1

    def describe(self) -> str:
        return (
            f"[prio={self.priority}] {self.match!r} -> "
            f"{self.instructions.describe()}"
            + (f"  # {self.cookie}" if self.cookie else "")
        )

    def behaviour(self) -> tuple:
        """Hashable key identifying what this entry *does* (not what it
        matches).  Two same-priority overlapping entries are only a problem
        when their behaviours differ; the verifier and the lint overlap rule
        both compare on this key."""
        return (
            self.instructions.apply_actions,
            self.instructions.goto_table,
            self.instructions.write_metadata,
        )


class FlowTable:
    """A single flow table.

    Lookup returns the highest-priority matching entry; ties are broken by
    insertion order — explicitly, via the per-entry ``seq`` counter, so the
    rule survives removals, in-place priority edits, and re-sorting, and the
    compiled fast path can reproduce it exactly.  (OpenFlow leaves
    overlapping same-priority behaviour undefined — the compiler never emits
    such overlaps, and the verifier in :mod:`repro.analysis.verify` checks
    that.)  ``modify`` keeps an entry's seq (it stays in place in the
    tie-break order); removing and re-adding assigns a fresh seq (it moves
    to the back).

    ``version`` increments on every mutation (a bulk :meth:`load` is one);
    the fast path (:mod:`repro.openflow.fastpath`) uses it to invalidate
    compiled indexes transparently.  A switch also sets :attr:`on_mutate`
    on the tables it owns, so every mutation advances its program
    generation.

    ``capacity`` (via :meth:`set_capacity`) bounds the entry count, modelling
    TCAM pressure: installs into a full table either evict the
    lowest-priority entry (``evict=True`` — deterministic: smallest
    ``(priority, seq)``, and only entries *strictly* below the incoming
    priority are candidates) or fail with
    :class:`~repro.openflow.errors.TableFullError` (OpenFlow's
    ``OFPFMFC_TABLE_FULL``).  Unbounded tables (the default) never pay for
    the feature beyond one attribute check per install.
    """

    #: Called after every mutation (see :attr:`Switch.program_generation`).
    on_mutate: Callable[[], None] | None = None

    def __init__(self, table_id: int, name: str = "") -> None:
        if table_id < 0:
            raise TableError(f"negative table id {table_id}")
        self.table_id = table_id
        self.name = name or f"table{table_id}"
        self._entries: list[FlowEntry] = []
        self._sorted = True
        self._version = 0
        self._next_seq = 0
        self._capacity: int | None = None
        self._evict = False
        self.evictions = 0

    @property
    def version(self) -> int:
        """Mutation counter (bumped by add/remove/modify/touch)."""
        return self._version

    @property
    def capacity(self) -> int | None:
        """Entry limit, or None for unbounded (the default)."""
        return self._capacity

    def set_capacity(self, capacity: int | None, evict: bool = False) -> None:
        """Bound the table to *capacity* entries (None removes the bound).

        ``evict=True`` selects the make-room policy: a full table evicts its
        lowest-``(priority, seq)`` entry, but only when that victim's
        priority is strictly below the incoming entry's — an install can
        never displace an equal-or-higher-priority rule, so the behaviour
        of the surviving rule set is a monotone under-approximation of the
        unbounded table.  Shrinking below the current occupancy is allowed;
        existing entries stay until the next install applies the policy.
        """
        if capacity is not None and capacity < 1:
            raise TableError(
                f"table {self.table_id}: capacity must be >= 1, got {capacity}"
            )
        self._capacity = capacity
        self._evict = evict

    def _mutated(self) -> None:
        self._sorted = False
        self._version += 1
        if self.on_mutate is not None:
            self.on_mutate()

    def touch(self) -> None:
        """Record an out-of-band mutation (an entry edited in place)."""
        self._mutated()

    def add(self, entry: FlowEntry) -> FlowEntry:
        """Install *entry* and return it (assigns its insertion seq).

        On a capacity-bounded full table this applies the eviction policy
        (see :meth:`set_capacity`) and raises
        :class:`~repro.openflow.errors.TableFullError` when no room can be
        made.
        """
        if self._capacity is not None and len(self._entries) >= self._capacity:
            self._make_room(entry)
        entry.seq = self._next_seq
        self._next_seq += 1
        self._entries.append(entry)
        self._mutated()
        return entry

    def load(self, entries: Sequence[FlowEntry]) -> None:
        """Install *entries*, in order, as one mutation.

        Equivalent to calling :meth:`add` on each entry in turn — same
        consecutive ``seq`` numbers, same match order, same lookup winners —
        but the table is extended once, sorted once and its ``version``
        moves once.  This is how whole programs arrive
        (the compiler, :meth:`~repro.openflow.switch.Switch.adopt_program`);
        a capacity-bounded table still takes the entries one by one, so
        every install sees the eviction policy.
        """
        if self._capacity is not None:
            for entry in entries:
                self.add(entry)
            return
        for seq, entry in enumerate(entries, self._next_seq):
            entry.seq = seq
        was_sorted = self._sorted
        self._entries.extend(entries)
        self._next_seq += len(entries)
        self._mutated()
        if was_sorted:
            # A sorted table followed by newcomers in seq order (all later
            # than anything present): the stable sort on priority alone
            # already yields the (-priority, seq) match order.
            self._entries.sort(key=_PRIORITY, reverse=True)
            self._sorted = True

    def _make_room(self, incoming: FlowEntry) -> None:
        """Evict one entry for *incoming*, or raise :class:`TableFullError`.

        The victim is the smallest ``(priority, seq)`` — the lowest-priority
        entry, oldest first — and must sit strictly below the incoming
        priority.  Both the scan order and the tie-break are deterministic,
        so identical install sequences produce identical tables bit for bit
        (the Hypothesis suite pins this across fast-path/batch modes).
        """
        assert self._capacity is not None
        victim: FlowEntry | None = None
        for entry in self._entries:
            if entry.priority >= incoming.priority:
                continue
            if victim is None or (entry.priority, entry.seq) < (
                victim.priority,
                victim.seq,
            ):
                victim = entry
        if victim is None or not self._evict:
            raise TableFullError(self.table_id, self._capacity)
        self._entries.remove(victim)
        self.evictions += 1
        self._mutated()

    def install(
        self,
        match: Match,
        instructions: Instructions,
        priority: int = 0,
        cookie: str = "",
    ) -> FlowEntry:
        """Convenience wrapper building and adding a :class:`FlowEntry`."""
        return self.add(FlowEntry(match, instructions, priority, cookie))

    def remove(
        self,
        match: Match | None = None,
        priority: int | None = None,
        predicate: Callable[[FlowEntry], bool] | None = None,
    ) -> list[FlowEntry]:
        """Remove and return entries selected by the given filters.

        Filters compose conjunctively: an entry is removed when its match
        equals *match* (if given), its priority equals *priority* (if
        given), and *predicate* accepts it (if given).  With no filters,
        every entry is removed (OpenFlow's delete-all).
        """
        removed: list[FlowEntry] = []
        kept: list[FlowEntry] = []
        for entry in self._entries:
            if (
                (match is None or entry.match == match)
                and (priority is None or entry.priority == priority)
                and (predicate is None or predicate(entry))
            ):
                removed.append(entry)
            else:
                kept.append(entry)
        if removed:
            self._entries = kept
            self._mutated()
        return removed

    def modify(
        self,
        match: Match,
        instructions: Instructions,
        priority: int | None = None,
    ) -> list[FlowEntry]:
        """Replace the instructions of entries whose match equals *match*
        (and priority, if given).  Modified entries keep their ``seq``, so
        their position in the same-priority tie-break order is preserved.
        Returns the modified entries.
        """
        modified: list[FlowEntry] = []
        for entry in self._entries:
            if entry.match == match and (
                priority is None or entry.priority == priority
            ):
                entry.instructions = instructions
                modified.append(entry)
        if modified:
            self._mutated()
        return modified

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            # Priority descending, then insertion order: the documented
            # same-priority tie-break, made explicit via seq rather than
            # relying on incidental list order + sort stability.
            self._entries.sort(key=lambda e: (-e.priority, e.seq))
            self._sorted = True

    def lookup(self, context: Mapping[str, int]) -> FlowEntry | None:
        """Return the highest-priority entry matching *context*, or None."""
        self._ensure_sorted()
        for entry in self._entries:
            if entry.match.hits(context):
                entry.packet_count += 1
                return entry
        return None

    def entries(self) -> Iterator[FlowEntry]:
        """Iterate entries in match order (highest priority first)."""
        self._ensure_sorted()
        return iter(self._entries)

    def indexed_entries(self) -> list[tuple[int, FlowEntry]]:
        """Entries in match order with their stable match-order index.

        The index is the analyzer's per-table entry identity: it is stable
        across calls as long as the table is not mutated, which lets the
        symbolic engine key reachability facts without requiring
        :class:`FlowEntry` to be hashable.
        """
        self._ensure_sorted()
        return list(enumerate(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlowTable({self.name}, {len(self._entries)} entries)"
