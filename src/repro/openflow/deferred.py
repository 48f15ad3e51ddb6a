"""Deferred flow tables: rows declared by key, built where they are read.

The compiler's big tables hold O(Δ²) rows per switch, and a traversal hits
a handful of them.  A :class:`DeferredTable` is what the compiler hands
:meth:`~repro.openflow.flowtable.FlowTable.load` instead of a list of
entries: per row a recipe (its priority and a *make* that returns the
row's match, instructions and cookie) and the row's declared signature
(the sorted ``(field, mask)`` pairs it tests) and key.  From those the
table works out, on first use, the index the fast path would derive from
the built rows:

* per signature, a map from each key to the position of that key's first
  row in match order, the only row of the key a lookup can return (the
  fast path reads keys with its own per-signature extractor);
* the position of the first row testing nothing (the residue), if any.

The fast path indexes a pending table through those declared keys
(:func:`repro.openflow.fastpath.index_declared`) and builds a row on its
key's first hit; every other reader has the flow table materialise every
row first.  Either way a row is built once, with the ``seq`` an eager load
of the rows in position order would have given it.

Only the fast path reads a table row by row.  Every reader of a switch
without one reads whole tables (the reference walk's first lookup,
``describe``, lint, the checker), so the compiler hands such a switch an
:class:`EagerTable`: the same three ways to add rows, each row built at
once, and a plain entry list for ``load``.

This module is imported by the compiler and read by the fast path; the
flow table and the switch only hold what it makes, so a process that never
compiles a program never loads it.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.openflow.actions import Instructions
from repro.openflow.errors import TableError
from repro.openflow.flowtable import FlowEntry
from repro.openflow.match import Match

#: A signature: the sorted ``(field, mask)`` pairs a row tests.
Signature = tuple[tuple[str, "int | None"], ...]
#: A declared index: per signature ``(signature, key -> first row
#: position)``, and the residue head's position.
Declared = tuple[list[tuple[Signature, dict]], "int | None"]
#: What a row's *make* returns: ``(match, instructions, cookie)``.
RowParts = tuple[Match, Instructions, str]


def _ready(parts: RowParts) -> RowParts:
    """The *make* of a row whose parts were built ahead."""
    return parts


class DeferredTable:
    """A flow table's rows handed to :meth:`FlowTable.load` unbuilt.

    A row is a recipe — ``make(arg)`` returns its ``(match, instructions,
    cookie)`` — with its *priority*, its *signature* (the sorted ``(field,
    mask)`` pairs its match tests) and its *key* (its test values in that
    order: the bare value for a one-slot signature; anything for the empty
    signature, whose rows are residue).  The recipes are kept column by
    column, so :meth:`add_all` appends a whole row plan — columns an emitter
    shares between the nodes of one degree — without a per-row object.  The
    row's position (the order rows were added) fixes its ``seq``.
    :meth:`declared` is the index the rows declare, worked out on first
    use; :meth:`row` builds one row, :meth:`rows` every row not built yet,
    and both hand out the same :class:`FlowEntry` for a position.  A
    deferred table is loaded into one flow table, once.
    """

    __slots__ = (
        "makes", "args", "priorities", "signatures", "keys",
        "_declared", "_base", "_built",
    )

    def __init__(self) -> None:
        self.makes: list[Callable[[Any], RowParts]] = []
        self.args: list[Any] = []
        self.priorities: list[int] = []
        self.signatures: list[Signature] = []
        self.keys: list[Any] = []
        self._declared: Declared | None = None
        #: The seq of position 0, set when the table is loaded.
        self._base: int | None = None
        self._built: list[FlowEntry | None] = []

    def __len__(self) -> int:
        return len(self.priorities)

    def add(
        self,
        signature: Signature,
        key: Any,
        priority: int,
        make: Callable[[Any], RowParts],
        arg: Any = None,
    ) -> None:
        """Append one row (see the class docstring)."""
        self.makes.append(make)
        self.args.append(arg)
        self.priorities.append(priority)
        self.signatures.append(signature)
        self.keys.append(key)

    def add_all(
        self,
        priorities: Sequence[int],
        make: Callable[[Any], RowParts],
        args: Sequence[Any],
        index: Callable[[], tuple[Sequence[Signature], Sequence[Any]]],
    ) -> None:
        """Append one row per element of *args*, made by *make*, with the
        priority at the same index of *priorities*; *index* returns the
        rows' signatures and keys (an :class:`EagerTable` never asks)."""
        signatures, keys = index()
        self.makes += [make] * len(args)
        self.args += args
        self.priorities += priorities
        self.signatures += signatures
        self.keys += keys

    def add_rule(
        self, match: Match, instructions: Instructions, priority: int, cookie: str
    ) -> None:
        """Append one row built ahead, keyed from its *match* (tests with
        ``mask == 0`` constrain nothing and are left out, as in the fast
        path's index)."""
        tests = sorted(
            (name, test) for name, test in match.tests.items() if test.mask != 0
        )
        if len(tests) == 1:
            key = tests[0][1].value
        else:
            key = tuple([test.value for _name, test in tests])
        signature = tuple([(name, test.mask) for name, test in tests])
        self.add(signature, key, priority, _ready, (match, instructions, cookie))

    def declared(self) -> Declared:
        """The declared index: per signature some row tests, ``(signature,
        key -> position of the key's first row in match order)`` — the
        only row of the key a lookup can return — and the
        position of the first row testing nothing (None if there is none).
        Worked out on the first call, so a table only ever materialised
        never pays for it."""
        if self._declared is None:
            priorities = self.priorities
            indexes: dict[Signature, dict] = {}
            residue = None
            for position, (priority, signature, key) in enumerate(
                zip(priorities, self.signatures, self.keys)
            ):
                if signature:
                    index = indexes.get(signature)
                    if index is None:
                        index = indexes[signature] = {}
                    first = index.get(key)
                else:
                    index, first = None, residue
                # Match order is (-priority, seq): a later row displaces a
                # key's first row only with a strictly higher priority.
                if first is None or priority > priorities[first]:
                    if index is None:
                        residue = position
                    else:
                        index[key] = position
            self._declared = (list(indexes.items()), residue)
        return self._declared

    def bind(self, base: int) -> None:
        """Number the rows from seq *base* (the loading table's next seq)."""
        if self._base is not None:
            raise TableError("a deferred table is loaded once")
        self._base = base
        self._built = [None] * len(self.priorities)

    def row(self, position: int) -> FlowEntry:
        """The row at *position*, built on first call."""
        entry = self._built[position]
        if entry is None:
            match, instructions, cookie = self.makes[position](self.args[position])
            entry = self._built[position] = FlowEntry(
                match, instructions, self.priorities[position], cookie, 0,
                self._base + position,
            )
        return entry

    def rows(self) -> list[FlowEntry]:
        """Every row in position (seq) order, built where not yet.  The
        recipes and the declared index are dropped afterwards: every row is
        built, so :meth:`row` only hands out what this returned."""
        built = self._built
        if any(built):  # the fast path built some rows already
            for position, entry in enumerate(built):
                if entry is None:
                    self.row(position)
        else:
            parts = [make(arg) for make, arg in zip(self.makes, self.args)]
            built[:] = [
                FlowEntry(match, instructions, priority, cookie, 0, seq)
                for (match, instructions, cookie), priority, seq in zip(
                    parts, self.priorities, range(self._base, self._base + len(parts))
                )
            ]
        self.makes, self.args, self.signatures, self.keys = [], [], [], []
        self._declared = None
        return list(built)


class EagerTable(list):
    """A :class:`DeferredTable`'s three ways to add rows, each row built at
    once into this list of entries (for a switch without a fast path; see
    the module docstring).  Signatures and keys are not kept: nothing
    indexes a table through them."""

    def add(
        self,
        signature: Signature,
        key: Any,
        priority: int,
        make: Callable[[Any], RowParts],
        arg: Any = None,
    ) -> None:
        match, instructions, cookie = make(arg)
        self.append(FlowEntry(match, instructions, priority, cookie))

    def add_all(
        self,
        priorities: Sequence[int],
        make: Callable[[Any], RowParts],
        args: Sequence[Any],
        index: Callable[[], tuple[Sequence[Signature], Sequence[Any]]],
    ) -> None:
        append = self.append
        for priority, arg in zip(priorities, args):
            match, instructions, cookie = make(arg)
            append(FlowEntry(match, instructions, priority, cookie))

    def add_rule(
        self, match: Match, instructions: Instructions, priority: int, cookie: str
    ) -> None:
        self.append(FlowEntry(match, instructions, priority, cookie))
