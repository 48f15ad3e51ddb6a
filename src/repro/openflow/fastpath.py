"""Compiled switch fast path: indexed dispatch for the packet hot loop.

The interpreted pipeline (:meth:`repro.openflow.switch.Switch.process`)
resolves every packet with a linear priority scan over each table's entries,
building a full context dict and calling :meth:`Match.hits` per entry.  That
is faithful but slow — the paper's whole point is that match-action lookup is
*cheap*, and our chaos campaigns, model-check replays and scalability benches
should be bottlenecked by the algorithm, not the emulation.

This module compiles each :class:`~repro.openflow.flowtable.FlowTable` into
an indexed dispatch structure and each entry's instructions into a
pre-resolved closure, so the hot loop does dict lookups instead of per-entry
match evaluation.  Semantics are *identical* to the interpreter — including
entry/group/bucket packet counters, SELECT round-robin cursors, fast-failover
liveness (consulted per packet, never cached), error messages, and error
timing — and the differential suite in ``tests/test_fastpath_differential.py``
asserts byte-identical observables between both engines.

Index layout (see docs/FASTPATH.md)
-----------------------------------

Entries are partitioned by *signature*: the sorted tuple of ``(field, mask)``
pairs the entry tests (``mask None`` = exact match on all bits).  Tests with
``mask == 0`` constrain nothing (OXM permits such TLVs) and are dropped from
the signature.  For each signature the compiler builds one hash bucket map::

    key = tuple(context[field] & mask for field, mask in signature)
    buckets[key] -> candidates sorted by (-priority, seq)

Because a signature covers *all* of an entry's tests, a key hit is exactly a
match hit.  Entries with an empty signature (table-miss wildcards, default
gotos) form the always-matching residue list.  A lookup probes each
signature's map once plus the residue head and picks the best candidate by
``(-priority, seq)`` — the same priority-then-insertion-order rule the
interpreter documents.

One lookup per hop
------------------

A packet is first looked up in the switch's **chain cache**, keyed by the
union of every slot any table consults: a hit replays the entry chain an
earlier key-equal packet walked, with no table lookups at all; a miss
walks the tables, one lookup per table (see :class:`FastPath`).  The
network's drain entry (:meth:`FastPath.drain`) owns the arrivals it is
handed, so a chain whose only emission is its final op emits the arrival
itself instead of a clone.

Invalidation
------------

Compiled tables are cached per ``(table, FlowTable.version)``; compiled group
programs per ``GroupTable.version``; the chain cache per switch program
generation (:attr:`Switch.program_generation`).  Any table mutation (add /
remove / modify) or group addition bumps the respective version and the
generation, and the stale artifacts are dropped lazily on the next packet.
Fast-failover bucket selection calls the switch's liveness oracle on every
execution, so port-liveness flips take effect immediately — the same path
as the interpreter, with no invalidation needed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from repro.openflow.actions import (
    Action,
    DecTtl,
    GroupAction,
    Instructions,
    Output,
    PopLabel,
    PushLabel,
    SetField,
)
from repro.openflow.errors import GroupError, PipelineError, TableError
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.group import Group, GroupType
from repro.openflow.packet import IN_PORT, Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (switch imports us)
    from repro.openflow.switch import PacketOut, Switch

#: Emission callback of the compiled ops: ``emit(port, packet)`` with
#: ``IN_PORT`` already resolved by the op.
EmitFn = Callable[[int, "Packet"], None]
#: A compiled operation: ``op(packet, emit, in_port, active_groups)``.
OpFn = Callable[[Packet, EmitFn, int, frozenset], None]
#: The network's emitter a drain entry is attached to:
#: ``emit(node, port, packet)`` puts one packet on the wire.
NetEmitFn = Callable[[int, int, "Packet"], None]

_EMPTY_ACTIVE: frozenset[int] = frozenset()

#: Chain-cache marks: a key walked once in this generation (its chain is
#: recorded if it comes back), and a key pinned to the table walk.
_SEEN = object()
_PINNED = object()


#: The fast path's clone of every emission: :meth:`Packet.copy`, bound to a
#: module name of its own so instrumentation can wrap this call site alone.
_fast_copy = Packet.copy


def _lookup_safe(actions) -> bool:
    """Whether executing *actions* preserves lookup-key equality between
    any two packets that agreed on every (field, mask) slot beforehand.

    Constant set-fields write the same value to both, outputs and label
    pushes/pops never touch fields, and write_metadata is a constant
    function of the chain — so two key-equal packets stay key-equal at
    every later table.  DecTtl breaks this under masks (equal *masked*
    values can decrement to unequal ones), groups select buckets from
    dynamic state, and custom actions are opaque; any of those makes the
    entry unsafe as a non-final chain step (see the chain cache of
    :class:`FastPath`).
    """
    for action in actions:
        kind = type(action)
        if kind is SetField:
            if action.value < 0:
                return False
        elif kind is not Output and kind is not PushLabel and (
            kind is not PopLabel
        ):
            return False
    return True


class CompiledEntry:
    """One flow entry as the index holds it.

    Building the index fills in what a *lookup* needs (``sort_key``) and
    the instruction fields the pipeline loop reads (``goto``,
    ``write_metadata``); the instruction closures are compiled the first
    time the entry is matched.  Until then an entry built with a *resolve*
    function is **its own single op**: ``ops`` is ``(self,)``, and calling
    it has *resolve* compile the real op tuple, swap it into ``ops`` and
    set ``lookup_safe``, then runs that tuple.  The pipeline loops iterate
    whatever ``ops`` holds, so they carry no "compiled yet?" test, and a
    traversal pays closures only for the rows it actually hits.  Without
    *resolve* the record is lookup-only (empty ``ops``).
    """

    __slots__ = (
        "entry",
        "sort_key",
        "ops",
        "goto",
        "write_metadata",
        "lookup_safe",
        "_resolve",
    )

    def __init__(
        self,
        entry: FlowEntry,
        resolve: Callable[["CompiledEntry"], tuple[OpFn, ...]] | None = None,
    ) -> None:
        self.entry = entry
        # The interpreter's documented rule: highest priority wins, ties
        # break by insertion order (FlowEntry.seq).
        self.sort_key = (-entry.priority, entry.seq)
        self.ops: tuple[OpFn, ...] = () if resolve is None else (self,)
        instructions = entry.instructions
        self.goto = instructions.goto_table
        self.write_metadata = instructions.write_metadata
        #: :func:`_lookup_safe` of the entry's actions; None until the
        #: closures are compiled (the table walk reads it only after
        #: running ``ops``, i.e. never before the first hit).
        self.lookup_safe: bool | None = None
        self._resolve = resolve

    @property
    def resolved(self) -> bool:
        """Whether ``ops`` holds the entry's real closures yet."""
        return self.lookup_safe is not None

    def __call__(self, pkt, emit, in_port, active) -> None:
        """The first-hit op: compile, swap in, run."""
        for op in self._resolve(self):
            op(pkt, emit, in_port, active)


# --------------------------------------------------------------------- #
# Key extraction                                                        #
# --------------------------------------------------------------------- #

#: A field getter: ``get(fields, in_port, metadata) -> int``.
_GetFn = Callable[[dict, int, int], int]

#: Compiled key extractors, cached per signature (recompiles are frequent
#: under churny workloads; the extractor only depends on the signature).
_KEY_FN_CACHE: dict[tuple, _GetFn] = {}


def _slot_expr(name: str, mask: int | None) -> str:
    """The Python expression reading one signature slot from the context.

    ``in_port`` and ``metadata`` are pipeline registers, not packet fields
    (as in :func:`~repro.openflow.switch.walk`); everything else reads the
    packet's field dict with the "absent reads as 0" convention.
    """
    if name == "in_port":
        expr = "ip"
    elif name == "metadata":
        expr = "md"
    else:
        expr = f"f.get({name!r}, 0)"
    if mask is not None:
        expr = f"({expr} & {mask})"
    return expr


def _make_key_fn(signature: tuple[tuple[str, int | None], ...]) -> _GetFn:
    """Compile a signature into a key extractor.

    The extractor is generated as one flat lambda (no per-field closure
    calls — this sits on the hottest path of every lookup).  Single-field
    signatures key on the bare value, avoiding a tuple allocation per
    probe.  Field names and masks are embedded via ``repr``, so arbitrary
    field-name strings are safe to compile.
    """
    key_fn = _KEY_FN_CACHE.get(signature)
    if key_fn is None:
        exprs = [_slot_expr(name, mask) for name, mask in signature]
        body = exprs[0] if len(exprs) == 1 else "(" + ", ".join(exprs) + ")"
        key_fn = eval(f"lambda f, ip, md: {body}", {"__builtins__": {}})
        _KEY_FN_CACHE[signature] = key_fn
    return key_fn


def _const_key(f, ip, md):  # noqa: ARG001 - fixed extractor arity
    """Chain key when no table consults any field: all packets share it."""
    return 0


def _shape_plan(
    names: tuple[str, ...], masks: tuple[int | None, ...]
) -> tuple[tuple[tuple[str, int | None], ...], tuple[str, ...]]:
    """``(signature, key fields)`` of every match testing *names* under
    *masks*: the sorted (field, mask) shape, and the field names whose
    test values, in that order, form the bucket key.

    ``mask == 0`` tests are dropped: they constrain nothing (and OXM
    validation already forced their value to 0).
    """
    signature = tuple(
        sorted((name, mask) for name, mask in zip(names, masks) if mask != 0)
    )
    return signature, tuple(name for name, _mask in signature)


class FastTable:
    """One flow table compiled to signature-indexed hash dispatch."""

    __slots__ = ("table_id", "groups", "residue")

    def __init__(
        self,
        table_id: int,
        groups: list[tuple[_GetFn, dict, tuple]],
        residue: list[CompiledEntry],
    ) -> None:
        self.table_id = table_id
        #: One (key_fn, buckets, signature) triple per distinct match
        #: signature; the signature is kept for the union chain key.
        self.groups = groups
        #: Always-matching entries (empty signature), best first.
        self.residue = residue

    def entries(self) -> Iterator[CompiledEntry]:
        """Every compiled entry of the table (no particular order)."""
        for _key_fn, buckets, _signature in self.groups:
            for candidates in buckets.values():
                yield from candidates
        yield from self.residue

    def lookup(
        self, fields: dict, in_port: int, metadata: int
    ) -> CompiledEntry | None:
        """Best matching compiled entry, or None (table miss).

        Equivalent to :meth:`FlowTable.lookup` minus the counter bump (the
        caller bumps, so a pure lookup stays side-effect free for tests).
        """
        best: CompiledEntry | None = None
        for key_fn, buckets, _signature in self.groups:
            candidates = buckets.get(key_fn(fields, in_port, metadata))
            if candidates is not None:
                head = candidates[0]
                if best is None or head.sort_key < best.sort_key:
                    best = head
        if self.residue:
            head = self.residue[0]
            if best is None or head.sort_key < best.sort_key:
                best = head
        return best


def compile_table(
    table: FlowTable,
    entry_factory: Callable[[FlowEntry], CompiledEntry] = CompiledEntry,
) -> FastTable:
    """Compile *table* into a :class:`FastTable`: the signature index only.

    *entry_factory* builds the per-entry record; the default produces
    lookup-only records (no instruction closures), which is what the fuzz
    harness uses.  :class:`FastPath` passes a factory whose records compile
    their closures on first hit.

    A table holds a handful of distinct test *shapes* (which fields, under
    which masks) however many entries it has, so the sorted signature and
    the key-field order are worked out once per shape and an entry costs
    its record plus two dict probes.
    """
    shapes: dict[tuple, tuple] = {}
    by_signature: dict[tuple, dict] = {}
    residue: list[CompiledEntry] = []
    for entry in table.entries():
        compiled = entry_factory(entry)
        tests = entry.match.tests
        if not tests:
            residue.append(compiled)
            continue
        shape = (tuple(tests), tuple([test.mask for test in tests.values()]))
        plan = shapes.get(shape)
        if plan is None:
            plan = shapes[shape] = _shape_plan(*shape)
        signature, key_fields = plan
        if not signature:
            residue.append(compiled)
            continue
        if len(key_fields) == 1:
            key = tests[key_fields[0]].value
        else:
            key = tuple([tests[name].value for name in key_fields])
        buckets = by_signature.get(signature)
        if buckets is None:
            buckets = by_signature[signature] = {}
        candidates = buckets.get(key)
        if candidates is None:
            buckets[key] = [compiled]
        else:
            candidates.append(compiled)

    # Entries arrive in match order, so every candidate list and the
    # residue are already sorted by (-priority, seq).
    groups: list[tuple[_GetFn, dict, tuple]] = [
        (_make_key_fn(signature), buckets, signature)
        for signature, buckets in by_signature.items()
    ]
    return FastTable(table.table_id, groups, residue)


# --------------------------------------------------------------------- #
# Group programs                                                        #
# --------------------------------------------------------------------- #


class _GroupProgram:
    """One group compiled to per-bucket closures (type dispatch hoisted)."""

    __slots__ = ("group", "group_type", "buckets", "has_nested")

    def __init__(
        self,
        group: Group,
        buckets: list[tuple[int | None, OpFn]],
    ) -> None:
        self.group = group
        self.group_type = group.group_type
        #: (watch_port, run_bucket) pairs, in bucket order.
        self.buckets = buckets
        #: Whether any bucket chains into another group.  Only chained
        #: executions consult the active set, so a chain-free program skips
        #: the per-execution frozenset union.
        self.has_nested = any(
            type(action) is GroupAction
            for bucket in group.buckets
            for action in bucket.actions
        )


class FastPath:
    """The compiled engine of one switch.

    Owns the per-table compile cache, the group-program cache and the
    **chain cache**.  The first two are invalidated lazily by version
    comparison, so any mutation through the :class:`FlowTable` /
    :class:`GroupTable` APIs is picked up transparently on the next packet.

    The chain cache maps a packet's *union key* (:meth:`_sync`) to the
    entry chain a packet with that key walked (see :meth:`_run` for when
    it is recorded).  Two packets with equal union keys read identical
    values at every lookup a chain can perform, so — as long as every
    non-final step is
    :attr:`CompiledEntry.lookup_safe` — they traverse identical chains, and
    a hit costs one key extraction, one dict probe and the entry ops, with
    no table walk.  The cache is valid for one switch program generation
    (:attr:`Switch.program_generation`), checked per packet with one
    integer compare; it survives across packets, drains and batches until
    the program changes.
    """

    def __init__(self, switch: "Switch") -> None:
        from repro.openflow.switch import PacketOut  # import cycle guard

        self._switch = switch
        self._packet_out = PacketOut
        #: One bound method for every entry record (not one per entry).
        self._resolve_entry = self._resolve
        #: table_id -> (FlowTable.version at compile time, FastTable)
        self._tables: dict[int, tuple[int, FastTable]] = {}
        #: group_id -> compiled program (valid for _groups_version)
        self._programs: dict[int, _GroupProgram] = {}
        self._groups_version = switch.groups.version
        #: The program generation the chain cache holds (-1: none yet).
        self._generation = -1
        #: Union chain-key extractor of that generation.
        self._chain_key: _GetFn = _const_key
        #: union key -> (head steps, elidable tail or None, missed), or one
        #: of the marks _SEEN / _PINNED.
        self._chains: dict = {}
        # The drain entry's binding (see attach) and per-arrival state:
        # (port, clone) emissions held until the pipeline ends, and whether
        # an owned final emission went out.  Its two emitters are bound
        # once here, not per arrival.
        self._node = switch.node_id
        self._net_emit: NetEmitFn | None = None
        self._pending: list[tuple[int, Packet]] = []
        self._sent = False
        self._emit_pending = self._hold_copy
        self._emit_owned = self._send_owned

    # -- cache management ------------------------------------------------ #

    def invalidate(self) -> None:
        """Drop every compiled artifact and recorded chain (recompiled
        lazily on next use).

        Mutations through the table/group APIs invalidate automatically;
        this hook exists for callers that mutate entry or bucket objects
        in place (see :meth:`Switch.invalidate_fast_path`).
        """
        self._tables.clear()
        self._programs.clear()
        self._groups_version = self._switch.groups.version
        self._generation = -1

    def warm(self) -> None:
        """Eagerly compile every table index, entry closure and group
        program.

        Compilation is otherwise lazy (a table's index on its first packet,
        an entry's closures on its first hit, a group's program on its
        first execution); benches and latency-sensitive starts call this so
        the hot loop never compiles.  After it, no entry is left
        unresolved.
        """
        self._sync()
        for table_id in self._switch.tables:
            fast = self._fast_table(table_id)
            for compiled in fast.entries():
                if not compiled.resolved:
                    self._resolve(compiled)
        for group in self._switch.groups.groups():
            if group.group_id not in self._programs:
                self._compile_group(group.group_id)

    def _check_groups(self) -> None:
        version = self._switch.groups.version
        if version != self._groups_version:
            # Entry closures embed group programs, so a group-table change
            # invalidates the table compiles too.
            self._tables.clear()
            self._programs.clear()
            self._groups_version = version

    def _fast_table(self, table_id: int) -> FastTable | None:
        table = self._switch.tables.get(table_id)
        if table is None:
            return None
        cached = self._tables.get(table_id)
        if cached is not None and cached[0] == table.version:
            return cached[1]
        fast = compile_table(table, self._compile_entry)
        self._tables[table_id] = (table.version, fast)
        return fast

    # -- instruction compilation ----------------------------------------- #

    def _compile_entry(self, entry: FlowEntry) -> CompiledEntry:
        """The index-time record of *entry*: closures on first hit."""
        return CompiledEntry(entry, self._resolve_entry)

    def _resolve(self, compiled: CompiledEntry) -> tuple[OpFn, ...]:
        """Compile *compiled*'s closures in place and return them.

        Group actions resolve against the group table as it is now (the
        first hit, or :meth:`warm`), never as it was when the index was
        built.
        """
        actions = compiled.entry.instructions.apply_actions
        ops: list[OpFn] = []
        for action in actions:
            ops.extend(self._compile_action(action))
        compiled.lookup_safe = _lookup_safe(actions)
        compiled.ops = resolved = tuple(ops)
        return resolved

    def _compile_action(self, action: Action) -> list[OpFn]:
        """Compile one action to closures (possibly several, if flattened)."""
        if type(action) is SetField:
            name, value = action.name, action.value
            if value >= 0:

                def set_field(pkt, emit, in_port, active, n=name, v=value):
                    pkt.fields[n] = v

                return [set_field]
            # Negative constants raise at apply time in the interpreter;
            # fall through to the generic path to keep that timing.
        elif type(action) is Output:
            port = action.port
            if port == IN_PORT:

                def output_in_port(pkt, emit, in_port, active):
                    emit(in_port, pkt)

                return [output_in_port]

            def output(pkt, emit, in_port, active, p=port):
                emit(p, pkt)

            return [output]
        elif type(action) is GroupAction:
            return self._compile_group_action(action.group_id)
        elif type(action) is PushLabel:
            record = action.record

            def push(pkt, emit, in_port, active, r=record):
                pkt.stack.append(r)

            return [push]
        elif type(action) is PopLabel:
            count = action.count

            def pop(pkt, emit, in_port, active, c=count):
                stack = pkt.stack
                for _ in range(c):
                    if stack:
                        stack.pop()

            return [pop]
        elif type(action) is DecTtl:
            name = action.field_name

            def dec_ttl(pkt, emit, in_port, active, n=name):
                fields = pkt.fields
                value = fields.get(n, 0)
                fields[n] = value - 1 if value > 0 else 0

            return [dec_ttl]

        # Unknown / custom Action subclass: defer to its own apply(), so
        # custom services (docs/TUTORIAL.md) run unchanged on the fast path.
        # It may emit on IN_PORT, which the compiled emitters leave to the
        # ops to resolve.
        def generic(pkt, emit, in_port, active, a=action):
            def resolve(port, out):
                emit(in_port if port == IN_PORT else port, out)

            a.apply(pkt, resolve, in_port)

        return [generic]

    def _compile_group_action(self, group_id: int) -> list[OpFn]:
        """A ``group`` action: flatten where safe, else an indirect call.

        Safe flattening: the group exists now, is INDIRECT with exactly one
        bucket, and that bucket contains no nested group action.  Such a
        group cannot participate in a chaining loop and has no dynamic
        selection state, so its bucket actions are inlined (counter bumps
        included).  Everything else — FF (liveness is dynamic), SELECT
        (cursor state), ALL (cloning), chains, and ids not yet installed —
        goes through :meth:`_execute_group` at packet time, exactly like the
        interpreter.
        """
        table = self._switch.groups
        if group_id in table:
            group = table.get(group_id)
            if (
                group.group_type is GroupType.INDIRECT
                and len(group.buckets) == 1
                and not any(
                    isinstance(a, GroupAction) for a in group.buckets[0].actions
                )
            ):
                bucket = group.buckets[0]
                inner = []
                for action in bucket.actions:
                    inner.extend(self._compile_action(action))

                def flattened(
                    pkt, emit, in_port, active,
                    g=group, b=bucket, ops=tuple(inner),
                ):
                    g.packet_count += 1
                    b.packet_count += 1
                    for op in ops:
                        op(pkt, emit, in_port, active)

                return [flattened]

        def indirect(pkt, emit, in_port, active, gid=group_id):
            self._execute_group(gid, pkt, emit, in_port, active)

        return [indirect]

    def _compile_group(self, group_id: int) -> _GroupProgram:
        group = self._switch.groups.get(group_id)  # GroupError if unknown
        buckets: list[tuple[int | None, OpFn]] = []
        for bucket in group.buckets:
            ops: list[OpFn] = []
            for action in bucket.actions:
                ops.extend(self._compile_action(action))

            def run_bucket(pkt, emit, in_port, active, b=bucket, os=tuple(ops)):
                b.packet_count += 1
                for op in os:
                    op(pkt, emit, in_port, active)

            buckets.append((bucket.watch_port, run_bucket))
        program = _GroupProgram(group, buckets)
        self._programs[group_id] = program
        return program

    def _execute_group(
        self,
        group_id: int,
        packet: Packet,
        emit: EmitFn,
        in_port: int,
        active: frozenset[int],
    ) -> None:
        """Run a compiled group program (the pipeline walk's group dispatch)."""
        if group_id in active:
            message = f"group chaining loop through group {group_id}"
            raise GroupError(message, "group-loop", group_id)
        program = self._programs.get(group_id)
        if program is None:
            program = self._compile_group(group_id)
        group = program.group
        group.packet_count += 1
        if program.has_nested:
            active = active | {group_id}
        kind = program.group_type
        buckets = program.buckets
        if kind is GroupType.FF:
            # Liveness is consulted per execution — port flips take effect
            # immediately, the same path as the interpreter's failover.
            live = self._switch._port_live
            for watch_port, run in buckets:
                if watch_port is None or live(watch_port):
                    run(packet, emit, in_port, active)
                    return
            return  # no live bucket: drop silently (OF 1.3)
        if kind is GroupType.SELECT:
            if not buckets:
                message = f"SELECT group {group_id} has no buckets"
                raise GroupError(message, "empty-select", group_id)
            index = group.rr_next
            group.rr_next = (index + 1) % len(buckets)
            if not 0 <= index < len(buckets):
                message = f"SELECT group {group_id} cursor {index} out of range"
                raise GroupError(message, "select-cursor", f"{group_id}:{index}")
            buckets[index][1](packet, emit, in_port, active)
            return
        if kind is GroupType.ALL:
            for _watch, run in buckets:
                run(packet.copy(), emit, in_port, active)
            return
        if kind is GroupType.INDIRECT:
            if buckets:
                buckets[0][1](packet, emit, in_port, active)
            return
        raise GroupError(f"unsupported group type {kind}")  # pragma: no cover

    # -- the chain cache --------------------------------------------------- #

    def _sync(self) -> None:
        """Adopt the switch's current program generation.

        Drops every recorded chain, lets changed tables and group programs
        recompile, and rebuilds the union key: every ``(field, mask)`` slot
        any table of the switch consults.  ``metadata`` is excluded — it
        starts at 0 and evolves as a constant function of the chain, so
        key-equal packets always agree on it — and ``in_port`` is a slot
        like any other when some table tests it (otherwise the ops resolve
        ``IN_PORT`` from the arrival itself).
        """
        switch = self._switch
        self._check_groups()
        self._chains.clear()
        slots: set[tuple[str, int | None]] = set()
        for table_id in list(switch.tables):
            for _key_fn, _buckets, signature in self._fast_table(table_id).groups:
                for name, mask in signature:
                    if name != "metadata":
                        slots.add((name, mask))
        if slots:
            union = tuple(
                sorted(slots, key=lambda s: (s[0], -1 if s[1] is None else s[1]))
            )
            self._chain_key = _make_key_fn(union)
        else:
            self._chain_key = _const_key
        self._generation = switch.program_generation

    def _group_single_emit(self, group_id: int) -> bool:
        """Whether executing *group_id* emits at most once, as its last act.

        True for INDIRECT / FF / SELECT groups where every bucket either
        emits nothing (an empty drop bucket — FF terminals use these) or
        ends in exactly one ``Output`` preceded only by field/stack edits —
        the shapes every paper service compiles to.  ALL groups clone per
        bucket and custom actions may emit arbitrarily, so both disqualify;
        so does anything *after* an ``Output``, since the scalar path
        snapshots the packet at emission and an owned emission would not.
        """
        table = self._switch.groups
        if group_id not in table:
            return False
        group = table.get(group_id)
        if group.group_type is GroupType.ALL:
            return False
        for bucket in group.buckets:
            actions = bucket.actions
            final = len(actions) - 1
            for position, action in enumerate(actions):
                kind = type(action)
                if kind is Output:
                    if position != final:
                        return False
                elif kind is SetField:
                    if action.value < 0:
                        return False
                elif kind is not PushLabel and kind is not PopLabel and (
                    kind is not DecTtl
                ):
                    return False
        return True

    def _chain_elidable(self, steps: list[CompiledEntry]) -> bool:
        """Whether a recorded chain's only emission is its very last op.

        When true, a drain may hand the *arrival itself* to that op instead
        of cloning it (copy elision): the arrival dies after its pipeline
        run, every observer snapshots state by value, and the fresh packet
        id is drawn at the same allocator position the clone would have
        drawn — so the elision is invisible to every observable.
        """
        emitter: tuple[int, int, int | None] | None = None
        for step_index, compiled in enumerate(steps):
            for action_index, action in enumerate(
                compiled.entry.instructions.apply_actions
            ):
                kind = type(action)
                if kind is SetField:
                    if action.value < 0:
                        return False
                elif kind is PushLabel or kind is PopLabel or kind is DecTtl:
                    continue
                elif kind is Output:
                    if emitter is not None:
                        return False
                    emitter = (step_index, action_index, None)
                elif kind is GroupAction:
                    if emitter is not None:
                        return False
                    emitter = (step_index, action_index, action.group_id)
                else:
                    return False
        if emitter is None:
            return False
        step_index, action_index, group_id = emitter
        last = len(steps) - 1
        actions = steps[last].entry.instructions.apply_actions
        if step_index != last or action_index != len(actions) - 1:
            return False
        if group_id is None:
            return True
        return self._group_single_emit(group_id)

    def _record(self, steps: list[CompiledEntry], missed: bool) -> tuple:
        """The cache value of a walked chain, pre-split so replay never
        slices.

        When the chain's only emission is its very last op (and no miss
        follows it), the tail triple carries the final step's entry, its
        leading ops and the final op, which the eliding entry points run
        with their owned emitter; otherwise the head holds every step.
        """
        if not missed and self._chain_elidable(steps):
            last = steps[-1]
            ops = last.ops
            return tuple(steps[:-1]), (last.entry, ops[:-1], ops[-1]), False
        return tuple(steps), None, missed

    # -- the one pipeline loop --------------------------------------------- #

    def _run(
        self, packet: Packet, in_port: int, emit: EmitFn, owned: EmitFn | None
    ) -> None:
        """One pipeline execution: replay *packet*'s cached chain, or walk
        the tables.

        A key's chain is recorded on its second walk: a cold traversal
        meets most keys exactly once, and recording costs more than the
        walk it would save.  *emit* takes every emission as a clone;
        *owned*, when not None, takes an elidable chain's final emission —
        the packet itself, whose fresh id the emitter draws where the
        clone's would have been.
        """
        switch = self._switch
        if switch.program_generation != self._generation:
            self._sync()
        switch.packets_processed += 1
        key = self._chain_key(packet.fields, in_port, 0)
        chain = self._chains.get(key)
        if type(chain) is not tuple:
            if chain is None:
                self._chains[key] = _SEEN
                key = None
            elif chain is _PINNED:
                key = None
            self._walk(packet, in_port, emit, key)
            return
        head, tail, missed = chain
        for compiled in head:
            compiled.entry.packet_count += 1
            for op in compiled.ops:
                op(packet, emit, in_port, _EMPTY_ACTIVE)
        if tail is not None:
            entry, ops, final = tail
            entry.packet_count += 1
            for op in ops:
                op(packet, emit, in_port, _EMPTY_ACTIVE)
            final(packet, emit if owned is None else owned, in_port, _EMPTY_ACTIVE)
        if missed:
            switch.table_misses += 1

    def _walk(self, packet: Packet, in_port: int, emit: EmitFn, key) -> None:
        """The table walk, one lookup per step, mirroring
        :meth:`Switch.process` exactly.

        With *key* not None the walked chain is cached under it — or the
        key is pinned to this walk once a non-final step is not
        :attr:`CompiledEntry.lookup_safe`, since such a step may send two
        key-equal packets to different entries later on.
        """
        switch = self._switch
        node_id = switch.node_id
        fields = packet.fields
        max_steps = switch.MAX_PIPELINE_STEPS
        record: list[CompiledEntry] | None = None if key is None else []
        metadata = 0
        table_id = 0
        steps = 0
        missed = False
        while True:
            steps += 1
            if steps > max_steps:
                raise PipelineError(
                    f"switch {node_id}: pipeline exceeded "
                    f"{max_steps} steps (rule loop?)",
                    "pipeline-limit",
                )
            fast = self._fast_table(table_id)
            if fast is None:
                if table_id == 0 and not switch.tables:
                    # Bare switch (factory-fresh after a reboot): table
                    # miss, not a misconfiguration — mirror Switch.process.
                    missed = True
                    break
                raise TableError(
                    f"switch {node_id}: goto to missing table {table_id}",
                    "missing-table",
                    table_id,
                )
            compiled = fast.lookup(fields, in_port, metadata)
            if compiled is None:
                missed = True
                break
            compiled.entry.packet_count += 1
            write_metadata = compiled.write_metadata
            if write_metadata is not None:
                value, mask = write_metadata
                metadata = (metadata & ~mask) | (value & mask)
            for op in compiled.ops:
                op(packet, emit, in_port, _EMPTY_ACTIVE)
            if record is not None:
                record.append(compiled)
            goto = compiled.goto
            if goto is None:
                break
            if goto <= table_id:
                raise PipelineError(
                    f"switch {node_id}: goto_table must move forward "
                    f"({table_id} -> {goto})",
                    "goto-backward",
                    f"{table_id}->{goto}",
                )
            if record is not None and not compiled.lookup_safe:
                record = None
                self._chains[key] = _PINNED
            table_id = goto
        if missed:
            switch.table_misses += 1
        if record is not None:
            self._chains[key] = self._record(record, missed)

    # -- entry points ------------------------------------------------------ #

    def process(self, packet: Packet, in_port: int) -> "list[PacketOut]":
        """Pipeline execution, mirroring :meth:`Switch.process` exactly:
        every emission is a clone and *packet* stays the caller's."""
        outputs: list[PacketOut] = []
        append = outputs.append
        packet_out = self._packet_out

        def emit(port: int, pkt: Packet) -> None:
            append(packet_out(port, _fast_copy(pkt)))

        self._run(packet, in_port, emit, None)
        return outputs

    def process_batch(self, items: list, deliver) -> None:
        """Run a batch of ``(packet, in_port)`` arrivals through the pipeline.

        Calls ``deliver(index, outputs)`` once per item, in item order, with
        outputs as raw ``(port, packet)`` tuples.  Execution is strictly
        *packet-major*: item *i*'s whole pipeline runs — and is delivered —
        before item *i+1* starts, so counter bumps, SELECT cursor advances,
        FF liveness reads, packet-id allocation, error timing and the crash
        flag (a deliver hook may crash the switch) all follow the scalar
        sequence.  The batch owns its arrivals, so elidable chains emit the
        arrival itself, exactly as :meth:`drain` does.
        """
        switch = self._switch
        outputs: list = []
        append = outputs.append

        def emit(port: int, pkt: Packet) -> None:
            append((port, _fast_copy(pkt)))

        def owned(port: int, pkt: Packet) -> None:
            pkt.packet_id = pkt.ids.allocate()
            append((port, pkt))

        for index, (packet, in_port) in enumerate(items):
            if not switch._down:
                self._run(packet, in_port, emit, owned)
            deliver(index, outputs)
            outputs.clear()

    def attach(self, node: int, emit: NetEmitFn) -> Callable[[Packet, int], bool]:
        """Bind the drain entry to the network emitter *emit*, emitting as
        *node*; returns :meth:`drain` for the network to call per arrival."""
        self._node = node
        self._net_emit = emit
        return self.drain

    def drain(self, packet: Packet, in_port: int) -> bool:
        """Run one arrival the network hands over and emit its outputs
        through the attached emitter; True if anything was emitted.

        Observably identical to :meth:`Switch.process` followed by emitting
        its outputs in order: clones are held until the pipeline ends, then
        emitted.  The drain owns *packet*, so an elidable chain's single
        final emission — after which nothing runs — goes to the wire as the
        arrival itself, its fresh id drawn where the clone's would have
        been.  A crashed switch drops the arrival.
        """
        if self._switch._down:
            return False
        self._sent = False
        try:
            self._run(packet, in_port, self._emit_pending, self._emit_owned)
        except BaseException:
            self._pending = []
            raise
        pending = self._pending
        if pending:
            self._pending = []
            emit = self._net_emit
            node = self._node
            for port, clone in pending:
                emit(node, port, clone)
            return True
        return self._sent

    def _hold_copy(self, port: int, pkt: Packet) -> None:
        self._pending.append((port, _fast_copy(pkt)))

    def _send_owned(self, port: int, pkt: Packet) -> None:
        pkt.packet_id = pkt.ids.allocate()
        self._sent = True
        self._net_emit(self._node, port, pkt)
