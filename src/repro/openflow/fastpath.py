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

Invalidation
------------

Compiled tables are cached per ``(table, FlowTable.version)``; compiled group
programs per ``GroupTable.version``.  Any table mutation (add / remove /
modify) or group addition bumps the respective version and the stale compile
is dropped lazily on the next packet.  Fast-failover bucket selection calls
the switch's liveness oracle on every execution, so port-liveness flips take
effect immediately — the same path as the interpreter, with no invalidation
needed.
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
from repro.core.determinism import next_packet_id
from repro.openflow.errors import GroupError, PipelineError, TableError
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.group import Group, GroupType
from repro.openflow.packet import IN_PORT, Packet, PacketBatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (switch imports us)
    from repro.openflow.switch import PacketOut, Switch

#: Emission callback, same contract as :data:`repro.openflow.actions.EmitFn`.
EmitFn = Callable[[int, "Packet"], None]
#: A compiled operation: ``op(packet, emit, in_port, active_groups)``.
OpFn = Callable[[Packet, EmitFn, int, frozenset], None]

_EMPTY_ACTIVE: frozenset[int] = frozenset()

#: Distinguishes "memoized as None (table miss)" from "not memoized yet".
_MISS = object()


def _fast_copy(packet: Packet) -> Packet:
    """:meth:`Packet.copy` minus the dataclass-init overhead.

    The batched emit path clones one packet per output action; going
    through ``__new__`` skips the generated ``__init__`` and its default
    factories.  The packet id is drawn from the same allocator in the same
    order, so ids interleave exactly as on the scalar path.
    """
    clone = Packet.__new__(Packet)
    clone.fields = dict(packet.fields)
    clone.stack = list(packet.stack)
    clone.payload = packet.payload
    clone.packet_id = next_packet_id()
    clone.hops = packet.hops
    return clone


def _lookup_safe(actions) -> bool:
    """Whether executing *actions* preserves lookup-key equality between
    any two packets that agreed on every (field, mask) slot beforehand.

    Constant set-fields write the same value to both, outputs and label
    pushes/pops never touch fields, and write_metadata is a constant
    function of the chain — so two key-equal packets stay key-equal at
    every later table.  DecTtl breaks this under masks (equal *masked*
    values can decrement to unequal ones), groups select buckets from
    dynamic state, and custom actions are opaque; any of those makes the
    entry unsafe as a non-final chain step (see the chain-replay memo in
    :meth:`FastPath.process_batch`).
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
        #: closures are compiled (the batch loop reads it only after
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
    (mirrors :meth:`Switch._context`); everything else reads the packet's
    field dict with the "absent reads as 0" convention.
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
        #: signature; the signature is kept for columnar key extraction.
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

    def _resolve(self, combined_key) -> CompiledEntry | None:
        """Probe with pre-extracted keys (one per signature group)."""
        groups = self.groups
        best: CompiledEntry | None = None
        if len(groups) == 1:
            candidates = groups[0][1].get(combined_key)
            if candidates is not None:
                best = candidates[0]
        else:
            for (_key_fn, buckets, _signature), key in zip(groups, combined_key):
                candidates = buckets.get(key)
                if candidates is not None:
                    head = candidates[0]
                    if best is None or head.sort_key < best.sort_key:
                        best = head
        if self.residue:
            head = self.residue[0]
            if best is None or head.sort_key < best.sort_key:
                best = head
        return best

    def lookup_memo(
        self, fields: dict, in_port: int, metadata: int, memo: dict
    ) -> CompiledEntry | None:
        """:meth:`lookup` through a per-batch memo of resolved keys.

        Packets in a batch overwhelmingly share a handful of distinct keys
        (the signature partition), so resolution runs once per distinct key
        and every repeat is a dict hit.  Memo entries are keyed by this
        FastTable *object*: any table mutation recompiles into a fresh
        object, so stale hits are structurally impossible.
        """
        groups = self.groups
        if not groups:
            return self.residue[0] if self.residue else None
        if len(groups) == 1:
            combined = groups[0][0](fields, in_port, metadata)
        else:
            combined = tuple(
                key_fn(fields, in_port, metadata)
                for key_fn, _buckets, _signature in groups
            )
        key = (self, combined)
        hit = memo.get(key, _MISS)
        if hit is _MISS:
            hit = self._resolve(combined)
            memo[key] = hit
        return hit

    def lookup_batch(self, batch: PacketBatch, memo: dict) -> list:
        """Resolve a whole batch at pipeline entry in one columnar pass.

        One key-extraction sweep per signature group over the batch's field
        columns, then one resolution per *distinct* combined key (shared
        through *memo*, same keying as :meth:`lookup_memo`).  Only valid at
        pipeline entry — metadata is 0 and the field columns snapshot
        pre-action state — which is why goto-chain tables go through
        :meth:`lookup_memo` instead.
        """
        groups = self.groups
        n = len(batch.packets)
        if not groups:
            head = self.residue[0] if self.residue else None
            return [head] * n
        per_group: list[list] = []
        for _key_fn, _buckets, signature in groups:
            columns = []
            for name, mask in signature:
                column = batch.column(name)
                if mask is not None:
                    column = [value & mask for value in column]
                columns.append(column)
            if len(columns) == 1:
                per_group.append(columns[0])
            else:
                per_group.append(list(zip(*columns)))
        if len(per_group) == 1:
            combined = per_group[0]
        else:
            combined = list(zip(*per_group))
        resolved = []
        append = resolved.append
        get = memo.get
        for key_values in combined:
            key = (self, key_values)
            hit = get(key, _MISS)
            if hit is _MISS:
                hit = self._resolve(key_values)
                memo[key] = hit
            append(hit)
        return resolved


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

    Owns the per-table compile cache and the group-program cache; both are
    invalidated lazily by version comparison, so any mutation through the
    :class:`FlowTable` / :class:`GroupTable` APIs is picked up transparently
    on the next packet.
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
        #: (generation, key_fn) for the batch chain-replay memo (see
        #: :meth:`_chain_key_fn`); recomputed whenever the generation moves.
        self._chain_key_cache: tuple[int, _GetFn] | None = None
        #: Bumped by :meth:`invalidate` so in-place edits (which bump no
        #: table/group version) still advance the batch generation counter.
        self._epoch = 0

    # -- cache management ------------------------------------------------ #

    def invalidate(self) -> None:
        """Drop every compiled artifact (recompiled lazily on next use).

        Mutations through the table/group APIs invalidate automatically;
        this hook exists for callers that mutate entry or bucket objects
        in place (see :meth:`Switch.invalidate_fast_path`).
        """
        self._tables.clear()
        self._programs.clear()
        self._groups_version = self._switch.groups.version
        self._chain_key_cache = None
        self._epoch += 1

    def warm(self) -> None:
        """Eagerly compile every table index, entry closure and group
        program.

        Compilation is otherwise lazy (a table's index on its first packet,
        an entry's closures on its first hit, a group's program on its
        first execution); benches and latency-sensitive starts call this so
        the hot loop never compiles.  After it, no entry is left
        unresolved.
        """
        self._check_groups()
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
        def generic(pkt, emit, in_port, active, a=action):
            a.apply(pkt, emit, in_port)

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
        """Run a compiled group program (semantics of GroupTable.execute)."""
        if group_id in active:
            raise GroupError(f"group chaining loop through group {group_id}")
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
                raise GroupError(f"SELECT group {group_id} has no buckets")
            index = group.rr_next
            group.rr_next = (index + 1) % len(buckets)
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

    # -- batch chain replay ------------------------------------------------ #

    def _chain_key_fn(self, generation: int) -> _GetFn:
        """The union key extractor for the batch chain-replay memo.

        Covers every ``(field, mask)`` slot any table of this switch
        consults (``metadata`` excluded — it starts at 0 and evolves as a
        constant function of the chain, so key-equal packets always agree
        on it).  Two packets with equal union keys and equal in-ports read
        identical values at *every* lookup a chain can perform, so — as
        long as every non-final step is :attr:`CompiledEntry.lookup_safe` —
        they traverse identical entry chains.  Cached per generation.
        """
        cached = self._chain_key_cache
        if cached is not None and cached[0] == generation:
            return cached[1]
        slots: set[tuple[str, int | None]] = set()
        for table_id in list(self._switch.tables):
            fast = self._fast_table(table_id)
            for _key_fn, _buckets, signature in fast.groups:
                for name, mask in signature:
                    if name != "metadata":
                        slots.add((name, mask))
        if slots:
            union = tuple(
                sorted(slots, key=lambda s: (s[0], -1 if s[1] is None else s[1]))
            )
            key_fn = _make_key_fn(union)
        else:
            key_fn = _const_key
        self._chain_key_cache = (generation, key_fn)
        return key_fn

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

        When true, replay may hand the *input* packet to that op instead of
        cloning it (`emit_owned`): the packet dies after its pipeline run,
        every observer snapshots state by value, and the fresh packet id is
        drawn at the same allocator position the clone would have drawn —
        so the elision is invisible to every observable.
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

    # -- the hot loop ------------------------------------------------------ #

    def process(self, packet: Packet, in_port: int) -> "list[PacketOut]":
        """Pipeline execution, mirroring :meth:`Switch.process` exactly."""
        switch = self._switch
        self._check_groups()
        switch.packets_processed += 1
        outputs: list[PacketOut] = []
        append = outputs.append
        packet_out = self._packet_out

        def emit(port: int, pkt: Packet) -> None:
            append(packet_out(in_port if port == IN_PORT else port, pkt.copy()))

        fields = packet.fields
        metadata = 0
        table_id = 0
        steps = 0
        max_steps = switch.MAX_PIPELINE_STEPS
        while True:
            steps += 1
            if steps > max_steps:
                raise PipelineError(
                    f"switch {switch.node_id}: pipeline exceeded "
                    f"{max_steps} steps (rule loop?)"
                )
            fast = self._fast_table(table_id)
            if fast is None:
                if table_id == 0 and not switch.tables:
                    # Bare switch (factory-fresh after a reboot): table
                    # miss, not a misconfiguration — mirror Switch.process.
                    switch.table_misses += 1
                    return outputs
                raise TableError(
                    f"switch {switch.node_id}: goto to missing table {table_id}"
                )
            compiled = fast.lookup(fields, in_port, metadata)
            if compiled is None:
                switch.table_misses += 1
                return outputs
            compiled.entry.packet_count += 1
            write_metadata = compiled.write_metadata
            if write_metadata is not None:
                value, mask = write_metadata
                metadata = (metadata & ~mask) | (value & mask)
            for op in compiled.ops:
                op(packet, emit, in_port, _EMPTY_ACTIVE)
            goto = compiled.goto
            if goto is None:
                return outputs
            if goto <= table_id:
                raise PipelineError(
                    f"switch {switch.node_id}: goto_table must move forward "
                    f"({table_id} -> {goto})"
                )
            table_id = goto

    def process_batch(self, items: list, deliver) -> None:
        """Run a batch of ``(packet, in_port)`` arrivals through the pipeline.

        Calls ``deliver(index, outputs)`` once per item, in item order, with
        outputs as raw ``(port, packet)`` tuples.  Execution is strictly
        *packet-major*: item *i*'s whole pipeline runs — and is delivered —
        before item *i+1* starts, so counter bumps, SELECT cursor advances,
        FF liveness reads, packet-id allocation and error timing all happen
        in the exact scalar sequence.  What the batch amortizes:

        * **chain replay** — the first packet of each distinct *union key*
          (every (field, mask) slot any table consults, extracted once per
          packet) records its full entry chain; every later key-equal
          packet replays the recorded ops with zero table lookups.  A chain
          records only while every non-final step is
          :attr:`CompiledEntry.lookup_safe`; otherwise that key is pinned
          to the per-lookup path.
        * **copy elision** — when a recorded chain's only emission is its
          final op (:meth:`_chain_elidable`), replay hands the input packet
          itself to that op: the packet dies after its run, and the fresh
          id is drawn at the same allocator position the clone's would be.
        * goto-chain lookups of non-replayed packets share a per-batch memo
          of resolved keys, and the first chain rejection triggers one
          columnar entry-table pass (:meth:`FastTable.lookup_batch`) for
          the rest of the batch.

        Divergence safety: a *generation* counter — table count plus every
        table/group version plus the invalidation epoch — is checked per
        packet.  Any mutation (a step hook between deliveries, a custom
        action, a non-passive sink) moves it, which drops every recorded
        chain and pre-resolved entry; the memo itself is keyed by
        compiled-table object, so recompiles strand stale keys.  From that
        point the batch re-looks-up per packet, never served stale.
        """
        switch = self._switch
        node_id = switch.node_id
        max_steps = switch.MAX_PIPELINE_STEPS
        fast_table = self._fast_table
        self._check_groups()
        memo: dict = {}
        chain_memo: dict = {}
        tables = switch.tables
        table_views = tables.values()
        groups = switch.groups
        outputs: list = []
        append = outputs.append
        in_port = 0

        def generation() -> int:
            # Strictly monotonic under mutation: versions and the epoch
            # only grow, and tables are never deleted.
            total = self._epoch + len(tables) + groups._version
            for table in table_views:
                total += table._version
            return total

        def emit(port: int, pkt: Packet, _copy=_fast_copy) -> None:
            append((in_port if port == IN_PORT else port, _copy(pkt)))

        def emit_owned(port: int, pkt: Packet, _next=next_packet_id) -> None:
            # Final-emission copy elision: the input packet is emitted
            # directly, drawing its fresh id exactly where the clone's
            # would have been drawn.
            pkt.packet_id = _next()
            append((in_port if port == IN_PORT else port, pkt))

        gen = generation()
        chain_key = self._chain_key_fn(gen)
        fast0 = fast_table(0)
        entries0: list | None = None
        empty_active = _EMPTY_ACTIVE
        for index, (packet, arrival_port) in enumerate(items):
            in_port = arrival_port
            fields = packet.fields
            gen_now = self._epoch + len(tables) + groups._version
            for table in table_views:
                gen_now += table._version
            if gen_now == gen:
                ckey = chain_key(fields, arrival_port, 0)
                chain = chain_memo.get(ckey, _MISS)
                if chain is not None and chain is not _MISS:
                    # Replay: (head steps, elided tail or None, missed).
                    head_steps, tail, missed = chain
                    switch.packets_processed += 1
                    for compiled in head_steps:
                        compiled.entry.packet_count += 1
                        for op in compiled.ops:
                            op(packet, emit, in_port, empty_active)
                    if tail is not None:
                        entry, tail_ops, final_op = tail
                        entry.packet_count += 1
                        for op in tail_ops:
                            op(packet, emit, in_port, empty_active)
                        final_op(packet, emit_owned, in_port, empty_active)
                    if missed:
                        switch.table_misses += 1
                    deliver(index, outputs)
                    outputs.clear()
                    continue
                record: list | None = [] if chain is _MISS else None
            else:
                # Mid-batch mutation: recompile the world, drop every
                # recorded chain and pre-resolved entry, rebase the
                # generation, and record afresh under the new key fn.
                self._check_groups()
                chain_memo.clear()
                gen = generation()
                chain_key = self._chain_key_fn(gen)
                fast0 = fast_table(0)
                entries0 = None
                ckey = chain_key(fields, arrival_port, 0)
                record = []
            switch.packets_processed += 1
            metadata = 0
            table_id = 0
            steps = 0
            missed = False
            if entries0 is not None:
                compiled = entries0[index]
                resolved = True
            else:
                compiled = None
                resolved = False
            while True:
                steps += 1
                if steps > max_steps:
                    raise PipelineError(
                        f"switch {node_id}: pipeline exceeded "
                        f"{max_steps} steps (rule loop?)"
                    )
                if not resolved:
                    fast = fast_table(table_id)
                    if fast is None:
                        if table_id == 0 and not tables:
                            # Bare switch: table miss (see Switch.process).
                            switch.table_misses += 1
                            missed = True
                            break
                        raise TableError(
                            f"switch {node_id}: goto to missing table {table_id}"
                        )
                    compiled = fast.lookup_memo(fields, in_port, metadata, memo)
                resolved = False
                if compiled is None:
                    switch.table_misses += 1
                    missed = True
                    break
                compiled.entry.packet_count += 1
                write_metadata = compiled.write_metadata
                if write_metadata is not None:
                    value, mask = write_metadata
                    metadata = (metadata & ~mask) | (value & mask)
                for op in compiled.ops:
                    op(packet, emit, in_port, empty_active)
                if record is not None:
                    record.append(compiled)
                goto = compiled.goto
                if goto is None:
                    break
                if goto <= table_id:
                    raise PipelineError(
                        f"switch {node_id}: goto_table must move forward "
                        f"({table_id} -> {goto})"
                    )
                if record is not None and not compiled.lookup_safe:
                    # This step may desynchronize later lookups between
                    # key-equal packets — pin the key to the lookup path,
                    # and amortize it with one columnar entry-table pass.
                    record = None
                    chain_memo[ckey] = None
                    if entries0 is None and fast0 is not None:
                        entries0 = fast0.lookup_batch(
                            PacketBatch.pack(items), memo
                        )
                table_id = goto
            if record is not None:
                # Pre-split at record time so replay never slices: the tail
                # triple carries the elided final step (entry, leading ops,
                # final op to run with emit_owned), or None when the chain
                # is not elidable and the head holds every step.
                if self._chain_elidable(record):
                    last = record[-1]
                    chain_memo[ckey] = (
                        tuple(record[:-1]),
                        (last.entry, last.ops[:-1], last.ops[-1]),
                        missed,
                    )
                else:
                    chain_memo[ckey] = (tuple(record), None, missed)
            deliver(index, outputs)
            outputs.clear()
