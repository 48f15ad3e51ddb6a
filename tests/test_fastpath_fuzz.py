"""Property-based fuzz: the fast-path index ≡ the linear priority scan.

Two layers:

* **Lookup equivalence** — random flow tables full of overlapping
  priorities, masked matches (including ``mask == 0`` no-op wildcards and
  register tests on ``in_port`` / ``metadata``) probed with random
  contexts.  :meth:`FastTable.lookup` must return *the same entry object*
  (entry-for-entry, not merely an equal one) as :meth:`FlowTable.lookup`.

* **Pipeline equivalence** — random multi-table rule sets with goto chains
  and output actions, executed on two identically-configured switches (one
  per engine).  Emitted packets and every counter must agree.

* **Chain-cache equivalence** — the same, through the fast path's drain
  entry (chain replay, copy elision) with program mutations and liveness
  flips interleaved between packets: packet ids included.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.determinism import PacketIdAllocator
from repro.openflow.actions import DecTtl, GroupAction, Instructions, Output, SetField
from repro.openflow.fastpath import compile_table
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.group import Bucket, Group, GroupType
from repro.openflow.match import FieldTest, Match
from repro.openflow.packet import IN_PORT, Packet
from repro.openflow.switch import Switch

#: Small value domain so random contexts collide with match values often —
#: a sparse domain would make almost every lookup a miss.
FIELDS = ("a", "b", "c", "in_port", "metadata")
VALUES = st.integers(0, 7)
MASKS = st.sampled_from([None, 0, 1, 3, 5, 6, 7])


@st.composite
def field_tests(draw):
    name = draw(st.sampled_from(FIELDS))
    mask = draw(MASKS)
    value = draw(VALUES)
    if mask is not None:
        value &= mask  # FieldTest rejects value bits outside the mask
    return FieldTest(name, value, mask)


@st.composite
def matches(draw):
    tests = draw(st.lists(field_tests(), max_size=3))
    unique = {test.name: test for test in tests}
    return Match(unique.values())


@st.composite
def tables(draw):
    table = FlowTable(0)
    for _ in range(draw(st.integers(0, 12))):
        table.add(
            FlowEntry(
                match=draw(matches()),
                instructions=Instructions(),
                # A tight priority range forces same-priority overlaps, the
                # insertion-order tie-break case.
                priority=draw(st.integers(0, 3)),
            )
        )
    return table


@st.composite
def contexts(draw):
    fields = draw(
        st.dictionaries(st.sampled_from(("a", "b", "c")), VALUES, max_size=3)
    )
    return fields, draw(VALUES), draw(VALUES)  # (fields, in_port, metadata)


@settings(max_examples=300, deadline=None)
@given(tables(), st.lists(contexts(), min_size=1, max_size=8))
def test_lookup_equivalence(table, probes):
    fast = compile_table(table)
    for fields, in_port, metadata in probes:
        context = dict(fields)
        context["in_port"] = in_port
        context["metadata"] = metadata
        slow_entry = table.lookup(context)
        fast_entry = fast.lookup(fields, in_port, metadata)
        if slow_entry is None:
            assert fast_entry is None
        else:
            # Entry-for-entry: the identical FlowEntry object, so priority,
            # seq, instructions and counters all agree by construction.
            assert fast_entry is not None
            assert fast_entry.entry is slow_entry


@st.composite
def rule_sets(draw):
    """A random 3-table pipeline: matches, set-fields, outputs, goto chains."""
    rules = []
    for table_id in range(3):
        for _ in range(draw(st.integers(0, 6))):
            actions = []
            if draw(st.booleans()):
                actions.append(
                    SetField(draw(st.sampled_from(("a", "b"))), draw(VALUES))
                )
            if draw(st.booleans()):
                actions.append(Output(draw(st.integers(1, 3))))
            goto = None
            if table_id < 2 and draw(st.booleans()):
                goto = draw(st.integers(table_id + 1, 2))
            rules.append(
                (
                    table_id,
                    draw(matches()),
                    Instructions(apply_actions=tuple(actions), goto_table=goto),
                    draw(st.integers(0, 3)),
                )
            )
    return rules


def _build_switch(rules, fast_path: bool) -> Switch:
    switch = Switch(node_id=0, num_ports=3, fast_path=fast_path)
    for table_id in range(3):
        switch.table(table_id)  # goto targets must exist even if empty
    for table_id, match, instructions, priority in rules:
        switch.install(table_id, match, instructions, priority)
    return switch


def _counters(switch: Switch):
    return (
        switch.packets_processed,
        switch.table_misses,
        [
            (table_id, entry.seq, entry.packet_count)
            for table_id, entry in switch.iter_entries()
        ],
    )


@settings(max_examples=200, deadline=None)
@given(rule_sets(), st.lists(contexts(), min_size=1, max_size=6))
def test_pipeline_equivalence(rules, packets):
    slow = _build_switch(rules, fast_path=False)
    fast = _build_switch(rules, fast_path=True)
    for fields, in_port, _metadata in packets:
        slow_out = slow.process(Packet(fields=dict(fields)), in_port)
        fast_out = fast.process(Packet(fields=dict(fields)), in_port)
        assert [
            (o.port, sorted(o.packet.fields.items())) for o in slow_out
        ] == [(o.port, sorted(o.packet.fields.items())) for o in fast_out]
    assert _counters(slow) == _counters(fast)


# --------------------------------------------------------------------- #
# The chain cache under interleaved mutations                           #
# --------------------------------------------------------------------- #


def _groups():
    """One SELECT and one FF group (ports 1-2 watched) on every switch."""
    return [
        Group(
            1,
            GroupType.SELECT,
            [Bucket((SetField("b", v), Output(v + 1))) for v in (0, 1, 2)],
        ),
        Group(
            2,
            GroupType.FF,
            [
                Bucket((Output(1),), watch_port=1),
                Bucket((SetField("a", 7), Output(2)), watch_port=2),
                Bucket(()),
            ],
        ),
    ]


@st.composite
def cached_actions(draw):
    """Actions of one rule: field edits, DecTtl, outputs (IN_PORT too) and
    group actions — the last two kinds pin a key when a lookup follows."""
    actions = []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("set", "dec", "out", "group")))
        if kind == "set":
            actions.append(SetField(draw(st.sampled_from(("a", "b"))), draw(VALUES)))
        elif kind == "dec":
            actions.append(DecTtl(draw(st.sampled_from(("a", "b")))))
        elif kind == "out":
            actions.append(Output(draw(st.sampled_from((1, 2, 3, IN_PORT)))))
        else:
            actions.append(GroupAction(draw(st.sampled_from((1, 2)))))
    return tuple(actions)


@st.composite
def cached_rules(draw, table_id: int):
    goto = None
    if table_id < 2 and draw(st.booleans()):
        goto = draw(st.integers(table_id + 1, 2))
    return (
        table_id,
        draw(matches()),
        Instructions(apply_actions=draw(cached_actions()), goto_table=goto),
        draw(st.integers(0, 3)),
    )


@st.composite
def cache_ops(draw):
    """Packets interleaved with mutations of the program or of liveness.

    Packets are drawn from a pool of a few contexts, so most of them repeat
    a key the cache has already recorded (or pinned)."""
    pool = draw(st.lists(contexts(), min_size=1, max_size=3))
    ops = []
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(
            st.sampled_from(("packet",) * 5 + ("install", "remove", "edit", "flip"))
        )
        if kind == "packet":
            ops.append(("packet", draw(st.sampled_from(pool))))
        elif kind == "install":
            ops.append(("install", draw(cached_rules(draw(st.integers(0, 2))))))
        elif kind == "remove":
            ops.append(("remove", draw(st.integers(0, 2)), draw(st.integers(0, 3))))
        elif kind == "edit":
            ops.append(("edit", draw(st.integers(0, 20)), draw(cached_actions())))
        else:
            ops.append(("flip", draw(st.sampled_from((1, 2)))))
    return ops


def _observed(outputs):
    return [
        (port, sorted(packet.fields.items()), packet.packet_id)
        for port, packet in outputs
    ]


def _run_cached(spine, rules, ops, fast: bool):
    """Replay *ops* on a fresh switch: the reference ``Switch.process`` of
    an interpreted switch, or the fast path's cached drain entry.

    *spine* holds the actions of a priority-0 catch-all per table, chained
    0 -> 1 -> 2, so every packet runs a deep chain whose non-final steps
    are as often unsafe as not; *rules* are layered on top."""
    ids = PacketIdAllocator()
    live = {1: True, 2: True}
    switch = Switch(
        node_id=0, num_ports=3, liveness=lambda p: live.get(p, True), fast_path=fast
    )
    switch.load_program(
        {
            table_id: [
                FlowEntry(
                    Match(),
                    Instructions(
                        apply_actions=actions,
                        goto_table=table_id + 1 if table_id < 2 else None,
                    ),
                )
            ]
            for table_id, actions in enumerate(spine)
        },
        _groups(),
    )
    for table_id, match, instructions, priority in rules:
        switch.install(table_id, match, instructions, priority)
    emitted: list = []
    if fast:
        drain = switch.fast_path.attach(
            0, lambda node, port, packet: emitted.append((port, packet))
        )
    observed = []
    for op in ops:
        if op[0] == "packet":
            fields, in_port, _metadata = op[1]
            packet = Packet(fields=dict(fields), packet_id=ids.allocate(), ids=ids)
            try:
                if fast:
                    drain(packet, in_port)
                    outputs = list(emitted)
                    emitted.clear()
                else:
                    outputs = [
                        (out.port, out.packet) for out in switch.process(packet, in_port)
                    ]
                observed.append(_observed(outputs))
            except Exception as exc:  # noqa: BLE001 - errors are observables
                emitted.clear()
                observed.append((type(exc).__name__, str(exc)))
            observed.append(_counters(switch) + (_group_counters(switch),))
        elif op[0] == "install":
            switch.install(*op[1])
        elif op[0] == "remove":
            switch.table(op[1]).remove(priority=op[2])
        elif op[0] == "edit":
            entries = [entry for _table_id, entry in switch.iter_entries()]
            if entries:
                entry = entries[op[1] % len(entries)]
                entry.instructions = Instructions(
                    apply_actions=op[2], goto_table=entry.instructions.goto_table
                )
                switch.invalidate_fast_path()
        else:
            live[op[1]] = not live[op[1]]
    return observed


def _group_counters(switch: Switch):
    return [
        (g.group_id, g.packet_count, g.rr_next, [b.packet_count for b in g.buckets])
        for g in switch.groups.groups()
    ]


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(cached_actions(), cached_actions(), cached_actions()),
    st.lists(st.integers(0, 2).flatmap(cached_rules), max_size=10),
    cache_ops(),
)
def test_cached_drain_matches_reference(spine, rules, ops):
    """Over random goto-chain pipelines with interleaved installs, removes,
    in-place edits (+ invalidate) and FF liveness flips, the fast path's
    cached drain ≡ the interpreted ``Switch.process``, packet by packet:
    emitted ports, fields and packet ids, errors, and every counter."""
    assert _run_cached(spine, rules, ops, fast=True) == _run_cached(
        spine, rules, ops, fast=False
    )
