"""Property-based fuzz: batched pipeline execution ≡ per-packet execution.

Random packet populations run through random multi-table pipelines on twin
switches — one processed packet by packet (the reference), one through
:meth:`Switch.process_batch` — and every observable must agree: emitted
(port, fields, packet id) triples per input packet, entry counters, group
counters, and SELECT round-robin cursors.

Beyond plain equivalence, the suite drives the batch engine's split
machinery on purpose:

* **SELECT interleaving** — several packets of one batch traverse one
  shared SELECT group, so the round-robin cursor must advance in exact
  packet order across the batch.
* **FF failover mid-batch** — the deliver callback flips a watched port
  dead after packet *k*, so packets ``k+1..`` of the *same batch* must take
  the backup bucket (liveness is consulted per packet, never cached per
  batch).
* **Table mutation mid-batch** — the deliver callback installs a
  higher-priority entry after packet *k*, so the batch's pre-resolved
  table-0 lookups and memo entries must be abandoned for packets ``k+1..``
  (the compiled index recompiles into a fresh object; stale memo keys die
  with the old one).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.determinism import PacketIdAllocator
from repro.openflow.actions import GroupAction, Instructions, Output, SetField
from repro.openflow.group import Bucket, Group, GroupType
from repro.openflow.match import FieldTest, Match
from repro.openflow.packet import Packet
from repro.openflow.switch import Switch

#: Small value domain so random packets collide with match values often.
FIELDS = ("a", "b", "c")
VALUES = st.integers(0, 7)
MASKS = st.sampled_from([None, 0, 1, 3, 5, 6, 7])


@st.composite
def field_tests(draw):
    name = draw(st.sampled_from(FIELDS + ("in_port", "metadata")))
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
def rule_sets(draw, with_groups: bool = False):
    """A random 3-table pipeline: matches, set-fields, outputs, goto chains,
    and (optionally) group actions over groups 1..3."""
    rules = []
    for table_id in range(3):
        for _ in range(draw(st.integers(0, 6))):
            actions = []
            if draw(st.booleans()):
                actions.append(
                    SetField(draw(st.sampled_from(("a", "b"))), draw(VALUES))
                )
            if with_groups and draw(st.booleans()):
                actions.append(GroupAction(draw(st.integers(1, 3))))
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


@st.composite
def populations(draw):
    """A batch of arrivals: (fields, in_port) pairs."""
    return draw(
        st.lists(
            st.tuples(
                st.dictionaries(st.sampled_from(FIELDS), VALUES, max_size=3),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=10,
        )
    )


def _build_switch(rules, fast_path: bool, groups: bool = False) -> Switch:
    switch = Switch(node_id=0, num_ports=3, fast_path=fast_path)
    for table_id in range(3):
        switch.table(table_id)  # goto targets must exist even if empty
    if groups:
        switch.add_group(
            Group(1, GroupType.SELECT, [Bucket([Output(1)]), Bucket([Output(2)])])
        )
        switch.add_group(
            Group(
                2,
                GroupType.FF,
                [
                    Bucket([Output(1)], watch_port=1),
                    Bucket([Output(2)], watch_port=2),
                    Bucket([Output(3)]),  # terminal: always live
                ],
            )
        )
        switch.add_group(
            Group(3, GroupType.ALL, [Bucket([Output(2)]), Bucket([Output(3)])])
        )
    for table_id, match, instructions, priority in rules:
        switch.install(table_id, match, instructions, priority)
    return switch


def _signature(port, packet) -> tuple:
    return (port, sorted(packet.fields.items()), packet.packet_id)


def _counters(switch: Switch):
    return (
        switch.packets_processed,
        switch.table_misses,
        [
            (table_id, entry.seq, entry.packet_count)
            for table_id, entry in switch.iter_entries()
        ],
        [
            (
                group.group_id,
                group.packet_count,
                group.rr_next,
                [bucket.packet_count for bucket in group.buckets],
            )
            for group in switch.groups.groups()
        ],
    )


def _make_items(population):
    """All input packets are constructed before any is processed — the
    event queue holds fully-built packets in both drain modes — from one
    fresh allocator per run, so emitted-copy ids are comparable."""
    ids = PacketIdAllocator()
    return [
        (Packet(fields=dict(fields), packet_id=ids.allocate(), ids=ids), in_port)
        for fields, in_port in population
    ]


def _run_scalar(switch, population, between=None):
    items = _make_items(population)
    results = []
    for index, (packet, in_port) in enumerate(items):
        outs = switch.process(packet, in_port)
        results.append([_signature(o.port, o.packet) for o in outs])
        if between is not None:
            between(switch, index)
    return results


def _run_batched(switch, population, between=None):
    items = _make_items(population)
    results = [None] * len(items)

    def deliver(index, outputs):
        results[index] = [_signature(port, pkt) for port, pkt in outputs]
        if between is not None:
            between(switch, index)

    switch.process_batch(items, deliver)
    return results


@settings(max_examples=200, deadline=None)
@given(rule_sets(), populations())
def test_batch_pipeline_equivalence(rules, population):
    scalar = _build_switch(rules, fast_path=True)
    batched = _build_switch(rules, fast_path=True)
    assert _run_scalar(scalar, population) == _run_batched(batched, population)
    assert _counters(scalar) == _counters(batched)


@settings(max_examples=100, deadline=None)
@given(rule_sets(), populations())
def test_interpreted_batch_equivalence(rules, population):
    """process_batch must honour the same contract with the fast path off."""
    scalar = _build_switch(rules, fast_path=False)
    batched = _build_switch(rules, fast_path=False)
    assert _run_scalar(scalar, population) == _run_batched(batched, population)
    assert _counters(scalar) == _counters(batched)


@settings(max_examples=200, deadline=None)
@given(rule_sets(with_groups=True), populations())
def test_batch_group_equivalence(rules, population):
    """SELECT cursors, FF liveness, ALL fan-out: group state advances in
    exact packet order whether the packets share a batch or not."""
    scalar = _build_switch(rules, fast_path=True, groups=True)
    batched = _build_switch(rules, fast_path=True, groups=True)
    assert _run_scalar(scalar, population) == _run_batched(batched, population)
    assert _counters(scalar) == _counters(batched)


def _group_rules():
    """A fixed table-0 program sending every packet through FF group 2 and
    SELECT group 1 (deterministic scaffolding for the mid-batch tests)."""
    return [
        (
            0,
            Match([]),
            Instructions(apply_actions=(GroupAction(2), GroupAction(1))),
            1,
        )
    ]


@settings(max_examples=100, deadline=None)
@given(populations(), st.integers(0, 9), st.sampled_from([1, 2]))
def test_ff_failover_flips_mid_batch(population, flip_after, dead_port):
    """Killing a watched port from inside the deliver callback must reroute
    the *rest of the same batch* through the backup bucket."""

    def make_liveness(state):
        return lambda port: state.get(port, True)

    def make_between(state):
        def between(_switch, index):
            if index == flip_after:
                state[dead_port] = False

        return between

    scalar_state, batched_state = {}, {}
    scalar = _build_switch(_group_rules(), fast_path=True, groups=True)
    scalar.set_liveness(make_liveness(scalar_state))
    batched = _build_switch(_group_rules(), fast_path=True, groups=True)
    batched.set_liveness(make_liveness(batched_state))

    assert _run_scalar(
        scalar, population, between=make_between(scalar_state)
    ) == _run_batched(batched, population, between=make_between(batched_state))
    assert _counters(scalar) == _counters(batched)


@settings(max_examples=100, deadline=None)
@given(populations(), st.integers(0, 9), VALUES)
def test_table_mutation_mid_batch(population, install_after, set_value):
    """Installing a higher-priority table-0 entry from inside the deliver
    callback must take effect for the rest of the same batch — the batch's
    pre-resolved lookups and memo must not outlive the mutation."""

    def between(switch, index):
        if index == install_after:
            switch.install(
                0,
                Match([]),
                Instructions(
                    apply_actions=(SetField("a", set_value), Output(3))
                ),
                priority=7,
            )

    scalar = _build_switch(_group_rules(), fast_path=True, groups=True)
    batched = _build_switch(_group_rules(), fast_path=True, groups=True)

    assert _run_scalar(scalar, population, between=between) == _run_batched(
        batched, population, between=between
    )
    assert _counters(scalar) == _counters(batched)


@settings(max_examples=100, deadline=None)
@given(
    rule_sets(),
    populations(),
    st.integers(0, 9),
    st.integers(0, 2),
    VALUES,
)
def test_late_table_mutation_mid_batch(
    rules, population, install_after, target_table, set_value
):
    """Mutating a *later* table mid-batch must invalidate recorded chains.

    The batch engine memoizes whole entry chains per union key, so an
    install into table 1 or 2 — which the table-0 identity of a pre-resolved
    entry cannot see — must still retire every chain recorded before the
    install (the generation guard sums all table versions, not just
    table 0's)."""

    def between(switch, index):
        if index == install_after:
            switch.install(
                target_table,
                Match([]),
                Instructions(
                    apply_actions=(SetField("b", set_value), Output(2))
                ),
                priority=9,
            )

    scalar = _build_switch(rules, fast_path=True)
    batched = _build_switch(rules, fast_path=True)

    assert _run_scalar(scalar, population, between=between) == _run_batched(
        batched, population, between=between
    )
    assert _counters(scalar) == _counters(batched)
