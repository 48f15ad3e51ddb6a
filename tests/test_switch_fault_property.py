"""Property-based fuzz for the switch-local fault model.

Two determinism contracts back the switch chaos campaigns:

* **Eviction determinism** — a capacity-bounded :class:`FlowTable` under a
  random install sequence evicts by the (priority, seq) total order and
  rejects with :class:`TableFullError` otherwise, so the final table
  contents and the full error sequence are a pure function of the install
  sequence.  The fast path is an observer here: running the identical
  sequence on a fast-path switch must produce byte-identical
  ``describe()`` output and the identical error transcript.

* **Partial-install ordering** — an active :class:`SwitchFaultConfig`
  draws from a switch-private seeded stream, so with the same seed a
  retried :meth:`Switch.adopt_program` loop must raise the identical
  :class:`InstallError` sequence and converge to the identical inventory
  digest whether the target switch runs the compiled fast path or the
  interpreted scan — and the adopted program must then behave identically
  under scalar and batched processing.

A third contract backs the repair handshake: the inventory digest a switch
caches per program generation is always the digest of what it holds now.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.determinism import PacketIdAllocator
from repro.openflow.actions import GroupAction, Instructions, Output, SetField
from repro.openflow.errors import InstallError, OpenFlowError, TableFullError
from repro.openflow.flowtable import FlowEntry
from repro.openflow.group import Bucket, Group, GroupType
from repro.openflow.match import Match
from repro.openflow.packet import Packet
from repro.openflow.switch import Switch, SwitchFaultConfig

VALUES = st.integers(0, 7)


@st.composite
def install_ops(draw):
    """A random install sequence: (priority, match value, output port)."""
    return draw(
        st.lists(
            st.tuples(st.integers(0, 5), VALUES, st.integers(1, 3)),
            min_size=1,
            max_size=24,
        )
    )


@st.composite
def programs(draw):
    """A random expected program: table-0/1 entries plus an optional group."""
    rules = []
    for table_id in range(2):
        for _ in range(draw(st.integers(1, 5))):
            actions = [Output(draw(st.integers(1, 3)))]
            if draw(st.booleans()):
                actions.insert(0, SetField("a", draw(VALUES)))
            goto = 1 if table_id == 0 and draw(st.booleans()) else None
            rules.append(
                (
                    table_id,
                    Match(a=draw(VALUES)) if draw(st.booleans()) else Match(),
                    Instructions(apply_actions=tuple(actions), goto_table=goto),
                    draw(st.integers(0, 3)),
                )
            )
    with_group = draw(st.booleans())
    return rules, with_group


def _expected_switch(program) -> Switch:
    rules, with_group = program
    expected = Switch(node_id=0, num_ports=3)
    expected.table(0)
    expected.table(1)
    if with_group:
        expected.add_group(
            Group(
                1,
                GroupType.FF,
                [
                    Bucket([Output(1)], watch_port=1),
                    Bucket([Output(2)]),
                ],
            )
        )
        expected.install(
            0, Match(a=7), Instructions(apply_actions=(GroupAction(1),)), 5
        )
    for table_id, match, instructions, priority in rules:
        expected.install(table_id, match, instructions, priority)
    return expected


def _drive_installs(fast_path: bool, capacity: int, ops):
    """Replay one install sequence; return (describe, digest, errors, stats)."""
    switch = Switch(node_id=0, num_ports=3, fast_path=fast_path)
    table = switch.table(0)
    table.set_capacity(capacity, evict=True)
    errors = []
    for index, (priority, value, port) in enumerate(ops):
        try:
            switch.install(
                0,
                Match(a=value),
                Instructions(apply_actions=(Output(port),)),
                priority,
                cookie=f"op-{index}",
            )
        except TableFullError as exc:
            errors.append(str(exc))
    return (
        switch.describe(),
        switch.inventory_digest(),
        errors,
        (len(table), table.evictions),
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), install_ops())
def test_eviction_deterministic_across_fast_path(capacity, ops):
    """Same install sequence ⇒ byte-identical table contents and error
    transcript, fast path on or off."""
    interpreted = _drive_installs(False, capacity, ops)
    compiled = _drive_installs(True, capacity, ops)
    assert interpreted == compiled
    describe, _digest, errors, (occupancy, evictions) = interpreted
    assert occupancy <= capacity
    assert occupancy + evictions + len(errors) == len(ops)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), install_ops())
def test_eviction_replay_is_byte_identical(capacity, ops):
    """Replaying the identical sequence twice is bit-for-bit stable."""
    assert _drive_installs(True, capacity, ops) == _drive_installs(
        True, capacity, ops
    )


def _adopt_until_converged(fast_path: bool, expected, prob, budget, seed):
    """Retry adopt_program until it completes; return the error transcript
    and the final (digest, describe)."""
    # Same node id as the expected switch: the digest covers the header
    # line, mirroring the supervisor comparing a node against its own
    # compiled program.
    switch = Switch(node_id=0, num_ports=3, fast_path=fast_path)
    switch.set_faults(
        SwitchFaultConfig(
            partial_install_prob=prob, fail_budget=budget, seed=seed
        )
    )
    errors = []
    for _ in range(budget + 2):
        try:
            switch.adopt_program(expected)
            break
        except InstallError as exc:
            errors.append(str(exc))
    else:
        raise AssertionError("budget-bounded faults must let a retry land")
    return errors, switch


@settings(max_examples=150, deadline=None)
@given(
    programs(),
    st.floats(0.05, 1.0),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_partial_install_ordering_across_fast_path(program, prob, budget, seed):
    """Same fault seed ⇒ identical InstallError sequence and identical
    converged digest, fast path on or off."""
    expected = _expected_switch(program)
    errors_i, switch_i = _adopt_until_converged(
        False, expected, prob, budget, seed
    )
    errors_c, switch_c = _adopt_until_converged(
        True, expected, prob, budget, seed
    )
    assert errors_i == errors_c
    assert len(errors_i) <= budget
    assert switch_i.inventory_digest() == switch_c.inventory_digest()
    assert switch_i.inventory_digest() == expected.inventory_digest()
    assert switch_i.describe() == switch_c.describe()


@settings(max_examples=100, deadline=None)
@given(
    programs(),
    st.integers(0, 2**32 - 1),
    st.lists(
        st.tuples(st.dictionaries(st.just("a"), VALUES, max_size=1),
                  st.integers(1, 3)),
        min_size=1,
        max_size=8,
    ),
)
def test_adopted_program_agrees_scalar_vs_batch(program, seed, population):
    """After a fault-interrupted adoption converges, scalar and batched
    processing of the same arrivals agree and leave the digest untouched."""
    expected = _expected_switch(program)
    _, scalar_switch = _adopt_until_converged(True, expected, 1.0, 2, seed)
    _, batched_switch = _adopt_until_converged(True, expected, 1.0, 2, seed)

    ids = PacketIdAllocator()
    scalar_items = [
        (Packet(fields=dict(fields), packet_id=ids.allocate(), ids=ids), port)
        for fields, port in population
    ]
    scalar_out = [
        [
            (o.port, sorted(o.packet.fields.items()), o.packet.packet_id)
            for o in scalar_switch.process(packet, port)
        ]
        for packet, port in scalar_items
    ]

    ids = PacketIdAllocator()
    batched_items = [
        (Packet(fields=dict(fields), packet_id=ids.allocate(), ids=ids), port)
        for fields, port in population
    ]
    batched_out = [None] * len(batched_items)

    def deliver(index, outputs):
        batched_out[index] = [
            (port, sorted(pkt.fields.items()), pkt.packet_id)
            for port, pkt in outputs
        ]

    batched_switch.process_batch(batched_items, deliver)

    assert scalar_out == batched_out
    assert scalar_switch.inventory_digest() == batched_switch.inventory_digest()
    assert scalar_switch.inventory_digest() == expected.inventory_digest()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_inactive_fault_config_is_inert(budget, seed):
    """A zero-probability config allocates no RNG and never perturbs the
    switch — attaching it is indistinguishable from attaching none."""
    configured = Switch(node_id=0, num_ports=3)
    configured.set_faults(
        SwitchFaultConfig(partial_install_prob=0.0, fail_budget=budget, seed=seed)
    )
    bare = Switch(node_id=0, num_ports=3)
    assert configured._fault_rng is None
    expected = _expected_switch(([(0, Match(), Instructions(
        apply_actions=(Output(1),)), 0)], False))
    configured.adopt_program(expected)
    bare.adopt_program(expected)
    assert configured.describe() == bare.describe()
    assert configured.inventory_digest() == bare.inventory_digest()


PORTS = st.integers(1, 3)

#: One mutation (or read) of a switch, tagged by kind.
SWITCH_STEPS = st.one_of(
    st.tuples(st.just("install"), st.integers(0, 1), VALUES, PORTS,
              st.integers(0, 5)),
    st.tuples(st.just("remove"), st.integers(0, 1), VALUES),
    st.tuples(st.just("modify"), st.integers(0, 1), VALUES, PORTS),
    st.tuples(st.just("group"), st.integers(1, 3), PORTS),
    st.tuples(st.just("load"), programs()),
    st.tuples(st.just("adopt"), programs(), st.sampled_from([0.0, 0.5, 1.0]),
              st.integers(0, 2**32 - 1)),
    st.tuples(st.just("crash"), st.booleans()),
    st.tuples(st.just("evict"), st.integers(1, 4), VALUES, st.integers(0, 5)),
    st.tuples(st.just("edit_entry"), PORTS),
    st.tuples(st.just("edit_bucket"), PORTS),
    st.tuples(st.just("process"), VALUES, PORTS),
)


def _program_parts(program):
    """Fresh (tables, groups) for load_program, copied from a program."""
    expected = _expected_switch(program)
    tables: dict[int, list[FlowEntry]] = {}
    for table_id, entry in expected.iter_entries():
        tables.setdefault(table_id, []).append(
            FlowEntry(entry.match, entry.instructions, entry.priority, entry.cookie)
        )
    groups = [
        Group(group.group_id, group.group_type,
              [Bucket(b.actions, b.watch_port) for b in group.buckets])
        for group in expected.groups.groups()
    ]
    return tables, groups


def _apply_step(switch: Switch, step) -> None:
    kind, *args = step
    if kind == "install":
        table_id, value, port, priority = args
        switch.install(
            table_id, Match(a=value), Instructions(apply_actions=(Output(port),)),
            priority,
        )
    elif kind == "remove":
        table_id, value = args
        switch.table(table_id).remove(match=Match(a=value))
    elif kind == "modify":
        table_id, value, port = args
        switch.table(table_id).modify(
            Match(a=value), Instructions(apply_actions=(Output(port),))
        )
    elif kind == "group":
        group_id, port = args
        switch.groups.add(
            Group(group_id, GroupType.FF,
                  [Bucket([Output(port)], watch_port=port), Bucket([Output(1)])])
        )
    elif kind == "load":
        switch.load_program(*_program_parts(args[0]))
    elif kind == "adopt":
        program, prob, seed = args
        switch.set_faults(
            SwitchFaultConfig(partial_install_prob=prob, fail_budget=1, seed=seed)
        )
        switch.adopt_program(_expected_switch(program))
    elif kind == "crash":
        switch.crash()
        if args[0]:
            switch.reboot()
    elif kind == "evict":
        capacity, value, priority = args
        switch.table(0).set_capacity(capacity, evict=True)
        switch.install(0, Match(a=value), Instructions(), priority)
    elif kind == "edit_entry":
        # The documented in-place-edit contract: edit, then touch().
        for table_id, entry in switch.iter_entries():
            entry.instructions = Instructions(apply_actions=(Output(args[0]),))
            switch.tables[table_id].touch()
            break
    elif kind == "edit_bucket":
        for group in switch.groups.groups():
            group.buckets[0].actions = (Output(args[0]),)
            switch.groups.touch()
            break
    else:
        value, port = args
        switch.process(Packet(fields={"a": value}), port)


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.lists(SWITCH_STEPS, min_size=1, max_size=16))
def test_cached_digest_equals_uncached_digest(fast_path, steps):
    """After every mutation path a switch has, the generation-cached
    inventory digest equals a fresh hash of what the switch describes."""
    switch = Switch(node_id=0, num_ports=3, fast_path=fast_path)
    for step in steps:
        try:
            _apply_step(switch, step)
        except OpenFlowError:
            pass  # a rejected or interrupted operation still leaves a program
        fresh = hashlib.sha256(switch.describe().encode()).hexdigest()
        assert switch.inventory_digest() == fresh
