"""The switch: a multi-table OpenFlow 1.3 pipeline plus a group table."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.core.determinism import Rng, seeded_rng
from repro.openflow.actions import EmitFn, GroupAction, Instructions
from repro.openflow.errors import GroupError, InstallError, PipelineError, TableError
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.group import (
    Bucket,
    DeferredFailoverGroup,
    Group,
    GroupTable,
    GroupType,
    LivenessFn,
    first_live_bucket,
)
from repro.openflow.match import Match
from repro.openflow.packet import (
    IN_PORT,
    Packet,
    is_physical_port,
)

if TYPE_CHECKING:  # pragma: no cover - the compiler's module, not loaded here
    from repro.openflow.deferred import DeferredTable


@dataclass(frozen=True)
class PacketOut:
    """One packet emitted by the pipeline on a (physical or reserved) port."""

    port: int
    packet: Packet


@dataclass(frozen=True)
class SwitchFaultConfig:
    """Seeded switch-local fault model (the data-plane mirror of
    :class:`~repro.net.channel.ChannelFaultConfig`).

    Attach with :meth:`Switch.set_faults`.  The only fault today is the
    *partial install*: each :meth:`Switch.adopt_program` push draws once to
    decide interruption and, if interrupted, once more for the cut position
    — leaving a prefix of the program installed and the inventory digest
    drifted.  ``fail_budget`` bounds the total interruptions per switch so
    a controller with bounded retries always converges.

    An inactive config (the default) draws no RNG and allocates nothing:
    the fault-free path stays bit-identical to a switch with no config.
    """

    #: Probability that one program push is interrupted partway.
    partial_install_prob: float = 0.0
    #: Total interruptions this switch may ever inject.
    fail_budget: int = 2
    #: Seed of the switch-private fault stream.
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.partial_install_prob <= 1.0:
            raise ValueError("partial_install_prob must be in [0, 1]")
        if self.fail_budget < 0:
            raise ValueError("fail_budget must be non-negative")

    @property
    def active(self) -> bool:
        """Whether this config can inject any fault at all."""
        return self.partial_install_prob > 0.0 and self.fail_budget > 0


class Switch:
    """A simulated OpenFlow switch.

    The switch owns numbered ports ``1..num_ports``, an ordered list of flow
    tables and a group table.  ``liveness`` reports whether the link behind a
    physical port is up; it backs both fast-failover bucket selection and the
    (purely informational) port-status view.

    With ``fast_path=True`` the pipeline runs on the compiled indexed-dispatch
    engine of :mod:`repro.openflow.fastpath` instead of the interpreted
    per-entry scan.  The two are observably identical (the differential
    suite proves it); table and group mutations invalidate the compiled
    index transparently, and failover port-liveness is consulted per packet
    on both paths.

    ``program_generation`` is one monotonic integer that moves whenever the
    installed program may have changed: every mutation made through the
    switch's current tables and group table, :meth:`load_program`,
    :meth:`adopt_program`, :meth:`reboot` and
    :meth:`invalidate_fast_path`.  The fast path's chain cache and the
    :meth:`inventory_digest` are each valid for one generation, so a packet
    or a handshake checks them with one integer compare.
    Programs must therefore change through those APIs (an in-place edit of
    an entry or bucket object is followed by :meth:`invalidate_fast_path`
    or ``touch()``).
    """

    #: Hard cap on pipeline steps per packet, to turn accidental rule loops
    #: into loud errors instead of hangs.
    MAX_PIPELINE_STEPS = 1024

    def __init__(
        self,
        node_id: int,
        num_ports: int,
        liveness: LivenessFn | None = None,
        fast_path: bool = False,
    ) -> None:
        if num_ports < 0:
            raise PipelineError(f"switch {node_id}: negative port count")
        self.node_id = node_id
        self.num_ports = num_ports
        self._liveness: LivenessFn = liveness or (lambda port: True)
        #: The environment :meth:`process` walks the pipeline in.
        self._env = PipelineEnv(self._port_live)
        self.program_generation = 0
        self.tables: dict[int, FlowTable] = {}
        self.groups = self._group_table()
        self.packets_processed = 0
        self.table_misses = 0
        self._fast_path = None
        self._down = False
        self._faults: SwitchFaultConfig | None = None
        self._fault_rng: Rng | None = None
        self._faults_left = 0
        #: ``(program_generation, digest)`` of the last inventory digest.
        self._digest: tuple[int, str] | None = None
        if fast_path:
            self.enable_fast_path()

    # ------------------------------------------------------------------ #
    # Configuration                                                      #
    # ------------------------------------------------------------------ #

    def _program_changed(self) -> None:
        """Advance the program generation (the tables' mutation hook)."""
        self.program_generation += 1

    def _group_table(self) -> GroupTable:
        groups = GroupTable()
        groups.on_mutate = self._program_changed
        return groups

    def table(self, table_id: int) -> FlowTable:
        """Return table *table_id*, creating it if absent."""
        table = self.tables.get(table_id)
        if table is None:
            table = self.tables[table_id] = FlowTable(table_id)
            table.on_mutate = self._program_changed
            # A new table turns a goto to it from an error into a lookup.
            self._program_changed()
        return table

    def install(
        self,
        table_id: int,
        match: Match,
        instructions: Instructions,
        priority: int = 0,
        cookie: str = "",
    ) -> FlowEntry:
        """Install one flow entry (whole programs arrive through
        :meth:`load_program`)."""
        return self.table(table_id).install(match, instructions, priority, cookie)

    def add_group(self, group: Group) -> Group:
        return self.groups.add(group)

    def load_program(
        self,
        tables: Mapping[int, Sequence[FlowEntry] | DeferredTable],
        groups: Sequence[Group | DeferredFailoverGroup] = (),
    ) -> None:
        """Install a whole program in one step: every table's entries (in
        list order; a :class:`~repro.openflow.deferred.DeferredTable`'s
        rows are built where they are read, see :class:`FlowTable`), then
        *groups* (in order; a deferred group is built on first read, see
        :class:`GroupTable`).

        The one way programs reach a switch — the compiler and
        :meth:`adopt_program` both end here — and equivalent to
        :meth:`install` / :meth:`add_group` call by call, but each table and
        the group table mutate once (see :meth:`FlowTable.load`).  A table
        with no entries is not created and an empty group list mutates
        nothing, exactly as zero installs would not.
        """
        self._program_changed()
        for table_id, entries in tables.items():
            if entries:
                self.table(table_id).load(entries)
        if groups:
            self.groups.load(groups)

    def set_liveness(self, liveness: LivenessFn) -> None:
        """Replace the port-liveness oracle (wired up by the simulator).

        No fast-path invalidation needed: both engines read the oracle
        through :meth:`_port_live` on every failover decision.
        """
        self._liveness = liveness

    def enable_fast_path(self) -> None:
        """Switch packet processing to the compiled indexed engine."""
        if self._fast_path is None:
            from repro.openflow.fastpath import FastPath

            self._fast_path = FastPath(self)

    def disable_fast_path(self) -> None:
        """Return to the interpreted per-entry scan."""
        self._fast_path = None

    @property
    def fast_path_enabled(self) -> bool:
        return self._fast_path is not None

    @property
    def fast_path(self):
        """The compiled engine (:class:`~repro.openflow.fastpath.FastPath`),
        or None while the interpreted scan is active.  Engines bind its
        drain entry (:meth:`~repro.openflow.fastpath.FastPath.attach`)."""
        return self._fast_path

    def warm_fast_path(self) -> None:
        """Pre-compile every table and group program (no-op if disabled).

        Compilation is lazy by default; benches call this so the timed hot
        loop never pays a compile.
        """
        if self._fast_path is not None:
            self._fast_path.warm()

    def invalidate_fast_path(self) -> None:
        """Drop compiled fast-path artifacts (recompiled on next packet).

        Mutations through the :class:`FlowTable` / :class:`GroupTable` APIs
        invalidate automatically via version counters; call this only after
        editing entry or bucket objects in place.  Advances the program
        generation either way, and materialises every deferred table, so
        the fast path reindexes edited rows from what they are now.
        """
        for table in self.tables.values():
            table.materialise()
        self._program_changed()
        if self._fast_path is not None:
            self._fast_path.invalidate()

    def set_faults(self, config: SwitchFaultConfig | None) -> None:
        """Attach (or clear, with None) the switch-local fault model.

        Only an *active* config allocates the private seeded RNG; attaching
        an inactive config is exactly as cheap as attaching none, so the
        fault model can be compiled in everywhere without perturbing
        fault-free byte-identity.
        """
        if config is not None:
            config.validate()
        if config is not None and config.active:
            self._faults = config
            self._fault_rng = seeded_rng(config.seed)
            self._faults_left = config.fail_budget
        else:
            self._faults = None
            self._fault_rng = None
            self._faults_left = 0

    # ------------------------------------------------------------------ #
    # Crash / reboot                                                     #
    # ------------------------------------------------------------------ #

    @property
    def down(self) -> bool:
        """True while the switch is crashed (dropping every arrival)."""
        return self._down

    def crash(self) -> None:
        """Take the switch down: every packet delivered to it is dropped.

        Idempotent and flag-only — safe to call from a timer or packet-step
        callback (the simulator forbids re-entering the event loop from
        those).  State is lost at :meth:`reboot`, not here, so a crash that
        is never rebooted behaves exactly like a silently dead box.
        """
        self._down = True

    def reboot(self) -> None:
        """Bring a crashed switch back up with factory-fresh state.

        Flow tables, the group table (including SELECT cursors and FF
        bucket counters) and every compiled fast-path artifact are lost;
        the controller must re-adopt the switch before it forwards
        anything again (a bare switch table-misses every packet).  The
        program generation moves, so no chain recorded against the
        pre-reboot program is ever replayed.  No-op unless the switch is
        down.
        """
        if not self._down:
            return
        self._wipe()
        self._down = False

    def _wipe(self) -> None:
        """Factory-fresh tables and group table (a new program generation)."""
        self.tables = {}
        self.groups = self._group_table()
        self.invalidate_fast_path()

    def adopt_program(self, expected: "Switch") -> None:
        """Wipe this switch and re-install *expected*'s program.

        This is the controller's re-adoption push after a reboot (or after
        the inventory handshake reports drift): the program is an operation
        list — rules in deterministic table/priority/seq order, then groups
        in insertion order — loaded through :meth:`load_program`, so a
        completed push reproduces *expected*'s :meth:`inventory_digest`
        exactly.  With an active :class:`SwitchFaultConfig` the push may be
        interrupted partway (one RNG draw for the decision, one for the cut
        position): only the operations before the cut are loaded, then
        :class:`~repro.openflow.errors.InstallError` is raised — honest
        drift for the next retry round to detect and repair.
        """
        entries = list(expected.iter_entries())
        groups = list(expected.groups.groups())
        total = len(entries) + len(groups)
        cut = total
        if self._fault_rng is not None and self._faults_left > 0 and total:
            assert self._faults is not None
            if self._fault_rng.random() < self._faults.partial_install_prob:
                self._faults_left -= 1
                cut = self._fault_rng.randrange(total)
        self._wipe()
        tables: dict[int, list[FlowEntry]] = {}
        for table_id, entry in entries[:cut]:
            tables.setdefault(table_id, []).append(
                FlowEntry(
                    entry.match, entry.instructions, entry.priority, entry.cookie
                )
            )
        self.load_program(
            tables,
            [
                Group(
                    group.group_id,
                    group.group_type,
                    [
                        Bucket(actions=bucket.actions, watch_port=bucket.watch_port)
                        for bucket in group.buckets
                    ],
                )
                for group in groups[: max(0, cut - len(entries))]
            ],
        )
        if cut < total:
            raise InstallError(
                f"switch {self.node_id}: program push interrupted after "
                f"{cut}/{total} operations"
            )

    def _port_live(self, port: int) -> bool:
        return self._liveness(port)

    def port_live(self, port: int) -> bool:
        """True if *port* is a physical port whose link is up."""
        return is_physical_port(port) and port <= self.num_ports and self._liveness(port)

    def live_ports(self) -> list[int]:
        """All physical ports with an up link, in ascending order."""
        return [p for p in range(1, self.num_ports + 1) if self._liveness(p)]

    def rule_count(self) -> int:
        """Total installed flow entries (all tables)."""
        return sum(len(t) for t in self.tables.values())

    def group_count(self) -> int:
        return len(self.groups)

    # ------------------------------------------------------------------ #
    # Pipeline execution                                                 #
    # ------------------------------------------------------------------ #

    def process(self, packet: Packet, in_port: int) -> list[PacketOut]:
        """Run *packet* (arriving on *in_port*) through the pipeline: the
        one :func:`walk`, in this switch's own :class:`PipelineEnv`.

        Returns every emitted (port, packet) pair.  Output actions emit a
        snapshot copy of the packet, as OpenFlow does; reserved port
        ``IN_PORT`` is resolved to *in_port* here.  An empty list means the
        packet was dropped (table miss with no entry, or no live FF bucket).

        This is the public, non-eliding API and the reference oracle: the
        caller keeps *packet* (it is never emitted itself), with the fast
        path on or off.  Engines drain through the fast path's own entry
        instead (:meth:`~repro.openflow.fastpath.FastPath.drain`).
        """
        if self._down:
            return []  # crashed: every arrival is silently dropped
        if self._fast_path is not None:
            return self._fast_path.process(packet, in_port)
        self.packets_processed = self.packets_processed + 1
        outputs: list[PacketOut] = []

        def emit(port: int, pkt: Packet) -> None:
            resolved = in_port if port == IN_PORT else port
            outputs.append(PacketOut(resolved, pkt.copy()))

        if walk(self, packet, in_port, emit, self._env) is not None:
            self.table_misses += 1  # OF 1.3 default: drop on a miss
        return outputs

    def process_batch(self, items: list, deliver) -> None:
        """Run a batch of ``(packet, in_port)`` arrivals through the pipeline.

        ``deliver(index, outputs)`` is called once per item, in item order,
        with outputs as raw ``(port, packet)`` tuples (the batch protocol
        skips PacketOut records; outputs lists must not be retained by the
        callback).  Observably identical to calling :meth:`process` once
        per item, crash flag included (a step hook may crash the switch
        between two items): with the fast path enabled the compiled engine
        replays cached chains and elides copies of the arrivals it owns,
        otherwise this is a plain per-packet loop over the interpreter.
        """
        if self._fast_path is not None:
            self._fast_path.process_batch(items, deliver)
            return
        for index, (packet, in_port) in enumerate(items):
            outputs = self.process(packet, in_port)
            deliver(index, [(out.port, out.packet) for out in outputs])

    # ------------------------------------------------------------------ #
    # Introspection (used by the verifier and benchmarks)                #
    # ------------------------------------------------------------------ #

    def iter_entries(self) -> Iterable[tuple[int, FlowEntry]]:
        for table_id in sorted(self.tables):
            for entry in self.tables[table_id].entries():
                yield table_id, entry

    def inventory_digest(self) -> str:
        """Digest of the installed flow/group configuration.

        This is the switch side of the post-crash inventory handshake: a
        restarted controller, having lost its soft state, asks each switch
        for this digest and reprograms only the switches whose digest
        disagrees with the expected program (OF 1.3 would use a multipart
        flow/group-desc reply; one digest message models the same
        information at the paper's message granularity).  The text form is
        deterministic — tables sorted by id, entries in priority/seq order,
        groups in insertion order — so equal configurations hash equally.

        The digest covers the program only (counters and SELECT cursors are
        not in :meth:`describe`), so it is computed once per
        :attr:`program_generation` and a handshake with an unchanged switch
        costs one integer compare.  That relies on the in-place-edit
        contract: an entry or bucket object edited in place must be
        followed by ``touch()`` on its table or by
        :meth:`invalidate_fast_path`, or the digest goes stale along with
        the fast path.
        """
        generation = self.program_generation
        cached = self._digest
        if cached is None or cached[0] != generation:
            digest = hashlib.sha256(self.describe().encode()).hexdigest()
            cached = self._digest = (generation, digest)
        return cached[1]

    def describe(self) -> str:
        """Multi-line dump of the installed configuration."""
        lines = [f"switch {self.node_id} ({self.num_ports} ports)"]
        for table_id in sorted(self.tables):
            table = self.tables[table_id]
            lines.append(f"  table {table_id} ({len(table)} entries)")
            for entry in table.entries():
                # Actions in full, as for buckets below, so the handshake
                # sees a changed SetField value or metadata mask too.
                lines.append(
                    f"    [prio={entry.priority}] {entry.match!r} -> "
                    f"{entry.instructions.text}"
                    + (f"  # {entry.cookie}" if entry.cookie else "")
                )
        for group in self.groups.groups():
            lines.append(
                f"  group {group.group_id} {group.group_type.value} "
                f"({len(group.buckets)} buckets)"
            )
            for bucket in group.buckets:
                # Buckets are part of the digest so the resync handshake
                # sees group-table drift (changed actions, rewired FF
                # watch ports), not just flow-entry drift.
                watch = (
                    "" if bucket.watch_port is None
                    else f" watch={bucket.watch_port}"
                )
                actions = ", ".join([action.text for action in bucket.actions])
                lines.append(f"    bucket{watch} [{actions}]")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Switch({self.node_id}, ports={self.num_ports}, "
            f"rules={self.rule_count()}, groups={self.group_count()})"
        )


class PipelineEnv:
    """What a :func:`walk` reads and moves besides the packet, by default
    the switch's own: counted lookups, its liveness oracle, ``rr_next``
    cursors, and a count for every group invoked and bucket run."""

    def __init__(self, live: LivenessFn) -> None:
        self.live = live

    def find(self, table: FlowTable, context) -> FlowEntry | None:
        return table.lookup(context)

    def cursor(self, group: Group) -> int:
        return group.rr_next

    def set_cursor(self, group: Group, index: int) -> None:
        group.rr_next = index

    def ran(self, group: Group) -> None:
        group.packet_count += 1

    def enter(self, group: Group, index: int, emit: EmitFn) -> EmitFn:
        """Bucket *index* is about to run; returns the emit it uses."""
        group.buckets[index].packet_count += 1
        return emit

    def apply(self, action, packet: Packet, emit: EmitFn, in_port: int) -> None:
        action.apply(packet, emit, in_port)


def walk(
    switch: Switch, packet: Packet, in_port: int, emit: EmitFn, env: PipelineEnv
) -> int | None:
    """The one interpretive pipeline: run *packet*, arriving on *in_port*,
    through *switch*'s tables (match order, masked metadata register,
    forward-only goto, at most ``MAX_PIPELINE_STEPS``) and groups (as
    :mod:`repro.openflow.group` describes) in *env*.  Every other action
    runs through its :meth:`Action.apply`, handing *emit* the packet itself
    with ``IN_PORT`` unresolved.  Returns the table that missed (a bare
    switch, with no tables, misses table 0), or None.  A structural fault
    raises :class:`TableError`, :class:`PipelineError` or
    :class:`GroupError` with a stable ``kind``."""
    node, tables, groups = switch.node_id, switch.tables, switch.groups
    apply = env.apply

    def run(actions, packet: Packet, emit: EmitFn, active: frozenset[int]) -> None:
        for action in actions:
            if isinstance(action, GroupAction):
                dispatch(action.group_id, packet, emit, active)
            else:
                apply(action, packet, emit, in_port)

    def dispatch(group_id: int, packet: Packet, emit: EmitFn, active) -> None:
        if group_id in active:
            message = f"group chaining loop through group {group_id}"
            raise GroupError(message, "group-loop", group_id)
        group = groups.get(group_id)  # GroupError "unknown-group" if absent
        env.ran(group)
        active = active | {group_id}
        buckets = group.buckets
        if group.group_type is GroupType.ALL:
            for index, bucket in enumerate(buckets):
                clone = packet.copy()
                run(bucket.actions, clone, env.enter(group, index, emit), active)
            return
        if group.group_type is GroupType.INDIRECT:
            index = 0 if buckets else None
        elif group.group_type is GroupType.FF:
            index = first_live_bucket(buckets, env.live)
        elif not buckets:
            message = f"SELECT group {group_id} has no buckets"
            raise GroupError(message, "empty-select", group_id)
        else:  # SELECT, round robin
            index = env.cursor(group)
            env.set_cursor(group, (index + 1) % len(buckets))
            if not 0 <= index < len(buckets):
                message = f"SELECT group {group_id} cursor {index} out of range"
                raise GroupError(message, "select-cursor", f"{group_id}:{index}")
        if index is not None:
            run(buckets[index].actions, packet, env.enter(group, index, emit), active)

    metadata = table_id = 0
    for _step in range(switch.MAX_PIPELINE_STEPS):
        table = tables.get(table_id)
        if table is None:
            if not tables:  # bare (rebooted, not yet re-adopted): a miss
                return 0
            message = f"switch {node}: goto to missing table {table_id}"
            raise TableError(message, "missing-table", table_id)
        # A table's matches read the packet's fields and two registers.
        context = {**packet.fields, "in_port": in_port, "metadata": metadata}
        entry = env.find(table, context)
        if entry is None:
            return table_id
        instructions = entry.instructions
        if instructions.write_metadata is not None:
            value, mask = instructions.write_metadata
            metadata = (metadata & ~mask) | (value & mask)
        run(instructions.apply_actions, packet, emit, frozenset())
        goto = instructions.goto_table
        if goto is None:
            return None
        if goto <= table_id:
            message = f"switch {node}: goto_table must move forward "
            message += f"({table_id} -> {goto})"
            raise PipelineError(message, "goto-backward", f"{table_id}->{goto}")
        table_id = goto
    message = f"switch {node}: pipeline exceeded {switch.MAX_PIPELINE_STEPS} steps"
    raise PipelineError(message + " (rule loop?)", "pipeline-limit")
