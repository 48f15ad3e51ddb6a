"""Header-space symbolic execution of compiled SmartSouth pipelines.

The paper's verifiability claim — keeping SmartSouth inside plain
match-action tables keeps the forwarding state *formally analyzable* — is
made executable here.  Packet classes are represented as unions of **cubes**:
conjunctions of per-field ``(value, mask)`` constraints (header-space
algebra, cf. Kazemian et al.'s Header Space Analysis), plus a *concrete*
arrival port.  The engine propagates cubes through a switch's table pipeline
(DISPATCH → CLASSIFY → BID → SWEEP → VERIFY_*) honoring priorities,
``write_metadata``, ``set_field`` / ``dec_ttl`` actions and group execution,
and derives

* the reachable input class of every flow entry (dead-rule detection),
* the class that falls off each table (table-miss reachability),
* every possible egress (port, class) pair, and
* — via :func:`walk_network` — a whole-network symbolic traversal that can
  prove the paper's "DFS covers every edge" property without running the
  simulator.

Design notes
------------

* ``in_port`` is kept **concrete** per cube (the arrival port is always a
  small known set: ``LOCAL`` for injected triggers plus the physical ports),
  which sidesteps masked arithmetic on the negative reserved port numbers
  and makes per-arrival reasoning exact.
* ``metadata`` is an ordinary cube field, seeded fully-constrained to 0
  exactly as the pipeline register is initialized per packet.
* Smart counters (round-robin ``SELECT`` groups whose buckets only write a
  scratch field) are modelled by *havocking* the written field: the analysis
  quantifies over every possible counter value, which is exactly the right
  abstraction for properties that must hold regardless of counter state.
* Fast-failover groups have two modes: ``ff_first_only=True`` assumes every
  link is up and executes the first bucket (the deterministic failure-free
  run, used by the network walk); otherwise every bucket is explored (used
  for egress/dead-rule over-approximation).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dataclass_field

from repro.core.fields import FIELD_OPT_ID, GLOBAL_FIELD_BITS, cur_field, par_field
from repro.net.topology import Topology
from repro.openflow.actions import (
    DecTtl,
    GroupAction,
    Instructions,
    Output,
    SetField,
)
from repro.openflow.flowtable import FlowEntry
from repro.openflow.group import GroupType
from repro.openflow.match import (
    Match,
    full_mask,
    pair_subtract,
    pairs_intersect,
)
from repro.openflow.packet import (
    CONTROLLER_PORT,
    IN_PORT,
    LOCAL_PORT,
    is_physical_port,
    port_name,
)
from repro.openflow.switch import Switch

#: Fallback width (bits) for fields with no declared layout width.
DEFAULT_FIELD_WIDTH = 16
#: Width of the pipeline metadata register.
METADATA_WIDTH = 32


class FieldWidths:
    """Per-field bit widths used to finitize exact matches.

    Widths come from the packed layout (:data:`GLOBAL_FIELD_BITS`) where
    declared, widened by every value/mask actually observed in the rule sets
    so that exact tests always fit their field's domain.  Consistent widths
    per field name are what make cube complementation well defined.
    """

    def __init__(self, default: int = DEFAULT_FIELD_WIDTH) -> None:
        self.default = default
        self._observed: dict[str, int] = {}
        #: id(match) -> (match, in_port test, finitized non-in_port parts).
        #: The strong reference to the match keys out id reuse; widening a
        #: width invalidates everything (finitized masks may change).
        self._parts_cache: dict[int, tuple] = {}

    def observe(self, name: str, value: int) -> None:
        bits = value.bit_length()
        if bits > self._observed.get(name, 0):
            self._observed[name] = bits
            self._parts_cache.clear()

    def observe_switch(self, switch: Switch) -> None:
        """Widen widths by everything the switch's configuration mentions."""
        for _table_id, entry in switch.iter_entries():
            for test in entry.match.tests.values():
                self.observe(test.name, test.value)
                if test.mask is not None:
                    self.observe(test.name, test.mask)
            self._observe_actions(entry.instructions.apply_actions)
        for group in switch.groups.groups():
            for bucket in group.buckets:
                self._observe_actions(bucket.actions)

    def _observe_actions(self, actions) -> None:
        for action in actions:
            if isinstance(action, SetField):
                self.observe(action.name, action.value)

    def width(self, name: str) -> int:
        if name == "metadata":
            return METADATA_WIDTH
        declared = GLOBAL_FIELD_BITS.get(name, self.default)
        return max(declared, self._observed.get(name, 0))

    def match_parts(self, match: Match) -> tuple:
        """(in_port test or None, finitized non-in_port (name, value, mask)
        triples) for *match* — memoized, since the propagation loop
        intersects the same entry matches against thousands of cubes."""
        # An in-process memo key; the `is` check guards id reuse (an allowed
        # DET006 site in tests/test_source_hazards.py).
        cached = self._parts_cache.get(id(match))
        if cached is not None and cached[0] is match:
            return cached[1], cached[2]
        in_port_test = None
        parts: list[tuple[str, int, int]] = []
        for test in match.tests.values():
            if test.name == "in_port":
                in_port_test = test
                continue
            if test.is_wildcard:
                continue
            mask = test.mask
            if mask is None:
                mask = full_mask(self.width(test.name), test.value)
            parts.append((test.name, test.value, mask))
        # Same memo key as the lookup above.
        self._parts_cache[id(match)] = (match, in_port_test, parts)
        return in_port_test, parts

    @classmethod
    def for_switches(cls, switches) -> "FieldWidths":
        widths = cls()
        for switch in switches:
            widths.observe_switch(switch)
        return widths


class Cube:
    """One packet class: per-field masked constraints + a concrete in_port.

    A field absent from ``constraints`` is unconstrained (any value of its
    domain).  Instances are immutable; all mutators return new cubes.
    """

    __slots__ = ("in_port", "constraints", "_key")

    def __init__(
        self, in_port: int, constraints: dict[str, tuple[int, int]] | None = None
    ) -> None:
        self.in_port = in_port
        self.constraints: dict[str, tuple[int, int]] = constraints or {}
        self._key: tuple | None = None

    # -- identity ------------------------------------------------------- #

    def key(self) -> tuple:
        """Hashable canonical form (used for dedup in walks)."""
        if self._key is None:
            self._key = (
                self.in_port,
                tuple(sorted(self.constraints.items())),
            )
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cube):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    # -- constraint surgery --------------------------------------------- #

    def _replaced(self, name: str, value: int, mask: int) -> "Cube":
        constraints = dict(self.constraints)
        if mask == 0:
            constraints.pop(name, None)
        else:
            constraints[name] = (value, mask)
        return Cube(self.in_port, constraints)

    def constrain(self, name: str, value: int, mask: int) -> "Cube | None":
        """Intersect with ``field & mask == value``; None if empty."""
        if mask == 0:
            return self
        have = self.constraints.get(name)
        if have is None:
            return self._replaced(name, value, mask)
        merged = pairs_intersect(have[0], have[1], value, mask)
        if merged is None:
            return None
        if merged == have:
            return self
        return self._replaced(name, merged[0], merged[1])

    def set_field(self, name: str, value: int, widths: FieldWidths) -> "Cube":
        """The effect of a ``set_field`` action: the field becomes exact."""
        return self._replaced(name, value, full_mask(widths.width(name), value))

    def havoc(self, name: str) -> "Cube":
        """Drop every constraint on *name* (unknown write)."""
        if name not in self.constraints:
            return self
        return self._replaced(name, 0, 0)

    def write_metadata(self, value: int, mask: int, widths: FieldWidths) -> "Cube":
        """``write_metadata``: masked update of the metadata register."""
        have = self.constraints.get("metadata")
        if have is None:
            return self._replaced("metadata", value & mask, mask)
        old_value, old_mask = have
        new_mask = old_mask | mask
        new_value = (old_value & ~mask) | (value & mask)
        return self._replaced("metadata", new_value & new_mask, new_mask)

    def project(self, names: "frozenset[str] | set[str]") -> "Cube":
        """Drop constraints on every field not in *names*.

        This *enlarges* the cube, but when *names* is the set of fields any
        later table can still match, the enlargement is invisible to the
        rest of the pipeline — used to collapse fragments that differ only
        in never-again-read fields (e.g. the bid table's ``opt_val`` range
        pieces)."""
        kept = {k: v for k, v in self.constraints.items() if k in names}
        if len(kept) == len(self.constraints):
            return self
        return Cube(self.in_port, kept)

    def exact_value(self, name: str, widths: FieldWidths) -> int | None:
        """The field's value if fully determined by this cube, else None."""
        have = self.constraints.get(name)
        if have is None:
            return None
        value, mask = have
        if mask == full_mask(widths.width(name), value):
            return value
        return None

    def dec_field(self, name: str, widths: FieldWidths) -> "Cube":
        """``dec_ttl``: exact values decrement (floor 0), else havoc."""
        value = self.exact_value(name, widths)
        if value is None:
            return self.havoc(name)
        return self.set_field(name, max(0, value - 1), widths)

    # -- match algebra --------------------------------------------------- #

    def _match_parts(
        self, match: Match, widths: FieldWidths
    ) -> list[tuple[int, int, int]] | None:
        """Finitized non-in_port constraints of *match*, or None if the
        match's in_port test rejects this cube's concrete arrival port."""
        in_port_test, parts = widths.match_parts(match)
        if in_port_test is not None:
            mask = in_port_test.mask
            port = self.in_port if mask is None else self.in_port & mask
            if port != in_port_test.value:
                return None
        return parts

    def intersect_match(self, match: Match, widths: FieldWidths) -> "Cube | None":
        """The subclass of this cube matched by *match* (None if empty)."""
        parts = self._match_parts(match, widths)
        if parts is None:
            return None
        cube: Cube | None = self
        for name, value, mask in parts:
            cube = cube.constrain(name, value, mask)
            if cube is None:
                return None
        return cube

    def subtract_match(self, match: Match, widths: FieldWidths) -> "list[Cube]":
        """This cube minus *match*, as a union of disjoint cubes."""
        parts = self._match_parts(match, widths)
        if parts is None:
            return [self]  # match cannot hit this arrival port: disjoint
        # If the match is disjoint from the cube on some field, nothing to cut.
        for name, value, mask in parts:
            have = self.constraints.get(name)
            if have is not None and pairs_intersect(have[0], have[1], value, mask) is None:
                return [self]
        if not parts:
            return []  # the match covers the cube entirely
        pieces: list[Cube] = []
        pinned: Cube = self
        for name, value, mask in parts:
            va, ma = pinned.constraints.get(name, (0, 0))
            width = widths.width(name)
            for piece_value, piece_mask in pair_subtract(va, ma, value, mask, width):
                pieces.append(pinned._replaced(name, piece_value, piece_mask))
            merged = pairs_intersect(va, ma, value, mask)
            assert merged is not None  # checked disjointness above
            if merged != (va, ma):
                pinned = pinned._replaced(name, merged[0], merged[1])
        return pieces

    # -- reporting ------------------------------------------------------- #

    def describe(self) -> str:
        parts = [f"in_port={port_name(self.in_port)}"]
        for name, (value, mask) in sorted(self.constraints.items()):
            width = max(mask.bit_length(), 1)
            if mask == (1 << width) - 1 and value < (1 << width):
                parts.append(f"{name}={value}")
            else:
                parts.append(f"{name}={value:#x}/{mask:#x}")
        return ", ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cube({self.describe()})"


def cube_from_match(
    match: Match, in_port: int, widths: FieldWidths
) -> Cube | None:
    """The packet class described by *match* at concrete arrival *in_port*
    (None when the match's in_port test excludes that port)."""
    return Cube(in_port).intersect_match(match, widths)


# --------------------------------------------------------------------- #
# Per-switch propagation                                                #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Egress:
    """One symbolic emission: *cube* leaves the switch on *port*.

    ``port`` is resolved (``IN_PORT`` becomes the cube's arrival port);
    ``source`` names the emitting rule cookie, with a ``group:<gid>``
    suffix when the output sat in a group bucket.
    """

    port: int
    cube: Cube
    table_id: int
    entry_index: int
    source: str


@dataclass
class PropagationResult:
    """Everything one (or many merged) seed propagation(s) produced."""

    #: (table_id, entry_index) -> reachable input classes of that entry.
    hits: dict[tuple[int, int], list[Cube]] = dataclass_field(default_factory=dict)
    #: table_id -> classes that matched nothing in that table (drops).
    misses: dict[int, list[Cube]] = dataclass_field(default_factory=dict)
    egresses: list[Egress] = dataclass_field(default_factory=list)
    #: goto targets that were missing or non-forward, hit symbolically.
    dangling: list[tuple[int, int, int]] = dataclass_field(default_factory=list)

    def merge(self, other: "PropagationResult") -> None:
        for key, cubes in other.hits.items():
            self.hits.setdefault(key, []).extend(cubes)
        for table_id, cubes in other.misses.items():
            self.misses.setdefault(table_id, []).extend(cubes)
        self.egresses.extend(other.egresses)
        self.dangling.extend(other.dangling)


class SwitchAnalyzer:
    """Symbolic executor for one compiled switch."""

    def __init__(
        self,
        switch: Switch,
        widths: FieldWidths | None = None,
        ff_first_only: bool = False,
        project_unmatched: bool = False,
    ) -> None:
        self.switch = switch
        if widths is None:
            widths = FieldWidths.for_switches([switch])
        self.widths = widths
        self.ff_first_only = ff_first_only
        #: table_id -> [(index, entry)] in match (priority) order.
        self.entries: dict[int, list[tuple[int, FlowEntry]]] = {
            table_id: switch.tables[table_id].indexed_entries()
            for table_id in sorted(switch.tables)
        }
        # Projection keeps cube populations small by dropping constraints no
        # later table reads.  Exact for hit/miss/shadow facts on THIS switch
        # but enlarges recorded egress cubes, so walk analyzers (which feed
        # egresses to neighbours) must keep it off.
        self.project_unmatched = project_unmatched
        self._matched_from: dict[int, frozenset[str]] = {}
        if project_unmatched:
            acc: set[str] = set()
            for table_id in sorted(self.entries, reverse=True):
                for _index, entry in self.entries[table_id]:
                    acc |= set(entry.match.field_names())
                self._matched_from[table_id] = frozenset(acc)

    # -- seeds ----------------------------------------------------------- #

    def seed(self, in_port: int, fields: dict[str, tuple[int, int]] | None = None) -> Cube:
        """A pipeline-entry cube: metadata register concretely 0."""
        constraints = {"metadata": (0, full_mask(METADATA_WIDTH))}
        if fields:
            constraints.update(fields)
        return Cube(in_port, constraints)

    def free_seeds(self, include_local: bool = False) -> list[Cube]:
        """'Any arrival' seeds: one per (physical, optionally LOCAL) port,
        every header field unconstrained."""
        ports = ([LOCAL_PORT] if include_local else []) + list(
            range(1, self.switch.num_ports + 1)
        )
        return [self.seed(port) for port in ports]

    # -- propagation ----------------------------------------------------- #

    def propagate(self, seed: Cube) -> PropagationResult:
        """Run *seed* through the pipeline from table 0."""
        result = PropagationResult()
        if 0 not in self.entries:
            return result
        worklist: deque[tuple[int, Cube]] = deque([(0, seed)])
        queued: set[tuple[int, tuple]] = {(0, seed.key())}
        while worklist:
            table_id, cube = worklist.popleft()
            for goto, cont in self._run_table(table_id, cube, result):
                if self.project_unmatched:
                    cont = cont.project(self._matched_from[goto])
                token = (goto, cont.key())
                if token not in queued:
                    queued.add(token)
                    worklist.append((goto, cont))
        return result

    def _run_table(
        self, table_id: int, cube: Cube, result: PropagationResult
    ) -> list[tuple[int, Cube]]:
        """Match *cube* in one table; returns (goto_table, cube) successors."""
        successors: list[tuple[int, Cube]] = []
        remaining = [cube]
        for index, entry in self.entries[table_id]:
            if not remaining:
                break
            hits = []
            for part in remaining:
                hit = part.intersect_match(entry.match, self.widths)
                if hit is not None:
                    hits.append(hit)
            if not hits:
                continue
            result.hits.setdefault((table_id, index), []).extend(hits)
            source = entry.cookie or f"table{table_id}[{index}]"
            for hit in hits:
                continuations = self._apply_instructions(
                    entry.instructions, hit, result, table_id, index, source
                )
                goto = entry.instructions.goto_table
                if goto is not None:
                    if goto <= table_id or goto not in self.entries:
                        result.dangling.append((table_id, index, goto))
                    else:
                        successors.extend((goto, cont) for cont in continuations)
            remaining = [
                piece
                for part in remaining
                for piece in part.subtract_match(entry.match, self.widths)
            ]
        if remaining:
            result.misses.setdefault(table_id, []).extend(remaining)
        return successors

    def _apply_instructions(
        self,
        instructions: Instructions,
        cube: Cube,
        result: PropagationResult,
        table_id: int,
        entry_index: int,
        source: str,
    ) -> list[Cube]:
        if instructions.write_metadata is not None:
            value, mask = instructions.write_metadata
            cube = cube.write_metadata(value, mask, self.widths)
        return self._apply_actions(
            [cube], instructions.apply_actions, result, table_id, entry_index,
            source, frozenset(),
        )

    def _apply_actions(
        self,
        cubes: list[Cube],
        actions,
        result: PropagationResult,
        table_id: int,
        entry_index: int,
        source: str,
        active_groups: frozenset[int],
    ) -> list[Cube]:
        for action in actions:
            next_cubes: list[Cube] = []
            for cube in cubes:
                if isinstance(action, SetField):
                    next_cubes.append(
                        cube.set_field(action.name, action.value, self.widths)
                    )
                elif isinstance(action, Output):
                    port = cube.in_port if action.port == IN_PORT else action.port
                    result.egresses.append(
                        Egress(port, cube, table_id, entry_index, source)
                    )
                    next_cubes.append(cube)
                elif isinstance(action, GroupAction):
                    next_cubes.extend(
                        self._exec_group(
                            action.group_id, cube, result, table_id,
                            entry_index, source, active_groups,
                        )
                    )
                elif isinstance(action, DecTtl):
                    next_cubes.append(cube.dec_field(action.field_name, self.widths))
                else:  # PushLabel / PopLabel: the label stack is never matched
                    next_cubes.append(cube)
            cubes = next_cubes
        return cubes

    def _exec_group(
        self,
        group_id: int,
        cube: Cube,
        result: PropagationResult,
        table_id: int,
        entry_index: int,
        source: str,
        active_groups: frozenset[int],
    ) -> list[Cube]:
        if group_id not in self.switch.groups or group_id in active_groups:
            # Missing group / chaining loop: structurally reported elsewhere;
            # keep the analysis robust by treating it as a no-op.
            return [cube]
        group = self.switch.groups.get(group_id)
        active = active_groups | {group_id}
        tag = f"{source}|group:{group_id}"

        def run_bucket(bucket, start: Cube) -> list[Cube]:
            return self._apply_actions(
                [start], bucket.actions, result, table_id, entry_index, tag, active
            )

        if group.group_type is GroupType.ALL:
            for bucket in group.buckets:
                run_bucket(bucket, cube)  # clones: continuation is unchanged
            return [cube]
        if group.group_type is GroupType.INDIRECT:
            return run_bucket(group.buckets[0], cube) if group.buckets else [cube]
        if group.group_type is GroupType.FF:
            if not group.buckets:
                return []  # no bucket can fire: packet dropped
            if self.ff_first_only:
                # All links assumed up: the first bucket is live.
                return run_bucket(group.buckets[0], cube)
            merged: list[Cube] = []
            for bucket in group.buckets:
                merged.extend(run_bucket(bucket, cube))
            return merged
        # SELECT (round robin).  A smart counter — every bucket only writes
        # header fields — is modelled as an unknown write (havoc), which
        # quantifies the analysis over all counter values without branching.
        if group.buckets and all(
            isinstance(action, SetField)
            for bucket in group.buckets
            for action in bucket.actions
        ):
            written = {
                action.name for bucket in group.buckets for action in bucket.actions
            }
            havocked = cube
            for name in sorted(written):
                havocked = havocked.havoc(name)
            return [havocked]
        merged = []
        for bucket in group.buckets:
            merged.extend(run_bucket(bucket, cube))
        return merged

    # -- derived whole-switch facts -------------------------------------- #

    def analyze(self, seeds: list[Cube] | None = None) -> PropagationResult:
        """Propagate all *seeds* (default: free seeds incl. LOCAL) merged."""
        if seeds is None:
            seeds = self.free_seeds(include_local=True)
        result = PropagationResult()
        for seed in seeds:
            result.merge(self.propagate(seed))
        return result

    def shadowed_entries(self) -> list[tuple[int, int, FlowEntry, list[str]]]:
        """Entries fully covered by strictly-higher-priority entries.

        Returns (table_id, index, entry, covering_cookies) tuples.  The check
        is purely local (any header, any metadata): a shadowed rule can never
        fire regardless of what the rest of the pipeline delivers.
        """
        shadowed: list[tuple[int, int, FlowEntry, list[str]]] = []
        for table_id, indexed in self.entries.items():
            for index, entry in indexed:
                higher = [
                    other
                    for _j, other in indexed
                    if other.priority > entry.priority
                ]
                if not higher:
                    continue
                # Cheap prune: only overlapping higher entries can cover.
                covering = [
                    other
                    for other in higher
                    if _matches_may_overlap(entry.match, other.match)
                ]
                if not covering:
                    continue
                if self._entry_is_covered(entry, covering):
                    shadowed.append(
                        (table_id, index, entry, [e.cookie for e in covering])
                    )
        return shadowed

    def _entry_is_covered(self, entry: FlowEntry, covering: list[FlowEntry]) -> bool:
        saw_domain = False
        for in_port in self._in_port_domain(entry.match):
            cube = cube_from_match(entry.match, in_port, self.widths)
            if cube is None:
                continue
            saw_domain = True
            residual = [cube]
            for other in covering:
                residual = [
                    piece
                    for part in residual
                    for piece in part.subtract_match(other.match, self.widths)
                ]
                if not residual:
                    break
            if residual:
                return False
        return saw_domain

    def _in_port_domain(self, match: Match) -> list[int]:
        test = match.tests.get("in_port")
        if test is not None and test.mask is None:
            return [test.value]
        return [LOCAL_PORT] + list(range(1, self.switch.num_ports + 1))

    def entries_overlap(self, a: FlowEntry, b: FlowEntry) -> bool:
        """Precise overlap: some concrete packet matches both entries."""
        if not _matches_may_overlap(a.match, b.match):
            return False
        for in_port in self._in_port_domain(a.match):
            cube = cube_from_match(a.match, in_port, self.widths)
            if cube is None:
                continue
            if cube.intersect_match(b.match, self.widths) is not None:
                return True
        return False

    def ambiguous_overlaps(
        self,
    ) -> list[tuple[int, int, FlowEntry, FlowEntry]]:
        """Same-priority, same-table entry pairs that overlap but behave
        differently — OpenFlow leaves which one fires undefined.

        Returns (table_id, priority, entry_a, entry_b) tuples; both the
        verifier and lint rule SS008 report from this single source.
        """
        out: list[tuple[int, int, FlowEntry, FlowEntry]] = []
        for table_id, indexed in self.entries.items():
            by_priority: dict[int, list[FlowEntry]] = {}
            for _index, entry in indexed:
                by_priority.setdefault(entry.priority, []).append(entry)
            for priority, group in by_priority.items():
                for i, a in enumerate(group):
                    for b in group[i + 1 :]:
                        if a.behaviour() == b.behaviour():
                            continue
                        if self.entries_overlap(a, b):
                            out.append((table_id, priority, a, b))
        return out


#: Stand-ins for a switch's own tag fields and ``opt_id`` value in
#: :func:`local_shape` (tuples, so no real field name or value collides).
_OWN_PAR = ("own", "par")
_OWN_CUR = ("own", "cur")
_OWN_OPT_ID = ("own", "opt_id")


def local_shape(switch: Switch, widths: FieldWidths, share_opt_id: bool = True) -> tuple:
    """Hashable key of everything :class:`SwitchAnalyzer`'s local analyses
    read from *switch*: two switches with equal keys get the same
    reachable entries, shadowed entries and ambiguous overlaps, entry for
    entry by ``(table_id, index)``.

    The key holds the port count; every table's entries in match order
    (priority, match tests in test order, apply actions, goto, metadata
    write, cookie); every group in insertion order (id, type, and each
    bucket's watch port and actions); and the widths of the two renamed
    fields.  Three parts are normalised, all by injective renamings, so an
    equal key means the two switches are one program up to the renaming:

    * the switch's own tags ``par_field(node)`` / ``cur_field(node)``
      become placeholders (every other field keeps its name, so a test on
      another node's tag still tells switches apart);
    * priocast's node constant ``opt_id = node + 1`` becomes a placeholder
      in exact tests and writes, unless *share_opt_id* is off (walk cubes
      carry other nodes' values).  A masked ``opt_id`` test or a decrement
      would not respect that swap of two values, so it makes the key unique;
    * a label action (``PushLabel`` / ``PopLabel``) becomes its type and
      its ordinal among the switch's distinct label actions.  Labels carry
      node ids, but propagation never reads the label stack, and the
      ambiguous-overlap check compares actions only for equality, which
      the ordinals keep.
    """
    node = switch.node_id
    own = {par_field(node): _OWN_PAR, cur_field(node): _OWN_CUR}
    labels: dict = {}

    def value_key(name: str, value: int, exact: bool = True) -> object:
        if name == FIELD_OPT_ID and not exact:  # unique: it breaks the swap
            return (node, value)
        mine = share_opt_id and name == FIELD_OPT_ID and value == node + 1
        return _OWN_OPT_ID if mine else value

    def test_key(test) -> tuple:
        value = value_key(test.name, test.value, test.mask is None)
        return (own.get(test.name, test.name), value, test.mask)

    def action_key(action) -> object:
        if isinstance(action, SetField):
            value = value_key(action.name, action.value)
            return (SetField, own.get(action.name, action.name), value)
        if isinstance(action, DecTtl):
            name = action.field_name
            return (DecTtl, own.get(name, name), value_key(name, 0, exact=False))
        if isinstance(action, (Output, GroupAction)):
            return action
        # Label actions (and any other action propagation ignores).
        return (type(action), labels.setdefault(action, len(labels)))

    def actions_key(actions) -> tuple:
        return tuple(action_key(action) for action in actions)

    tables = tuple(
        (
            table_id,
            tuple(
                (
                    entry.priority,
                    tuple(test_key(test) for test in entry.match.tests.values()),
                    actions_key(entry.instructions.apply_actions),
                    entry.instructions.goto_table,
                    entry.instructions.write_metadata,
                    entry.cookie,
                )
                for entry in switch.tables[table_id].entries()
            ),
        )
        for table_id in sorted(switch.tables)
    )
    groups = tuple(
        (
            group.group_id,
            group.group_type,
            tuple(
                (bucket.watch_port, actions_key(bucket.actions))
                for bucket in group.buckets
            ),
        )
        for group in switch.groups.groups()
    )
    own_widths = tuple(widths.width(name) for name in own)
    return (switch.num_ports, tables, groups, own_widths)


def _matches_may_overlap(a: Match, b: Match) -> bool:
    """Cheap per-field overlap test (no width information needed)."""
    for name, test_a in a.tests.items():
        test_b = b.tests.get(name)
        if test_b is None:
            continue
        if test_a.is_wildcard or test_b.is_wildcard:
            continue
        if pairs_intersect(test_a.value, test_a.mask, test_b.value, test_b.mask) is None:
            return False
    return True


# --------------------------------------------------------------------- #
# Whole-network symbolic traversal                                      #
# --------------------------------------------------------------------- #


@dataclass
class WalkResult:
    """Outcome of one symbolic network traversal from a root."""

    root: int
    states: int = 0
    exhausted: bool = False
    #: (node, port) pairs that emitted at least one packet.
    swept: set[tuple[int, int]] = dataclass_field(default_factory=set)
    #: node -> (table_id, entry_index) -> number of symbolic hits.
    hits: dict[int, dict[tuple[int, int], int]] = dataclass_field(default_factory=dict)
    #: (node, table_id, cube) table misses reached by the walk.
    misses: list[tuple[int, int, Cube]] = dataclass_field(default_factory=list)
    #: (node, cube) controller reports reached by the walk.
    reports: list[tuple[int, Cube]] = dataclass_field(default_factory=list)
    #: (node, cube) local deliveries reached by the walk.
    deliveries: list[tuple[int, Cube]] = dataclass_field(default_factory=list)

    def unswept_ports(self, topology: Topology) -> list[tuple[int, int]]:
        """Physical ports the walk never emitted on (should be empty: the
        paper's DFS-covers-all-edges property)."""
        expected = {
            (node, port)
            for node in topology.nodes()
            for port in range(1, topology.degree(node) + 1)
        }
        return sorted(expected - self.swept)


def zero_state_names(
    switches: dict[int, Switch], topology: Topology
) -> list[str]:
    """Every SmartSouth header field, sorted: the global fields, each
    node's ``par``/``cur`` tags and every field a rule matches (the
    pipeline registers ``in_port`` and ``metadata`` excepted)."""
    names: set[str] = set(GLOBAL_FIELD_BITS)
    for node in topology.nodes():
        names.add(par_field(node))
        names.add(cur_field(node))
    for switch in switches.values():
        for _table_id, entry in switch.iter_entries():
            for name in entry.match.field_names():
                if name not in ("in_port", "metadata"):
                    names.add(name)
    return sorted(names)


def zero_state_fields(
    switches: dict[int, Switch], topology: Topology, widths: FieldWidths
) -> dict[str, tuple[int, int]]:
    """Constraints pinning every SmartSouth field to 0 (the paper's
    "all tag fields are initialized to 0" injection state)."""
    return {
        name: (0, full_mask(widths.width(name)))
        for name in zero_state_names(switches, topology)
    }


#: Default budget of symbolic states explored per walk.
DEFAULT_WALK_BUDGET = 50_000


def read_fields(switch: Switch) -> frozenset[str]:
    """The fields whose input value can change what propagation through
    *switch* does: matched, metadata, decremented and smart-counter fields.
    Any other field passes through unchanged unless a ``SetField`` writes it."""
    reads, actions = {"metadata"}, []
    for _table_id, entry in switch.iter_entries():
        reads.update(entry.match.field_names())
        actions.extend(entry.instructions.apply_actions)
    for group in switch.groups.groups():
        in_buckets = [a for bucket in group.buckets for a in bucket.actions]
        actions.extend(in_buckets)
        if group.group_type is GroupType.SELECT:  # a smart counter havocs its writes
            reads.update(a.name for a in in_buckets if isinstance(a, SetField))
    reads.update(a.field_name for a in actions if isinstance(a, DecTtl))
    return frozenset(reads)


class TransferMemo:
    """Walk steps computed once per switch shape and projected input, for
    one set of walk analyzers: keyed by the node's :func:`local_shape`
    (``opt_id`` values kept), the arrival port, and the cube's constraints
    on :func:`read_fields` and the own tags, in an order that lines up a
    shape's nodes.  A replay re-attaches the unread input constraints."""

    def __init__(self) -> None:
        self.ids: dict[tuple, int] = {}  # interned shapes and output parts
        self.nodes: dict[int, tuple] = {}  # node -> (shape id, reads, read set)
        self.steps: dict[tuple, tuple] = {}

    def step(self, node: int, analyzer: SwitchAnalyzer, cube: Cube) -> tuple:
        """:meth:`SwitchAnalyzer.propagate` of *cube* at *node* as ``(hits per
        (table_id, index), [(table_id, miss cube)], [(output, port, table_id,
        index, source)], cube_of, token_of)``: ``cube_of(output)`` builds an
        egress cube, and equal ``token_of(output)`` of one node mean equal ones."""
        if node not in self.nodes:
            own = {par_field(node): (0, ""), cur_field(node): (1, "")}
            read = read_fields(analyzer.switch) | set(own)
            reads = sorted(read, key=lambda name: own.get(name, (2, name)))
            shape = local_shape(analyzer.switch, analyzer.widths, share_opt_id=False)
            self.nodes[node] = (self.ids.setdefault(shape, len(self.ids)), reads, read)
        shape_id, reads, read = self.nodes[node]
        held = cube.constraints
        projected = tuple([held.get(name) for name in reads])
        key = (shape_id, cube.in_port, projected)
        if key not in self.steps:
            fresh = analyzer.propagate(Cube(cube.in_port, {
                name: v for name, v in zip(reads, projected) if v is not None
            }))

            def out(result: Cube) -> tuple:
                part = tuple([result.constraints.get(name) for name in reads])
                writes = [i for i in result.constraints.items() if i[0] not in read]
                return part, tuple(writes), self.ids.setdefault(part, len(self.ids))

            self.steps[key] = (
                {at: len(cubes) for at, cubes in fresh.hits.items()},
                [(t, out(miss)) for t, cubes in fresh.misses.items() for miss in cubes],
                [(out(e.cube), e.port, e.table_id, e.entry_index, e.source)
                 for e in fresh.egresses],
            )
        hits, misses, egresses = self.steps[key]
        unread = {name: v for name, v in held.items() if name not in read}
        unread_ids: dict[tuple, int] = {}

        def cube_of(output: tuple) -> Cube:
            merged = dict(unread, **dict(output[1]))
            merged.update((n, v) for n, v in zip(reads, output[0]) if v is not None)
            return Cube(cube.in_port, merged)

        def token_of(output: tuple) -> tuple:
            if output[1] not in unread_ids:
                key = tuple(sorted(dict(unread, **dict(output[1])).items()))
                unread_ids[output[1]] = self.ids.setdefault(key, len(self.ids))
            return (cube.in_port, output[2], unread_ids[output[1]])

        return hits, [(t, cube_of(o)) for t, o in misses], egresses, cube_of, token_of


def walk_network(
    switches: dict[int, Switch],
    topology: Topology,
    root: int,
    trigger_fields: dict[str, int | None] | None = None,
    widths: FieldWidths | None = None,
    max_states: int = DEFAULT_WALK_BUDGET,
    analyzers: dict[int, SwitchAnalyzer] | None = None,
    memo: TransferMemo | None = None,
) -> WalkResult:
    """Symbolically walk a trigger-packet class through the network.

    The trigger is injected at *root* on the LOCAL port with every
    SmartSouth field pinned to 0, overridden by *trigger_fields* — a value
    of ``None`` frees the field entirely (e.g. an unconstrained ``gid``
    analyzes every anycast request at once).  Fast-failover groups take
    their first bucket (all links assumed up), so the walk follows the
    failure-free DFS while staying symbolic over header contents.  Steps go
    through *memo*, which may be shared by walks over the same *analyzers*.
    """
    memo = memo if memo is not None else TransferMemo()
    if widths is None:
        widths = FieldWidths.for_switches(switches.values())
    if analyzers is None:
        analyzers = {
            node: SwitchAnalyzer(switch, widths, ff_first_only=True)
            for node, switch in switches.items()
        }
    constraints = zero_state_fields(switches, topology, widths)
    for name, value in (trigger_fields or {}).items():
        if value is None:
            constraints.pop(name, None)
        else:
            constraints[name] = (value, full_mask(widths.width(name), value))
    reset = {"metadata": (0, full_mask(METADATA_WIDTH))}
    trigger = Cube(LOCAL_PORT, {**constraints, **reset})

    # Where each physical egress lands, looked up once per walk rather
    # than through Topology.neighbor per emission.
    peers = {
        (node, port): edge.other(node)
        for node in topology.nodes()
        for port, edge in topology.ports(node)
    }
    result = WalkResult(root=root)
    worklist: deque[tuple[int, int, Cube]] = deque([(root, LOCAL_PORT, trigger)])
    seen: set[tuple[int, int, tuple]] = set()
    while worklist:
        if result.states >= max_states:
            result.exhausted = True
            break
        node, in_port, cube = worklist.popleft()
        result.states += 1
        # Re-enter the pipeline: the metadata register resets per packet.
        cube = Cube(in_port, {**cube.constraints, **reset})
        hits, misses, egresses, cube_of, token_of = memo.step(node, analyzers[node], cube)
        node_hits = result.hits.setdefault(node, {})
        for key, count in hits.items():
            node_hits[key] = node_hits.get(key, 0) + count
        result.misses.extend((node, table_id, miss) for table_id, miss in misses)
        for output, port, *_where in egresses:
            if port == CONTROLLER_PORT or port == LOCAL_PORT:
                sink = result.reports if port == CONTROLLER_PORT else result.deliveries
                sink.append((node, cube_of(output)))
            if not is_physical_port(port):
                continue
            result.swept.add((node, port))
            peer = peers.get((node, port))
            if peer is None:
                continue  # nonexistent port: structurally reported elsewhere
            token = (peer.node, peer.port, token_of(output))
            if token not in seen:
                seen.add(token)
                worklist.append((peer.node, peer.port, cube_of(output)))
    return result
