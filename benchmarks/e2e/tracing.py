"""Timing shims for the traced run.

The program has no spans of its own yet, so the benchmark wraps the
layers' public entry points from outside: :meth:`Tracer.install` replaces
each target (a module function or a method) with a shim via ``setattr`` and
:meth:`Tracer.uninstall` puts the original objects back.

Every target accumulates ``calls``, ``busy`` (wall time inside it) and
``child`` (the part of that spent inside other shimmed targets), so
``self = busy - child``.  With one caller and nothing contending, a faster
layer can save at most its ``self`` share of an op.  Coarse boundaries also
record a span ``(name, start, end, parent, op)``; per-packet boundaries only
accumulate.  Spans stay in memory until :meth:`Tracer.write_spans`.

Installation is best-effort per target: a wrapped name that no longer
exists (a later change may delete ``process_batch`` or merge ``readopt``
into ``resynchronize``) is skipped with one warning, and every metric
derived from it reads ``None``.

Counts of simulated events (rules, states, attempts, table misses ...) are
taken from return values and from counters on live program objects, never
from timing, so they repeat exactly for a seed.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable

Hook = Callable[["Tracer", tuple, Any], None]


@dataclass(frozen=True)
class Target:
    #: Stats key, also the span name.
    key: str
    module: str
    #: ``function`` or ``Class.method`` inside *module*.
    path: str
    span: bool = False
    #: Other namespaces holding the same function (``from x import f``).
    aliases: tuple[tuple[str, str], ...] = ()
    #: Called with (tracer, args, result) after a successful call.
    after: Hook | None = None
    #: (positional index, stats key): time that callback argument under
    #: its own key (the batch pipeline's ``deliver`` is simulator work).
    callback: tuple[int, str] | None = None


# -- hooks: counts read off arguments and results ------------------------ #


def _after_compile(tracer: "Tracer", args: tuple, switch) -> None:
    tracer.counts["rules"] += switch.rule_count()
    tracer.counts["groups"] += switch.group_count()


def _after_run(tracer: "Tracer", args: tuple, events) -> None:
    tracer.counts["events"] += events


def _after_switch_batch(tracer: "Tracer", args: tuple, _result) -> None:
    tracer.counts["switch_batch_items"] += len(args[1])


def _after_fast_batch(tracer: "Tracer", args: tuple, _result) -> None:
    tracer.counts["fast_batch_items"] += len(args[1])


def _after_compile_table(tracer: "Tracer", args: tuple, _result) -> None:
    tracer.compiled_tables.add(args[0])


def _after_supervise(tracer: "Tracer", args: tuple, outcome) -> None:
    tracer.counts["attempts"] += outcome.attempts_used


def _after_readopt(tracer: "Tracer", args: tuple, report) -> None:
    tracer.counts["readopt_rounds"] += report.rounds
    tracer.counts["reprogrammed"] += len(report.reprogrammed_nodes)


def _after_resync(tracer: "Tracer", args: tuple, report) -> None:
    tracer.counts["resync_rounds"] += report.rounds
    tracer.counts["reprogrammed"] += len(report.reprogrammed_nodes)


def _after_chaos(tracer: "Tracer", args: tuple, record) -> None:
    if record.outcome == "degraded-correct":
        tracer.counts["chaos_degraded"] += 1


def _after_lint(tracer: "Tracer", args: tuple, report) -> None:
    tracer.counts["lint_findings"] += len(report.findings)


def _after_check(tracer: "Tracer", args: tuple, report) -> None:
    tracer.counts["check_states"] += report.states


def _watch(attrs: tuple[str, ...]) -> Hook:
    """After ``__init__``: remember the new object and read *attrs* off it
    at the end of every op (cumulative program counters)."""

    def hook(tracer: "Tracer", args: tuple, _result) -> None:
        tracer.watched[args[0]] = (attrs, [0] * len(attrs))

    return hook


_TOPOLOGY_FACTORIES = (
    "fat_tree", "torus", "ring", "grid", "abilene", "complete",
    "erdos_renyi", "from_edge_list",
)

TARGETS: tuple[Target, ...] = (
    # net.topology ------------------------------------------------------ #
    *(
        Target(
            "topology.build", "repro.net.topology", name, span=True,
            aliases=(("repro.net.chaos", name),) if name in ("torus", "complete") else (),
        )
        for name in _TOPOLOGY_FACTORIES
    ),
    # net.simulator ----------------------------------------------------- #
    Target("Network.__init__", "repro.net.simulator", "Network.__init__", span=True),
    # The supervisor drives Simulator.run directly; Network.run nests it.
    Target("Network.run", "repro.net.simulator", "Network.run", span=True),
    Target("Network.run", "repro.net.simulator", "Simulator.run", span=True, after=_after_run),
    # core.compiler ----------------------------------------------------- #
    Target(
        "compile_service", "repro.core.compiler", "compile_service", span=True,
        after=_after_compile,
    ),
    # openflow.switch / flowtable / group ------------------------------- #
    Target(
        "Switch.__init__", "repro.openflow.switch", "Switch.__init__",
        after=_watch(("table_misses",)),
    ),
    Target("Switch.install", "repro.openflow.switch", "Switch.install"),
    Target("Switch.add_group", "repro.openflow.switch", "Switch.add_group"),
    Target("Switch.adopt_program", "repro.openflow.switch", "Switch.adopt_program", span=True),
    Target("Switch.inventory_digest", "repro.openflow.switch", "Switch.inventory_digest"),
    Target("Switch.process", "repro.openflow.switch", "Switch.process"),
    Target(
        "Switch.process_batch", "repro.openflow.switch", "Switch.process_batch",
        after=_after_switch_batch, callback=(2, "Network.deliver"),
    ),
    Target(
        "FlowTable.__init__", "repro.openflow.flowtable", "FlowTable.__init__",
        after=_watch(("evictions",)),
    ),
    Target("FlowTable.add", "repro.openflow.flowtable", "FlowTable.add"),
    Target("FlowTable.lookup", "repro.openflow.flowtable", "FlowTable.lookup"),
    # openflow.fastpath ------------------------------------------------- #
    Target(
        "fastpath.compile_table", "repro.openflow.fastpath", "compile_table",
        after=_after_compile_table,
    ),
    Target("FastPath.warm", "repro.openflow.fastpath", "FastPath.warm", span=True),
    Target("FastPath.invalidate", "repro.openflow.fastpath", "FastPath.invalidate"),
    Target("FastPath.process", "repro.openflow.fastpath", "FastPath.process"),
    Target(
        "FastPath.process_batch", "repro.openflow.fastpath", "FastPath.process_batch",
        after=_after_fast_batch,
    ),
    # openflow.packet --------------------------------------------------- #
    Target("Packet.copy", "repro.openflow.packet", "Packet.copy"),
    Target("Packet.copy", "repro.openflow.fastpath", "_fast_copy"),
    # core.engine / runtime / services / template ----------------------- #
    Target("Engine.install", "repro.core.engine", "_BaseEngine.install", span=True),
    Target("Engine.trigger", "repro.core.engine", "_BaseEngine.trigger", span=True),
    *(
        Target("Runtime.op", "repro.core.runtime", f"SmartSouthRuntime.{name}", span=True)
        for name in (
            "snapshot", "anycast", "priocast", "critical", "traverse",
            "detect_blackhole_smart",
        )
    ),
    Target(
        "decode_snapshot", "repro.core.services.snapshot", "decode_snapshot", span=True,
        aliases=(
            ("repro.core.runtime", "decode_snapshot"),
            ("repro.control.supervisor", "decode_snapshot"),
        ),
    ),
    Target(
        "blackhole.run", "repro.core.services.blackhole",
        "SmartCounterBlackholeDetector.run", span=True,
    ),
    Target("Template.process", "repro.core.template", "TemplateInterpreter.process"),
    # control.supervisor / channel -------------------------------------- #
    Target(
        "Supervisor.supervise", "repro.control.supervisor",
        "TraversalSupervisor.supervise", span=True, after=_after_supervise,
    ),
    *(
        Target(
            "SupervisedRuntime.op", "repro.control.supervisor",
            f"SupervisedRuntime.{name}", span=True,
        )
        for name in ("snapshot", "anycast", "detect_blackhole", "critical")
    ),
    Target(
        "SupervisedRuntime.readopt", "repro.control.supervisor",
        "SupervisedRuntime.readopt", span=True, after=_after_readopt,
    ),
    Target(
        "SupervisedRuntime.resynchronize", "repro.control.supervisor",
        "SupervisedRuntime.resynchronize", span=True, after=_after_resync,
    ),
    Target(
        "ControlChannel.__init__", "repro.control.channel", "ControlChannel.__init__",
        after=_watch(
            ("packet_outs_sent", "packet_ins_received", "packet_outs_lost", "packet_ins_lost")
        ),
    ),
    # net.chaos --------------------------------------------------------- #
    Target("chaos.run_one", "repro.net.chaos", "run_one", span=True, after=_after_chaos),
    # analysis ---------------------------------------------------------- #
    Target("lint.run_lint", "repro.analysis.lint", "run_lint", span=True,
           aliases=(("repro.analysis", "run_lint"),), after=_after_lint),
    Target("lint.lint_engine", "repro.analysis.lint", "lint_engine", span=True,
           aliases=(("repro.analysis", "lint_engine"),)),
    Target("symbolic", "repro.analysis.symbolic", "walk_network", span=True,
           aliases=(("repro.analysis", "walk_network"), ("repro.analysis.lint", "walk_network"))),
    *(
        Target("symbolic", "repro.analysis.symbolic", f"SwitchAnalyzer.{name}", span=True)
        for name in ("__init__", "analyze", "shadowed_entries", "ambiguous_overlaps")
    ),
    Target("modelcheck.run_check", "repro.analysis.modelcheck", "run_check", span=True,
           aliases=(("repro.analysis", "run_check"),), after=_after_check),
    Target("modelcheck.check_engine", "repro.analysis.modelcheck", "check_engine", span=True,
           aliases=(("repro.analysis", "check_engine"),)),
    Target("verify", "repro.analysis.verify", "verify_switch", span=True,
           aliases=(("repro.analysis", "verify_switch"),)),
)


class Tracer:
    def __init__(self) -> None:
        #: key -> [calls, busy_s, child_s, depth]; shims hold these lists,
        #: so :meth:`take` zeroes them in place.
        self.stats: dict[str, list] = {}
        #: Counts read off arguments, results and watched objects.
        self.counts: dict[str, float] = dict.fromkeys(
            (
                "rules", "groups", "events", "switch_batch_items", "fast_batch_items",
                "attempts", "readopt_rounds", "resync_rounds", "reprogrammed",
                "chaos_degraded", "lint_findings", "check_states", "tables_used",
                "table_misses", "evictions", "packet_outs_sent", "packet_ins_received",
                "packet_outs_lost", "packet_ins_lost",
            ),
            0,
        )
        #: (name, start, end, parent span index or -1, op index)
        self.spans: list[tuple[str, float, float, int, int]] = []
        #: Keys whose every target failed to resolve.
        self.missing: set[str] = set()
        #: FlowTables compiled by the fast path and not yet seen in use.
        self.compiled_tables: "weakref.WeakSet" = weakref.WeakSet()
        #: object -> (attribute names, last values read)
        self.watched: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._frames: list[list[float]] = []
        self._open_spans: list[int] = []
        self._op = -1
        self._restore: list[tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------- #

    def install(self) -> None:
        resolved: set[str] = set()
        for target in TARGETS:
            try:
                module = importlib.import_module(target.module)
                owner = module
                *parents, name = target.path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = vars(owner)[name]
            except (ImportError, AttributeError, KeyError):
                continue
            resolved.add(target.key)
            shim = self._shim(target, original)
            self._patch(owner, name, shim, original)
            for alias_module, alias_name in target.aliases:
                try:
                    alias_owner = importlib.import_module(alias_module)
                except ImportError:
                    continue
                if vars(alias_owner).get(alias_name) is original:
                    self._patch(alias_owner, alias_name, shim, original)
        self.missing = {t.key for t in TARGETS} - resolved
        for key in sorted(self.missing):
            print(f"warning: trace target {key} not found; its metrics read null",
                  file=sys.stderr)

    def _patch(self, owner: Any, name: str, shim: Any, original: Any) -> None:
        self._restore.append((owner, name, original))
        setattr(owner, name, shim)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _shim(self, target: Target, fn: Callable) -> Callable:
        stat = self.stats.setdefault(target.key, [0, 0.0, 0.0, 0])
        frames = self._frames
        clock = time.perf_counter
        after = target.after
        key = target.key
        if not target.span and after is None:

            def hot_shim(*args, **kwargs):
                if stat[3]:
                    # Nested under the same key (abilene -> from_edge_list):
                    # the outer call already covers this time.
                    stat[0] += 1
                    return fn(*args, **kwargs)
                frame = [0.0]
                frames.append(frame)
                stat[3] = 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spent = clock() - start
                    frames.pop()
                    stat[3] = 0
                    stat[0] += 1
                    stat[1] += spent
                    stat[2] += frame[0]
                    if frames:
                        frames[-1][0] += spent

            hot_shim.__wrapped__ = fn
            return hot_shim

        spans = self.spans if target.span else None
        open_spans = self._open_spans
        callback = target.callback
        if callback is not None:
            slot, callback_key = callback
            callback_target = Target(callback_key, target.module, target.path)

        def shim(*args, **kwargs):
            if callback is not None and len(args) > slot:
                args = list(args)
                args[slot] = self._shim(callback_target, args[slot])
            if stat[3]:
                stat[0] += 1
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, result)
                return result
            frame = [0.0]
            frames.append(frame)
            stat[3] = 1
            if spans is not None:
                index = len(spans)
                parent = open_spans[-1] if open_spans else -1
                spans.append((key, 0.0, 0.0, parent, self._op))
                open_spans.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                spent = end - start
                frames.pop()
                stat[3] = 0
                stat[0] += 1
                stat[1] += spent
                stat[2] += frame[0]
                if frames:
                    frames[-1][0] += spent
                if spans is not None:
                    open_spans.pop()
                    spans[index] = (key, start, end, parent, self._op)
            if after is not None:
                after(self, args, result)
            return result

        shim.__wrapped__ = fn
        return shim

    # -- op boundaries ---------------------------------------------------- #

    def begin_op(self, index: int) -> None:
        self._op = index
        self._frames.append([0.0])

    def end_op(self, spent: float) -> None:
        """Close the op's root frame (*spent* is the runner's own timing of
        the op), then harvest program counters outside the op's time."""
        frame = self._frames.pop()
        stat = self.stats.setdefault("op", [0, 0.0, 0.0, 0])
        stat[0] += 1
        stat[1] += spent
        stat[2] += frame[0]
        self._harvest()

    def _harvest(self) -> None:
        counts = self.counts
        for obj, (attrs, last) in list(self.watched.items()):
            for slot, attr in enumerate(attrs):
                now = getattr(obj, attr, 0)
                counts[attr] += now - last[slot]
                last[slot] = now
        for table in list(self.compiled_tables):
            if any(entry.packet_count for entry in table.entries()):
                counts["tables_used"] += 1
                self.compiled_tables.discard(table)

    def take(self) -> tuple[dict[str, tuple], dict[str, float]]:
        """Return and zero the accumulated stats and counts."""
        self._harvest()
        stats = {key: tuple(value[:3]) for key, value in self.stats.items()}
        for value in self.stats.values():
            value[0], value[1], value[2] = 0, 0.0, 0.0
        counts = dict(self.counts)
        for key in self.counts:
            self.counts[key] = 0
        return stats, counts

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")


# --------------------------------------------------------------------- #
# From stats to the named per-layer metrics                             #
# --------------------------------------------------------------------- #


def layer_metrics(
    stats: dict[str, tuple],
    counts: dict[str, float],
    hops: float,
    missing: set[str],
) -> dict[str, float | None]:
    """The ``<layer>.<name>`` metrics of one traced stretch.

    *stats* and *counts* come from :meth:`Tracer.take`; *hops* is the
    stretch's in-band message count as the ops reported it.  A metric whose
    target is in *missing* is ``None``.
    """

    def stat(key: str, slot: int) -> float | None:
        if key in missing:
            return None
        return stats.get(key, (0, 0.0, 0.0))[slot]

    def calls(key): return stat(key, 0)
    def busy(key): return stat(key, 1)

    def self_s(key):
        total, child = stat(key, 1), stat(key, 2)
        return None if total is None else total - child

    def count(name: str, *needs: str):
        return None if any(k in missing for k in needs) else counts.get(name, 0)

    def ratio(top, bottom, scale: float = 1.0):
        if top is None or bottom is None:
            return None
        return scale * top / bottom if bottom else 0.0

    def add(*values):
        return None if any(v is None for v in values) else sum(values)

    run_s = busy("Network.run")
    scalar_arrivals = add(calls("Switch.process"), calls("Template.process"))
    batch_items = count("switch_batch_items", "Switch.process_batch")
    copies = calls("Packet.copy")
    attempts = count("attempts", "Supervisor.supervise")
    supervise_calls = calls("Supervisor.supervise")
    compile_calls = calls("compile_service")
    compile_busy = busy("compile_service")
    rules = count("rules", "compile_service")
    fast_compiles = calls("fastpath.compile_table")
    fast_batch_items = count("fast_batch_items", "FastPath.process_batch")
    check_states = count("check_states", "modelcheck.run_check")
    chaos_runs = calls("chaos.run_one")
    retries = None if attempts is None or supervise_calls is None else attempts - supervise_calls
    return {
        "net.topology.build_s": busy("topology.build"),
        "net.simulator.init_s": busy("Network.__init__"),
        "net.simulator.run_s": run_s,
        # Queue, emit, link and trace append: the scalar loop does them in
        # Network.run itself, the batched one in the deliver callback.
        "net.simulator.run_self_s": add(self_s("Network.run"), self_s("Network.deliver")),
        "net.simulator.events": count("events", "Network.run"),
        "net.simulator.hops": hops,
        "net.simulator.hops_per_s": ratio(hops, run_s),
        "net.simulator.batch_segments": calls("Switch.process_batch"),
        "net.simulator.batch_segment_mean": ratio(batch_items, calls("Switch.process_batch")),
        "net.simulator.batch_share": ratio(batch_items, add(batch_items, scalar_arrivals)),
        "core.compiler.calls": compile_calls,
        "core.compiler.busy_s": compile_busy,
        "core.compiler.self_s": self_s("compile_service"),
        "core.compiler.rules": rules,
        "core.compiler.groups": count("groups", "compile_service"),
        "core.compiler.us_per_rule": ratio(compile_busy, rules, 1e6),
        "openflow.flowtable.installs": calls("FlowTable.add"),
        "openflow.flowtable.install_s": busy("FlowTable.add"),
        "openflow.flowtable.lookups": calls("FlowTable.lookup"),
        "openflow.flowtable.lookup_s": busy("FlowTable.lookup"),
        "openflow.flowtable.evictions": count("evictions", "FlowTable.__init__"),
        "openflow.group.adds": calls("Switch.add_group"),
        "openflow.group.add_s": busy("Switch.add_group"),
        "openflow.fastpath.compiles": fast_compiles,
        "openflow.fastpath.compile_s": add(busy("fastpath.compile_table"), self_s("FastPath.warm")),
        "openflow.fastpath.compiled_used_share": ratio(
            count("tables_used", "fastpath.compile_table"), fast_compiles
        ),
        "openflow.fastpath.invalidations": calls("FastPath.invalidate"),
        "openflow.fastpath.process_calls": calls("FastPath.process"),
        # Packet side = self time: lazily triggered table compiles and
        # packet copies nested in it are counted in their own rows.
        "openflow.fastpath.process_s": self_s("FastPath.process"),
        "openflow.fastpath.ns_per_pkt": ratio(self_s("FastPath.process"), calls("FastPath.process"), 1e9),
        "openflow.fastpath.batch_calls": calls("FastPath.process_batch"),
        "openflow.fastpath.batch_items": fast_batch_items,
        "openflow.fastpath.batch_s": self_s("FastPath.process_batch"),
        "openflow.fastpath.batch_ns_per_pkt": ratio(self_s("FastPath.process_batch"), fast_batch_items, 1e9),
        "openflow.switch.process_calls": calls("Switch.process"),
        "openflow.switch.process_s": busy("Switch.process"),
        "openflow.switch.process_self_s": self_s("Switch.process"),
        "openflow.switch.table_misses": count("table_misses", "Switch.__init__"),
        "openflow.switch.adopt_calls": calls("Switch.adopt_program"),
        "openflow.switch.adopt_s": busy("Switch.adopt_program"),
        "openflow.switch.digest_calls": calls("Switch.inventory_digest"),
        "openflow.switch.digest_s": busy("Switch.inventory_digest"),
        "openflow.packet.copies": copies,
        "openflow.packet.copies_per_hop": ratio(copies, hops),
        "core.engine.install_s": busy("Engine.install"),
        "core.engine.trigger_s": busy("Engine.trigger"),
        "core.engine.trigger_self_s": self_s("Engine.trigger"),
        "core.runtime.op_self_s": add(self_s("Runtime.op"), self_s("SupervisedRuntime.op")),
        "core.services.decode_calls": calls("decode_snapshot"),
        "core.services.decode_s": busy("decode_snapshot"),
        "core.services.blackhole_s": busy("blackhole.run"),
        "core.template.process_calls": calls("Template.process"),
        "core.template.process_s": busy("Template.process"),
        "control.supervisor.supervise_calls": supervise_calls,
        "control.supervisor.supervise_s": busy("Supervisor.supervise"),
        "control.supervisor.attempts": attempts,
        "control.supervisor.retries_share": ratio(retries, attempts),
        "control.supervisor.readopt_calls": calls("SupervisedRuntime.readopt"),
        "control.supervisor.readopt_s": busy("SupervisedRuntime.readopt"),
        "control.supervisor.readopt_rounds": count("readopt_rounds", "SupervisedRuntime.readopt"),
        "control.supervisor.resync_calls": calls("SupervisedRuntime.resynchronize"),
        "control.supervisor.resync_s": busy("SupervisedRuntime.resynchronize"),
        "control.supervisor.resync_rounds": count("resync_rounds", "SupervisedRuntime.resynchronize"),
        "control.supervisor.reprogrammed": count(
            "reprogrammed", "SupervisedRuntime.readopt", "SupervisedRuntime.resynchronize"
        ),
        "control.channel.packet_outs": count("packet_outs_sent", "ControlChannel.__init__"),
        "control.channel.packet_ins": count("packet_ins_received", "ControlChannel.__init__"),
        "control.channel.dropped": add(
            count("packet_outs_lost", "ControlChannel.__init__"),
            count("packet_ins_lost", "ControlChannel.__init__"),
        ),
        "net.chaos.runs": chaos_runs,
        "net.chaos.run_s": busy("chaos.run_one"),
        "net.chaos.degraded_share": ratio(count("chaos_degraded", "chaos.run_one"), chaos_runs),
        "analysis.lint.calls": calls("lint.lint_engine"),
        "analysis.lint.busy_s": busy("lint.lint_engine"),
        "analysis.lint.findings": count("lint_findings", "lint.run_lint"),
        "analysis.symbolic.busy_s": busy("symbolic"),
        "analysis.modelcheck.calls": calls("modelcheck.check_engine"),
        "analysis.modelcheck.busy_s": busy("modelcheck.check_engine"),
        "analysis.modelcheck.states": check_states,
        "analysis.modelcheck.states_per_s": ratio(check_states, busy("modelcheck.check_engine")),
        "analysis.verify.busy_s": busy("verify"),
    }


def attributed_share(stats: dict[str, tuple]) -> float:
    """Share of op time spent inside some shimmed layer (the rest is the
    harness's own closure code and program code no shim covers)."""
    calls, busy, child = stats.get("op", (0, 0.0, 0.0))
    return child / busy if busy else 0.0
