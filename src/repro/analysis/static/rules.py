"""The built-in sanitizer rules: determinism (DET) and shared state (RACE).

Every rule is a :func:`~repro.analysis.static.findings.san_rule`-decorated
generator over one :class:`~repro.analysis.static.walker.ModuleModel`;
third-party rules register the same way.  The catalogue, with the hazard
each rule encodes, lives in ``docs/STATIC_ANALYSIS.md``.

Determinism rules flag sources of run-to-run divergence, which break the
repository's oracle that a same-seed rerun is byte-identical: process-global
or OS-entropy randomness, wall-clock reads outside the allowlisted provider,
hash-order escaping into iteration/serialization, and allocation-order
(``id()``) or ``PYTHONHASHSEED``-dependent (``hash()``) values used where
order matters.  Shared-state rules flag mutable state that outlives one
engine, so two engines (or two tests) in one process see each other's
writes: module globals mutated from functions, class attributes mutated
through ``self`` aliasing, and mutable default arguments.
"""

from __future__ import annotations

import ast

from repro.analysis.static.findings import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    SanRule,
    san_rule,
)
from repro.analysis.static.walker import (
    MUTATOR_METHODS,
    ModuleModel,
    declares_global,
    is_local_name,
)

#: The one module allowed to construct RNGs and read wall clocks
#: (:mod:`repro.core.determinism`); everything else must go through it.
PROVIDER_MODULES = frozenset({"repro/core/determinism.py"})

#: ``random``-module functions that drive the *process-global* RNG.
_GLOBAL_RNG_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "uniform",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "seed",
        "getrandbits",
        "gauss",
        "betavariate",
        "expovariate",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "triangular",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: Entropy sources that can never be seeded.
_ENTROPY_ORIGINS = frozenset(
    {"os.urandom", "uuid.uuid1", "uuid.uuid4", "random.SystemRandom"}
)

#: Wall-clock reads (virtual time lives on ``network.sim.now``).
_CLOCK_ORIGINS = frozenset(
    {
        *(
            f"time.{name}"
            for name in (
                "time",
                "time_ns",
                "monotonic",
                "monotonic_ns",
                "perf_counter",
                "perf_counter_ns",
                "process_time",
                "process_time_ns",
                "localtime",
                "gmtime",
                "ctime",
                "strftime",
            )
        ),
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Order-sensitive builtin consumers for DET005 (``sorted``/``min``/``max``/
#: ``sum``/``len``/``any``/``all`` are order-*insensitive* and stay legal).
_ORDER_SENSITIVE_CALLS = frozenset(
    {"builtins.list", "builtins.tuple", "builtins.iter", "builtins.enumerate"}
)


def _calls(model: ModuleModel):
    for node in ast.walk(model.tree):
        if isinstance(node, ast.Call):
            yield node, model.resolve_call(node)


# --------------------------------------------------------------------- #
# Determinism rules                                                     #
# --------------------------------------------------------------------- #


@san_rule(
    "DET001",
    "unseeded-rng",
    SEVERITY_ERROR,
    fix_hint="draw from repro.core.determinism.seeded_rng(seed) / "
    "derive_rng(master, *labels) instead of the process-global RNG",
)
def check_unseeded_rng(model: ModuleModel, rule: SanRule):
    """Process-global or unseeded randomness: ``random.random()`` and
    friends share one hidden global stream (any new caller perturbs every
    existing one), and ``random.Random()`` with no seed reads OS entropy.
    Both make runs unreproducible, and two engines in one process drawing
    from the global stream perturb each other's sequences.  Only the
    central provider module may construct RNGs."""
    if model.relpath in PROVIDER_MODULES:
        return
    for call, origin in _calls(model):
        if origin is None:
            continue
        if origin == "random.Random" and not call.args and not call.keywords:
            yield rule.finding(
                model, call, "random.Random() with no seed reads OS entropy"
            )
        elif (
            origin.startswith("random.")
            and origin.removeprefix("random.") in _GLOBAL_RNG_FUNCS
        ):
            yield rule.finding(
                model,
                call,
                f"{origin}() draws from the hidden process-global RNG",
            )


@san_rule(
    "DET002",
    "entropy-source",
    SEVERITY_ERROR,
    fix_hint="derive the value from the run's seed "
    "(repro.core.determinism.derive_seed) — never from OS entropy",
)
def check_entropy_source(model: ModuleModel, rule: SanRule):
    """OS entropy can never be seeded: ``os.urandom``, ``uuid.uuid1/4``,
    ``random.SystemRandom`` and everything in ``secrets`` produce different
    bytes on every run, so any trace, id, or decision they touch diverges.
    (``uuid.uuid5`` is a deterministic hash and stays legal.)"""
    for call, origin in _calls(model):
        if origin is None:
            continue
        if origin in _ENTROPY_ORIGINS or origin.startswith("secrets."):
            yield rule.finding(
                model, call, f"{origin}() is unseedable OS entropy"
            )


@san_rule(
    "DET003",
    "wall-clock",
    SEVERITY_ERROR,
    fix_hint="use the simulator's virtual clock (network.sim.now) or the "
    "packet-step logical clock; benches may call "
    "repro.core.determinism.wall_clock()",
)
def check_wall_clock(model: ModuleModel, rule: SanRule):
    """A wall-clock read outside the allowlisted clock module: anything it
    feeds — timestamps in payloads, timeouts, ordering — varies run to run
    and machine to machine.  Simulation time is ``network.sim.now``; the
    one sanctioned wall-clock read is ``determinism.wall_clock()``."""
    if model.relpath in PROVIDER_MODULES:
        return
    for call, origin in _calls(model):
        if origin in _CLOCK_ORIGINS:
            yield rule.finding(
                model, call, f"{origin}() reads the wall clock"
            )


@san_rule(
    "DET004",
    "unsorted-json",
    SEVERITY_WARNING,
    fix_hint="pass sort_keys=True so byte-identity cannot depend on dict "
    "insertion order",
)
def check_unsorted_json(model: ModuleModel, rule: SanRule):
    """``json.dumps``/``json.dump`` without ``sort_keys=True``: the byte
    output then depends on dict insertion order, which refactors silently
    change — and same-seed byte-identity (chaos reports, golden traces) is
    this repo's oracle.  Serializing a dict *literal* with constant keys is
    exempt: its order is part of the source."""
    for call, origin in _calls(model):
        if origin not in ("json.dumps", "json.dump"):
            continue
        if any(
            kw.arg == "sort_keys"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in call.keywords
        ):
            continue
        payload = call.args[0] if call.args else None
        if payload is not None and _is_constant_key_dict(model, call, payload):
            continue
        yield rule.finding(
            model, call, f"{origin}() without sort_keys=True"
        )


def _is_constant_key_dict(model: ModuleModel, call: ast.Call, expr) -> bool:
    """Is *expr* a dict literal with constant keys (directly, or a local
    name assigned one in the same scope)?"""

    def literal_ok(node) -> bool:
        return isinstance(node, ast.Dict) and all(
            isinstance(key, ast.Constant) for key in node.keys
        )

    if literal_ok(expr):
        return True
    if not isinstance(expr, ast.Name):
        return False
    scope = model.enclosing_scope(call)
    for stmt in ast.walk(scope):
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == expr.id
        ):
            if literal_ok(stmt.value):
                return True
    return False


@san_rule(
    "DET005",
    "unordered-iteration",
    SEVERITY_WARNING,
    fix_hint="wrap the set in sorted(...) before its order can escape "
    "(membership tests and sorted/min/max/sum/len/any/all stay as-is)",
)
def check_unordered_iteration(model: ModuleModel, rule: SanRule):
    """Iteration order of a set escapes into an ordered consumer (a for
    loop, list/dict comprehension, ``list``/``tuple``/``iter``/
    ``enumerate``/``str.join``): that order follows the hash seed, so it
    changes under ``PYTHONHASHSEED`` — exactly what flakes golden traces.
    Order-insensitive reductions over sets are fine and not flagged."""

    def flag(node, what: str):
        return rule.finding(
            model, node, f"{what} consumes a set in hash order"
        )

    for node in ast.walk(model.tree):
        scope = model.enclosing_scope(node)
        if isinstance(node, ast.For):
            if model.is_set_typed(node.iter, scope):
                yield flag(node.iter, "for loop")
        elif isinstance(node, (ast.ListComp, ast.DictComp)):
            kind = (
                "list comprehension"
                if isinstance(node, ast.ListComp)
                else "dict comprehension"
            )
            for gen in node.generators:
                if model.is_set_typed(gen.iter, scope):
                    yield flag(gen.iter, kind)
        elif isinstance(node, ast.Call):
            origin = model.resolve_call(node)
            if (
                origin in _ORDER_SENSITIVE_CALLS
                and node.args
                and model.is_set_typed(node.args[0], scope)
            ):
                yield flag(node, f"{origin.removeprefix('builtins.')}()")
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and node.args
                and model.is_set_typed(node.args[0], scope)
            ):
                yield flag(node, "str.join()")


@san_rule(
    "DET006",
    "id-identity",
    SEVERITY_WARNING,
    fix_hint="key on a stable identifier (node id, cookie, name) instead; "
    "id() values are allocation addresses and differ across runs and "
    "processes",
)
def check_id_identity(model: ModuleModel, rule: SanRule):
    """Builtin ``id()`` used outside a direct identity comparison: its
    value is an allocation address, so using it as a key, tag, or ordering
    input ties behaviour to the allocator, so reruns are not
    byte-identical.  ``id(a) == id(b)`` (same-process identity, better
    spelled ``a is b``) is tolerated."""
    for call, origin in _calls(model):
        if origin != "builtins.id":
            continue
        parent = model.parents.get(call)
        if isinstance(parent, ast.Compare):
            continue
        yield rule.finding(
            model, call, "id() value escapes an identity comparison"
        )


@san_rule(
    "DET007",
    "hash-order",
    SEVERITY_WARNING,
    fix_hint="hash with hashlib (stable across processes) or sort on the "
    "value itself; builtin hash() of str/bytes changes with PYTHONHASHSEED",
)
def check_hash_order(model: ModuleModel, rule: SanRule):
    """Builtin ``hash()`` outside a ``__hash__`` definition: for str,
    bytes, and containers of them the result is salted per process
    (``PYTHONHASHSEED``), so bucketing, sort keys, or emitted values built
    on it differ between runs.  ``__hash__`` implementations are exempt —
    there the interpreter owns the contract."""
    for call, origin in _calls(model):
        if origin != "builtins.hash":
            continue
        enclosing = model.enclosing(
            call, (ast.FunctionDef, ast.AsyncFunctionDef)
        )
        if enclosing is not None and enclosing.name == "__hash__":
            continue
        yield rule.finding(
            model, call, "hash() is PYTHONHASHSEED-dependent"
        )


# --------------------------------------------------------------------- #
# Shared-state rules                                                    #
# --------------------------------------------------------------------- #


@san_rule(
    "RACE001",
    "global-mutation",
    SEVERITY_ERROR,
    fix_hint="pass the state in explicitly (constructor/parameter); a "
    "module global mutated at runtime is shared by every engine in the "
    "process and leaks from one run into the next",
)
def check_global_mutation(model: ModuleModel, rule: SanRule):
    """A module global mutated from inside a function or method: hidden
    global state that two engines in one process share accidentally, and
    that a rerun in the same process starts from wherever the last run
    left it.  Covers in-place mutation of a module-level container and any
    write to a name the function declares ``global`` (a scalar counter
    included).  Import-time initialization (module-level statements) is
    exempt, as are locals shadowing the global name."""
    mutables = model.module_mutables
    # The text test skips the tree walk in modules that never say "global".
    declared = {
        name
        for node in (ast.walk(model.tree) if "global" in model.source else ())
        if isinstance(node, ast.Global)
        for name in node.names
    }
    if not mutables and not declared:
        return

    def target_name(node) -> str | None:
        """The module-global a mutation statement touches, if any."""
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATOR_METHODS
                and isinstance(func.value, ast.Name)
            ):
                return func.value.id
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    return target.value.id
                if isinstance(target, ast.Name) and isinstance(
                    node, (ast.AugAssign, ast.Assign)
                ):
                    return target.id
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    return target.value.id
        return None

    for node in ast.walk(model.tree):
        name = target_name(node)
        if name is None or (name not in mutables and name not in declared):
            continue
        scope = model.enclosing(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if scope is None:
            continue  # import-time init on the module body
        if not declares_global(scope, name):
            if name not in mutables:
                continue
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) for t in node.targets
            ):
                continue  # binds a local, not the global
            if is_local_name(scope, name):
                continue  # a local shadows the global name
        yield rule.finding(
            model,
            node,
            f"module global {name!r} mutated inside "
            f"{model.qualname(node)}()",
        )


@san_rule(
    "RACE002",
    "class-attr-aliasing",
    SEVERITY_ERROR,
    fix_hint="initialize the container per instance in __init__ (or use a "
    "dataclass field(default_factory=...)); a class-level container is one "
    "object shared by every instance",
)
def check_class_attr_aliasing(model: ModuleModel, rule: SanRule):
    """A method mutates ``self.x`` where ``x`` is a class-level mutable
    container and no method ever rebinds ``self.x``: every instance aliases
    the *class's* single container, so per-flow state bleeds across
    instances — the OpenState/OPP per-flow tables on the roadmap make this
    an instant corruption bug.  Classes that assign ``self.x = ...``
    somewhere are exempt (the literal is then just a default)."""
    for klass in ast.walk(model.tree):
        if not isinstance(klass, ast.ClassDef):
            continue
        class_attrs: set[str] = set()
        for stmt in klass.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value = stmt.target, stmt.value
            else:
                continue
            if isinstance(target, ast.Name) and model.is_mutable_container(
                value
            ):
                class_attrs.add(target.id)
        if not class_attrs:
            continue
        methods = [
            stmt
            for stmt in klass.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        rebound_attrs: set[str] = set()
        for method in methods:
            self_name = _first_arg(method)
            if self_name is None:
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        attr = _self_attr(target, self_name)
                        if attr is not None:
                            rebound_attrs.add(attr)
        for method in methods:
            self_name = _first_arg(method)
            if self_name is None:
                continue
            for node in ast.walk(method):
                attr = _mutated_self_attr(node, self_name)
                if (
                    attr is not None
                    and attr in class_attrs
                    and attr not in rebound_attrs
                ):
                    yield rule.finding(
                        model,
                        node,
                        f"{klass.name}.{attr} is a class-level container "
                        f"mutated through {self_name!r} — shared by every "
                        f"instance",
                    )


def _first_arg(method) -> str | None:
    args = method.args
    ordered = [*args.posonlyargs, *args.args]
    return ordered[0].arg if ordered else None


def _self_attr(node, self_name: str) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
    ):
        return node.attr
    return None


def _mutated_self_attr(node, self_name: str) -> str | None:
    """The attribute of ``self`` this node mutates in place, if any."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            return _self_attr(func.value, self_name)
    elif isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if isinstance(target, ast.Subscript):
                return _self_attr(target.value, self_name)
            if isinstance(node, ast.AugAssign):
                return _self_attr(target, self_name)
    return None


@san_rule(
    "RACE003",
    "mutable-default",
    SEVERITY_ERROR,
    fix_hint="default to None (or a tuple/frozenset) and create the "
    "container inside the function body",
)
def check_mutable_default(model: ModuleModel, rule: SanRule):
    """A mutable default argument is evaluated once at def time and shared
    by every call — state leaks from one call, engine or run into the next
    within a process.  Immutable defaults (None, tuples, frozensets) are
    fine."""
    for node in ast.walk(model.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = [
            *node.args.defaults,
            *(d for d in node.args.kw_defaults if d is not None),
        ]
        for default in defaults:
            if model.is_mutable_container(default):
                yield rule.finding(
                    model,
                    default,
                    f"mutable default argument on {node.name}() is shared "
                    f"across calls",
                )
