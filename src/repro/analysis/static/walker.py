"""AST walking with the scope/alias tracking the sanitizer rules share.

One :class:`ModuleModel` per file holds everything a rule may ask for,
computed once:

* a parent map and scope qualnames (``ClassName.method``), so findings are
  addressable and baselines survive line drift;
* import alias resolution — ``import random as r`` / ``from random import
  random as rnd`` both resolve calls back to ``random.random``, and builtin
  calls (``id``, ``hash``, ``set`` …) resolve to ``builtins.*`` unless the
  module rebinds the name;
* per-scope *set-typedness*: names assigned from set literals, set
  comprehensions, ``set()``/``frozenset()`` calls, or set-algebra binops —
  the basis for the unordered-iteration rule;
* module-level and class-level *mutable bindings* (list/dict/set literals
  and their constructors) — the basis for the shared-state rules;
* suppression comments: ``# repro: allow[DET003] reason`` on the finding's
  line (or alone on the line above) silences that rule at that site.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

#: Modules whose members the resolver tracks.
_TRACKED_MODULES = (
    "random",
    "time",
    "datetime",
    "os",
    "uuid",
    "secrets",
    "json",
    "collections",
)

#: Builtins the rules care about.
_TRACKED_BUILTINS = frozenset(
    {
        "id",
        "hash",
        "set",
        "frozenset",
        "list",
        "tuple",
        "dict",
        "iter",
        "enumerate",
        "sorted",
    }
)

#: ``from X import Y`` members that act like classes/submodules: attribute
#: calls on them resolve one level deeper (``datetime.now`` →
#: ``datetime.datetime.now``).
_CLASSLIKE_IMPORTS = frozenset(
    {"datetime.datetime", "datetime.date", "datetime.time"}
)

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow\[([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)\]"
)

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Method names that mutate a list/dict/set/deque in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
    }
)

#: Constructor callables producing mutable containers.
_MUTABLE_CTORS = frozenset(
    {
        "builtins.set",
        "builtins.list",
        "builtins.dict",
        "collections.defaultdict",
        "collections.deque",
        "collections.Counter",
        "collections.OrderedDict",
    }
)


@dataclass
class ModuleModel:
    """One parsed source file plus every shared analysis over it."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    #: physical line -> rule ids allowed there.
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: child AST node -> parent AST node.
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)
    #: local name -> module dotted path ("random", "os.path", ...).
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: local name -> imported member dotted path ("random.random", ...).
    member_aliases: dict[str, str] = field(default_factory=dict)
    #: names the module rebinds somewhere (param, assign, def, class).
    rebound: set[str] = field(default_factory=set)
    #: scope node (or tree for module) -> names proven set-typed there.
    set_names: dict[ast.AST, set[str]] = field(default_factory=dict)
    #: module-level name -> the Assign/AnnAssign node binding it mutable.
    module_mutables: dict[str, ast.stmt] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Source / location helpers                                          #
    # ------------------------------------------------------------------ #

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def qualname(self, node: ast.AST) -> str:
        parts: list[str] = []
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, _SCOPE_NODES):
                parts.append(current.name)
            current = self.parents.get(current)
        return ".".join(reversed(parts)) or "<module>"

    def enclosing(self, node: ast.AST, kinds) -> ast.AST | None:
        """The nearest ancestor of *node* among *kinds* (or None)."""
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, kinds):
                return current
            current = self.parents.get(current)
        return None

    def enclosing_scope(self, node: ast.AST) -> ast.AST:
        """The function/class scope holding *node* (the tree if module)."""
        return self.enclosing(node, _SCOPE_NODES) or self.tree

    def is_suppressed(self, lineno: int, rule_id: str) -> bool:
        """Is *rule_id* allowed at *lineno* (same line or lone comment above)?"""
        allowed = self.suppressions.get(lineno)
        if allowed is not None and rule_id in allowed:
            return True
        above = self.suppressions.get(lineno - 1)
        if above is not None and rule_id in above:
            return self.line(lineno - 1).startswith("#")
        return False

    # ------------------------------------------------------------------ #
    # Name resolution                                                    #
    # ------------------------------------------------------------------ #

    def resolve_call(self, call: ast.Call) -> str | None:
        """The dotted origin of a call, or None when unresolvable.

        ``random.random()`` → ``"random.random"`` (through any import
        alias); ``datetime.datetime.now()`` → ``"datetime.datetime.now"``;
        ``id(x)`` → ``"builtins.id"`` unless the module rebinds ``id``.
        Method calls on arbitrary objects (``rng.random()``) resolve to
        None: the walker does not guess receiver types.
        """
        return self.resolve_name(call.func)

    def resolve_name(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            if node.id in self.member_aliases:
                return self.member_aliases[node.id]
            if node.id in self.module_aliases:
                return self.module_aliases[node.id]
            if node.id in _TRACKED_BUILTINS and node.id not in self.rebound:
                return f"builtins.{node.id}"
            return None
        if isinstance(node, ast.Attribute):
            base = self.resolve_name(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    # ------------------------------------------------------------------ #
    # Type-shape helpers                                                 #
    # ------------------------------------------------------------------ #

    def is_set_typed(self, node: ast.expr, scope: ast.AST) -> bool:
        """Is *node* statically known to evaluate to a set/frozenset?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            origin = self.resolve_call(node)
            return origin in ("builtins.set", "builtins.frozenset")
        if isinstance(node, ast.Name):
            return node.id in self.set_names.get(scope, ())
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self.is_set_typed(node.left, scope) or self.is_set_typed(
                node.right, scope
            )
        return False

    def is_mutable_container(self, node: ast.expr) -> bool:
        """Is *node* a mutable-container literal or constructor call?"""
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            return self.resolve_call(node) in _MUTABLE_CTORS
        return False


# --------------------------------------------------------------------- #
# Model construction                                                    #
# --------------------------------------------------------------------- #


def _collect_suppressions(lines: list[str]) -> dict[int, set[str]]:
    out: dict[int, set[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match:
            out[lineno] = {part.strip() for part in match.group(1).split(",")}
    return out


def _collect_imports(model: ModuleModel) -> None:
    for node in ast.walk(model.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top in _TRACKED_MODULES:
                    model.module_aliases[alias.asname or top] = (
                        alias.name if alias.asname else top
                    )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            top = node.module.split(".")[0]
            if top not in _TRACKED_MODULES:
                continue
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                local = alias.asname or alias.name
                if dotted in _CLASSLIKE_IMPORTS:
                    # Attribute calls on the class resolve one level deeper.
                    model.module_aliases[local] = dotted
                else:
                    model.member_aliases[local] = dotted


def _collect_rebound(model: ModuleModel) -> None:
    for node in ast.walk(model.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            model.rebound.add(node.name)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in (
                    *args.posonlyargs,
                    *args.args,
                    *args.kwonlyargs,
                    *filter(None, (args.vararg, args.kwarg)),
                ):
                    model.rebound.add(arg.arg)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                for leaf in ast.walk(target):
                    # Only Store-context names rebind; Load-context names
                    # inside a subscript/attribute target (`d[id(x)] = v`)
                    # are uses, not bindings.
                    if isinstance(leaf, ast.Name) and isinstance(
                        leaf.ctx, ast.Store
                    ):
                        model.rebound.add(leaf.id)


def _scope_statements(scope: ast.AST) -> Iterator[ast.stmt]:
    """Statements belonging to *scope* itself (not to nested scopes)."""
    stack = list(getattr(scope, "body", []))
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, _SCOPE_NODES):
            continue
        for child_field in ("body", "orelse", "finalbody"):
            stack.extend(getattr(stmt, child_field, []))
        for handler in getattr(stmt, "handlers", []):
            stack.extend(handler.body)


def _collect_set_names(model: ModuleModel) -> None:
    scopes: list[ast.AST] = [model.tree] + [
        node for node in ast.walk(model.tree) if isinstance(node, _SCOPE_NODES)
    ]
    for scope in scopes:
        names: set[str] = set()
        poisoned: set[str] = set()
        # Two passes so `s = set(); s = []` demotes regardless of order.
        for stmt in _scope_statements(scope):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target = stmt.target
            else:
                continue
            if not isinstance(target, ast.Name):
                continue
            value = stmt.value
            if model.is_set_typed(value, scope):
                names.add(target.id)
            else:
                poisoned.add(target.id)
        model.set_names[scope] = names - poisoned


def _collect_module_mutables(model: ModuleModel) -> None:
    for stmt in model.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        else:
            continue
        if isinstance(target, ast.Name) and model.is_mutable_container(value):
            model.module_mutables[target.id] = stmt


def build_module(path: Path, rel_base: Path) -> ModuleModel:
    """Parse *path* and precompute every shared analysis."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    model = ModuleModel(
        path=path,
        relpath=path.relative_to(rel_base).as_posix(),
        source=source,
        tree=tree,
        lines=source.splitlines(),
    )
    model.suppressions = _collect_suppressions(model.lines)
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            model.parents[child] = parent
    _collect_imports(model)
    _collect_rebound(model)
    _collect_set_names(model)
    _collect_module_mutables(model)
    return model


def iter_py_files(root: Path) -> Iterator[Path]:
    """Python files under *root* (or *root* itself), stably ordered."""
    if root.is_file():
        yield root
        return
    yield from sorted(root.rglob("*.py"))


def build_models(root: Path, rel_base: Path | None = None) -> list[ModuleModel]:
    """Parse every Python file under *root* into a :class:`ModuleModel`.

    *rel_base* anchors the relpaths findings and baselines use; it defaults
    to *root*'s parent so a scan of ``src/repro`` reports ``repro/...``.
    """
    root = root.resolve()
    base = (rel_base or (root.parent if root.is_dir() else root.parent)).resolve()
    return [build_module(path, base) for path in iter_py_files(root)]


def is_local_name(scope: ast.AST, name: str) -> bool:
    """Does function *scope* bind *name* locally (param or plain assign),
    without declaring it global?"""
    if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    for stmt in _scope_statements(scope):
        if isinstance(stmt, ast.Global) and name in stmt.names:
            return False
    args = scope.args
    for arg in (
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *filter(None, (args.vararg, args.kwarg)),
    ):
        if arg.arg == name:
            return True
    for stmt in _scope_statements(scope):
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return True
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            for leaf in ast.walk(stmt.target):
                if isinstance(leaf, ast.Name) and leaf.id == name:
                    return True
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    for leaf in ast.walk(item.optional_vars):
                        if isinstance(leaf, ast.Name) and leaf.id == name:
                            return True
    return False


def declares_global(scope: ast.AST, name: str) -> bool:
    if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    return any(
        isinstance(stmt, ast.Global) and name in stmt.names
        for stmt in _scope_statements(scope)
    )

