"""Source hazards that a same-seed replay cannot see.

The double-run gate (``python -m repro.analysis.doublerun``) checks the
reproduction's oracle directly: same seed, two processes under different
``PYTHONHASHSEED`` values, the second in reverse order, byte-identical
golden traces and chaos reports.  Planting one mutant per hazard
(``tests/mutants.py``, DESIGN.md §9) showed that three hazards slip past
it, because each is deterministic today and only breaks replay after an
innocent-looking change elsewhere:

* DET004 — ``json.dump``/``json.dumps`` without ``sort_keys=True``: the
  bytes follow dict insertion order, which a refactor silently changes.
  A dict literal with constant keys is exempt (its order is in the source).
* DET006 — ``id()`` outside an identity comparison: an allocation address
  used as a key, tag or ordering input.
* RACE001 — a module global mutated inside a function: state every engine
  in the process shares, which a rerun in that process starts from wherever
  the last run left it.  Import-time initialization is exempt.

Each check is a plain function from one parsed module to findings.  The
``repro`` package that is imported (so a mutated copy on ``PYTHONPATH`` is
the one checked) is parsed once; every finding must be in :data:`ALLOWED`,
and every allowlist entry must still match a finding.  The corpus under
``tests/fixtures/hazards/`` pins precision and recall: each line marked
``# expect[RULE]`` must be flagged by that rule, and no other line at all.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import NamedTuple

import repro

PACKAGE = Path(repro.__file__).resolve().parent
FIXTURES = Path(__file__).parent / "fixtures" / "hazards"

#: Permitted sites keyed ``(path, rule, name)``, one reason each.  ``name``
#: is the global for RACE001 and the enclosing function for DET004/DET006.
ALLOWED = {
    ("repro/analysis/lint.py", "RACE001", "LINT_RULES"):
        "import-time rule registration by @lint_rule, frozen before use",
    ("repro/analysis/modelcheck.py", "RACE001", "INVARIANTS"):
        "import-time invariant registration by @invariant, frozen before use",
    ("repro/core/compiler.py", "RACE001", "_CODEGENS"):
        "codegen registry filled by register_codegen when services import",
    ("repro/openflow/fastpath.py", "RACE001", "_KEY_FN_CACHE"):
        "memo of generated key functions, a pure function of the signature",
    ("repro/analysis/symbolic.py", "DET006", "FieldWidths.match_parts"):
        "in-process memo key (two sites); an `is` check guards id reuse",
}

RULES = ("DET004", "DET006", "RACE001")

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (*_FUNCS, ast.ClassDef)

#: Methods that mutate a list/dict/set/deque in place.
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "add",
    "update", "setdefault", "pop", "popitem", "popleft", "remove",
    "discard", "clear", "sort", "reverse",
})

_CONTAINER_CALLS = frozenset({
    "list", "dict", "set", "collections.defaultdict", "collections.deque",
    "collections.Counter", "collections.OrderedDict",
})

_EXPECT_RE = re.compile(r"#\s*expect\[([A-Z]+\d+)\]")


class Finding(NamedTuple):
    path: str
    line: int
    rule: str
    name: str

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.path, self.rule, self.name)


@dataclass
class Module:
    relpath: str
    tree: ast.Module
    #: child node -> parent node.
    parents: dict[ast.AST, ast.AST]
    #: local name -> dotted origin, for ``json``/``collections`` imports
    #: and the builtins the checks care about (unless the module rebinds them).
    origins: dict[str, str]


def parse(path: Path, relpath: str) -> Module:
    tree = ast.parse(path.read_text(), filename=str(path))
    parents = {
        child: node for node in ast.walk(tree)
        for child in ast.iter_child_nodes(node)
    }
    bound = set()
    origins = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, _SCOPES):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("json", "collections"):
                    origins[alias.asname or alias.name] = alias.name
        elif (
            isinstance(node, ast.ImportFrom)
            and node.module in ("json", "collections")
            and node.level == 0
        ):
            for alias in node.names:
                origins[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for builtin in ("id", "list", "dict", "set"):
        if builtin not in bound:
            origins.setdefault(builtin, builtin)
    return Module(relpath, tree, parents, origins)


def origin(mod: Module, node: ast.expr) -> str | None:
    """``json.dumps`` for ``json.dumps`` (through any alias), else None."""
    if isinstance(node, ast.Name):
        return mod.origins.get(node.id)
    if isinstance(node, ast.Attribute):
        base = origin(mod, node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def enclosing(mod: Module, node: ast.AST, kinds) -> ast.AST | None:
    node = mod.parents.get(node)
    while node is not None and not isinstance(node, kinds):
        node = mod.parents.get(node)
    return node


def qualname(mod: Module, node: ast.AST) -> str:
    parts = []
    while (node := enclosing(mod, node, _SCOPES)) is not None:
        parts.append(node.name)
    return ".".join(reversed(parts)) or "<module>"


def own_statements(scope) -> list[ast.stmt]:
    """Statements of *scope* itself, not of scopes nested inside it."""
    out, stack = [], list(scope.body)
    while stack:
        stmt = stack.pop()
        out.append(stmt)
        if isinstance(stmt, _SCOPES):
            continue
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.excepthandler):
                stack.extend(child.body)
            elif isinstance(child, ast.stmt):
                stack.append(child)
    return out


def is_container(mod: Module, node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and origin(mod, node.func) in _CONTAINER_CALLS


def container_bindings(mod: Module, body: list[ast.stmt]) -> set[str]:
    """Names *body* binds directly to a mutable container."""
    names = set()
    for stmt in body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        else:
            continue
        if isinstance(target, ast.Name) and is_container(mod, value):
            names.add(target.id)
    return names


def _constant_key_dict(node: ast.expr) -> bool:
    return isinstance(node, ast.Dict) and all(
        isinstance(key, ast.Constant) for key in node.keys
    )


def det004(mod: Module):
    """``json.dump(s)`` without ``sort_keys=True``, unless the payload is a
    constant-key dict literal (directly or through a local name)."""
    for call in ast.walk(mod.tree):
        if not (
            isinstance(call, ast.Call)
            and origin(mod, call.func) in ("json.dump", "json.dumps")
        ):
            continue
        if any(
            kw.arg == "sort_keys"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in call.keywords
        ):
            continue
        payload = call.args[0] if call.args else None
        if isinstance(payload, ast.Name):
            scope = enclosing(mod, call, _SCOPES) or mod.tree
            if any(
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == payload.id
                and _constant_key_dict(stmt.value)
                for stmt in ast.walk(scope)
            ):
                continue
        elif payload is not None and _constant_key_dict(payload):
            continue
        yield Finding(mod.relpath, call.lineno, "DET004", qualname(mod, call))


def det006(mod: Module):
    """``id(x)`` whose value escapes a direct comparison."""
    for call in ast.walk(mod.tree):
        if (
            isinstance(call, ast.Call)
            and origin(mod, call.func) == "id"
            and not isinstance(mod.parents.get(call), ast.Compare)
        ):
            yield Finding(mod.relpath, call.lineno, "DET006", qualname(mod, call))


def _written_name(node: ast.AST) -> str | None:
    """The bare name a statement mutates in place or rebinds, if any."""
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and isinstance(func.value, ast.Name)
        ):
            return func.value.id
    elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
        targets = [node.target] if isinstance(node, ast.AugAssign) else node.targets
        for target in targets:
            if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                return target.value.id
            if isinstance(target, ast.Name) and not isinstance(node, ast.Delete):
                return target.id
    return None


def _declares_global(func, name: str) -> bool:
    return any(
        isinstance(stmt, ast.Global) and name in stmt.names
        for stmt in own_statements(func)
    )


def _binds_locally(func, name: str) -> bool:
    """Does *func* shadow the global *name* with a parameter, a plain
    assignment, or a loop or ``with`` target?"""
    args = func.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
              *filter(None, (args.vararg, args.kwarg))]
    targets = []
    for stmt in own_statements(func):
        if isinstance(stmt, ast.Assign):
            targets += stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets.append(stmt.target)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            targets += ast.walk(stmt.target)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            targets += [leaf for item in stmt.items if item.optional_vars
                        for leaf in ast.walk(item.optional_vars)]
    return any(arg.arg == name for arg in params) or any(
        isinstance(target, ast.Name) and target.id == name for target in targets
    )


def race001(mod: Module):
    """A module global mutated inside a function: in-place mutation of a
    module-level container, or any write to a name declared ``global``."""
    mutables = container_bindings(mod, mod.tree.body)
    declared = {
        name for node in ast.walk(mod.tree)
        if isinstance(node, ast.Global) for name in node.names
    }
    for node in ast.walk(mod.tree):
        name = _written_name(node)
        if name not in mutables and name not in declared:
            continue
        func = enclosing(mod, node, _FUNCS)
        if func is None:
            continue  # import-time init on the module body
        if not _declares_global(func, name) and (
            name not in mutables
            or (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) for t in node.targets))
            or _binds_locally(func, name)
        ):
            continue
        yield Finding(mod.relpath, node.lineno, "RACE001", name)


CHECKS = (det004, det006, race001)


def scan(root: Path, base: Path) -> frozenset[Finding]:
    found = set()
    for path in sorted(root.rglob("*.py")):
        mod = parse(path, path.relative_to(base).as_posix())
        for check in CHECKS:
            found.update(check(mod))
    return frozenset(found)


@cache
def package_findings() -> frozenset[Finding]:
    return scan(PACKAGE, PACKAGE.parent)


def corpus_findings() -> set[tuple[str, int, str]]:
    return {(f.path, f.line, f.rule) for f in scan(FIXTURES, FIXTURES)}


def corpus_expectations() -> set[tuple[str, int, str]]:
    """(file, line, rule) triples the corpus's ``# expect[RULE]`` markers demand."""
    return {
        (path.name, lineno, match.group(1))
        for path in sorted(FIXTURES.glob("*.py"))
        for lineno, text in enumerate(path.read_text().splitlines(), 1)
        if (match := _EXPECT_RE.search(text))
    }


def test_recall_every_marked_line_is_caught():
    missed = corpus_expectations() - corpus_findings()
    assert not missed, f"marked hazards the checks missed: {sorted(missed)}"


def test_precision_no_benign_line_is_flagged():
    extra = corpus_findings() - corpus_expectations()
    assert not extra, f"benign look-alikes falsely flagged: {sorted(extra)}"


def test_corpus_exercises_every_rule():
    covered = {rule for _, _, rule in corpus_expectations()}
    assert covered == set(RULES), (
        f"rules without a true positive in the corpus: {sorted(set(RULES) - covered)}"
    )


def test_corpus_has_benign_lookalikes():
    # Precision only means something next to near-miss code; `good_`
    # functions are that contract.
    for path in sorted(FIXTURES.glob("*.py")):
        assert "def good_" in path.read_text(), f"{path.name} has no look-alikes"


def test_package_scan_paths_are_package_relative():
    assert package_findings()
    assert all(f.path.startswith("repro/") for f in package_findings())


def test_every_package_finding_is_allowed():
    unexplained = sorted(f for f in package_findings() if f.key not in ALLOWED)
    assert not unexplained, (
        "new source hazards (fix the site, or add an ALLOWED entry with its "
        "reason): " + "; ".join(
            f"{f.path}:{f.line} {f.rule} {f.name}" for f in unexplained
        )
    )


def test_every_allowed_entry_matches_a_finding():
    stale = sorted(set(ALLOWED) - {f.key for f in package_findings()})
    assert not stale, f"ALLOWED entries whose site is gone, drop them: {stale}"
