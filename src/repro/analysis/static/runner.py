"""Drive the sanitizer: parse → rules → suppressions → baseline → report.

``run_sancheck`` runs the per-site ``DET``/``RACE`` rules over one module
at a time.  It accepts *multiple roots* (``--root`` is repeatable): each
root's findings are keyed relative to the root's parent, so scanning
``src/repro`` yields ``repro/...`` paths (stable baselines) and scanning
``benchmarks/`` from the repo root yields ``benchmarks/...``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.static import rules as _rules  # noqa: F401 - registers
from repro.analysis.static.baseline import (
    apply_baseline,
    discover_baseline,
    load_baseline,
)
from repro.analysis.static.findings import (
    SAN_RULES,
    SanFinding,
    SanReport,
    replace,
)
from repro.analysis.static.walker import ModuleModel, build_models


def default_scan_root() -> Path:
    """The installed ``repro`` package directory (the repro source)."""
    import repro

    return Path(repro.__file__).resolve().parent


def _path_map(models: Iterable[ModuleModel]) -> dict[str, str]:
    """finding relpath -> checkout-relative path (for GitHub annotations)."""
    cwd = Path.cwd().resolve()
    out: dict[str, str] = {}
    for model in models:
        try:
            out[model.relpath] = model.path.resolve().relative_to(
                cwd
            ).as_posix()
        except ValueError:
            out[model.relpath] = str(model.path)
    return out


def analyze_models(
    models: Iterable[ModuleModel], disable: frozenset[str] = frozenset()
) -> tuple[list[SanFinding], list[str]]:
    """Run every registered rule not in *disable* over parsed modules;
    apply suppressions."""
    selected = [
        rule for rule_id, rule in SAN_RULES.items() if rule_id not in disable
    ]
    findings: list[SanFinding] = []
    for model in models:
        for rule in selected:
            for finding in rule.func(model, rule):
                if model.is_suppressed(finding.line, finding.rule):
                    finding = replace(finding, suppressed=True)
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, [rule.rule_id for rule in selected]


def run_sancheck(
    root: Path | None = None,
    rel_base: Path | None = None,
    baseline_path: Path | None = None,
    disable: frozenset[str] = frozenset(),
    use_baseline: bool = True,
    roots: Sequence[Path] | None = None,
) -> SanReport:
    """Analyze the source tree(s) and gate against the baseline.

    *roots* (or the single *root*) default to the installed ``repro``
    package; *baseline_path* defaults to the nearest
    ``sancheck-baseline.json`` above the first root (none found means no
    baseline, so every finding is new).
    """
    scan_roots = [Path(r).resolve() for r in (roots or [])]
    if root is not None:
        scan_roots.insert(0, Path(root).resolve())
    if not scan_roots:
        scan_roots = [default_scan_root()]
    models = [
        model
        for scan_root in scan_roots
        for model in build_models(scan_root, rel_base=rel_base)
    ]
    findings, rules_run = analyze_models(models, disable)
    stale: list[dict] = []
    resolved_baseline: Path | None = None
    if use_baseline:
        resolved_baseline = (
            Path(baseline_path)
            if baseline_path
            else discover_baseline(scan_roots[0])
        )
        if resolved_baseline is not None and resolved_baseline.is_file():
            findings, stale = apply_baseline(
                findings, load_baseline(resolved_baseline)
            )
    return SanReport(
        findings=findings,
        files=len(models),
        rules_run=rules_run,
        root=", ".join(str(r) for r in scan_roots),
        baseline_path=str(resolved_baseline) if resolved_baseline else None,
        stale_baseline=stale,
        path_map=_path_map(models),
    )
