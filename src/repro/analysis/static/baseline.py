"""Baseline files: permit intentional findings, fail only on new ones.

A baseline entry identifies a finding by ``(rule, path, scope, code)`` —
the stripped source line rather than a line number, so entries survive
unrelated edits above them.  ``count`` allows N occurrences of the same
key (e.g. two identical registry mutations in one function).

The CI contract: ``smartsouth sancheck`` exits 1 iff a finding is neither
suppressed in-source nor covered by the committed baseline.  Entries no
finding matched are reported as *stale* so the baseline only ever shrinks.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.static.findings import SanFinding, replace

#: The committed baseline's filename, discovered by walking up from the
#: scan root (so it lives at the repo root, beside pyproject.toml).
BASELINE_NAME = "sancheck-baseline.json"

_KEY_FIELDS = ("rule", "path", "scope", "code")


def discover_baseline(start: Path) -> Path | None:
    """The nearest ``sancheck-baseline.json`` at or above *start*."""
    start = start.resolve()
    for candidate in [start, *start.parents]:
        path = candidate / BASELINE_NAME
        if path.is_file():
            return path
    return None


def load_baseline(path: Path) -> dict[tuple[str, str, str, str], int]:
    """key -> allowed occurrence count."""
    data = json.loads(Path(path).read_text())
    allowance: dict[tuple[str, str, str, str], int] = {}
    for entry in data.get("findings", []):
        key = tuple(entry[field] for field in _KEY_FIELDS)
        allowance[key] = allowance.get(key, 0) + int(entry.get("count", 1))
    return allowance


def write_baseline(path: Path, findings: list[SanFinding]) -> dict:
    """Write every unsuppressed finding as a permitted baseline entry."""
    counts: dict[tuple[str, str, str, str], int] = {}
    for finding in findings:
        if finding.suppressed:
            continue
        counts[finding.key()] = counts.get(finding.key(), 0) + 1
    payload = {
        "_comment": (
            "Permitted sancheck findings. CI fails only on findings absent "
            "from this file; prune entries as the sites are fixed. "
            "Regenerate with: smartsouth sancheck --write-baseline"
        ),
        "version": 1,
        "findings": [
            {
                "rule": rule,
                "path": rel,
                "scope": scope,
                "code": code,
                "count": count,
            }
            for (rule, rel, scope, code), count in sorted(counts.items())
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def apply_baseline(
    findings: list[SanFinding],
    allowance: dict[tuple[str, str, str, str], int],
) -> tuple[list[SanFinding], list[dict]]:
    """Mark findings covered by *allowance*; report unmatched (stale) entries.

    Returns ``(findings, stale)`` where stale entries are baseline keys
    with remaining allowance — sites that were fixed but not pruned.
    """
    remaining = dict(allowance)
    out: list[SanFinding] = []
    for finding in findings:
        key = finding.key()
        if not finding.suppressed and remaining.get(key, 0) > 0:
            remaining[key] -= 1
            finding = replace(finding, baselined=True)
        out.append(finding)
    stale = [
        {
            "rule": rule,
            "path": rel,
            "scope": scope,
            "code": code,
            "count": count,
        }
        for (rule, rel, scope, code), count in sorted(remaining.items())
        if count > 0
    ]
    return out, stale


def prune_baseline(path: Path, findings: list[SanFinding]) -> tuple[int, int]:
    """Drop baseline entries no current finding matches; shrink counts.

    The ratchet operation behind ``--prune-baseline``: every entry keeps
    at most as much allowance as the scan still needs, so fixing a site
    and pruning makes the fix permanent.  Returns ``(kept, dropped)``
    where both count *occurrences* (an entry with ``count: 2`` matched
    once is one kept, one dropped).
    """
    path = Path(path)
    allowance = load_baseline(path)
    needed: dict[tuple[str, str, str, str], int] = {}
    for finding in findings:
        if finding.suppressed:
            continue
        key = finding.key()
        needed[key] = needed.get(key, 0) + 1
    kept = 0
    dropped = 0
    survivors: list[SanFinding] = []
    for (rule, rel, scope, code), count in sorted(allowance.items()):
        keep = min(count, needed.get((rule, rel, scope, code), 0))
        kept += keep
        dropped += count - keep
        for _ in range(keep):
            survivors.append(
                SanFinding(
                    rule=rule,
                    name="",
                    severity="error",
                    message="",
                    path=rel,
                    line=0,
                    col=0,
                    scope=scope,
                    code=code,
                )
            )
    write_baseline(path, survivors)
    return kept, dropped
