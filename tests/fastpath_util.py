"""Back-compat shim: the scenario runner now lives in the package.

The fast-path differential and golden-trace suites predate
:mod:`repro.net.scenario`; the runner moved into the package so the
double-run determinism gate (:mod:`repro.analysis.doublerun`) can
execute the same scenarios in clean subprocesses.  This module re-exports
the public names so older imports keep working.
"""

from __future__ import annotations

from repro.net.scenario import (  # noqa: F401 - re-exports
    GOLDEN_SCENARIOS,
    SERVICES,
    counters_snapshot,
    run_scenario,
)
