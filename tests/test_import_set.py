"""What a process that only runs services imports.

The runtime, the simulator and the service modules are what every
end-to-end workload imports before it starts; the compiler and the fast
path are imported on first install, the analyzers and the supervisor only
by the callers that use them.  A module-level import that pulls one of
those into the start-up set makes every process pay its import before its
first packet (tens of milliseconds when ``src/`` compiles from source), so
the set is pinned here, in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: What a service-only process imports at start.
START = (
    "repro.core.runtime",
    "repro.core.engine",
    "repro.net.simulator",
    "repro.net.topology",
    "repro.core.fields",
    "repro.core.services.snapshot",
    "repro.core.services.anycast",
    "repro.core.services.critical",
    "repro.core.services.blackhole",
)

#: What none of them may import at module level.
LATER = (
    "repro.openflow.fastpath",
    "repro.openflow.deferred",
    "repro.core.compiler",
    "repro.analysis",
    "repro.control.supervisor",
)


def test_start_up_imports_leave_the_install_modules_out():
    script = (
        "import importlib, json, sys\n"
        f"for name in {START!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(json.dumps([name for name in {LATER!r} if name in sys.modules]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout) == [], (
        "imported at start: " + ", ".join(json.loads(done.stdout))
    )
