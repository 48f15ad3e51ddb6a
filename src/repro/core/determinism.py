"""The one place this codebase is allowed to touch randomness or clocks.

Every pillar of the reproduction — golden traces, counterexample replay,
seeded chaos, the fast-path differential suite — rests on runs being
bit-for-bit deterministic: a rerun with the same seed must produce the
same bytes, in a fresh process or beside other engines in this one.  So
randomness and time are centralized here:

* **Randomness** comes only from :func:`seeded_rng`: a fresh
  ``random.Random`` with an explicit seed — never the process-global RNG,
  never OS entropy.
* **Time** is the simulator's virtual clock (``network.sim.now``) or the
  packet-step logical clock (``network.packet_steps``); wall-clock reads
  are confined to :func:`wall_clock`, which exists for benchmark harnesses
  and must never feed a trace, result payload, or seed.

Two guards hold this split (DESIGN.md §9): ruff's ``S311`` (pseudo-random
generators) and ``DTZ`` (naive datetimes) flag direct use statically, and
the double-run gate (:mod:`repro.analysis.doublerun`) catches any draw or
clock read that reaches a golden trace or chaos report.
"""

from __future__ import annotations

import random

#: The RNG type handed out by this module (an alias so call sites can
#: annotate without importing :mod:`random` themselves).
Rng = random.Random


def seeded_rng(seed: int) -> Rng:
    """A fresh deterministic RNG stream for *seed*.

    ``None`` is rejected on purpose: ``random.Random(None)`` silently falls
    back to OS entropy, which is exactly the hazard this module exists to
    prevent.
    """
    if seed is None:
        raise ValueError(
            "refusing an unseeded RNG: pass an explicit integer seed "
            "(random.Random(None) would read OS entropy)"
        )
    return random.Random(seed)


class PacketIdAllocator:
    """Sequential id allocation behind an owned object, not a module global.

    Packet ids are bookkeeping, never matched on — but they appear in
    traces, so byte-identical replay needs a resettable, deterministic
    source.  Owning the cursor as instance state (instead of rebinding a
    module-level ``itertools.count``) keeps the mutation inside one object.
    The process shares one instance (:data:`_PACKET_IDS`), so ids are
    global allocation order: two engines in one process draw from the same
    sequence, and a run that must replay byte-identically calls
    :func:`reset_packet_ids` first.
    """

    def __init__(self, start: int = 1) -> None:
        self._next = start

    def allocate(self) -> int:
        """Hand out the next id (sequential from the configured start)."""
        value = self._next
        self._next = value + 1
        return value

    def reset(self, start: int = 1) -> None:
        """Restart the sequence (test/bench support for golden traces)."""
        self._next = start


#: The process-wide allocator instance behind :func:`next_packet_id`.
_PACKET_IDS = PacketIdAllocator()


def next_packet_id() -> int:
    """Allocate the next packet id (the provider seam traces rely on)."""
    return _PACKET_IDS.allocate()


def reset_packet_ids(start: int = 1) -> None:
    """Restart the packet-id sequence at *start*.

    Runs that must produce byte-identical traces (the fast-path
    differential suite, the golden-trace corpus, chaos campaigns) call
    this before each scenario.
    """
    _PACKET_IDS.reset(start)


def wall_clock() -> float:
    """The explicit wall-clock escape hatch (``time.perf_counter``).

    Benchmark harnesses may time real work with this; simulation code,
    services, and anything whose output is traced, asserted, or serialized
    must use the virtual clock instead.
    """
    import time

    return time.perf_counter()
