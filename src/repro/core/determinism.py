"""The one place this codebase is allowed to touch randomness or clocks.

Every pillar of the reproduction — golden traces, counterexample replay,
seeded chaos, the fast-path differential suite — rests on runs being
bit-for-bit deterministic: a rerun with the same seed must produce the
same bytes, in a fresh process or beside other engines in this one.  So
randomness, time and packet ids are centralized here:

* **Randomness** comes only from :func:`seeded_rng`: a fresh
  ``random.Random`` with an explicit seed — never the process-global RNG,
  never OS entropy.
* **Time** is the simulator's virtual clock (``network.sim.now``) or the
  packet-step logical clock (``network.packet_steps``); wall-clock reads
  are confined to :func:`wall_clock`, which exists for benchmark harnesses
  and must never feed a trace, result payload, or seed.
* **Packet ids** come from a :class:`PacketIdAllocator` that each network
  owns, never from process state, so a run's ids do not depend on what
  ran before it in the process.

Two guards hold this split (DESIGN.md §9): ruff's ``S311`` (pseudo-random
generators) and ``DTZ`` (naive datetimes) flag direct use statically, and
the double-run gate (:mod:`repro.analysis.doublerun`) catches any draw or
clock read that reaches a golden trace or chaos report, and, by running
its matrix in reverse order in the second process, any state one run
leaks into the next.
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
    """Sequential packet ids for one network, starting at 1.

    Packet ids are bookkeeping, never matched on, but they appear in
    traces, so byte-identical replay needs a deterministic source.  Each
    :class:`~repro.net.simulator.Network` owns one (``network.ids``, beside
    ``network.rng``), and every clone draws from its root packet's
    allocator, so a run's ids depend on that run alone: two networks in
    one process, their runs interleaved in any order, each trace the ids
    they would alone.
    """

    def __init__(self) -> None:
        self._next = 1

    def allocate(self) -> int:
        """Hand out the next id."""
        value = self._next
        self._next = value + 1
        return value


class NullIds:
    """The id source of a packet built without a network: always 0.

    Stateless, so the one shared instance (:data:`NULL_IDS`) carries
    no state between runs.
    """

    def allocate(self) -> int:
        return 0


NULL_IDS = NullIds()


def wall_clock() -> float:
    """The explicit wall-clock escape hatch (``time.perf_counter``).

    Benchmark harnesses may time real work with this; simulation code,
    services, and anything whose output is traced, asserted, or serialized
    must use the virtual clock instead.
    """
    import time

    return time.perf_counter()
