"""Property tests: epoch gate and attempt ledger under duplication/reorder.

The at-most-once contract has two halves.  The *mechanism* half is the
origin :class:`~repro.core.epoch.EpochGate` (admit only tag 0 or the
current epoch) plus the wrap-aware :class:`~repro.core.epoch.EpochClock`;
the *evidence* half is the supervisor's attempt ledger
(:func:`~repro.control.supervisor.check_epoch_ledger`) and the MC009
completion count.  These properties drive both halves with exactly the
inputs a faulty management network produces — duplicated and reordered
messages — over random seeds.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.modelcheck import INVARIANTS
from repro.control.channel import ChannelFaultConfig, ControlChannel
from repro.control.supervisor import (
    ACCEPTED,
    DEFAULT_RETRY,
    SupervisedRuntime,
    SupervisorConfig,
    check_epoch_ledger,
)
from repro.core.epoch import EPOCH_SPACE, EpochClock, EpochGate
from repro.core.services.snapshot import SnapshotService
from repro.net.simulator import Network
from repro.net.topology import grid, ring

THREE_ATTEMPTS = SupervisorConfig(retry=replace(DEFAULT_RETRY, max_attempts=3))


class TestGateProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        epoch=st.integers(1, EPOCH_SPACE),
        tags=st.lists(st.integers(0, EPOCH_SPACE), max_size=32),
    )
    def test_admission_is_exactly_current_or_unsupervised(self, epoch, tags):
        gate = EpochGate(origin=0, epoch=epoch)
        for tag in tags:
            assert gate.admits(tag) == (tag in (0, epoch))

    @settings(max_examples=50, deadline=None)
    @given(
        epoch=st.integers(1, EPOCH_SPACE),
        tags=st.lists(st.integers(0, EPOCH_SPACE), min_size=1, max_size=16),
        copies=st.integers(2, 4),
    )
    def test_admission_is_duplication_and_order_invariant(
        self, epoch, tags, copies
    ):
        # A gate decision is per-tag: duplicating the stream or reversing
        # it must admit exactly the same multiset of tags.
        gate = EpochGate(origin=0, epoch=epoch)
        stream = tags * copies
        forward = [t for t in stream if gate.admits(t)]
        backward = [t for t in reversed(stream) if gate.admits(t)]
        assert sorted(forward) == sorted(backward)
        assert all(t in (0, epoch) for t in forward)

    @settings(max_examples=50, deadline=None)
    @given(
        start=st.integers(0, EPOCH_SPACE),
        margin=st.integers(1, EPOCH_SPACE - 1),
    )
    def test_resync_always_retires_the_inflight_epoch(self, start, margin):
        # Whatever epoch was mid-flight when the controller died, the
        # post-crash clock never re-allocates it within the margin jump.
        clock = EpochClock(start)
        inflight = clock.advance()
        resynced = clock.resync(margin)
        assert resynced != inflight
        assert 1 <= resynced <= EPOCH_SPACE


class TestLedgerUnderChannelFaults:
    """Real supervised runs through a duplicating/reordering channel."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        dup=st.floats(0.0, 1.0),
        jitter=st.floats(0.0, 20.0),
    )
    def test_snapshot_ledger_stays_clean(self, seed, dup, jitter):
        net = Network(grid(3, 3))
        channel = ControlChannel(
            net,
            faults=ChannelFaultConfig(
                dup_prob=dup, delay=1.0, max_extra_delay=jitter, seed=seed
            ),
        )
        runtime = SupervisedRuntime(
            net, config=THREE_ATTEMPTS, channel=channel
        )
        snap = runtime.snapshot(0)
        assert check_epoch_ledger(snap.supervision) == []
        if not snap.degraded:
            assert snap.nodes == set(range(9))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_duplicated_triggers_never_double_accept(self, seed):
        # dup_prob=1 duplicates *every* control message: two identical
        # epoch-tagged traversals race, and the straggler's completion must
        # be squashed or ignored, never accepted twice.
        net = Network(ring(5))
        channel = ControlChannel(
            net,
            faults=ChannelFaultConfig(
                dup_prob=1.0, delay=1.0, max_extra_delay=5.0, seed=seed
            ),
        )
        runtime = SupervisedRuntime(
            net, config=THREE_ATTEMPTS, channel=channel
        )
        outcomes = [
            runtime.snapshot(0).supervision,
            runtime.critical(2).supervision,
        ]
        for outcome in outcomes:
            assert check_epoch_ledger(outcome) == []
            accepted = [a for a in outcome.attempts if a.outcome == ACCEPTED]
            assert len(accepted) <= 1


class TestCompletionCountProperty:
    """MC009 on synthetic report multisets: flagged iff an epoch repeats."""

    @staticmethod
    def _violations(reports):
        from types import SimpleNamespace

        ctx = SimpleNamespace(service=SnapshotService())
        state = SimpleNamespace(
            reports=tuple(reports), deliveries=()
        )
        return list(INVARIANTS["MC009"].check(ctx, state))

    @settings(max_examples=50, deadline=None)
    @given(
        epochs=st.lists(st.integers(0, EPOCH_SPACE), max_size=12),
    )
    def test_flagged_exactly_when_a_nonzero_epoch_repeats(self, epochs):
        reports = [(n, (("epoch", e),), ()) for n, e in enumerate(epochs)]
        repeated = {
            e for e in epochs if e and epochs.count(e) > 1
        }
        violations = self._violations(reports)
        flagged = {
            int(v.message.split()[1]) for v in violations
        }
        assert flagged == repeated
