"""Traversal supervision: watchdogs, epoch retries, graceful degradation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.control.channel import ControlChannel
from repro.control.retry import RetryPolicy
from repro.control.supervisor import (
    DEFAULT_RETRY,
    ACCEPTED,
    DEGRADED_REPORT,
    PACKET_OUT_LOST,
    PROBE_INCOMPLETE,
    UNCONFIRMED,
    EpochAttempt,
    SupervisedOutcome,
    SupervisedRuntime,
    SupervisorConfig,
    TraversalSupervisor,
    check_epoch_ledger,
)
from repro.core.engine import make_engine
from repro.core.fields import FIELD_REPEAT
from repro.core.services.blackhole import (
    BH_INCOMPLETE,
    FIELD_BH,
    REPEAT_VERIFY,
    BlackholeService,
)
from repro.core.services.snapshot import SnapshotService
from repro.net.failures import fail_edge_after_steps
from repro.net.simulator import Network
from repro.net.topology import complete, ring, torus
from repro.net.trace import EventKind


def attempts(count: int) -> SupervisorConfig:
    """The default supervisor policy with a *count*-attempt budget."""
    return SupervisorConfig(retry=replace(DEFAULT_RETRY, max_attempts=count))


class TestSupervisorConfig:
    def test_defaults_valid(self):
        SupervisorConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retry": RetryPolicy(max_attempts=0)},
            {"safety_factor": 0.5},
            {"retry": RetryPolicy(base_backoff=-1.0)},
            {"retry": RetryPolicy(backoff_factor=0.9)},
            {"retry": RetryPolicy(jitter=1.5)},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorConfig(**kwargs).validate()


class TestCleanSupervision:
    def test_snapshot_first_attempt_accepted(self):
        net = Network(torus(3, 3))
        runtime = SupervisedRuntime(net)
        snap = runtime.snapshot(0)
        assert snap.ok and not snap.degraded
        assert snap.links == net.live_port_pairs()
        outcome = snap.supervision
        assert outcome.attempts_used == 1
        assert outcome.epochs == [1]
        assert outcome.attempts[0].outcome == ACCEPTED
        assert check_epoch_ledger(outcome) == []

    def test_epochs_shared_across_services(self):
        net = Network(ring(5))
        runtime = SupervisedRuntime(net)
        first = runtime.snapshot(0).supervision.epochs
        second = runtime.critical(1).supervision.epochs
        assert first == [1]
        assert second == [2]  # one clock, no epoch reuse across calls

    def test_anycast_delivery_accepted(self):
        net = Network(ring(6))
        runtime = SupervisedRuntime(net)
        delivery = runtime.anycast(0, 1, {1: {3}})
        assert not delivery.degraded and not delivery.fallback
        assert delivery.delivered_at == 3


class TestRetryPath:
    def test_mid_traversal_failure_retried_and_recovered(self):
        # Fail the DFS tree edge *behind* the packet (it has already
        # descended across it): attempt 1's parent return dies, the
        # failure then becomes visible, and the retry routes around it.
        net = Network(ring(4))
        fail_edge_after_steps(net, 2, 3)
        runtime = SupervisedRuntime(net)
        snap = runtime.snapshot(0)
        assert snap.ok
        assert snap.links == net.live_port_pairs()
        outcome = snap.supervision
        assert outcome.attempts_used >= 2
        assert outcome.attempts[-1].outcome == ACCEPTED
        assert all(a.outcome != ACCEPTED for a in outcome.attempts[:-1])
        assert check_epoch_ledger(outcome) == []

    def test_backoff_grows_and_jitter_is_seeded(self):
        net_a = Network(ring(4), seed=9)
        net_b = Network(ring(4), seed=9)
        sup_a = TraversalSupervisor(net_a, SnapshotService())
        sup_b = TraversalSupervisor(net_b, SnapshotService())
        policy_a, policy_b = sup_a.config.retry, sup_b.config.retry
        delays_a = [policy_a.backoff(i, net_a.rng) for i in range(4)]
        delays_b = [policy_b.backoff(i, net_b.rng) for i in range(4)]
        assert delays_a == delays_b  # same network seed, same jitter
        bare = [policy_a.base_backoff * policy_a.backoff_factor**i
                for i in range(4)]
        for drawn, base in zip(delays_a, bare):
            assert base <= drawn <= base * (1 + policy_a.jitter)


class TestDegradation:
    def test_snapshot_degrades_under_persistent_blackhole(self):
        # A silent drop-all blackhole adjacent to the root kills every
        # attempt on a ring (no alternate path for the sweep's first hop).
        net = Network(ring(5))
        net.links[0].set_blackhole()
        config = attempts(2)
        runtime = SupervisedRuntime(net, config=config)
        snap = runtime.snapshot(0)
        assert snap.degraded and not snap.ok
        assert snap.links == set()  # never a lie: no invented links
        assert 0 in snap.nodes
        assert snap.nodes <= set(net.topology.nodes())
        outcome = snap.supervision
        assert outcome.attempts_used == 2
        assert outcome.attempts[-1].outcome == DEGRADED_REPORT
        assert outcome.reason == "retries-exhausted"
        assert check_epoch_ledger(outcome) == []

    def test_critical_degrades_to_explicit_unknown(self):
        net = Network(ring(5))
        net.links[0].set_blackhole()
        net.links[4].set_blackhole()
        runtime = SupervisedRuntime(net, config=attempts(2))
        verdict = runtime.critical(0)
        assert verdict.degraded
        assert verdict.critical is None

    def test_anycast_falls_back_to_confirmed_member(self):
        net = Network(ring(6))
        runtime = SupervisedRuntime(net, config=attempts(2))
        first = runtime.anycast(0, 1, {1: {3}})
        assert first.delivered_at == 3
        # Now every path out of the origin silently drops: no fresh
        # delivery is possible, but member 3 was confirmed earlier.
        for link in net.links:
            link.set_blackhole()
        second = runtime.anycast(0, 1, {1: {3}})
        assert second.degraded and second.fallback
        assert second.delivered_at == 3

    def test_anycast_without_history_degrades_to_none(self):
        net = Network(ring(6))
        for link in net.links:
            link.set_blackhole()
        runtime = SupervisedRuntime(net, config=attempts(2))
        delivery = runtime.anycast(0, 1, {1: {3}})
        assert delivery.degraded and not delivery.fallback
        assert delivery.delivered_at is None


class TestControllerDisconnection:
    def test_all_packet_outs_lost_reports_disconnection(self):
        net = Network(ring(5))
        channel = ControlChannel(net)
        channel.disconnect(0)
        runtime = SupervisedRuntime(
            net, config=attempts(3), channel=channel
        )
        snap = runtime.snapshot(0)
        assert snap.degraded
        outcome = snap.supervision
        assert outcome.reason == "controller-disconnected"
        assert outcome.attempts[-1].outcome == DEGRADED_REPORT
        assert all(
            a.outcome in (PACKET_OUT_LOST, DEGRADED_REPORT)
            for a in outcome.attempts
        )
        assert channel.packet_outs_lost == 3
        assert check_epoch_ledger(outcome) == []

    def test_reconnect_mid_call_recovers(self):
        net = Network(ring(5))
        channel = ControlChannel(net)
        channel.disconnect(0)
        # Reconnect while the supervisor is backing off after attempt 1.
        net.sim.at(20.0, lambda: channel.reconnect(0))
        runtime = SupervisedRuntime(
            net, config=attempts(4), channel=channel
        )
        snap = runtime.snapshot(0)
        assert snap.ok
        assert snap.supervision.attempts[0].outcome == PACKET_OUT_LOST
        assert snap.supervision.attempts[-1].outcome == ACCEPTED

    def test_blackhole_detection_reports_disconnection(self):
        net = Network(ring(5))
        channel = ControlChannel(net)
        channel.disconnect(0)
        runtime = SupervisedRuntime(
            net, config=attempts(2), channel=channel
        )
        result = runtime.detect_blackhole(0)
        assert result.degraded
        assert result.supervision.reason == "controller-disconnected"

    def test_verify_packet_out_lost_after_the_probe_went_out(self):
        # The origin loses its controller while the probe runs: the probe
        # was injected, the verify packet-out is lost.  The ledger names
        # the probe alone, and the call still degrades honestly.
        net = Network(ring(5))
        channel = ControlChannel(net)
        net.at_packet_step(1, lambda: channel.disconnect(0))
        runtime = SupervisedRuntime(
            net, config=attempts(2), channel=channel
        )
        result = runtime.detect_blackhole(0)
        first = result.supervision.attempts[0]
        probe_ids = [e.packet_id for e in net.trace.events(EventKind.PACKET_OUT)]
        assert first.outcome == PACKET_OUT_LOST
        assert first.packet_ids == tuple(probe_ids) and len(probe_ids) == 1
        assert result.degraded and result.verdict is None
        assert result.supervision.reason == "controller-disconnected"
        assert result.suspects
        assert check_epoch_ledger(result.supervision) == []


class TestSupervisedBlackhole:
    def test_symmetric_blackhole_confirmed_across_epochs(self):
        net = Network(complete(5))
        net.links[3].set_blackhole()
        runtime = SupervisedRuntime(net, config=attempts(4))
        result = runtime.detect_blackhole(0)
        assert not result.degraded
        verdict = result.verdict
        assert verdict is not None and verdict.found
        node, port = verdict.location
        edge = net.topology.port_edge(node, port)
        assert edge is not None and edge.edge_id == 3
        # Cross-epoch confirmation: one UNCONFIRMED sighting, then accept.
        outcomes = [a.outcome for a in result.supervision.attempts]
        assert outcomes == [UNCONFIRMED, ACCEPTED]
        assert check_epoch_ledger(result.supervision) == []

    def test_clean_network_accepted_first_attempt(self):
        net = Network(torus(3, 3))
        runtime = SupervisedRuntime(net)
        result = runtime.detect_blackhole(0)
        assert not result.degraded
        assert result.verdict is not None and not result.verdict.found
        assert result.supervision.attempts_used == 1

    def test_verify_without_probe_halts_incomplete(self):
        # A verify walk over virgin counters proves the probe never ran:
        # the very first send fetches 0, halts, and reports BH_INCOMPLETE
        # instead of wandering off and fabricating count-1 signatures.
        net = Network(ring(4))
        engine = make_engine(net, BlackholeService(), "interpreted")
        result = engine.trigger(0, fields={FIELD_REPEAT: REPEAT_VERIFY})
        kinds = [pkt.get(FIELD_BH) for _node, pkt in result.reports]
        assert kinds == [BH_INCOMPLETE]
        assert result.reports[0][0] == 0  # halted right at the root

    def test_incomplete_epoch_fails_fast(self):
        # Heavy loss next to the root: some attempts die without a count-1
        # signature and must resolve as probe-incomplete (in-band), not
        # hang until the watchdog; the call still ends honestly.
        net = Network(ring(5), seed=11)
        net.links[0].set_loss(0.45)
        net.links[1].set_loss(0.45)
        runtime = SupervisedRuntime(net, config=attempts(6))
        result = runtime.detect_blackhole(0)
        assert check_epoch_ledger(result.supervision) == []
        if not result.degraded:
            # Accepted verdicts under pure loss must never name a clean
            # link: every flagged edge really dropped something.
            verdict = result.verdict
            if verdict is not None and verdict.found:
                node, port = verdict.location
                edge = net.topology.port_edge(node, port)
                link = net.links[edge.edge_id]
                assert any(link.dropped.values())


class TestEpochLedger:
    def _outcome(self, attempts, ok=False, degraded=True,
                 reason="retries-exhausted"):
        return SupervisedOutcome(
            service="snapshot", root=0, ok=ok, degraded=degraded,
            reason=reason, attempts=attempts,
        )

    def test_double_accept_flagged(self):
        attempts = [
            EpochAttempt(epoch=1, injected_at=0.0, deadline=1.0, outcome=ACCEPTED),
            EpochAttempt(epoch=2, injected_at=1.0, deadline=1.0, outcome=ACCEPTED),
        ]
        problems = check_epoch_ledger(
            self._outcome(attempts, ok=True, degraded=False, reason="completed")
        )
        assert any("at-most-once" in p for p in problems)

    def test_unknown_outcome_flagged(self):
        attempts = [
            EpochAttempt(epoch=1, injected_at=0.0, deadline=1.0, outcome="???"),
        ]
        assert check_epoch_ledger(self._outcome(attempts))

    def test_neither_result_nor_degraded_flagged(self):
        outcome = self._outcome([], ok=False, degraded=False)
        assert check_epoch_ledger(outcome)

    def test_probe_incomplete_is_a_valid_outcome(self):
        attempts = [
            EpochAttempt(
                epoch=1, injected_at=0.0, deadline=1.0, outcome=PROBE_INCOMPLETE
            ),
            EpochAttempt(
                epoch=2, injected_at=1.0, deadline=1.0, outcome=DEGRADED_REPORT
            ),
        ]
        assert check_epoch_ledger(self._outcome(attempts)) == []


class TestStaleSquashing:
    def test_straggler_from_old_epoch_cannot_report(self):
        # Slow the far side of the ring so attempt 1's packet is still in
        # flight when the watchdog fires; the retry must squash it at the
        # origin rather than accept a stale report.
        net = Network(ring(6))
        for link in net.links:
            link.delay = 30.0
        config = SupervisorConfig(
            retry=replace(DEFAULT_RETRY, max_attempts=3, base_backoff=1.0),
            safety_factor=1.0,
        )
        supervisor = TraversalSupervisor(net, SnapshotService(), config=config)
        # Shrink the deadline below the real traversal time.
        supervisor._deadline = lambda: 100.0
        outcome = supervisor.supervise(0)
        assert check_epoch_ledger(outcome) == []
        assert outcome.stale_squashed >= 1
