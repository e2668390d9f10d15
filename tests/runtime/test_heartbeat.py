"""Unit tests for heartbeats and the remote-read failure detector."""

import pytest

from repro.rdma import Fabric
from repro.runtime.heartbeat import (
    FD_POLL_US,
    FailureDetector,
    Heartbeat,
    PeerHealth,
    PhiAccrual,
)
from repro.sim import Environment


def build(n=3, suspect_after=3):
    env = Environment()
    fabric = Fabric.build(env, n)
    heartbeats = {
        name: Heartbeat(fabric.nodes[name]) for name in fabric.node_names()
    }
    suspicions = []
    detectors = {
        name: FailureDetector(
            fabric.nodes[name],
            fabric.node_names(),
            PeerHealth(),
            suspect_after=suspect_after,
            on_suspect=lambda peer, me=name: suspicions.append((me, peer)),
        )
        for name in fabric.node_names()
    }
    return env, fabric, heartbeats, detectors, suspicions


class TestHealthy:
    def test_no_suspicion_under_normal_operation(self):
        env, _fabric, _hbs, detectors, suspicions = build()
        env.run(until=2000)
        assert suspicions == []
        assert all(not d.suspected for d in detectors.values())

    def test_heartbeat_counter_advances(self):
        env, fabric, hbs, _detectors, _s = build()
        env.run(until=500)
        assert hbs["p1"].region.read_u64(0) >= 20


class TestSuspension:
    def test_suspended_node_gets_suspected_by_all_peers(self):
        env, _fabric, hbs, detectors, suspicions = build()
        env.run(until=300)
        hbs["p2"].suspend()
        env.run(until=1500)
        assert detectors["p1"].is_suspected("p2")
        assert detectors["p3"].is_suspected("p2")
        assert not detectors["p1"].is_suspected("p3")
        assert ("p1", "p2") in suspicions

    def test_resume_clears_suspicion(self):
        env, _fabric, hbs, detectors, _s = build()
        hbs["p2"].suspend()
        env.run(until=1500)
        assert detectors["p1"].is_suspected("p2")
        hbs["p2"].resume()
        env.run(until=3000)
        assert not detectors["p1"].is_suspected("p2")

    def test_suspicion_needs_consecutive_stale_polls(self):
        env, _fabric, hbs, detectors, _s = build(suspect_after=5)
        hbs["p2"].suspend()
        env.run(until=250)  # only 4 polls at 60us: below the threshold
        assert not detectors["p1"].is_suspected("p2")
        env.run(until=2000)
        assert detectors["p1"].is_suspected("p2")


class TestCrash:
    def test_crashed_node_suspected_via_failed_reads(self):
        env, fabric, _hbs, detectors, _s = build()
        env.run(until=200)
        fabric.nodes["p3"].crash()
        env.run(until=1500)
        assert detectors["p1"].is_suspected("p3")
        assert detectors["p2"].is_suspected("p3")

    def test_crashed_node_stops_detecting(self):
        env, fabric, hbs, detectors, _s = build()
        fabric.nodes["p1"].crash()
        hbs["p2"].suspend()
        env.run(until=2000)
        # The dead detector never polled, so it suspects no one.
        assert not detectors["p1"].suspected


# -- phi-accrual suspicion ---------------------------------------------


class TestPhiAccrual:
    def _warmed(self, interval=20.0, n=8):
        from repro.runtime.heartbeat import PhiAccrual

        phi = PhiAccrual()
        for i in range(n):
            phi.arrival("p2", i * interval)
        return phi, (n - 1) * interval

    def test_unwarmed_model_returns_none(self):
        from repro.runtime.heartbeat import PhiAccrual

        phi = PhiAccrual()
        assert phi.phi("p2", 100.0) is None
        phi.arrival("p2", 0.0)
        phi.arrival("p2", 20.0)  # one interval: still below MIN_SAMPLES
        assert phi.phi("p2", 100.0) is None

    def test_on_time_arrival_accrues_little_suspicion(self):
        phi, last = self._warmed()
        assert phi.phi("p2", last + 20.0) < 2.0

    def test_long_silence_accrues_past_any_threshold(self):
        phi, last = self._warmed()
        assert phi.phi("p2", last + 500.0) > 16.0

    def test_suspicion_grows_monotonically_with_silence(self):
        phi, last = self._warmed()
        levels = [phi.phi("p2", last + gap) for gap in (20, 60, 120, 240)]
        assert levels == sorted(levels)

    def test_irregular_but_alive_stream_stays_calm(self):
        """A jittery heartbeat inflates the learned deviation, so a gap
        that would damn a metronome peer barely registers."""
        from repro.runtime.heartbeat import PhiAccrual

        phi = PhiAccrual()
        now = 0.0
        for i, gap in enumerate((10.0, 60.0, 15.0, 70.0, 12.0, 55.0)):
            now += gap
            phi.arrival("p2", now)
        assert phi.phi("p2", now + 80.0) < 8.0

    def test_forget_resets_the_model(self):
        phi, last = self._warmed()
        phi.forget("p2")
        assert phi.phi("p2", last + 500.0) is None


# -- peer-health (fail-slow) classification ----------------------------


class TestPeerHealth:
    def _health(self, **kwargs):
        events = []
        health = PeerHealth(
            on_degraded=lambda p: events.append(("degraded", p)),
            on_recovered=lambda p: events.append(("recovered", p)),
            **kwargs,
        )
        return health, events

    def _warm(self, health, peers=("p2", "p3", "p4"), latency=1.0, n=8):
        for _ in range(n):
            for peer in peers:
                health.record(peer, latency)

    def test_slow_outlier_peer_is_degraded(self):
        health, events = self._health()
        self._warm(health)
        for _ in range(6):
            health.record("p2", 10.0)
        assert health.is_degraded("p2")
        assert not health.is_degraded("p3")
        assert ("degraded", "p2") in events

    def test_no_degradation_below_min_samples(self):
        health, events = self._health()
        for _ in range(3):
            health.record("p2", 1.0)
        health.record("p2", 50.0)
        assert not health.is_degraded("p2")
        assert events == []

    def test_uniform_inflation_is_not_degradation(self):
        """A local load spike slows observations toward EVERY peer at
        once; the relative-outlier gate must hold fire."""
        health, events = self._health()
        self._warm(health)
        for _ in range(6):
            for peer in ("p2", "p3", "p4"):
                health.record(peer, 10.0)
        assert not health.degraded
        assert events == []

    def test_latency_recovery_clears_and_fires_callback(self):
        health, events = self._health()
        self._warm(health)
        for _ in range(6):
            health.record("p2", 10.0)
        assert health.is_degraded("p2")
        for _ in range(30):
            health.record("p2", 1.0)
        assert not health.is_degraded("p2")
        assert ("recovered", "p2") in events

    def test_rank_orders_by_ewma_best_first(self):
        health, _events = self._health()
        health.record("p2", 5.0)
        health.record("p3", 1.0)
        assert health.rank(["p2", "p3", "p9"]) == ["p3", "p2", "p9"]

    def test_forget_drops_all_books(self):
        health, _events = self._health()
        self._warm(health)
        for _ in range(6):
            health.record("p2", 10.0)
        health.forget("p2")
        assert not health.is_degraded("p2")
        assert health.ewma_us("p2") is None


# -- the one detector: phi suspicion, stale-count fallback, degraded pins


class TestDetectionLatency:
    """Suspicion delay after p1's heartbeat stops (hb 20us, poll 60us)."""

    def _delays(self, suspend_at):
        env, _fabric, hbs, detectors, _s = build()
        suspected_at = {}
        for name, detector in detectors.items():
            detector.on_suspect = (
                lambda peer, me=name: suspected_at.setdefault(me, env.now)
            )
        env.run(until=suspend_at)
        hbs["p1"].suspend()
        env.run(until=suspend_at + 2000)
        assert set(suspected_at) == {"p2", "p3"}
        return [t - suspend_at for t in suspected_at.values()]

    def test_warmed_model_suspects_a_poll_before_the_stale_count(
        self, monkeypatch
    ):
        warmed = self._delays(suspend_at=1000)
        monkeypatch.setattr(PhiAccrual, "MIN_SAMPLES", 10**9)
        counted = self._delays(suspend_at=1000)
        assert warmed == pytest.approx([188.2, 188.2], abs=1.0)
        assert counted == pytest.approx([250.8, 250.8], abs=1.0)
        assert all(c - w >= FD_POLL_US for w, c in zip(warmed, counted))

    def test_cold_model_falls_back_to_suspect_after(self):
        """Suspended before three arrivals were seen: the stale-poll
        count against ``suspect_after`` still decides."""
        assert self._delays(suspend_at=100) == pytest.approx(
            [211.7, 211.7], abs=1.0
        )


class TestPhiDetectorMode:
    def test_healthy_cluster_stays_unsuspected(self):
        env, _fabric, _hbs, detectors, _s = build()
        env.run(until=2000)
        assert all(not d.suspected for d in detectors.values())

    def test_suspended_node_suspected_via_phi(self):
        env, _fabric, hbs, detectors, _s = build()
        env.run(until=1000)  # warm the per-peer interval models
        hbs["p2"].suspend()
        env.run(until=3000)
        assert detectors["p1"].is_suspected("p2")
        assert detectors["p3"].is_suspected("p2")

    def test_degraded_pin_survives_advancing_counter(self):
        """The fail-slow case: the victim's heartbeat keeps advancing,
        so only the pin (not counter staleness) carries suspicion."""
        env, _fabric, _hbs, detectors, _s = build()
        env.run(until=500)
        detectors["p1"].mark_degraded("p2")
        assert detectors["p1"].is_suspected("p2")
        env.run(until=3000)  # plenty of healthy heartbeats from p2
        assert detectors["p1"].is_suspected("p2")
        assert detectors["p1"].is_degraded("p2")

    def test_clear_degraded_lets_the_counter_unsuspect(self):
        env, _fabric, _hbs, detectors, _s = build()
        env.run(until=500)
        detectors["p1"].mark_degraded("p2")
        detectors["p1"].clear_degraded("p2")
        env.run(until=3000)
        assert not detectors["p1"].is_suspected("p2")

    def test_mark_degraded_fires_on_suspect_once(self):
        _env, fabric, _hbs, _detectors, _s = build()
        fired = []
        detector = FailureDetector(
            fabric.nodes["p1"], fabric.node_names(), PeerHealth(),
            on_suspect=fired.append,
        )
        detector.mark_degraded("p2")
        detector.mark_degraded("p2")
        assert fired == ["p2"]
