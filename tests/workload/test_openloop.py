"""Tests for the open-loop (Poisson) driver and the serving tier."""

import itertools
import math
import random
import tracemalloc

import pytest

from repro.datatypes import counter_spec, courseware_spec, gset_spec
from repro.runtime import HambandCluster
from repro.sim import Environment
from repro.sim.rng import SeedSequence
from repro.workload import (
    ARRIVAL_CURVES,
    OpenLoopConfig,
    SessionTier,
    SloTarget,
    curve_peak,
    curve_rate,
    run_open_loop,
    slo_report,
)
from repro.workload.metrics import LatencySeries
from repro.workload.openloop import build_tier
from repro.workload.serving import arrival_instants


def drive(load, duration=800.0, workload="counter", spec=None, n=3,
          tier=None, **kwargs):
    env = Environment()
    cluster = HambandCluster.build(env, spec or counter_spec(), n_nodes=n)
    config = OpenLoopConfig(
        workload=workload,
        offered_load_ops_per_us=load,
        duration_us=duration,
        **kwargs,
    )
    return env, cluster, run_open_loop(env, cluster, config, tier=tier)


class TestOpenLoop:
    def test_achieved_tracks_offered_below_saturation(self):
        _env, _cluster, result = drive(load=2.0)
        assert result.throughput_ops_per_us == pytest.approx(2.0, rel=0.25)

    def test_cluster_converges_after_run(self):
        _env, cluster, _result = drive(load=3.0)
        assert cluster.converged()

    def test_latency_flat_at_light_load(self):
        _env, _cluster, light = drive(load=0.5)
        _env, _cluster, moderate = drive(load=4.0)
        assert moderate.mean_response_us < 3 * light.mean_response_us

    def test_reproducible_under_seed(self):
        def one():
            _env, _cluster, result = drive(load=2.0, seed=5)
            return (
                result.total_calls,
                result.dropped_arrivals,
                result.latency.mean,
            )

        assert one() == one()

    def test_prologue_workloads_supported(self):
        _env, cluster, result = drive(
            load=1.0,
            workload="courseware",
            spec=courseware_spec(),
            update_ratio=0.4,
        )
        assert cluster.integrity_holds()
        assert cluster.converged()

    def test_outstanding_cap_drops_arrivals(self):
        _env, _cluster, result = drive(
            load=50.0,
            duration=300.0,
            max_outstanding_per_node=1,
        )
        # Overload shedding is admission-side accounting, not a
        # cluster-side rejection: the two counters must not conflate.
        assert result.dropped_arrivals > 0
        assert result.rejected_calls == 0

    def test_drop_accounting_is_exact(self):
        tier = SessionTier(
            n_sessions=1000, n_tenants=4, n_nodes=3,
            max_outstanding_per_tenant=1,
        )
        _env, _cluster, result = drive(
            load=30.0,
            duration=300.0,
            n_sessions=1000,
            n_tenants=4,
            max_outstanding_per_tenant=1,
            tier=tier,
        )
        # Every arrival either completed or was shed; nothing leaks.
        assert tier.admitted_total == result.total_calls
        assert tier.dropped_total == result.dropped_arrivals
        assert tier.admitted_total + tier.dropped_total == sum(
            row.offered for row in tier.tenant_stats()
        )
        assert tier.outstanding_total == 0

    def test_slo_attainment_reported(self):
        _env, _cluster, result = drive(
            load=1.0,
            slo=SloTarget(p99_us=10_000.0, p999_us=50_000.0),
        )
        assert result.slo is not None
        assert result.slo.ok
        assert result.slo.samples == result.total_calls
        assert "ok" in result.slo.summary()


class TestArrivalCurves:
    def test_every_curve_has_unit_mean(self):
        # offered_load is the *time average* for every curve shape.
        for curve in ARRIVAL_CURVES:
            steps = 20000
            mean = math.fsum(
                curve_rate(curve, (i + 0.5) / steps) for i in range(steps)
            ) / steps
            assert mean == pytest.approx(1.0, abs=1e-3), curve

    def test_peak_bounds_the_curve(self):
        for curve in ARRIVAL_CURVES:
            peak = curve_peak(curve)
            assert all(
                curve_rate(curve, i / 1000) <= peak + 1e-12
                for i in range(1000)
            ), curve

    def test_unknown_curve_rejected(self):
        with pytest.raises(ValueError):
            curve_rate("square", 0.5)
        with pytest.raises(ValueError):
            curve_peak("square")

    def test_steady_curve_hits_configured_rate(self):
        _env, _cluster, result = drive(load=2.0, duration=1500.0)
        arrived = result.total_calls + result.dropped_arrivals
        assert arrived / 1500.0 == pytest.approx(2.0, rel=0.15)

    def test_flash_crowd_concentrates_arrivals_in_window(self):
        # Drive with huge per-tenant caps so every arrival is admitted
        # and total_calls reflects the arrival process itself.
        _env, _cluster, flash = drive(
            load=2.0,
            duration=1500.0,
            arrival_curve="flash-crowd",
            max_outstanding_per_node=100_000,
        )
        arrived = flash.total_calls + flash.dropped_arrivals
        # Mean preserved: same offered load as steady, ±20%.
        assert arrived / 1500.0 == pytest.approx(2.0, rel=0.20)

    def test_diurnal_mean_matches_steady(self):
        _env, _cluster, steady = drive(load=3.0, duration=1200.0)
        _env, _cluster, diurnal = drive(
            load=3.0, duration=1200.0, arrival_curve="diurnal"
        )
        steady_n = steady.total_calls + steady.dropped_arrivals
        diurnal_n = diurnal.total_calls + diurnal.dropped_arrivals
        assert diurnal_n == pytest.approx(steady_n, rel=0.2)


def reference_wakeups(env, rng, curve, load, duration, out):
    """The arrival loop before thinned candidates stopped being events:
    one relative timer per candidate, ``Random.expovariate`` gaps and
    :func:`curve_rate` per thinning test.  Records every wakeup that
    survives thinning."""
    peak = curve_peak(curve)
    start = env.now
    deadline = start + duration
    while True:
        yield env.timeout(rng.expovariate(load * peak))
        now = env.now
        if now >= deadline:
            return
        if peak > 1.0:
            phase = (now - start) / duration
            if rng.random() * peak >= curve_rate(curve, phase):
                continue
        out.append(now)


class _RecordingNode:
    """Serves every call after 1 us and records when it was submitted."""

    def __init__(self, env):
        self.env = env
        self.submitted = []

    def submit(self, method, arg=None):
        self.submitted.append(self.env.now)
        return self.env.timeout(1.0)


class _OneNodeCluster:
    def __init__(self, env):
        self.env = env
        self.spec = gset_spec()
        self.only = _RecordingNode(env)

    def node_names(self):
        return ["p0"]

    def node(self, _name):
        return self.only

    def quiesce(self, _target, timeout_us=0.0):
        yield self.env.timeout(0)
        return self.env.now


class _RelativeTimerEnvironment(Environment):
    """Negative control: an absolute timer built from a relative one."""

    __slots__ = ()

    def timeout_at(self, when, value=None):
        return self.timeout(when - self.now, value)


LOAD, DURATION = 3.0, 200.0

#: Every curve, eight seeds, a run from t = 0 and two from small t > 0.
WAKEUP_CASES = list(itertools.product(
    ARRIVAL_CURVES, range(1, 9), (0.0, 0.001, 0.7),
))


def reference_instants(curve, seed, start):
    env = Environment(initial_time=start)
    rng = SeedSequence(seed).spawn("openloop").derive("arrivals")
    out = []
    env.process(reference_wakeups(env, rng, curve, LOAD, DURATION, out))
    env.run()
    return out


def driver_instants(curve, seed, start, environment=Environment):
    """When ``run_open_loop`` submitted each arrival (caps high enough
    that every wakeup is admitted)."""
    env = environment()
    if start:
        env.run(until=start)
    cluster = _OneNodeCluster(env)
    run_open_loop(env, cluster, OpenLoopConfig(
        workload="gset", offered_load_ops_per_us=LOAD, duration_us=DURATION,
        seed=seed, arrival_curve=curve, n_sessions=64,
        max_outstanding_per_node=10**6,
    ))
    return cluster.only.submitted


class TestArrivalInstants:
    """The driver wakes at bitwise the instants of the old
    one-timer-per-candidate loop, which also pins the inlined
    exponential draw to ``Random.expovariate``."""

    def test_wakeups_match_the_reference_bitwise(self):
        for curve, seed, start in WAKEUP_CASES:
            reference = reference_instants(curve, seed, start)
            assert len(reference) > 100
            assert driver_instants(curve, seed, start) == reference, (
                curve, seed, start)

    def test_relative_timers_miss_the_reference(self):
        """``timeout(t - now)`` need not land on ``t``: the check above
        fails for a driver that schedules that way."""
        missed = [
            case for case in WAKEUP_CASES
            if driver_instants(*case, _RelativeTimerEnvironment)
            != reference_instants(*case)
        ]
        assert missed

    def test_last_instant_is_the_first_candidate_past_the_end(self):
        instants = list(arrival_instants(
            random.Random(5).random, "flash-crowd", 2.0, 10.0, 100.0,
        ))
        assert all(t < 110.0 for t in instants[:-1])
        assert instants[-1] >= 110.0
        assert instants == sorted(instants)


class TestSessionTier:
    def test_admission_bounds_outstanding(self):
        tier = SessionTier(
            n_sessions=100, n_tenants=2, n_nodes=3,
            max_outstanding_per_tenant=3,
        )
        admitted = [s for s in range(40) if tier.admit(s)]
        # Tenant t holds sessions s with s % 2 == t; each bounded at 3.
        assert len(admitted) == 6
        assert max(tier.outstanding) == 3
        assert tier.dropped_total == 40 - 6
        for session in admitted:
            tier.complete(session)
        assert tier.outstanding_total == 0
        assert tier.admit(0)

    def test_global_cap_overrides_tenant_budget(self):
        tier = SessionTier(
            n_sessions=100, n_tenants=10, n_nodes=1,
            max_outstanding_per_tenant=100,
            max_outstanding_total=5,
        )
        admitted = sum(tier.admit(s) for s in range(50))
        assert admitted == 5
        assert tier.dropped_total == 45

    def test_per_tenant_stats_rows(self):
        tier = SessionTier(
            n_sessions=10, n_tenants=3, n_nodes=2,
            max_outstanding_per_tenant=1,
        )
        for s in (0, 1, 2, 3):  # tenants 0,1,2,0 — last one shed
            tier.admit(s)
        rows = tier.tenant_stats()
        assert [row.sessions for row in rows] == [4, 3, 3]
        assert [row.admitted for row in rows] == [1, 1, 1]
        assert [row.dropped for row in rows] == [1, 0, 0]
        assert rows[0].shed_fraction == pytest.approx(0.5)
        assert tier.stats()["active_sessions"] == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionTier(0, 1, 1, 1)
        with pytest.raises(ValueError):
            SessionTier(4, 8, 1, 1)

    def test_build_tier_preserves_legacy_budget(self):
        config = OpenLoopConfig(
            workload="counter", max_outstanding_per_node=64
        )
        tier = build_tier(config, n_nodes=3)
        assert tier.max_outstanding_per_tenant == 64 * 3
        assert tier.max_outstanding_total == 64 * 3

    def test_tier_node_mismatch_rejected(self):
        tier = SessionTier(10, 1, 5, 4)
        with pytest.raises(ValueError):
            drive(load=0.5, duration=100.0, n=3, tier=tier)

    def test_100k_sessions_within_memory_budget(self):
        # Sessions are array rows, not objects: 100k sessions must fit
        # in single-digit MB and the run must stay allocation-bounded.
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        tier = SessionTier(
            n_sessions=100_000, n_tenants=16, n_nodes=3,
            max_outstanding_per_tenant=32,
        )
        after, _ = tracemalloc.get_traced_memory()
        assert after - before < 2_000_000  # ~0.4MB slab + slack
        _env, _cluster, result = drive(
            load=10.0,
            duration=400.0,
            n_sessions=100_000,
            n_tenants=16,
            max_outstanding_per_tenant=32,
            tier=tier,
        )
        _, run_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert result.total_calls > 1000
        assert tier.active_sessions > 1000
        assert run_peak < 60_000_000  # the whole driven run, bounded


class TestSloMath:
    def series(self, values):
        return LatencySeries(samples=list(values))

    def test_attainment_on_synthetic_series(self):
        # 1..1000µs uniform: 990 of 1000 samples are <= 990µs.
        latency = self.series(float(v) for v in range(1, 1001))
        report = slo_report(latency, SloTarget(p99_us=990.0))
        assert report.attainment["p99"] == pytest.approx(0.990)
        assert report.attained["p99"]
        assert report.achieved["p99"] == 990.0
        assert report.ok

    def test_miss_detected(self):
        latency = self.series(float(v) for v in range(1, 1001))
        report = slo_report(latency, SloTarget(p99_us=900.0))
        assert report.attainment["p99"] == pytest.approx(0.900)
        assert not report.attained["p99"]
        assert not report.ok
        assert "MISS" in report.summary()

    def test_boundary_sample_counts_as_within(self):
        latency = self.series([1.0, 2.0, 3.0, 4.0])
        report = slo_report(latency, SloTarget(p50_us=2.0))
        assert report.attainment["p50"] == pytest.approx(0.5)
        assert report.attained["p50"]

    def test_p999_needs_the_tail(self):
        samples = [1.0] * 999 + [1000.0]
        report = slo_report(
            self.series(samples), SloTarget(p999_us=500.0)
        )
        assert report.attainment["p999"] == pytest.approx(0.999)
        assert report.attained["p999"]
        report = slo_report(
            self.series(samples + [1000.0]), SloTarget(p999_us=500.0)
        )
        assert not report.attained["p999"]

    def test_empty_series_trivially_attains(self):
        report = slo_report(self.series([]), SloTarget(p99_us=1.0))
        assert report.ok
        assert report.samples == 0

    def test_undeclared_targets_ignored(self):
        report = slo_report(self.series([5.0]), SloTarget())
        assert report.ok
        assert report.summary() == "slo: no declared targets"
        assert SloTarget(p99_us=7.0).declared() == {"p99": 7.0}
