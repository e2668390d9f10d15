"""Open-loop driving: Poisson arrivals at a configured offered load.

The paper's harness is closed-loop (each client issues the next call
when the previous returns), which measures *capacity*.  Open-loop
driving decouples arrivals from completions, exposing the
latency-vs-load curve and the saturation knee — the methodology of the
Odyssey line of work the paper cites.  `benchmarks/test_saturation.py`
uses it as an extension experiment.

This module is the serving tier's driver.  Arrivals come from a
session population (:class:`~repro.workload.serving.SessionTier` —
array-backed, so hundreds of thousands of sessions are cheap), shaped
by an arrival-rate curve (steady, diurnal, burst, flash-crowd) via
Lewis thinning of a peak-rate Poisson process.  Admission control
sheds arrivals past per-tenant (and optionally global) outstanding
bounds, accounted separately from cluster-side rejections; an optional
:class:`~repro.workload.metrics.SloTarget` folds p50/p99/p999
attainment into the returned :class:`RunResult`.

Determinism: every stochastic choice draws from a named
:class:`~repro.sim.SeedSequence` substream (the ``sim/faults.py``
idiom), so the same seed produces a byte-identical trace JSONL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..runtime.errors import ImpermissibleError, SubmitError
from ..sim import Environment
from ..sim.rng import SeedSequence
from .driver import _leader_bound_methods, _submit_with_redirect
from .generators import make_generator, setup_calls
from .metrics import LatencySeries, RunResult, SloTarget, slo_report
from .serving import SessionTier, curve_peak, curve_rate

__all__ = ["OpenLoopConfig", "run_open_loop"]


@dataclass
class OpenLoopConfig:
    workload: str
    #: Aggregate offered load across the cluster, in calls per µs
    #: (the *time average*; curves modulate the instantaneous rate).
    offered_load_ops_per_us: float = 1.0
    duration_us: float = 2000.0
    update_ratio: float = 0.25
    seed: int = 1
    system_label: str = "hamband"
    #: Drop arrivals when ``n_nodes * this`` requests are in flight
    #: cluster-wide.  Kept for the saturation benchmarks; per-tenant
    #: caps below are the serving tier's finer-grained control.
    max_outstanding_per_node: int = 64
    quiesce_timeout_us: float = 5_000_000.0
    # -- serving tier -------------------------------------------------
    #: Simulated client sessions (array rows, not processes — six- or
    #: seven-figure counts are fine).  0 defaults to 64 per node.
    n_sessions: int = 0
    #: Session groups sharing an admission budget.
    n_tenants: int = 1
    #: One of :data:`~repro.workload.serving.ARRIVAL_CURVES`.
    arrival_curve: str = "steady"
    #: Outstanding bound per tenant; 0 derives it by splitting the
    #: cluster-wide ``n_nodes * max_outstanding_per_node`` budget
    #: evenly across tenants (so legacy configs keep their semantics).
    max_outstanding_per_tenant: int = 0
    #: Declared response-time target; None skips SLO reporting.
    slo: Optional[SloTarget] = None


@dataclass
class _OpenState:
    total_calls: int = 0
    succeeded_updates: int = 0
    base_updates: int = 0
    rejected: int = 0


def build_tier(config: OpenLoopConfig, n_nodes: int) -> SessionTier:
    """The session tier a config implies for an ``n_nodes`` cluster."""
    n_sessions = config.n_sessions or 64 * n_nodes
    per_tenant = config.max_outstanding_per_tenant
    if per_tenant <= 0:
        budget = config.max_outstanding_per_node * n_nodes
        per_tenant = max(1, budget // config.n_tenants)
    return SessionTier(
        n_sessions=n_sessions,
        n_tenants=config.n_tenants,
        n_nodes=n_nodes,
        max_outstanding_per_tenant=per_tenant,
        max_outstanding_total=config.max_outstanding_per_node * n_nodes,
    )


def run_open_loop(env: Environment, cluster: Any, config: OpenLoopConfig,
                  tier: Optional[SessionTier] = None) -> RunResult:
    """Drive curve-shaped Poisson arrivals from a session population.

    Returns the usual :class:`RunResult` with ``dropped_arrivals``
    (admission shedding) reported separately from ``rejected_calls``
    (cluster-side refusals), and an :class:`SloReport` when the config
    declares a target.  Pass ``tier`` to keep a reference to the
    per-tenant accounting; otherwise one is built from the config.
    """
    names = cluster.node_names()
    coordination = getattr(cluster, "coordination", None)
    if tier is None:
        tier = build_tier(config, len(names))
    elif tier.n_nodes != len(names):
        raise ValueError(
            f"tier routes over {tier.n_nodes} nodes but the cluster "
            f"has {len(names)}"
        )
    state = _OpenState()
    latency = LatencySeries()
    per_method: dict[str, LatencySeries] = {}

    prologue = setup_calls(config.workload)
    if prologue:
        done = env.process(
            _prologue(env, cluster, names, prologue, state)
        )
        env.run(until=done)
        if not done.ok:
            raise done.value

    start = env.now
    arrivals = env.process(
        _arrival_process(
            env, cluster, coordination, names, config, tier, state,
            latency, per_method,
        ),
        name="openloop:arrivals",
    )
    env.run(until=arrivals)
    if not arrivals.ok:
        raise arrivals.value
    # Drain in-flight requests before quiescing.
    while tier.outstanding_total > 0:
        env.run(until=env.now + 10.0)
    target = state.base_updates + state.succeeded_updates
    quiesce = env.process(
        cluster.quiesce(target, timeout_us=config.quiesce_timeout_us)
    )
    replicated_at = env.run(until=quiesce)
    return RunResult(
        system=config.system_label,
        workload=config.workload,
        n_nodes=len(names),
        total_calls=state.total_calls,
        update_calls=state.succeeded_updates,
        rejected_calls=state.rejected,
        start_us=start,
        replicated_us=replicated_at,
        latency=latency,
        per_method=per_method,
        dropped_arrivals=tier.dropped_total,
        slo=(slo_report(latency, config.slo)
             if config.slo is not None else None),
    )


def _prologue(env, cluster, names, prologue, state):
    for i, (method, arg) in enumerate(prologue):
        node = cluster.node(names[i % len(names)])
        yield from _submit_with_redirect(env, cluster, node, method, arg)
        state.base_updates += 1
    yield env.timeout(200.0)


def _arrival_process(env, cluster, coordination, names, config, tier,
                     state, latency, per_method):
    """The single aggregate arrival generator.

    Draws a homogeneous Poisson process at ``offered_load * peak`` and
    accepts each draw with probability ``rate(phase)/peak`` (Lewis
    thinning), which realizes the configured curve exactly without
    per-step rate integration.  One process regardless of session
    count — sessions are rows in ``tier``, not generators.
    """
    seq = SeedSequence(config.seed).spawn("openloop")
    arrivals_rng = seq.derive("arrivals")
    mix_rng = seq.derive("mix")
    session_rng = seq.derive("sessions")
    streams = {
        name: make_generator(config.workload, config.seed, name)
        for name in names
    }
    curve = config.arrival_curve
    peak = curve_peak(curve)
    peak_rate = config.offered_load_ops_per_us * peak
    duration = config.duration_us
    start = env.now
    deadline = start + duration
    # Hot-path hoists: bound methods, the update set, the query tuple,
    # and the tier's session count — nothing allocated per arrival but
    # the admitted requests themselves.
    timeout = env.timeout
    expovariate = arrivals_rng.expovariate
    thin = arrivals_rng.random
    pick_session = session_rng.randrange
    mix = mix_rng.random
    n_sessions = tier.n_sessions
    update_ratio = config.update_ratio
    spec = coordination.spec if coordination is not None else cluster.spec
    updates = spec.updates
    leader_bound = _leader_bound_methods(spec, coordination)
    queries = tuple(spec.query_names())
    n_queries = len(queries)
    pick_query_index = mix_rng.randrange
    node_cache = {name: cluster.node(name) for name in names}
    while True:
        yield timeout(expovariate(peak_rate))
        now = env.now
        if now >= deadline:
            break
        if peak > 1.0:
            phase = (now - start) / duration
            if thin() * peak >= curve_rate(curve, phase):
                continue  # thinned out: no arrival at this instant
        session = pick_session(n_sessions)
        if not tier.admit(session):
            continue  # shed with accounting (tier counts the drop)
        name = names[session % tier.n_nodes]
        if mix() < update_ratio:
            method, arg = next(streams[name])
            is_update = True
        else:
            method = queries[pick_query_index(n_queries)]
            arg = None
            is_update = method in updates
        env.process(
            _one_request(
                env, cluster, node_cache[name], session, method, arg,
                is_update, method in leader_bound, tier, state, latency,
                per_method,
            )
        )


def _one_request(env, cluster, node, session, method, arg, is_update,
                 follow_leader, tier, state, latency, per_method):
    issued_at = env.now
    if follow_leader or getattr(node, "failed", False):
        ok = yield from _submit_with_redirect(
            env, cluster, node, method, arg, follow_leader
        )
    else:
        try:
            yield node.submit(method, arg)
            ok = True
        except ImpermissibleError:
            ok = False
        except SubmitError as error:
            ok = yield from _submit_with_redirect(
                env, cluster, node, method, arg, error=error
            )
    tier.complete(session)
    state.total_calls += 1
    elapsed = env.now - issued_at
    latency.add(elapsed)
    series = per_method.get(method)
    if series is None:
        series = per_method[method] = LatencySeries()
    series.add(elapsed)
    if is_update:
        if ok:
            state.succeeded_updates += 1
        else:
            state.rejected += 1
