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
from functools import partial
from typing import Any, Optional

from ..runtime.cluster import submit_redirected
from ..runtime.errors import ImpermissibleError, SubmitError
from ..sim import Environment, Event
from ..sim.rng import SeedSequence
from .driver import _leader_bound_methods, _run_prologue
from .generators import make_generator, setup_calls
from .metrics import LatencySeries, RunResult, SloTarget, slo_report
from .serving import SessionTier, arrival_instants

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


class _OpenRun:
    """One open-loop run's accounting, and the request callbacks.

    An admitted request costs its node's call path plus one
    :meth:`reply` callback on the returned event; only a request that
    must be redirected runs a process (:meth:`_redirected`).
    """

    __slots__ = ("env", "cluster", "tier", "latency", "per_method",
                 "total_calls", "succeeded_updates", "base_updates",
                 "rejected", "giveups", "drained")

    def __init__(self, env, cluster, tier: SessionTier):
        self.env = env
        self.cluster = cluster
        self.tier = tier
        self.latency = LatencySeries()
        self.per_method: dict[str, LatencySeries] = {}
        self.total_calls = 0
        self.succeeded_updates = 0
        self.base_updates = 0  # prologue updates, excluded from metrics
        self.rejected = 0
        self.giveups = 0
        #: Armed once the arrivals end; the last completion triggers it.
        self.drained: Optional[Event] = None

    def reply(self, node, session, method, arg, is_update, issued_at,
              request: Event) -> None:
        """The callback on an admitted request's submit event."""
        if request.ok:
            self.finish(session, method, is_update, issued_at, True)
        else:
            self.failed(node, session, method, arg, is_update, issued_at,
                        request.value)

    def failed(self, node, session, method, arg, is_update, issued_at,
               error: BaseException) -> None:
        """A first attempt failed, raised by ``submit`` or on its event."""
        if isinstance(error, ImpermissibleError):
            self.finish(session, method, is_update, issued_at, False)
        elif isinstance(error, SubmitError):
            self.redirect(node, session, method, arg, is_update, issued_at,
                          False, error)
        else:
            raise error

    def redirect(self, node, session, method, arg, is_update, issued_at,
                 follow_leader, error=None) -> None:
        process = self.env.process(self._redirected(
            node, session, method, arg, is_update, issued_at,
            follow_leader, error,
        ))
        process.callbacks.append(_raise_failure)

    def _redirected(self, node, session, method, arg, is_update,
                    issued_at, follow_leader, error):
        ok, _ = yield from submit_redirected(
            self.env, self.cluster, node, method, arg, follow_leader,
            error=error,
        )
        self.finish(session, method, is_update, issued_at, ok)

    def finish(self, session, method, is_update, issued_at, ok) -> None:
        """Account one completed request (``ok`` as
        :func:`~repro.runtime.cluster.submit_redirected` returns it)."""
        tier = self.tier
        tier.complete(session)
        self.total_calls += 1
        elapsed = self.env.now - issued_at
        self.latency.add(elapsed)
        series = self.per_method.get(method)
        if series is None:
            series = self.per_method[method] = LatencySeries()
        series.add(elapsed)
        if ok:
            if is_update:
                self.succeeded_updates += 1
        else:
            self.rejected += 1
            if ok is None:
                self.giveups += 1
        if self.drained is not None and not tier.outstanding_total:
            self.drained.succeed()


def _raise_failure(process: Event) -> None:
    """Propagate an unexpected error out of ``env.run`` instead of
    leaving it on a process nobody waits for."""
    if not process.ok:
        raise process.value


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

    Raises ``TimeoutError`` naming the outstanding count when admitted
    requests are still in flight ``config.quiesce_timeout_us`` after
    the last arrival, and re-raises any error a request fails with that
    is not a :class:`SubmitError`.
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
    run = _OpenRun(env, cluster, tier)

    prologue = setup_calls(config.workload)
    if prologue:
        done = env.process(
            _run_prologue(env, cluster, names, prologue, run)
        )
        env.run(until=done)
        if not done.ok:
            raise done.value

    start = env.now
    arrivals = env.process(
        _arrival_process(env, cluster, coordination, names, config, run),
        name="openloop:arrivals",
    )
    env.run(until=arrivals)
    if not arrivals.ok:
        raise arrivals.value
    if tier.outstanding_total:
        _drain(env, run, config.quiesce_timeout_us)
    target = run.base_updates + run.succeeded_updates
    quiesce = env.process(
        cluster.quiesce(target, timeout_us=config.quiesce_timeout_us)
    )
    replicated_at = env.run(until=quiesce)
    return RunResult(
        system=config.system_label,
        workload=config.workload,
        n_nodes=len(names),
        total_calls=run.total_calls,
        update_calls=run.succeeded_updates,
        rejected_calls=run.rejected,
        start_us=start,
        replicated_us=replicated_at,
        latency=run.latency,
        per_method=run.per_method,
        dropped_arrivals=tier.dropped_total,
        slo=(slo_report(run.latency, config.slo)
             if config.slo is not None else None),
        redirect_giveups=run.giveups,
    )


#: The drain's polling grid after the last arrival, in µs.
DRAIN_TICK_US = 10.0


def _drain(env: Environment, run: _OpenRun, timeout_us: float) -> None:
    """Wait for the in-flight requests, then advance to the first drain
    tick at or after the last completion.

    The wait is one event the last completion triggers.  Quiesce polls
    from the instant it starts, so it starts on a fixed grid of
    ``DRAIN_TICK_US`` steps from the last arrival: ``replicated_us``
    stays what a poll of the outstanding count on that grid gives.
    """
    end = env.now
    run.drained = env.event()
    env.run(until=env.any_of([run.drained, env.timeout(timeout_us)]))
    outstanding = run.tier.outstanding_total
    if outstanding:
        raise TimeoutError(
            f"open-loop requests did not drain: {outstanding} still "
            f"outstanding {timeout_us:g} us after the last arrival"
        )
    tick = end + DRAIN_TICK_US
    while tick < env.now:
        tick += DRAIN_TICK_US
    env.run(until=tick)


def _arrival_process(env, cluster, coordination, names, config, run):
    """The single aggregate arrival generator.

    Wakes once per candidate that survives thinning
    (:func:`~repro.workload.serving.arrival_instants`), on an
    absolute-time timer at that candidate's exact instant; a thinned
    candidate costs no event.  Each wakeup admits or sheds one arrival
    and submits an admitted one inline, with :meth:`_OpenRun.reply` as
    the callback on its event.  One process regardless of session
    count — sessions are rows in the tier, not generators.
    """
    seq = SeedSequence(config.seed).spawn("openloop")
    arrivals_rng = seq.derive("arrivals")
    mix_rng = seq.derive("mix")
    session_rng = seq.derive("sessions")
    streams = {
        name: make_generator(config.workload, config.seed, name)
        for name in names
    }
    tier = run.tier
    start = env.now
    deadline = start + config.duration_us
    instants = arrival_instants(
        arrivals_rng.random, config.arrival_curve,
        config.offered_load_ops_per_us, start, config.duration_us,
    )
    # Hot-path hoists: bound methods, the update set, the query tuple,
    # and the tier's session count — nothing allocated per arrival but
    # an admitted request's callback.
    timeout_at = env.timeout_at
    pick_session = session_rng.randrange
    mix = mix_rng.random
    pick_query_index = mix_rng.randrange
    admit = tier.admit
    n_sessions = tier.n_sessions
    n_nodes = tier.n_nodes
    update_ratio = config.update_ratio
    spec = coordination.spec if coordination is not None else cluster.spec
    updates = spec.updates
    leader_bound = _leader_bound_methods(spec, coordination)
    queries = tuple(spec.query_names())
    n_queries = len(queries)
    node_cache = {name: cluster.node(name) for name in names}
    reply = run.reply
    for now in instants:
        yield timeout_at(now)
        if now >= deadline:
            break
        session = pick_session(n_sessions)
        if not admit(session):
            continue  # shed with accounting (tier counts the drop)
        name = names[session % n_nodes]
        if mix() < update_ratio:
            method, arg = next(streams[name])
            is_update = True
        else:
            method = queries[pick_query_index(n_queries)]
            arg = None
            is_update = method in updates
        node = node_cache[name]
        follow_leader = method in leader_bound
        if follow_leader or getattr(node, "failed", False):
            run.redirect(node, session, method, arg, is_update, now,
                         follow_leader)
            continue
        try:
            request = node.submit(method, arg)
        except SubmitError as error:
            run.failed(node, session, method, arg, is_update, now, error)
            continue
        request.callbacks.append(
            partial(reply, node, session, method, arg, is_update, now)
        )
