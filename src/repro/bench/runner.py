"""Experiment runner shared by every benchmark (one per paper figure).

``run_harness`` builds the requested system — ``hamband``, ``mu``
(the SMR deployment), or ``msg`` (message-passing CRDTs) — over a fresh
simulation environment, drives the configured workload, and returns the
paper's metrics with everything it built still attached; tracing, live
checking, metrics, a fault plan and open-loop serving are options of
that one path.  Repetition and averaging mirror the paper's "repeat
each experiment 3 times and report the average".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from ..datatypes import SPEC_FACTORIES
from ..datatypes.orset import orset_spec
from ..msgpass import MsgCrdtCluster
from ..runtime import (
    HambandCluster,
    RuntimeConfig,
    ShardedCluster,
    ShardedRecorder,
    TraceRecorder,
    TxnCoordinator,
)
from ..sim import Environment, FaultInjector, FaultPlan
from ..smr import SmrCluster
from ..workload import (
    DriverConfig,
    OpenLoopConfig,
    RunResult,
    ShardedDriverConfig,
    run_open_loop,
    run_sharded_workload,
    run_workload,
)
from ..workload.openloop import build_tier

__all__ = [
    "ExperimentConfig",
    "Run",
    "average_results",
    "run_averaged",
    "run_experiment",
    "run_harness",
]

SYSTEMS = ("hamband", "mu", "msg")
#: A fault run's settle window after the plan's horizon (see _settle).
SETTLE_US = 200_000.0
SETTLE_TICK_US = 20.0
SETTLE_STABLE_TICKS = 3


def _spec_factory(workload: str) -> Callable:
    if workload == "orset":
        return orset_spec
    return SPEC_FACTORIES[workload]


@dataclass
class ExperimentConfig:
    system: str  # hamband | mu | msg
    workload: str  # generator / spec name
    n_nodes: int = 4
    total_ops: int = 1200
    update_ratio: float = 0.25
    seed: int = 1
    #: Hamband-only: route reducible methods through F buffers (Fig. 9's
    #: GSet-with-buffers variant).
    force_buffered: bool = False
    #: Heartbeat-suspend this node partway through the run.
    fail_node: Optional[str] = None
    fail_at_fraction: float = 0.3
    #: Hamband-only: override leader placement (ablations).
    leaders: Optional[dict[str, str]] = None
    conf_retry_limit: int = RuntimeConfig.conf_retry_limit
    #: Hamband-only ablation: full causal barrier instead of projected
    #: dependency arrays.
    full_dep_barrier: bool = False
    #: Background scrubber tick; 0 (the default) disables the worker.
    scrub_interval_us: float = 0.0
    #: Sharded topology: >1 builds a :class:`ShardedCluster` of
    #: ``n_shards`` independent ``n_nodes``-node shards and drives the
    #: cross-shard bank workload (hamband-only; ``workload`` is ignored
    #: in favour of ``bankmap``).
    n_shards: int = 1
    #: Fraction of conflicting transfer txns in the sharded workload
    #: (the rest are all-commuting payroll deposits).
    txn_mix: float = 0.0
    #: Negative control: route conflicting txns down the uncoordinated
    #: path (expect the cross-shard atomicity check to fail).
    txn_lock_path: bool = True

    @property
    def sharded(self) -> bool:
        # n_shards=1 with the sharded-bank workload still runs the
        # sharded driver over a one-shard topology: the apples-to-apples
        # baseline of the shard-count scaling benchmark.
        return self.n_shards > 1 or self.workload == "sharded-bank"


def _build_cluster(env: Environment, config: ExperimentConfig, recorder):
    """The cluster ``config`` names, probes wired to ``recorder`` (if
    any), plus the txn coordinator of a sharded topology (else None)."""
    hamband = config.system == "hamband"
    runtime_config = RuntimeConfig(
        # The buffering/barrier ablations are Hamband-only; the SMR
        # deployment always runs with them off.
        force_buffered=hamband and config.force_buffered,
        full_dep_barrier=hamband and config.full_dep_barrier,
        conf_retry_limit=config.conf_retry_limit,
        scrub_interval_us=config.scrub_interval_us,
        seed=config.seed,
    )
    if config.sharded:
        sharded = ShardedCluster.build(
            env,
            SPEC_FACTORIES["bankmap"](),
            n_shards=config.n_shards,
            n_nodes=config.n_nodes,
            config=runtime_config,
            shard_probe_factory=(
                recorder.probe_factory_for if recorder is not None else None
            ),
            seed=config.seed,
        )
        coordinator = TxnCoordinator(
            sharded, recorder=recorder,
            lock_path_enabled=config.txn_lock_path,
        )
        return sharded, coordinator
    spec = _spec_factory(config.workload)()
    probe_factory = recorder.probe_factory if recorder is not None else None
    if hamband:
        cluster = HambandCluster.build(
            env,
            spec,
            n_nodes=config.n_nodes,
            config=runtime_config,
            leaders=config.leaders,
            probe_factory=probe_factory,
        )
    elif config.system == "mu":
        cluster = SmrCluster.build_smr(
            env, spec, n_nodes=config.n_nodes, config=runtime_config,
            probe_factory=probe_factory,
        )
    else:
        cluster = MsgCrdtCluster(env, spec, config.n_nodes)
    return cluster, None


def _driver(config: ExperimentConfig) -> DriverConfig:
    return DriverConfig(
        workload=config.workload,
        total_ops=config.total_ops,
        update_ratio=config.update_ratio,
        seed=config.seed,
        system_label=config.system,
        fail_node=config.fail_node,
        fail_at_fraction=config.fail_at_fraction,
    )


def _sharded_driver(config: ExperimentConfig) -> ShardedDriverConfig:
    # total_ops budgets *constituent calls*; the stock txn shapes issue
    # two calls each, so the txn count halves it.
    return ShardedDriverConfig(
        total_txns=max(1, config.total_ops // 2),
        txn_mix=config.txn_mix,
        seed=config.seed,
        system_label=config.system,
    )


@dataclass
class Run:
    """One experiment run with everything it built still attached.

    ``result`` is ``None`` when a fault run failed to quiesce before
    the driver's timeout (a recovery path too broken to finish): the
    trace is still complete, so :meth:`check` remains the gate.
    """

    result: Optional[RunResult]
    cluster: object
    #: The flight recorder (None for an untraced run).
    recorder: object = None
    #: The txn coordinator of a sharded run (None for single clusters).
    coordinator: object = None
    #: With ``live_check``: the in-run streaming checker and its
    #: verdict (a :class:`~repro.runtime.CheckReport`).
    stream_checker: object = None
    stream_report: object = None
    #: With ``metrics_out``/``progress``: the telemetry emitter
    #: (``emitter.samples`` counts the JSONL lines written).
    emitter: object = None
    #: With ``loop``: the session tier (``tier.tenant_stats()`` breaks
    #: ``result.dropped_arrivals`` down per tenant) and the loop config
    #: as driven (workload/seed/label taken from the experiment config).
    tier: object = None
    loop: object = None
    #: With ``plan``: the armed fault injector and its plan.
    injector: object = None
    plan: object = None
    #: False when the post-horizon settle window of a fault run expired
    #: before the cluster reached a stable converged state.
    settled: bool = True

    def check(self):
        """Run the offline integrity/convergence checker on the trace.

        Sharded runs get the per-shard obligations plus the cross-shard
        atomicity check (:class:`~repro.runtime.ShardedTraceChecker`).
        """
        from ..runtime import ShardedTraceChecker, TraceChecker

        if isinstance(self.recorder, ShardedRecorder):
            checker = ShardedTraceChecker(
                self.cluster.coordination,
                n_shards=self.cluster.n_shards,
            )
            return checker.check_recorder(self.recorder)
        checker = TraceChecker(
            self.cluster.coordination,
            processes=self.cluster.node_names(),
        )
        return checker.check(
            self.recorder.events(), dropped=self.recorder.dropped(),
            gaps=self.recorder.drop_gaps(),
        )


def _instrument(env: Environment, cluster, recorder,
                live_check: bool, metrics_out, metrics_interval_us: float,
                progress, label: str):
    """Attach the in-run streaming checker and/or metrics emitter."""
    checker = None
    emitter = None
    if live_check:
        from ..runtime import StreamingChecker

        checker = StreamingChecker(
            cluster.coordination, processes=cluster.node_names()
        )
        recorder.stream_to(checker.feed)
    if metrics_out is not None or progress is not None:
        from ..runtime import MetricsEmitter

        emitter = MetricsEmitter(
            env, cluster=cluster, recorder=recorder, checker=checker,
            interval_us=metrics_interval_us, out=metrics_out,
            progress=progress, label=label,
        ).start()
    return checker, emitter


def run_harness(config: ExperimentConfig, *,
                trace: bool = True,
                capacity: int = 1 << 20,
                live_check: bool = False,
                metrics_out=None,
                metrics_interval_us: float = 200.0,
                progress=None,
                plan: Optional[FaultPlan] = None,
                loop: Optional[OpenLoopConfig] = None) -> Run:
    """Build the system ``config`` names, drive its workload, return the
    :class:`Run` — the one path every benchmark, test and CLI run takes.

    ``trace`` installs a flight recorder on the probe seam (only the
    Hamband-runtime systems, ``hamband`` and ``mu``, have one; the
    message-passing baseline has nothing to trace).  ``capacity``
    bounds the per-node event ring buffer — size it to the run for
    offline checking (the offline checker refuses truncated traces), or
    keep it small with ``live_check=True``: the streaming checker taps
    events as they are recorded, so its verdict covers the whole run
    even when the ring keeps only a suffix.  ``trace=False`` skips the
    recorder unless live checking, metrics or a fault plan needs it.

    ``metrics_out`` (a path or open file) turns on the periodic
    :class:`~repro.runtime.MetricsEmitter` sampling probe counters,
    phase latencies (p50..p999), and checker progress every
    ``metrics_interval_us`` of sim time; ``progress`` receives a
    one-line status per sample.

    ``plan`` arms a :class:`FaultInjector` before traffic starts
    (scheduled faults fire by simulated time; window faults intercept
    RDMA verbs and messages); after the workload the run continues past
    the plan's horizon and waits up to :data:`SETTLE_US` for a short
    stable-convergence window.  Neither the settle window nor a quiesce
    timeout raises: :meth:`Run.check` is the gate, so a run whose
    recovery paths failed completes with ``result=None`` and/or
    ``settled=False`` and a trace that the checker rejects (this is
    what the negative-control test relies on).  Background-worker
    crashes still raise — those are bugs, not injected faults.
    Sharded topologies arm the plan against shard 0 only — the victim
    shard — which is exactly the isolation claim the sharded chaos
    preset tests: faults inside one shard must not stall commuting
    transactions on the healthy shards.

    ``loop`` swaps the closed-loop driver for the open-loop serving
    tier: it shapes the traffic — offered load, arrival curve,
    session/tenant population, admission caps, SLO target — while its
    workload/seed/label are overridden from ``config`` so one pair of
    flags can't drift apart.  With ``plan`` this is the gray-failure
    SLO scenario: serve a flash crowd THROUGH a fail-slow window and
    let SLO attainment judge the mitigation stack.
    """
    if config.system not in SYSTEMS:
        raise ValueError(f"unknown system {config.system!r}")
    instrumented = (
        trace or live_check or metrics_out is not None
        or progress is not None or plan is not None
    )
    if instrumented and config.system == "msg":
        raise ValueError(
            f"system {config.system!r} has no probe seam to trace"
        )
    if config.sharded:
        if live_check:
            raise ValueError(
                "live checking does not support sharded topologies yet "
                "(use the offline ShardedTraceChecker)"
            )
        if loop is not None:
            raise ValueError(
                "the serving tier drives single clusters; sharded "
                "serving is future work"
            )
        if config.system != "hamband":
            raise ValueError(
                f"sharded topologies run the hamband runtime only, "
                f"not {config.system!r}"
            )
    env = Environment()
    recorder = None
    if instrumented and config.sharded:
        recorder = ShardedRecorder(
            env, n_shards=config.n_shards, capacity=capacity
        )
    elif instrumented:
        recorder = TraceRecorder(env, capacity=capacity)
    cluster, coordinator = _build_cluster(env, config, recorder)
    if recorder is not None:
        recorder.attach(cluster.coordination)
    injector = None
    if plan is not None:
        injector = FaultInjector(plan).arm(
            cluster.shard(0) if config.sharded else cluster
        )
    tier = None
    label = config.workload
    if loop is not None:
        loop = replace(
            loop,
            workload=config.workload,
            seed=config.seed,
            system_label=config.system,
        )
        tier = build_tier(loop, config.n_nodes)
        label = f"serve:{config.workload}"
    checker, emitter = _instrument(
        env, cluster, recorder, live_check, metrics_out,
        metrics_interval_us, progress, label,
    )
    result = None
    try:
        if loop is not None:
            result = run_open_loop(env, cluster, loop, tier=tier)
        elif config.sharded:
            result = run_sharded_workload(
                env, cluster, coordinator, _sharded_driver(config)
            )
        else:
            result = run_workload(env, cluster, _driver(config))
    except TimeoutError:
        if plan is None:
            raise
        # Non-quiescent fault run: the checker will call the verdict.
    settled = True
    if plan is not None:
        # Run past the fault horizon so late restarts/heals fire even
        # when the workload finished early.
        horizon = plan.horizon_us()
        if env.now < horizon:
            env.run(until=horizon)
        settled = bool(env.run(until=env.process(
            _settle(env, cluster), name="chaos:settle"
        )))
    crashed = getattr(cluster, "failures", lambda: [])()
    if crashed:
        raise RuntimeError(f"background workers crashed: {crashed}")
    stream_report = checker.finish() if checker is not None else None
    if emitter is not None:
        emitter.close()
    return Run(
        result=result,
        cluster=cluster,
        recorder=recorder,
        coordinator=coordinator,
        stream_checker=checker,
        stream_report=stream_report,
        emitter=emitter,
        tier=tier,
        loop=loop,
        injector=injector,
        plan=plan,
        settled=settled,
    )


def run_experiment(config: ExperimentConfig) -> RunResult:
    """The untraced shorthand the figure benchmarks use."""
    return run_harness(config, trace=False).result


def _settle(env: Environment, cluster):
    """Wait for a few consecutive converged ticks; never raise.

    Returns True once :data:`SETTLE_STABLE_TICKS` consecutive checks,
    :data:`SETTLE_TICK_US` apart, see every node at the same applied
    total and state-equal, False when :data:`SETTLE_US` runs out first.
    """
    deadline = env.now + SETTLE_US
    stable = 0
    while stable < SETTLE_STABLE_TICKS:
        if _totals_agree(cluster) and cluster.converged():
            stable += 1
        else:
            stable = 0
        if env.now > deadline:
            return False
        yield env.timeout(SETTLE_TICK_US)
    return True


def _totals_agree(cluster) -> bool:
    """Every node at the same applied total — per shard for sharded
    topologies (different shards legitimately apply different counts)."""
    shards = getattr(cluster, "shards", None)
    if shards is not None:
        return all(
            len(set(shard.applied_totals().values())) == 1
            for shard in shards
        )
    return len(set(cluster.applied_totals().values())) == 1


def run_averaged(config: ExperimentConfig, repeats: int = 3) -> RunResult:
    """The paper's protocol: repeat and average (distinct seeds)."""
    results = [
        run_experiment(replace(config, seed=config.seed + i))
        for i in range(repeats)
    ]
    return average_results(results)


def average_results(results: list[RunResult]) -> RunResult:
    """Average throughput/latency across repeats (keeps first's shape)."""
    if not results:
        raise ValueError("no results to average")
    base = results[0]
    if len(results) == 1:
        return base
    merged_latency = type(base.latency)()
    for result in results:
        merged_latency.samples.extend(result.latency.samples)
    merged_methods: dict = {}
    for result in results:
        for method, series in result.per_method.items():
            merged_methods.setdefault(method, type(series)()).samples.extend(
                series.samples
            )
    total_duration = sum(r.duration_us for r in results)
    return type(base)(
        system=base.system,
        workload=base.workload,
        n_nodes=base.n_nodes,
        total_calls=sum(r.total_calls for r in results),
        update_calls=sum(r.update_calls for r in results),
        rejected_calls=sum(r.rejected_calls for r in results),
        start_us=0.0,
        replicated_us=total_duration,
        latency=merged_latency,
        per_method=merged_methods,
        dropped_arrivals=sum(r.dropped_arrivals for r in results),
        redirect_giveups=sum(r.redirect_giveups for r in results),
    )
