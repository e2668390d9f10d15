"""Table/series rendering for the benchmark harness.

Each benchmark prints the rows/series the corresponding paper figure
plots, so ``pytest benchmarks/ --benchmark-only -s`` regenerates the
evaluation section in text form; EXPERIMENTS.md records one captured
copy next to the paper's numbers.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..workload import Histogram, RunResult

__all__ = [
    "fault_counts_line",
    "fig_header",
    "per_method_lines",
    "phase_latency_table",
    "series_table",
    "serving_table",
    "tenant_table",
    "per_method_table",
    "ratio_line",
]


def fig_header(figure: str, caption: str) -> str:
    bar = "=" * 72
    return f"\n{bar}\n{figure}: {caption}\n{bar}"


def series_table(title: str, rows: list[tuple[str, RunResult]]) -> str:
    """One line per configuration: label -> tput and response time."""
    lines = [f"\n-- {title} --"]
    lines.append(
        f"{'config':34s} {'tput (ops/us)':>14s} {'mean rt (us)':>13s} "
        f"{'p95 rt (us)':>12s} {'p99 rt (us)':>12s} {'p999 rt (us)':>13s}"
    )
    for label, result in rows:
        lines.append(
            f"{label:34s} {result.throughput_ops_per_us:14.3f} "
            f"{result.mean_response_us:13.3f} {result.latency.p95:12.3f} "
            f"{result.latency.p99:12.3f} {result.latency.p999:13.3f}"
        )
    return "\n".join(lines)


def per_method_table(title: str, result: RunResult,
                     methods: Optional[list[str]] = None) -> str:
    lines = [f"\n-- {title} --"]
    lines.append(f"{'method':20s} {'mean rt (us)':>13s} {'count':>7s}")
    for method in methods or sorted(result.per_method):
        series = result.per_method.get(method)
        if series is None or series.count == 0:
            continue
        lines.append(f"{method:20s} {series.mean:13.3f} {series.count:7d}")
    return "\n".join(lines)


def per_method_lines(result: RunResult) -> str:
    """The CLI's ``--per-method`` rows: one indented line per method
    with its response-time mean and tail."""
    return "\n".join(
        f"  {method:20s} mean={series.mean:8.3f}us "
        f"p95={series.p95:8.3f}us p99={series.p99:8.3f}us "
        f"p999={series.p999:8.3f}us n={series.count}"
        for method, series in sorted(result.per_method.items())
    )


def fault_counts_line(counts: Mapping[str, int]) -> str:
    """``faults injected: kind=n, ...`` from a
    :meth:`~repro.sim.FaultInjector.counts` mapping."""
    injected = ", ".join(
        f"{kind}={counts[kind]}" for kind in sorted(counts)
    ) or "none"
    return f"faults injected: {injected}"


#: Display order for lifecycle phases in the phase-latency table.
PHASE_ORDER = ("invoke", "propagate", "decide", "apply")


def phase_latency_table(title: str,
                        phases: Mapping[str, Histogram]) -> str:
    """Per-phase latency columns from a traced run.

    ``phases`` is the output of
    :meth:`~repro.runtime.TraceRecorder.phase_histograms`: the call
    lifecycle broken into invoke (local commit), propagate (ring
    fan-out + reliable broadcast), decide (leader batch replication
    through Mu), apply (remote buffered apply), and forward (control
    plane round trips).
    """
    lines = [f"\n-- {title} --"]
    lines.append(
        f"{'phase':12s} {'count':>7s} {'mean (us)':>10s} "
        f"{'p50 (us)':>9s} {'p95 (us)':>9s} {'p99 (us)':>9s} "
        f"{'p999 (us)':>10s}"
    )
    ordered = [p for p in PHASE_ORDER if p in phases]
    ordered += sorted(set(phases) - set(PHASE_ORDER))
    for phase in ordered:
        histogram = phases[phase]
        if histogram.count == 0:
            continue
        lines.append(
            f"{phase:12s} {histogram.count:7d} {histogram.mean:10.3f} "
            f"{histogram.p50:9.3f} {histogram.p95:9.3f} "
            f"{histogram.p99:9.3f} {histogram.p999:10.3f}"
        )
    return "\n".join(lines)


def serving_table(title: str, rows: list[tuple[str, RunResult]]) -> str:
    """Latency-vs-load rows for open-loop serving runs.

    Adds the serving-tier columns the closed-loop table has no use
    for: dropped arrivals (admission shedding, distinct from rejected
    calls) and the SLO verdict when the run declared a target.
    """
    lines = [f"\n-- {title} --"]
    lines.append(
        f"{'config':30s} {'tput (ops/us)':>14s} {'p50 (us)':>9s} "
        f"{'p99 (us)':>9s} {'p999 (us)':>10s} {'dropped':>8s} "
        f"{'slo':>5s}"
    )
    for label, result in rows:
        slo = "-"
        if result.slo is not None:
            slo = "ok" if result.slo.ok else "MISS"
        lines.append(
            f"{label:30s} {result.throughput_ops_per_us:14.3f} "
            f"{result.latency.p50:9.3f} {result.latency.p99:9.3f} "
            f"{result.latency.p999:10.3f} {result.dropped_arrivals:8d} "
            f"{slo:>5s}"
        )
    return "\n".join(lines)


def tenant_table(title: str, tier) -> str:
    """Per-tenant admission accounting from a
    :class:`~repro.workload.SessionTier`."""
    lines = [f"\n-- {title} --"]
    lines.append(
        f"{'tenant':>6s} {'sessions':>9s} {'admitted':>9s} "
        f"{'dropped':>8s} {'shed %':>7s} {'peak out':>9s}"
    )
    for row in tier.tenant_stats():
        lines.append(
            f"{row.tenant:6d} {row.sessions:9d} {row.admitted:9d} "
            f"{row.dropped:8d} {row.shed_fraction:7.2%} "
            f"{row.peak_outstanding:9d}"
        )
    return "\n".join(lines)


def ratio_line(name: str, numerator: RunResult, denominator: RunResult,
               metric: str = "throughput") -> str:
    if metric == "throughput":
        a = numerator.throughput_ops_per_us
        b = denominator.throughput_ops_per_us
    else:
        a = numerator.mean_response_us
        b = denominator.mean_response_us
    ratio = a / b if b else float("inf")
    return f"{name}: {ratio:.2f}x"
