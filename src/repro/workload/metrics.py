"""Run metrics: throughput and response-time aggregation.

Throughput follows the paper: the total number of calls divided by the
time it takes for all update calls to be replicated on all nodes.
Response time is the average over all calls; per-method distributions
feed the per-method figures (11b, 13b).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = [
    "Histogram",
    "LatencySeries",
    "RunResult",
    "SloReport",
    "SloTarget",
    "slo_report",
]


@dataclass
class LatencySeries:
    """Latency samples (microseconds) for one method or the whole run."""

    samples: list[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (see :meth:`percentiles`)."""
        return self.percentiles((q,))[0]

    def percentiles(self, qs: Iterable[float]) -> list[float]:
        """Nearest-rank percentiles from ONE sort of the samples: for
        each ``q`` the smallest sample such that at least ``q`` of the
        distribution is at or below it, i.e. 1-based rank
        ``ceil(q*n)``."""
        if not self.samples:
            return [0.0 for _q in qs]
        ordered = sorted(self.samples)
        n = len(ordered)
        return [ordered[max(0, min(n, math.ceil(q * n)) - 1)] for q in qs]

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    @property
    def p999(self) -> float:
        """Tail SLO percentile (needs >=1000 samples to differ from
        max; nearest-rank like the rest)."""
        return self.percentile(0.999)


@dataclass
class Histogram(LatencySeries):
    """A :class:`LatencySeries` with log2 buckets and a summary dict.

    The tracing subsystem (``runtime/trace.py``) aggregates per-phase
    latencies into these; buckets make the shape of a distribution
    cheap to eyeball in a stats dump while the exact samples still back
    the percentile queries.
    """

    def merge(self, other: "LatencySeries") -> None:
        self.samples.extend(other.samples)

    @property
    def max(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def bucket_counts(self) -> dict[str, int]:
        """Sample counts per power-of-two microsecond bucket.

        Keys are upper bounds: ``"<=1us"``, ``"<=2us"``, ``"<=4us"``, …
        (a sample of exactly the bound lands in that bucket).
        """
        buckets: dict[str, int] = {}
        for sample in self.samples:
            exponent = 0 if sample <= 1.0 else math.ceil(
                math.log2(max(sample, 1e-9))
            )
            key = f"<={2 ** max(exponent, 0):.0f}us"
            buckets[key] = buckets.get(key, 0) + 1
        return dict(
            sorted(buckets.items(), key=lambda kv: float(kv[0][2:-2]))
        )

    def summary(self) -> dict:
        """Point-in-time scalar summary (JSON-friendly)."""
        p50, p95, p99, p999 = self.percentiles((0.50, 0.95, 0.99, 0.999))
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": p50,
            "p95": p95,
            "p99": p99,
            "p999": p999,
            "max": self.max,
        }


@dataclass(frozen=True)
class SloTarget:
    """Declared response-time targets (µs) per percentile.

    ``None`` leaves that percentile ungated; a target of e.g.
    ``p99_us=50`` declares "99% of requests complete within 50µs".
    """

    p50_us: Optional[float] = None
    p99_us: Optional[float] = None
    p999_us: Optional[float] = None

    def declared(self) -> dict[str, float]:
        """The declared ``{"p50": µs, ...}`` targets, omitting Nones."""
        out = {}
        if self.p50_us is not None:
            out["p50"] = self.p50_us
        if self.p99_us is not None:
            out["p99"] = self.p99_us
        if self.p999_us is not None:
            out["p999"] = self.p999_us
        return out


#: Percentile label -> quantile, for SLO attainment math.
_QUANTILES = {"p50": 0.50, "p99": 0.99, "p999": 0.999}


@dataclass
class SloReport:
    """SLO attainment for one run against a declared target.

    For each declared percentile target ``t`` at quantile ``q``:

    - ``achieved[p]`` — the run's actual latency at that percentile;
    - ``attainment[p]`` — the fraction of requests that completed
      within ``t`` (so meeting the SLO means ``attainment >= q``);
    - ``attained[p]`` — that comparison, as the pass/fail verdict.
    """

    target: SloTarget
    samples: int
    achieved: dict[str, float]
    attainment: dict[str, float]
    attained: dict[str, bool]

    @property
    def ok(self) -> bool:
        """True when every declared percentile target is attained."""
        return all(self.attained.values())

    def summary(self) -> str:
        if not self.attained:
            return "slo: no declared targets"
        parts = []
        for label, target_us in self.target.declared().items():
            verdict = "ok" if self.attained[label] else "MISS"
            parts.append(
                f"{label}<={target_us:g}us {verdict} "
                f"(got {self.achieved[label]:.1f}us, "
                f"{self.attainment[label]:.2%} within)"
            )
        return "slo: " + "  ".join(parts)


def slo_report(latency: LatencySeries, target: SloTarget) -> SloReport:
    """Attainment of ``target`` on a measured latency series.

    Empty series trivially attain (nothing completed late); the serving
    tier separately accounts dropped arrivals, which are *not* latency
    samples — shedding is visible in ``dropped_arrivals``, not here.
    """
    ordered = sorted(latency.samples)
    n = len(ordered)
    achieved: dict[str, float] = {}
    attainment: dict[str, float] = {}
    attained: dict[str, bool] = {}
    for label, target_us in target.declared().items():
        quantile = _QUANTILES[label]
        achieved[label] = latency.percentile(quantile)
        within = bisect_right(ordered, target_us) / n if n else 1.0
        attainment[label] = within
        attained[label] = within >= quantile
    return SloReport(
        target=target,
        samples=n,
        achieved=achieved,
        attainment=attainment,
        attained=attained,
    )


@dataclass
class RunResult:
    """The outcome of one driven experiment run."""

    system: str
    workload: str
    n_nodes: int
    total_calls: int
    update_calls: int
    rejected_calls: int
    start_us: float
    replicated_us: float
    latency: LatencySeries
    per_method: dict[str, LatencySeries]
    #: Open-loop driving only: arrivals shed by admission control
    #: (per-tenant or global outstanding caps) before ever reaching a
    #: node.  Distinct from ``rejected_calls``, which counts calls the
    #: cluster *refused* (impermissible updates, redirect dead ends).
    dropped_arrivals: int = 0
    #: SLO attainment, when the run declared a target.
    slo: Optional[SloReport] = None
    #: Calls whose redirect loop ran out of attempts (leader changes
    #: that never settled, failed targets that never recovered).  Each
    #: is also counted in ``rejected_calls``, update or query.
    redirect_giveups: int = 0

    @property
    def duration_us(self) -> float:
        return self.replicated_us - self.start_us

    @property
    def throughput_ops_per_us(self) -> float:
        """Paper's metric: calls / time-to-full-replication."""
        if self.duration_us <= 0:
            return 0.0
        return self.total_calls / self.duration_us

    @property
    def mean_response_us(self) -> float:
        return self.latency.mean

    def method_mean(self, method: str) -> float:
        series = self.per_method.get(method)
        return series.mean if series else 0.0

    def summary_row(self) -> str:
        row = (
            f"{self.system:10s} {self.workload:14s} n={self.n_nodes} "
            f"tput={self.throughput_ops_per_us:7.3f} ops/us "
            f"rt={self.mean_response_us:8.2f} us "
            f"({self.total_calls} calls, {self.rejected_calls} rejected)"
        )
        if self.dropped_arrivals:
            row += f" [{self.dropped_arrivals} dropped]"
        if self.redirect_giveups:
            row += f" [{self.redirect_giveups} redirect give-ups]"
        return row
