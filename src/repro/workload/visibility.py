"""Visibility (replication-lag) analysis over a run's recorded trace.

The paper's follow-up line (Hampa) adds *recency* guarantees on top of
well-coordination; the first step toward reasoning about recency is
measuring it.  Given the trace a
:class:`~repro.runtime.TraceRecorder` captured, this module
computes, per buffered call, the lag from its issue transition
(FREE/CONF) to each remote application (FREE-APP/CONF-APP), and
aggregates per category.

Reducible calls are excluded: their remote installation is a raw
summary-slot write with no apply transition (that invisibility *is*
their selling point); their visibility equals the one-sided write
latency by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from ..core import concrete_events
from .metrics import LatencySeries

__all__ = ["VisibilityReport", "visibility_report"]


@dataclass
class VisibilityReport:
    """Replication-lag distributions extracted from a recorded trace."""

    #: Lag from issue to each individual remote apply.
    per_apply: LatencySeries = field(default_factory=LatencySeries)
    #: Lag from issue to the *last* apply (call fully replicated).
    full_replication: LatencySeries = field(default_factory=LatencySeries)
    by_rule: dict[str, LatencySeries] = field(default_factory=dict)
    issued: int = 0
    applied: int = 0
    #: Calls issued but not applied everywhere within the log.
    incomplete: int = 0

    def summary(self) -> str:
        return (
            f"visibility: {self.issued} buffered calls, "
            f"{self.applied} applies, {self.incomplete} incomplete; "
            f"per-apply mean {self.per_apply.mean:.2f}us "
            f"p95 {self.per_apply.p95:.2f}us; "
            f"full replication mean {self.full_replication.mean:.2f}us"
        )


_ISSUE_RULES = {"FREE": "FREE_APP", "CONF": "CONF_APP"}


def visibility_report(trace: Iterable[Any], n_processes: int,
                      dropped: int = 0) -> VisibilityReport:
    """Compute replication lags from ``recorder.events()`` (only its
    rule and transfer rows are read, through :func:`concrete_events`);
    a truncated trace (``dropped > 0``) is refused, as for refinement."""
    report = VisibilityReport()
    issue_at: dict[tuple[str, int], tuple[float, str]] = {}
    applies: dict[tuple[str, int], list[float]] = {}
    for event in concrete_events(trace, dropped):
        key = event.call.key()
        if event.rule in _ISSUE_RULES:
            issue_at[key] = (event.at, event.rule)
            report.issued += 1
        elif event.rule in ("FREE_APP", "CONF_APP"):
            applies.setdefault(key, []).append(event.at)
            report.applied += 1
    for key, (issued, rule) in issue_at.items():
        times = applies.get(key, [])
        series = report.by_rule.setdefault(rule, LatencySeries())
        for applied_at in times:
            lag = applied_at - issued
            report.per_apply.add(lag)
            series.add(lag)
        if len(times) >= n_processes - 1:
            report.full_replication.add(max(times) - issued)
        else:
            report.incomplete += 1
    return report
