"""Live run telemetry: a periodic metrics stream over the probe seam.

:class:`MetricsEmitter` is a background sim process (same idiom as the
scrubber) that samples, at a fixed sim-time interval:

- the cluster-wide probe rollup, one number per section of
  :data:`~repro.runtime.probe.SECTIONS` (a sum, or the maximum for a
  high-water section),
- the recorder's per-phase latency histograms (count/mean/p50/p95/
  p99/p999),
- the trace ring's drop accounting, and
- the :class:`~repro.runtime.stream_checker.StreamingChecker`'s live
  progress (events checked, window size, verified/checkpoint seq, lag)

into newline-delimited JSON — one self-contained sample per line, with
sorted keys so a deterministic run emits a deterministic stream.  The
final sample (written by :meth:`close`, after the run settles) carries
``"final": true``.

An optional ``progress`` callback receives a one-line human summary
per sample — the CLI renders it as a live terminal status line during
``repro run/chaos --live-check``.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Optional, TextIO, Union

from .probe import MAX_SECTIONS, SECTIONS

__all__ = ["MetricsEmitter"]


def _rollup_row(probe: dict[str, Any]) -> dict[str, int]:
    """One number per probe section: the worst key of a high-water
    section, the sum of every other section's keys."""
    row = {}
    for name in SECTIONS:
        section = probe.get(name) or 0
        if isinstance(section, dict):
            values = section.values()
            section = (
                max(values, default=0) if name in MAX_SECTIONS
                else sum(values)
            )
        row[name] = int(section)
    return row


class MetricsEmitter:
    """Periodic JSONL metrics sampler for an instrumented run.

    >>> emitter = MetricsEmitter(env, cluster=cluster, recorder=recorder,
    ...                          checker=checker, out="metrics.jsonl")
    >>> emitter.start()
    ... # drive the run ...
    >>> emitter.close()   # final sample + flush

    ``out`` may be a path or an open text file; ``checker`` (a
    :class:`~repro.runtime.stream_checker.StreamingChecker`) and
    ``cluster``/``recorder`` are each optional — absent sources simply
    leave their section out of the sample.
    """

    def __init__(self, env, cluster: Any = None, recorder: Any = None,
                 checker: Any = None,
                 interval_us: float = 200.0,
                 out: Union[str, TextIO, None] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 label: str = ""):
        if interval_us <= 0:
            raise ValueError("metrics interval must be positive")
        self.env = env
        self.cluster = cluster
        self.recorder = recorder
        self.checker = checker
        self.interval_us = interval_us
        self.label = label
        self.progress = progress
        self.samples = 0
        self._fp: Optional[TextIO] = None
        self._owns_fp = False
        if isinstance(out, str):
            self._fp = open(out, "w", encoding="utf-8")
            self._owns_fp = True
        elif out is not None:
            self._fp = out
        self._stopped = False
        self._started = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "MetricsEmitter":
        """Spawn the periodic sampling process."""
        if not self._started:
            self._started = True
            self.env.process(self._loop())
        return self

    def _loop(self):
        while not self._stopped:
            yield self.env.timeout(self.interval_us)
            if self._stopped:
                return
            self.sample()

    def close(self) -> None:
        """Stop sampling, write one final sample, release the file."""
        if self._stopped:
            return
        self._stopped = True
        self.sample(final=True)
        if self._fp is not None:
            self._fp.flush()
            if self._owns_fp:
                self._fp.close()
            self._fp = None

    # -- sampling --------------------------------------------------------

    def sample(self, final: bool = False) -> dict[str, Any]:
        """Take one sample; write it to the stream if one is attached."""
        record: dict[str, Any] = {
            "kind": "metrics",
            "t": self.env.now,
            "sample": self.samples,
        }
        if self.label:
            record["run"] = self.label
        if final:
            record["final"] = True
        if self.cluster is not None:
            stats = self.cluster.stats()
            rollup = stats.get("cluster") or stats.get("global") or {}
            probe = rollup.get("probe", {})
            record["probe"] = _rollup_row(probe)
        if self.recorder is not None:
            record["trace"] = {
                "dropped": self.recorder.dropped(),
                "gaps": len(self.recorder.drop_gaps()),
            }
            record["phases"] = {
                phase: histogram.summary()
                for phase, histogram in sorted(
                    self.recorder.phase_histograms().items()
                )
            }
        if self.checker is not None:
            record["checker"] = checker_stats = dict(self.checker.stats())
            checker_stats["lag"] = max(
                0, checker_stats["last_seq"] - checker_stats["verified_seq"]
            )
        self.samples += 1
        if self._fp is not None:
            self._fp.write(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
            )
            self._fp.write("\n")
        if self.progress is not None:
            self.progress(self._progress_line(record))
        return record

    def _progress_line(self, record: dict[str, Any]) -> str:
        parts = [f"t={record['t']:.0f}us"]
        checker = record.get("checker")
        if checker:
            verdict = (
                "ok" if not checker["violations"]
                else f"{checker['violations']} VIOLATION(S)"
            )
            parts.append(
                f"checked={checker['events']} window={checker['window']} "
                f"lag={checker['lag']} {verdict}"
            )
        probe = record.get("probe")
        if probe:
            parts.append(f"applies={probe['applies']}")
        phases = record.get("phases")
        if phases:
            apply_phase = phases.get("apply") or phases.get("invoke")
            if apply_phase and apply_phase["count"]:
                parts.append(
                    f"p99={apply_phase['p99']:.1f}us "
                    f"p999={apply_phase['p999']:.1f}us"
                )
        if record.get("final"):
            parts.append("(final)")
        return "[live] " + " ".join(parts)
