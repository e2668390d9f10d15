"""Instrumentation seam threaded through the four runtime layers.

Every layer calls a handful of :class:`RuntimeProbe` hooks on its hot
and rare paths.  The base class is a **no-op** — layers can be used
bare (e.g. in micro-tests) with zero instrumentation cost beyond an
empty method call.  :class:`CountingProbe` is the live implementation
the :class:`~repro.runtime.HambandNode` façade installs by default and
surfaces through ``HambandNode.stats()``, so perf work can measure
before optimizing:

- per-rule applies (REDUCE / FREE / CONF / FREE_APP / CONF_APP / QUERY),
- ring occupancy high-water marks (writer-side tail − acked depth),
- records drained per ring (reader-side consumption totals),
- backpressure stalls per ring (and flow-control re-arms after a
  reader heals),
- conflict-path retries, decided-batch sizes, demotions, hole repairs,
- control-plane forwards, redirects, and rejected calls,
- flow-control ack flushes and broadcast recoveries.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "CountingProbe",
    "RuntimeProbe",
    "operation_totals",
    "rollup_node_stats",
    "rollup_snapshots",
]


class RuntimeProbe:
    """No-op instrumentation interface (override what you measure).

    Hooks are deliberately tiny and exception-free: a probe must never
    change runtime behaviour.  All hooks take plain strings/ints so a
    probe can aggregate however it likes (counters, histograms, traces).
    """

    # -- apply engine ----------------------------------------------------

    def apply(self, rule: str) -> None:
        """One concrete-semantics transition fired (per-rule counter)."""

    def recovered(self) -> None:
        """One broadcast-recovered call delivered via the pending queue."""

    # -- transport -------------------------------------------------------

    def ring_depth(self, ring: str, depth: int) -> None:
        """Observed occupancy of ``ring`` (high-water mark is kept).

        Reserved for *occupancy*: writer-side this is tail − acked;
        per-sweep drain counts go through :meth:`records_drained`.
        """

    def records_drained(self, ring: str, count: int) -> None:
        """``count`` records consumed from ``ring`` in one sweep."""

    def backpressure_stall(self, ring: str) -> None:
        """A writer waited one backpressure round on ``ring``."""

    def ack_flush(self, ring: str) -> None:
        """One flow-control ack write pushed back to ``ring``'s writer."""

    def flow_rearmed(self, ring: str) -> None:
        """Backpressure re-armed against ``ring``'s reader: after a
        fallback to ring-sizing mode, a fresh ack proved the reader is
        draining again."""

    # -- conflict coordinator --------------------------------------------

    def conflict_retry(self, gid: str) -> None:
        """A conflicting call was requeued awaiting permissibility."""

    def conflict_batch(self, gid: str, size: int) -> None:
        """A decision of ``size`` calls committed for group ``gid``."""

    def demoted(self, gid: str) -> None:
        """This node stopped leading ``gid``."""

    def hole_repair(self, gid: str) -> None:
        """The hole detector triggered a log self-repair for ``gid``."""

    def campaign_giveup(self, gid: str, suspect: str) -> None:
        """This candidate lost every campaign for ``gid`` while the
        suspected leader ``suspect`` still led it, and stopped trying."""

    def ring_resync(self, ring: str) -> None:
        """A lapped reader fast-forwarded past an overwritten window
        of ``ring`` (records there recovered out of band)."""

    # -- silent-corruption detection and repair --------------------------

    def crc_reject(self, ring: str) -> None:
        """A checksummed record on ``ring`` failed CRC verification —
        a bitflip or torn interior write was *detected* instead of
        delivered."""

    def torn_detect(self, ring: str) -> None:
        """A repaired slot's pre-repair bytes were classified as a torn
        (prefix-only) write rather than a bitflip."""

    def slot_repair(self, ring: str) -> None:
        """One quarantined/corrupt/diverged slot was refetched from an
        authoritative copy and rewritten locally."""

    def wire_reject(self, ring: str) -> None:
        """A drained record's payload failed wire decoding and was
        skipped.  The record passed its CRC (corrupted bytes are
        rejected before decoding), so this is a writer bug."""

    def scrub_pass(self, ring: str) -> None:
        """The background scrubber completed one verification window
        over ``ring``'s committed prefix."""

    def trace_repair(self, ring: str, index: int, kind: str) -> None:
        """A detected corruption on ``ring`` at record ``index`` was
        repaired; ``kind`` classifies it (``bitflip`` / ``torn`` /
        ``scrub``).  Recorded by tracing probes so the offline checker
        can correlate injected faults with repairs."""

    # -- control plane ---------------------------------------------------

    def forwarded(self, method: str) -> None:
        """A conflicting call was served on behalf of a remote client."""

    def redirected(self, method: str) -> None:
        """A forwarded call bounced: the serving peer no longer leads."""

    def rejected(self, reason: str) -> None:
        """A request failed (reason: impermissible / not_leader / ...)."""

    # -- faults and recovery ---------------------------------------------

    def trace_fault(self, kind: str, target: str, detail: str) -> None:
        """The fault injector injected ``kind`` at/against ``target``."""

    def op_retry(self, kind: str) -> None:
        """A one-sided op failed transiently and was retried."""

    def retry_budget_exhausted(self, kind: str) -> None:
        """A retry loop gave up because its cumulative backoff budget
        ran out (distinct from exhausting the attempt cap)."""

    # -- adaptive failure detection and hedging --------------------------

    def peer_degraded(self, peer: str) -> None:
        """The latency health tracker classified ``peer`` as degraded
        (limping but alive): its one-sided poll-read EWMA crossed the
        degraded threshold."""

    def phi_suspect(self, peer: str) -> None:
        """The phi-accrual detector crossed its threshold for ``peer``
        (heartbeat arrivals stopped fitting the learned distribution)."""

    def hedged_read(self, ring: str) -> None:
        """A hedge fired: the primary read outlived the hedge delay and
        a second read was posted to the next-best source."""

    def hedge_win(self, ring: str) -> None:
        """The hedge read completed first (the hedge paid off)."""

    def catch_up(self, source: str) -> None:
        """This node completed a rejoin/catch-up pass (from ``source``,
        or ``"restart"`` for a full post-restart rejoin)."""

    # -- membership -------------------------------------------------------

    def member_event(self, event: str, node: str, detail: str = "") -> None:
        """A membership change became visible at this node:
        ``member_join`` / ``member_leave`` when the epoch advanced (the
        subject is ``node``), or ``state_xfer`` when a joining or
        rejoining node completed its authoritative state transfer.
        Tracing probes record these so the trace checkers account for
        mid-run membership."""

    # -- causal tracing (no-op unless a TracingProbe is installed) --------
    #
    # The span/trace hooks carry enough identity (method, origin, rid)
    # for a tracing probe to stitch per-call lifecycles —
    # invoke → propagate → decide → apply → visible — without the
    # layers ever building strings or dicts on the hot path.  ``rid=0``
    # marks calls without a request id (queries).

    def span_begin(self, phase: str, method: str, origin: str,
                   rid: int) -> None:
        """A per-call lifecycle phase started at this node."""

    def span_end(self, phase: str, method: str, origin: str,
                 rid: int) -> None:
        """The matching phase finished (latency = end - begin)."""

    def trace_apply(self, rule: str, method: str, origin: str, rid: int,
                    arg: Any = None) -> None:
        """A concrete-semantics transition became *visible* in σ here.

        Fired at commit time — REDUCE/FREE at the issuing node, CONF at
        the leader only after replication succeeded, FREE_APP/CONF_APP
        at the applying node, QUERY at evaluation.  ``arg`` rides along
        so a recorded trace can be replayed offline (the no-op and
        counting probes ignore it).
        """

    def trace_transfer(self, ring: str, method: str, origin: str,
                       rid: int, size: int) -> None:
        """``size`` payload bytes for one call crossed ``ring``."""

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A point-in-time copy of whatever the probe accumulated."""
        return {}


#: Every section :class:`CountingProbe` publishes, in snapshot order:
#: ``{label: count}`` tables, then ``recoveries``, a plain total.
SECTIONS = (
    "applies", "ring_highwater", "records_drained", "backpressure_stalls",
    "ack_flushes", "flow_rearms", "conflict_retries", "conflict_batches",
    "conflict_batch_max", "demotions", "hole_repairs", "campaign_giveups",
    "ring_resyncs", "crc_rejects", "torn_detected", "slot_repairs",
    "wire_rejects", "scrub_passes", "forwards", "redirects", "rejections",
    "faults", "op_retries", "retry_budget_exhausted", "peer_degraded",
    "fd_phi_suspects", "hedged_reads", "hedge_wins", "catch_ups",
    "member_events", "recoveries",
)


class CountingProbe(RuntimeProbe):
    """Counter/high-water-mark probe backing ``HambandNode.stats()``.

    Every count lives once, in :attr:`sections`, under the name
    :meth:`snapshot` publishes it by.
    """

    def __init__(self) -> None:
        self.sections: dict[str, Any] = {name: {} for name in SECTIONS}
        self.sections["recoveries"] = 0

    def _bump(self, section: str, key: str, by: int = 1) -> None:
        table = self.sections[section]
        table[key] = table.get(key, 0) + by

    def apply(self, rule: str) -> None:
        self._bump("applies", rule)

    def recovered(self) -> None:
        self.sections["recoveries"] += 1

    def ring_depth(self, ring: str, depth: int) -> None:
        highwater = self.sections["ring_highwater"]
        if depth > highwater.get(ring, 0):
            highwater[ring] = depth

    def records_drained(self, ring: str, count: int) -> None:
        self._bump("records_drained", ring, count)

    def backpressure_stall(self, ring: str) -> None:
        self._bump("backpressure_stalls", ring)

    def ack_flush(self, ring: str) -> None:
        self._bump("ack_flushes", ring)

    def flow_rearmed(self, ring: str) -> None:
        self._bump("flow_rearms", ring)

    def conflict_retry(self, gid: str) -> None:
        self._bump("conflict_retries", gid)

    def conflict_batch(self, gid: str, size: int) -> None:
        self._bump("conflict_batches", gid)
        largest = self.sections["conflict_batch_max"]
        if size > largest.get(gid, 0):
            largest[gid] = size

    def demoted(self, gid: str) -> None:
        self._bump("demotions", gid)

    def hole_repair(self, gid: str) -> None:
        self._bump("hole_repairs", gid)

    def campaign_giveup(self, gid: str, suspect: str) -> None:
        self._bump("campaign_giveups", gid)

    def ring_resync(self, ring: str) -> None:
        self._bump("ring_resyncs", ring)

    def crc_reject(self, ring: str) -> None:
        self._bump("crc_rejects", ring)

    def torn_detect(self, ring: str) -> None:
        self._bump("torn_detected", ring)

    def slot_repair(self, ring: str) -> None:
        self._bump("slot_repairs", ring)

    def wire_reject(self, ring: str) -> None:
        self._bump("wire_rejects", ring)

    def scrub_pass(self, ring: str) -> None:
        self._bump("scrub_passes", ring)

    def forwarded(self, method: str) -> None:
        self._bump("forwards", method)

    def redirected(self, method: str) -> None:
        self._bump("redirects", method)

    def rejected(self, reason: str) -> None:
        self._bump("rejections", reason)

    def trace_fault(self, kind: str, target: str, detail: str) -> None:
        self._bump("faults", kind)

    def op_retry(self, kind: str) -> None:
        self._bump("op_retries", kind)

    def retry_budget_exhausted(self, kind: str) -> None:
        self._bump("retry_budget_exhausted", kind)

    def peer_degraded(self, peer: str) -> None:
        self._bump("peer_degraded", peer)

    def phi_suspect(self, peer: str) -> None:
        self._bump("fd_phi_suspects", peer)

    def hedged_read(self, ring: str) -> None:
        self._bump("hedged_reads", ring)

    def hedge_win(self, ring: str) -> None:
        self._bump("hedge_wins", ring)

    def catch_up(self, source: str) -> None:
        self._bump("catch_ups", source)

    def member_event(self, event: str, node: str, detail: str = "") -> None:
        self._bump("member_events", event)

    def snapshot(self) -> dict[str, Any]:
        return {
            name: dict(value) if isinstance(value, dict) else value
            for name, value in self.sections.items()
        }


def operation_totals(probe: dict[str, Any]) -> dict[str, int]:
    """``stats()["counters"]``: the per-node operation totals, read off
    a probe snapshot (all zero for an uninstrumented, no-op probe).

    CONF counts at commit, on the leader, once replication succeeded.
    """
    applies = probe.get("applies", {})
    return {
        "queries": applies.get("QUERY", 0),
        "reduced": applies.get("REDUCE", 0),
        "freed": applies.get("FREE", 0),
        "conf_decided": applies.get("CONF", 0),
        "buffer_applied": (
            applies.get("FREE_APP", 0) + applies.get("CONF_APP", 0)
        ),
        "recovered_applied": probe.get("recoveries", 0),
        "forwarded": sum(probe.get("forwards", {}).values()),
    }


#: Snapshot sections that aggregate by maximum instead of by sum
#: (high-water marks are not additive across nodes).
MAX_SECTIONS = ("ring_highwater", "conflict_batch_max")


def rollup_snapshots(snapshots: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """Aggregate per-node probe snapshots into one cluster-wide view.

    Plain integers and ``{key: int}`` sections are summed across nodes;
    sections named in :data:`MAX_SECTIONS` keep the per-key maximum (a
    cluster high-water mark is the worst node's, not the total).
    Non-numeric sections (e.g. a tracing probe's nested phase
    summaries) are skipped — dashboards read those per node.
    """
    rollup: dict[str, Any] = {}
    for snapshot in snapshots.values():
        for section, value in snapshot.items():
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                rollup[section] = rollup.get(section, 0) + value
            elif isinstance(value, dict):
                merged = rollup.setdefault(section, {})
                for key, count in value.items():
                    if not isinstance(count, (int, float)) or isinstance(
                        count, bool
                    ):
                        continue
                    if section in MAX_SECTIONS:
                        merged[key] = max(merged.get(key, 0), count)
                    else:
                        merged[key] = merged.get(key, 0) + count
    return rollup


def rollup_node_stats(per_node: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """Aggregate ``HambandNode.stats()``-shaped snapshots into one view.

    Each input value carries a ``"probe"`` section; the result is
    ``{"counters": ..., "probe": ...}`` — the probes rolled up by
    :func:`rollup_snapshots`, and the counters derived from that rollup
    by :func:`operation_totals` (every counter is a sum, so deriving after
    summing equals summing the per-node counters).  Used for the
    per-cluster rollup in :meth:`~repro.runtime.HambandCluster.stats`
    and — because the output shape matches the input shape — again for
    the global rollup over per-shard rollups in
    :meth:`~repro.runtime.sharding.ShardedCluster.stats`.
    """
    probe = rollup_snapshots(
        {name: stats.get("probe", {}) for name, stats in per_node.items()}
    )
    return {"counters": operation_totals(probe), "probe": probe}
