"""Instrumentation seam threaded through the four runtime layers.

Every layer reports to one :class:`RuntimeProbe`.  Plain counts go
through two generic calls, :meth:`~RuntimeProbe.count` and
:meth:`~RuntimeProbe.peak`, named by a :data:`SECTIONS` entry; the
remaining hooks carry call or fault identity a tracing probe records.
The base class is a **no-op** — layers can be used bare (e.g. in
micro-tests) with zero instrumentation cost beyond an empty method
call.  :class:`CountingProbe` is the live implementation the
:class:`~repro.runtime.HambandNode` façade installs by default and
surfaces through ``HambandNode.stats()``.
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

    # -- counts ------------------------------------------------------------

    def count(self, section: str, key: str, by: int = 1) -> None:
        """Add ``by`` to ``key`` of ``section`` (a :data:`SECTIONS`
        name outside :data:`MAX_SECTIONS`)."""

    def peak(self, section: str, key: str, value: int) -> None:
        """Raise ``key`` of ``section`` (a :data:`MAX_SECTIONS` name) to
        ``value`` if it is larger: a high-water mark."""

    # -- causal tracing ----------------------------------------------------
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
        """A concrete-semantics transition became *visible* in σ here
        (counted in ``applies`` by ``rule``).

        Fired at commit time — REDUCE/FREE at the issuing node, CONF at
        the leader only after replication succeeded, FREE_APP/CONF_APP
        at the applying node, QUERY at evaluation.  ``arg`` rides along
        so a recorded trace can be replayed offline (the no-op and
        counting probes ignore it).
        """

    def trace_transfer(self, ring: str, method: str, origin: str,
                       rid: int, size: int) -> None:
        """``size`` payload bytes for one call crossed ``ring``."""

    def trace_fault(self, kind: str, target: str, detail: str) -> None:
        """The fault injector injected ``kind`` at/against ``target``
        (counted in ``faults``)."""

    def trace_repair(self, ring: str, index: int, kind: str) -> None:
        """One damaged slot of ``ring`` at record ``index`` was
        refetched from an authoritative copy and rewritten (counted in
        ``slot_repairs``); ``kind`` classifies the damage (``bitflip``
        / ``torn`` / ``scrub``), so the offline checker can correlate
        injected faults with repairs."""

    def giveup(self, loop: str, subject: str, gid: str = "") -> None:
        """A bounded ``loop`` (``campaign``, ``xfer_barrier``,
        ``backpressure``, ``redirect``) stopped waiting on ``subject``
        without success (counted in ``giveups`` by loop)."""

    def member_event(self, event: str, node: str, detail: str = "") -> None:
        """A membership change became visible at this node (counted in
        ``member_events``): ``member_join`` / ``member_leave`` when the
        epoch advanced (the subject is ``node``), or ``state_xfer`` when
        a joining or rejoining node completed its authoritative state
        transfer.  Tracing probes record these so the trace checkers
        account for mid-run membership."""

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A point-in-time copy of whatever the probe accumulated."""
        return {}


#: Every section :class:`CountingProbe` publishes, in snapshot order:
#: ``{label: count}`` tables, then ``recoveries``, a plain total.
SECTIONS = (
    "applies", "ring_highwater", "records_drained", "backpressure_stalls",
    "ack_flushes", "flow_rearms", "conflict_retries", "conflict_batches",
    "conflict_batch_max", "demotions", "hole_repairs", "giveups",
    "ring_resyncs", "crc_rejects", "torn_detected", "slot_repairs",
    "wire_rejects", "scrub_passes", "rejections", "faults", "op_retries",
    "peer_degraded", "fd_phi_suspects", "hedged_reads", "hedge_wins",
    "catch_ups", "member_events", "recoveries",
)

#: Sections that keep a per-key maximum (written by ``peak``, and
#: rolled up by maximum instead of by sum: high-water marks are not
#: additive across nodes).
MAX_SECTIONS = ("ring_highwater", "conflict_batch_max")


class CountingProbe(RuntimeProbe):
    """Counter/high-water-mark probe backing ``HambandNode.stats()``.

    Every count lives once, in :attr:`sections`, under the name
    :meth:`snapshot` publishes it by.  ``recoveries`` is kept as a
    table like the rest and published as its total.
    """

    def __init__(self) -> None:
        self.sections: dict[str, dict[str, int]] = {
            name: {} for name in SECTIONS
        }

    def count(self, section: str, key: str, by: int = 1) -> None:
        table = self.sections[section]
        table[key] = table.get(key, 0) + by

    def peak(self, section: str, key: str, value: int) -> None:
        table = self.sections[section]
        if value > table.get(key, 0):
            table[key] = value

    def trace_apply(self, rule: str, method: str, origin: str, rid: int,
                    arg: Any = None) -> None:
        # Inlined rather than ``self.count``: it fires once per apply.
        applies = self.sections["applies"]
        applies[rule] = applies.get(rule, 0) + 1

    def trace_fault(self, kind: str, target: str, detail: str) -> None:
        self.count("faults", kind)

    def trace_repair(self, ring: str, index: int, kind: str) -> None:
        self.count("slot_repairs", ring)

    def giveup(self, loop: str, subject: str, gid: str = "") -> None:
        self.count("giveups", loop)

    def member_event(self, event: str, node: str, detail: str = "") -> None:
        self.count("member_events", event)

    def snapshot(self) -> dict[str, Any]:
        snapshot: dict[str, Any] = {
            name: dict(table) for name, table in self.sections.items()
        }
        snapshot["recoveries"] = sum(snapshot["recoveries"].values())
        return snapshot


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
    }


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
