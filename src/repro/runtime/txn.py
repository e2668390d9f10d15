"""Cross-shard transactions over a :class:`ShardedCluster`.

The commit-path design follows SafarDB (PAPERS.md): whether a
multi-shard call-set needs any cross-shard coordination is decided by
the *RDT commutativity facts* the coordination analysis already
computed, not by a blanket two-phase-lock protocol.

- **Commuting transactions** — no constituent method is conflicting
  under :class:`~repro.core.MethodRelations` — commit per-shard
  fire-and-forget: every call is submitted to its shard concurrently
  and the transaction commits once each shard has locally committed its
  calls.  Replication proceeds asynchronously through each shard's own
  F rings; no shard ever waits on another.  This is safe because the
  calls commute with *every* concurrent update, so any interleaving of
  two commuting transactions' calls converges to the same state and the
  pair is trivially serializable.
- **Conflicting transactions** — at least one constituent method
  conflicts with some update method — fall back to an ordered
  lock/commit protocol: per-shard transaction locks are acquired in
  ascending shard order (total order ⇒ no deadlock), the conflicting
  calls are then routed through each shard's current leader
  sequentially (so a rejection aborts the transaction before anything
  else is issued), the conflict-free remainder is issued concurrently,
  and the locks are released.  Two conflicting transactions sharing
  shards therefore commit in one global order on every shard they
  share.

Every transaction records BEGIN and COMMIT/ABORT instants (with the
identities of the calls it actually issued) into the
:class:`~repro.runtime.trace.ShardedRecorder`, which is what the
offline :class:`~repro.runtime.checker.ShardedTraceChecker` checks
atomicity against.  ``lock_path_enabled=False`` is the negative
control: conflicting transactions are then committed like commuting
ones, a rejected constituent no longer aborts the set before its
siblings land, and the atomicity check fails.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from ..sim import Resource
from .cluster import submit_redirected

__all__ = ["TxnCoordinator", "TxnOp", "TxnOutcome"]


@dataclass(frozen=True)
class TxnOp:
    """One constituent call: routed by ``key``, submitted as
    ``submit(method, arg)`` (``arg`` already embeds the key for keyed
    specs like ``bankmap``)."""

    key: Any
    method: str
    arg: Any = None


@dataclass
class TxnOutcome:
    """What happened to one transaction."""

    txn_id: int
    classification: str  # "commuting" | "locked"
    committed: bool
    #: Identities of the calls that actually landed, as
    #: ``(shard, method, origin, rid)`` — the trace-checkable receipt.
    issued: list[tuple[int, str, str, int]] = field(default_factory=list)
    shards: tuple[int, ...] = ()
    rejected: int = 0


class TxnCoordinator:
    """Classifies and commits multi-shard call-sets (see module doc).

    One coordinator serves any number of concurrent client processes;
    per-shard transaction locks live here (they order *transactions*,
    not calls — single-call traffic never touches them).
    """

    def __init__(self, sharded, recorder: Optional[Any] = None,
                 lock_path_enabled: bool = True, max_attempts: int = 50):
        self.sharded = sharded
        self.env = sharded.env
        self.relations = sharded.coordination.relations
        self.recorder = recorder
        #: The load-bearing safety knob: False sends conflicting
        #: transactions down the uncoordinated path (negative control).
        self.lock_path_enabled = lock_path_enabled
        self.max_attempts = max_attempts
        self._locks = [
            Resource(self.env, capacity=1)
            for _ in range(sharded.n_shards)
        ]
        self._ids = itertools.count(1)
        self._gateway_rr = itertools.count()
        self.counters: dict[str, int] = {
            "txns_commuting": 0,
            "txns_locked": 0,
            "commits": 0,
            "aborts": 0,
            "lock_waits": 0,
            "rejected_calls": 0,
            #: Calls that ran out of ``max_attempts``.
            "redirect_giveups": 0,
        }

    # -- classification --------------------------------------------------

    def classify(self, ops: Sequence[TxnOp]) -> str:
        """``"commuting"`` iff no constituent method conflicts with any
        update method of the spec (its own method included).

        The check is against the *whole* method vocabulary, not just
        the transaction's own ops: a conflicting method needs shard-
        leader ordering against other transactions' calls even when
        nothing inside this set conflicts pairwise.
        """
        if any(self.relations.is_conflicting(op.method) for op in ops):
            return "locked"
        return "commuting"

    # -- entry points ----------------------------------------------------

    def submit(self, ops: Iterable[TxnOp]):
        """Run the transaction as a sim process; the process's value is
        its :class:`TxnOutcome`."""
        ops = list(ops)
        txn_id = next(self._ids)
        return self.env.process(
            self._run(txn_id, ops), name=f"txn:{txn_id}"
        )

    def _run(self, txn_id: int, ops: list[TxnOp]):
        classification = self.classify(ops)
        by_shard: dict[int, list[TxnOp]] = {}
        for op in ops:
            by_shard.setdefault(self.sharded.shard_of(op.key), []).append(op)
        shard_ids = tuple(sorted(by_shard))
        self._record("BEGIN", txn_id, classification, shard_ids, [])
        use_locks = classification == "locked" and self.lock_path_enabled
        if use_locks:
            self.counters["txns_locked"] += 1
            outcome = yield from self._run_locked(
                txn_id, classification, by_shard, shard_ids
            )
        else:
            if classification == "locked":
                self.counters["txns_locked"] += 1
            else:
                self.counters["txns_commuting"] += 1
            outcome = yield from self._run_fire_and_forget(
                txn_id, classification, by_shard, shard_ids
            )
        self.counters["commits" if outcome.committed else "aborts"] += 1
        self._record(
            "COMMIT" if outcome.committed else "ABORT",
            txn_id, classification, shard_ids, outcome.issued,
        )
        return outcome

    # -- commit paths ----------------------------------------------------

    def _run_fire_and_forget(self, txn_id, classification, by_shard,
                             shard_ids):
        """All calls concurrently, no coordination (commuting path)."""
        flat = [
            (shard, op)
            for shard in shard_ids
            for op in by_shard[shard]
        ]
        results = yield from self._submit_concurrent(flat)
        issued, rejected = [], 0
        for (shard, op), call in zip(flat, results):
            if call is None:
                rejected += 1
            else:
                issued.append((shard, call.method, call.origin, call.rid))
        return TxnOutcome(
            txn_id=txn_id,
            classification=classification,
            committed=rejected == 0,
            issued=issued,
            shards=shard_ids,
            rejected=rejected,
        )

    def _run_locked(self, txn_id, classification, by_shard, shard_ids):
        """Ordered lock/commit: locks in ascending shard order, then
        conflicting calls sequentially via each shard's leader (a
        rejection aborts before anything else is issued), then the
        conflict-free remainder concurrently."""
        held: list[int] = []
        issued: list[tuple[int, str, str, int]] = []
        rejected = 0
        try:
            for shard in shard_ids:
                before = self.env.now
                yield self._locks[shard].acquire()
                if self.env.now > before:
                    self.counters["lock_waits"] += 1
                held.append(shard)
            conflicting = [
                (shard, op)
                for shard in shard_ids
                for op in by_shard[shard]
                if self.relations.is_conflicting(op.method)
            ]
            free = [
                (shard, op)
                for shard in shard_ids
                for op in by_shard[shard]
                if not self.relations.is_conflicting(op.method)
            ]
            for shard, op in conflicting:
                call = yield from self._submit_op(shard, op, to_leader=True)
                if call is None:
                    # All-or-nothing holds: nothing else was issued yet.
                    rejected += 1
                    return TxnOutcome(
                        txn_id=txn_id,
                        classification=classification,
                        committed=False,
                        issued=issued,
                        shards=shard_ids,
                        rejected=rejected,
                    )
                issued.append((shard, call.method, call.origin, call.rid))
            results = yield from self._submit_concurrent(free)
            for (shard, op), call in zip(free, results):
                if call is None:
                    rejected += 1
                else:
                    issued.append(
                        (shard, call.method, call.origin, call.rid)
                    )
            return TxnOutcome(
                txn_id=txn_id,
                classification=classification,
                committed=rejected == 0,
                issued=issued,
                shards=shard_ids,
                rejected=rejected,
            )
        finally:
            for shard in reversed(held):
                self._locks[shard].release()

    # -- submission ------------------------------------------------------

    def _submit_concurrent(self, flat):
        """Issue ``[(shard, op), ...]`` as parallel sub-processes and
        collect their calls (None per rejected op)."""
        processes = [
            self.env.process(
                self._submit_op(
                    shard, op,
                    to_leader=self.relations.is_conflicting(op.method),
                )
            )
            for shard, op in flat
        ]
        results = []
        for process in processes:
            call = yield process
            results.append(call)
        return results

    def _submit_op(self, shard_index: int, op: TxnOp, to_leader: bool):
        """Submit one call to its shard through the runtime's redirect
        policy (:func:`~repro.runtime.cluster.submit_redirected`),
        starting at a round-robin gateway; returns the committed
        :class:`~repro.core.Call` or None on rejection."""
        shard = self.sharded.shard(shard_index)
        names = shard.node_names()
        gateway = shard.node(names[next(self._gateway_rr) % len(names)])
        ok, call = yield from submit_redirected(
            self.env, shard, gateway, op.method, op.arg, to_leader,
            attempts=self.max_attempts,
        )
        if ok is False:
            self.counters["rejected_calls"] += 1
        elif ok is None:
            self.counters["redirect_giveups"] += 1
        return call

    # -- recording -------------------------------------------------------

    def _record(self, name, txn_id, classification, shard_ids, issued):
        if self.recorder is not None:
            self.recorder.record_txn(
                name, txn_id, classification, shard_ids, issued
            )
