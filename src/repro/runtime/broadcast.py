"""RDMA reliable broadcast (paper §4 "RDMA Reliable Broadcast").

Best-effort broadcast on RDMA is a batch of remote writes — but the
source may crash mid-batch, delivering to some nodes and not others.
For agreement, the source keeps a *backup slot* readable by every peer:

1. write the message into the local backup slot,
2. remotely write it for every peer (one one-sided write each),
3. clear the backup slot.

If peers suspect the source (heartbeat silence), each survivor remote-
reads the backup slot; a non-empty slot is a possibly half-delivered
message, which the survivor delivers if it has not already (delivery is
deduplicated by the call's unique id upstream).
"""

from __future__ import annotations

import struct
from typing import Any, Generator, Optional

from ..rdma import (
    Access,
    MemoryRegion,
    QueuePair,
    RdmaNode,
    WcStatus,
    post_write_batch,
)
from ..sim import Environment, Event

__all__ = ["ReliableBroadcast", "BACKUP_REGION"]

BACKUP_REGION = "hamband:bcast_backup"
_HEADER = 4  # payload length
#: Largest message the backup slot holds.
BACKUP_SIZE = 4608
#: CPU cost of each local backup-slot write.
LOCAL_WRITE_US = 0.02


class ReliableBroadcast:
    """One node's broadcast endpoint: backup slot + write fan-out."""

    def __init__(self, node: RdmaNode):
        self.node = node
        self.env: Environment = node.env
        self.backup = node.register(
            BACKUP_REGION,
            _HEADER + BACKUP_SIZE,
            access=Access.LOCAL | Access.REMOTE_READ,
        )
        #: Fault injection: when set, the source "process" dies at the
        #: next step of an in-flight broadcast — writes stop and the
        #: backup slot is never cleared, while the node's registered
        #: memory stays remotely readable (the RDMA failure model: a
        #: crashed process's NIC still serves one-sided reads).
        self.halted = False

    # -- source side -----------------------------------------------------

    def broadcast(
        self,
        message: bytes,
        writes: list[tuple[QueuePair, MemoryRegion, int, Any]],
        is_suspected=None,
        max_retries: int = 50,
        retry_us: float = 20.0,
        piggyback: list[tuple[QueuePair, MemoryRegion, int, Any]] = (),
    ) -> Generator[Event, Any, list]:
        """``yield from`` helper: backup, fan out (with retries), clear.

        ``writes`` carries per-target (qp, region, offset, payload) —
        the same logical ``message`` rendered for each target's ring or
        slot.  ``payload`` may be a zero-argument callable, re-evaluated
        on each retry (summary slots re-render their *current* bytes so
        a retry can never clobber a newer summary with an older one).

        Each fan-out round is posted as ONE doorbell batch: a single
        ``post_cpu_us`` charge and a single completion wait cover the
        whole round, as a real NIC's chained work requests would.
        ``piggyback`` writes (flow-control acks coalesced onto this
        batch) ride the first round's doorbell fire-and-forget: their
        completions are awaited with the round but never retried, and
        they play no part in the broadcast's agreement bookkeeping.

        A failed write (unreachable peer, transient fault) is retried
        until it succeeds or the target is suspected — under the
        crash-stop model a suspected node is dead and owed nothing;
        short transients (e.g. a healed link) are ridden out.  If any
        write is *abandoned* toward an un-suspected peer (retries
        exhausted, or no suspicion oracle to consult), the backup slot
        is deliberately NOT cleared: the message may be half-delivered,
        and the backup is exactly what lets survivors finish the
        delivery (the paper's §4 agreement argument).

        Already-suspected targets are not posted to at all.  A
        *fail-slow* peer completes writes eventually but late — waiting
        on its completion gates the whole batch behind the straggler.
        Under crash-stop a suspected node is owed nothing, so skipping
        the post is the same contract as giving up on a failed write to
        it; the backup slot still covers recovery if the suspicion was
        wrong.
        """
        self._write_backup(message)
        yield self.node.cpu.hold(LOCAL_WRITE_US)
        pending = list(writes)
        results: list = []
        if is_suspected is not None:
            live = [w for w in pending
                    if not is_suspected(w[0].remote.name)]
            results.extend([None] * (len(pending) - len(live)))
            pending = live
        extra = list(piggyback)
        attempt = 0
        abandoned = False
        while pending:
            if self.halted:
                return results  # source died: backup stays set
            batch = [
                (qp, region, offset,
                 payload() if callable(payload) else payload)
                for qp, region, offset, payload in pending + extra
            ]
            completions = yield from post_write_batch(self.node.cpu, batch)
            # ONE completion wait for the whole doorbell batch.
            done = yield self.env.all_of(completions)
            retry = []
            for (qp, region, offset, payload), completion in zip(
                pending, completions
            ):
                wc = done[completion]
                if wc.ok:
                    results.append(wc)
                elif is_suspected is not None and is_suspected(
                    qp.remote.name
                ):
                    results.append(wc)  # dead peer: give up, as crash-stop allows
                else:
                    retry.append((qp, region, offset, payload))
            extra = []  # piggybacked acks are fire-and-forget
            if not retry:
                break
            attempt += 1
            if attempt > max_retries or is_suspected is None:
                # Giving up on live (un-suspected) peers: the message is
                # possibly half-delivered and must stay recoverable.
                results.extend([None] * len(retry))
                abandoned = True
                break
            yield self.env.timeout(retry_us)
            pending = retry
        if self.halted:
            return results  # died before clearing: backup stays set
        if abandoned:
            return results  # keep the backup set: survivors can recover
        self._clear_backup()
        yield self.node.cpu.hold(LOCAL_WRITE_US)
        return results

    def _write_backup(self, message: bytes) -> None:
        if _HEADER + len(message) > self.backup.size:
            raise ValueError(
                f"message of {len(message)} bytes exceeds backup slot"
            )
        # Header + message only: a survivor reads ``length`` bytes past
        # the header, so a longer predecessor's tail need not be zeroed.
        self.backup.write(0, struct.pack("<I", len(message)) + message)

    def _clear_backup(self) -> None:
        self.backup.write(0, b"\x00" * _HEADER)

    # -- survivor side --------------------------------------------------------

    def fetch_backup_of(
        self, peer: str
    ) -> Generator[Event, Any, Optional[bytes]]:
        """Remote-read a suspected peer's backup slot.

        Returns the pending message, or None when the slot is clear or
        the peer is unreachable.
        """
        region = self.node.region_of(peer, BACKUP_REGION)
        qp = self.node.qp_to(peer)
        completion = yield from qp.read(region, 0, region.size)
        if completion.status is not WcStatus.SUCCESS:
            return None
        data = completion.data
        (length,) = struct.unpack_from("<I", data, 0)
        if length == 0 or _HEADER + length > len(data):
            return None
        return bytes(data[_HEADER : _HEADER + length])
