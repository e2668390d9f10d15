"""Background scrubber: proactive re-verification of ring replicas.

A CRC-rejected record at a reader head is refetched before it can be
applied (:meth:`~repro.runtime.transport.RingRepairer.refetch`).  But
rings are also read *at rest* — they are the sources every repair
reads from — and a record corrupted after it was consumed sits silently
in the local replica until some other node repairs *from* it.

:class:`Scrubber` closes that window.  It is a per-node background
worker (spawned only when ``RuntimeConfig.scrub_interval_us > 0``)
that walks the *committed prefix* of every ring replica this node
holds — each peer's F ring and each followed L log — in bounded,
rate-limited windows:

- one ring per tick (round-robin over all replicas),
- at most :data:`SCRUB_BATCH` slots per tick, handed to the ring's
  repairer's :meth:`~repro.runtime.transport.RingRepairer.compare`
  (one read of the authoritative copy — the origin's F mirror, or the
  group leader's L log — byte-compared with ours and healed where it
  differs),
- a rotating per-ring cursor, so successive ticks cover the whole
  resident prefix and then wrap.

Scrubbing repairs the at-rest replica only: a corrupt record that was
already consumed and applied is the consumption-time CRC check's job
(and, failing that, the offline trace checker's).  Determinism: scrub
ticks are pure simulation events, so a seeded chaos run produces the
same scrub schedule — and the same trace — every time.
"""

from __future__ import annotations

from typing import Callable

from ..rdma import RdmaNode
from .config import RuntimeConfig
from .transport import RingRepairer, RingTransport

__all__ = ["Scrubber"]

#: Rate limit: slots re-verified per scrub tick.
SCRUB_BATCH = 16


class Scrubber:
    """Rate-limited background verification of this node's ring copies."""

    def __init__(self, rnode: RdmaNode, transport: RingTransport,
                 l_repairers: dict[str, RingRepairer],
                 config: RuntimeConfig, is_failed: Callable[[], bool]):
        self.rnode = rnode
        self.env = rnode.env
        self.transport = transport
        self.l_repairers = l_repairers
        self.config = config
        self.is_failed = is_failed
        #: Per-ring rotating cursor (absolute record index).
        self._cursors: dict[str, int] = {}
        self.rearm()

    def rearm(self) -> None:
        """(Re)build the deterministic round-robin order over every
        replica we hold, at construction and after a membership change.

        Without the re-arm a joiner's F ring is never scrubbed and a
        departed peer's frozen ring stays in rotation forever, wasting
        ticks on a replica nobody authoritative serves any more.  Only
        CURRENT members' F rings are kept — the transport deliberately
        retains departed peers' rings as drainable history — plus every
        followed L log.
        """
        members = set(self.transport.peers)
        f_repairers = self.transport.f_repairers
        self._targets: list[RingRepairer] = [
            *(f_repairers[origin] for origin in sorted(f_repairers)
              if origin in members),
            *(self.l_repairers[gid] for gid in sorted(self.l_repairers)),
        ]
        self._next = 0

    # -- worker ----------------------------------------------------------

    def loop(self):
        """The background worker: one bounded scrub window per tick."""
        cfg = self.config
        while True:
            yield self.env.timeout(cfg.scrub_interval_us)
            if not self._targets or self.is_failed() or not self.rnode.alive:
                continue
            repairer = self._targets[self._next % len(self._targets)]
            self._next += 1
            yield from self.scrub_window(repairer)

    # -- one window ------------------------------------------------------

    def scrub_window(self, repairer: RingRepairer):
        """Verify (and heal) the next :data:`SCRUB_BATCH` slots of the
        committed prefix of ``repairer``'s ring; returns the number of
        healed slots (None when its authority is this node — a leader
        scrubbing its own log has nothing to compare against —
        suspected or down, and the cursor stays put)."""
        reader = repairer.reader
        head = reader.head
        lo = max(head - reader.slots, 0)
        if head <= lo:
            return 0  # nothing committed yet
        cursor = self._cursors.get(repairer.ring, lo)
        if cursor < lo or cursor >= head:
            cursor = lo  # wrap (or the window slid past the cursor)
        count = min(SCRUB_BATCH, head - cursor)
        result = yield from repairer.compare(cursor, count)
        if result is None:
            return None
        healed, covered = result
        self._cursors[repairer.ring] = (
            lo if cursor + covered >= head else cursor + covered
        )
        return healed
