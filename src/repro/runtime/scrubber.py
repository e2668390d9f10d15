"""Background scrubber: proactive re-verification of ring replicas.

The detect-and-repair paths in :mod:`~repro.runtime.transport` and
:mod:`~repro.runtime.conflict` catch corruption *at consumption time*:
a CRC-rejected record at the reader head is quarantined and refetched
before it can be applied.  But rings are also read *at rest* — they
are the authoritative sources for hole repair, rejoin catch-up, and
lapped-reader resync.  A record corrupted after it was consumed sits
silently in the local replica until some other node repairs *from* it.

:class:`Scrubber` closes that window.  It is a per-node background
worker (spawned only when ``RuntimeConfig.scrub_interval_us > 0``)
that walks the *committed prefix* of every ring replica this node
holds — each peer's F ring and each followed L log — in bounded,
rate-limited windows:

- one ring per tick (round-robin over all replicas),
- at most ``scrub_batch`` slots per tick (one one-sided read of the
  authoritative copy: the origin's F mirror, or the group leader's L
  region),
- a rotating per-ring cursor, so successive ticks cover the whole
  resident prefix and then wrap.

Each local slot in the window is compared against the authoritative
bytes.  A slot that fails to parse (quarantined, torn, or bitflipped)
or parses to *different* record bytes is overwritten with the
authoritative record and counted as a repair.  Because the comparison
is byte-level, the scrubber also catches what the CRC cannot: a
different, well-formed record at the same index — the
defense-in-depth layer behind the CRC.

Scrubbing repairs the at-rest replica only: a corrupt record that was
already consumed and applied is the consumption-time CRC check's job
(and, failing that, the offline trace checker's).  Determinism: scrub
ticks are pure simulation events, so a seeded chaos run produces the
same scrub schedule — and the same trace — every time.
"""

from __future__ import annotations

from typing import Callable

from ..rdma import RdmaNode, WcStatus
from .config import RuntimeConfig, f_region, l_region
from .probe import RuntimeProbe
from .ringbuffer import classify_corruption
from .transport import RingTransport

__all__ = ["Scrubber"]


class Scrubber:
    """Rate-limited background verification of this node's ring copies."""

    def __init__(self, rnode: RdmaNode, transport: RingTransport,
                 config: RuntimeConfig, probe: RuntimeProbe,
                 leader_of: Callable[[str], str],
                 is_failed: Callable[[], bool],
                 is_suspected: Callable[[str], bool]):
        self.rnode = rnode
        self.env = rnode.env
        self.name = rnode.name
        self.transport = transport
        self.config = config
        self.probe = probe
        self.leader_of = leader_of
        self.is_failed = is_failed
        self.is_suspected = is_suspected
        #: Deterministic round-robin order over every replica we hold.
        self._targets: list[tuple[str, str]] = (
            [("F", origin) for origin in sorted(transport.f_readers)]
            + [("L", gid) for gid in sorted(transport.l_readers)]
        )
        self._next = 0
        #: Per-ring rotating cursor (absolute record index).
        self._cursors: dict[str, int] = {}

    def rearm(self) -> None:
        """Rebuild the round-robin target list after a membership change.

        The list is computed at construction; without this re-arm a
        joiner's F ring is never scrubbed (it entered ``f_readers``
        after the list was built) and a departed peer's frozen ring
        stays in rotation forever, wasting ticks on a replica nobody
        authoritative serves any more.  Only CURRENT members' F rings
        are kept — ``f_readers`` deliberately retains departed peers'
        rings as drainable history — plus every followed L log.
        """
        members = set(self.transport.peers)
        self._targets = (
            [("F", origin)
             for origin in sorted(self.transport.f_readers)
             if origin in members]
            + [("L", gid) for gid in sorted(self.transport.l_readers)]
        )
        self._next = 0

    # -- worker ----------------------------------------------------------

    def loop(self):
        """The background worker: one bounded scrub window per tick."""
        cfg = self.config
        while True:
            yield self.env.timeout(cfg.scrub_interval_us)
            if not self._targets or self.is_failed() or not self.rnode.alive:
                continue
            kind, key = self._targets[self._next % len(self._targets)]
            self._next += 1
            if kind == "F":
                # The origin's local mirror is written with plain memory
                # writes (never exposed to in-flight corruption): it is
                # the authoritative copy of its F ring.
                reader = self.transport.f_readers[key]
                source, region_name = key, f_region(key)
            else:
                # The group leader's L region is the log of record; a
                # leader scrubbing its own log has nothing to compare
                # against (Mu's majority is its integrity story).
                source = self.leader_of(key)
                if source == self.name:
                    continue
                reader = self.transport.l_readers[key]
                region_name = l_region(key)
            if source == self.name or self.is_suspected(source):
                continue
            if not self.rnode.fabric.nodes[source].alive:
                continue
            yield from self.scrub_window(
                f"{kind}:{key}", reader, source, region_name
            )

    # -- one window ------------------------------------------------------

    def scrub_window(self, ring: str, reader, source: str,
                     region_name: str):
        """Verify (and repair) one bounded window of ``ring``.

        Reads ``scrub_batch`` slots of the committed prefix from the
        authoritative ``source`` copy in one one-sided read, compares
        byte-for-byte against the local replica, and overwrites any
        slot that fails to parse or parses to different record bytes.
        Returns the number of repaired slots.
        """
        cfg = self.config
        head = reader.head
        lo = max(head - cfg.ring_slots, 0)
        if head <= lo:
            return 0  # nothing committed yet
        cursor = self._cursors.get(ring, lo)
        if cursor < lo or cursor >= head:
            cursor = lo  # wrap (or the window slid past the cursor)
        # The window stops at the wrap, so it is a single read.
        offset, length = reader.window(
            cursor, min(cfg.scrub_batch, head - cursor)
        )
        batch = length // reader.slot_size
        self._cursors[ring] = (
            lo if cursor + batch >= head else cursor + batch
        )
        qp = self.rnode.qp_to(source)
        remote = self.rnode.region_of(source, region_name)
        wc = yield from qp.read(remote, offset, length)
        if wc.status is not WcStatus.SUCCESS or wc.data is None:
            return 0
        repaired = 0
        for index in range(cursor, cursor + batch):
            authoritative = reader.record_in(cursor, wc.data, index)
            if authoritative is None:
                continue  # the source no longer holds this index
            local = reader.record_at(index)
            if local == authoritative:
                continue
            if local is None:
                # Unparseable at rest: a quarantined slot awaiting a
                # source, or corruption the reader never touched.
                corruption = "scrub"
            else:
                # Parseable but divergent: a different CRC-valid record
                # at the same index — byte comparison is what catches
                # it.
                corruption = classify_corruption(
                    reader.slot_bytes(index), authoritative
                )
            reader.region.write(reader.offset_of(index), authoritative)
            self.probe.trace_repair(ring, index, corruption)
            repaired += 1
        self.probe.count("scrub_passes", ring)
        return repaired
