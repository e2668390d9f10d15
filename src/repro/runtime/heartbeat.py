"""Heartbeats and failure detection (paper §4 "RDMA Reliable Broadcast").

Each node runs a heartbeat thread that increments a local counter in a
registered region; peers periodically *remote-read* the counter and
suspect the node when it stops advancing.  Failure injection in the
paper's experiments suspends the heartbeat thread — :meth:`suspend`
reproduces that exactly, leaving the node's other threads running.

One detector: a phi-accrual model (Hayashibara et al.) over the
observed inter-advance intervals of each peer's counter.  Suspicion is
a *probability* (-log10 that the heartbeat is merely late given the
learned arrival distribution), so irregular-but-alive peers aren't
falsely suspected and silent ones are suspected faster than a
worst-case fixed timeout.  Until a peer's model has warmed up (fewer
than :data:`PhiAccrual.MIN_SAMPLES` intervals) the detector falls back
to counting stale polls against ``FailureDetector.suspect_after``.

Fail-*slow* peers defeat heartbeats alone: the heartbeat counter is
written **locally**, so it keeps advancing on time even when every RDMA
op toward the node crawls.  :class:`PeerHealth` closes that gap — the
detector's own poll reads (and the transport's timed one-sided ops)
feed a per-peer latency EWMA, and a peer whose EWMA blows past its
observed healthy floor is classified *degraded*.  Degraded suspicion is pinned
(:meth:`FailureDetector.mark_degraded`): a merely-advancing counter
does not clear it, only a latency recovery does.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Optional

from ..rdma import Access, RdmaNode, WcStatus
from ..sim import Environment

__all__ = ["FailureDetector", "Heartbeat", "PeerHealth", "PhiAccrual"]

HB_REGION = "hamband:heartbeat"
#: Heartbeat counter increment period.
HB_INTERVAL_US = 20.0
#: Detector poll period: every peer's counter is remote-read this often.
FD_POLL_US = 60.0
#: Suspect a peer once its accrued suspicion level (-log10 of the
#: probability that the heartbeat is merely late) crosses this.
#: 8 ≈ "one false positive per 10^8 arrivals".
PHI_THRESHOLD = 8.0
#: Sliding window of inter-arrival samples per peer.
PHI_WINDOW = 32
#: Floor on the arrival-interval std-dev, so a perfectly regular
#: heartbeat stream doesn't make phi explode on its first wobble.
PHI_MIN_STD_US = 10.0
#: Peer-health EWMA smoothing for one-sided op latency.
HEALTH_ALPHA = 0.2
#: A peer is *degraded* when its latency EWMA exceeds its healthy floor
#: (and the median peer) by this factor, after ``DEGRADED_MIN_SAMPLES``
#: samples, and recovers below ``DEGRADED_CLEAR_FACTOR`` times the floor.
DEGRADED_FACTOR = 3.0
DEGRADED_MIN_SAMPLES = 8
DEGRADED_CLEAR_FACTOR = 1.5


class Heartbeat:
    """The local heartbeat thread of one node."""

    def __init__(self, node: RdmaNode):
        self.node = node
        self.env: Environment = node.env
        self.region = node.register(
            HB_REGION, 8, access=Access.LOCAL | Access.REMOTE_READ
        )
        self.suspended = False
        self._process = self.env.process(self._run(), name=f"hb:{node.name}")

    def suspend(self) -> None:
        """Failure injection: stop the counter, as the paper does."""
        self.suspended = True

    def resume(self) -> None:
        self.suspended = False

    def _run(self):
        count = 0
        while True:
            if not self.suspended and self.node.alive:
                count += 1
                self.region.write_u64(0, count)
            yield self.env.timeout(HB_INTERVAL_US)


class PhiAccrual:
    """Phi-accrual suspicion over observed heartbeat-advance intervals.

    ``phi = -log10 P(no advance for this long | learned distribution)``
    using a normal model over a sliding window of inter-advance
    intervals, with a floor on the std-dev so a perfectly regular
    stream doesn't explode on its first wobble.  Until a peer has
    :data:`MIN_SAMPLES` intervals the model is unwarmed and
    :meth:`phi` returns ``None`` (the detector falls back to counting
    stale polls).
    """

    MIN_SAMPLES = 3

    def __init__(self):
        self._intervals: dict[str, deque] = {}
        self._last_arrival: dict[str, float] = {}

    def arrival(self, peer: str, now: float) -> None:
        """A counter advance for ``peer`` was observed at ``now``."""
        last = self._last_arrival.get(peer)
        if last is not None:
            self._intervals.setdefault(
                peer, deque(maxlen=PHI_WINDOW)
            ).append(now - last)
        self._last_arrival[peer] = now

    def forget(self, peer: str) -> None:
        self._intervals.pop(peer, None)
        self._last_arrival.pop(peer, None)

    def phi(self, peer: str, now: float) -> Optional[float]:
        dq = self._intervals.get(peer)
        if dq is None or len(dq) < self.MIN_SAMPLES:
            return None
        elapsed = now - self._last_arrival[peer]
        mean = sum(dq) / len(dq)
        var = sum((x - mean) ** 2 for x in dq) / len(dq)
        std = max(math.sqrt(var), PHI_MIN_STD_US)
        p_later = 0.5 * math.erfc((elapsed - mean) / (std * math.sqrt(2.0)))
        return -math.log10(max(p_later, 1e-300))


class PeerHealth:
    """Healthy/degraded classification from one-sided op latency.

    Every successful timed one-sided op toward a peer (detector poll
    reads at a steady cadence, plus the transport's retried writes and
    repair/hedged reads) feeds :meth:`record`.  A peer is *degraded*
    once its latency EWMA exceeds its observed healthy floor (best
    single sample) by :data:`DEGRADED_FACTOR` — the fail-slow signal a
    heartbeat counter can never carry — and *recovers* once the EWMA
    drops back under :data:`DEGRADED_CLEAR_FACTOR` times the floor.

    Degradation additionally requires the peer to be an *outlier
    relative to the other peers* (EWMA above ``DEGRADED_FACTOR`` times
    the median peer EWMA): a load spike at THIS node inflates observed
    latency toward everyone at once, and classifying the whole cluster
    as fail-slow would be self-diagnosis, not detection.  A genuinely
    slow link elevates exactly one peer against a quiet median.
    """

    def __init__(self, on_degraded: Optional[Callable[[str], None]] = None,
                 on_recovered: Optional[Callable[[str], None]] = None,
                 probe=None):
        self.on_degraded = on_degraded
        self.on_recovered = on_recovered
        self.probe = probe
        self.degraded: set[str] = set()
        self._ewma: dict[str, float] = {}
        self._best: dict[str, float] = {}
        self._count: dict[str, int] = {}

    def record(self, peer: str, latency_us: float) -> None:
        n = self._count.get(peer, 0) + 1
        self._count[peer] = n
        prev = self._ewma.get(peer)
        ewma = (
            latency_us if prev is None
            else HEALTH_ALPHA * latency_us + (1.0 - HEALTH_ALPHA) * prev
        )
        self._ewma[peer] = ewma
        best = self._best.get(peer)
        if best is None or latency_us < best:
            self._best[peer] = best = latency_us
        if n < DEGRADED_MIN_SAMPLES:
            return
        if peer not in self.degraded:
            if (ewma > best * DEGRADED_FACTOR
                    and self._outlier(peer, ewma)):
                self.degraded.add(peer)
                if self.probe is not None:
                    self.probe.count("peer_degraded", peer)
                if self.on_degraded is not None:
                    self.on_degraded(peer)
        elif ewma < best * DEGRADED_CLEAR_FACTOR:
            self.degraded.discard(peer)
            if self.on_recovered is not None:
                self.on_recovered(peer)

    def _outlier(self, peer: str, ewma: float) -> bool:
        """Elevated against the cluster, not just its own floor."""
        others = sorted(
            v for p, v in self._ewma.items() if p != peer
        )
        if not others:
            return True
        median = others[len(others) // 2]
        return ewma > DEGRADED_FACTOR * median

    def is_degraded(self, peer: str) -> bool:
        return peer in self.degraded

    def ewma_us(self, peer: str) -> Optional[float]:
        return self._ewma.get(peer)

    def rank(self, candidates: list[str]) -> list[str]:
        """Candidates ordered best-first by latency EWMA (unknown peers
        keep their input order, after the known-good ones)."""
        known = [c for c in candidates if c in self._ewma]
        unknown = [c for c in candidates if c not in self._ewma]
        return sorted(known, key=lambda c: self._ewma[c]) + unknown

    def forget(self, peer: str) -> None:
        self.degraded.discard(peer)
        self._ewma.pop(peer, None)
        self._best.pop(peer, None)
        self._count.pop(peer, None)


class FailureDetector:
    """Per-node detector polling every peer's heartbeat by remote read.

    Suspicion accrues via :class:`PhiAccrual`; while a peer's model is
    still cold the detector counts stale polls against
    ``suspect_after`` instead.  Every successful poll read feeds its
    latency to ``health`` (the node's shared :class:`PeerHealth`).
    """

    def __init__(self, node: RdmaNode, peers: list[str], health: PeerHealth,
                 suspect_after: int = 3,
                 on_suspect: Optional[Callable[[str], None]] = None,
                 on_clear: Optional[Callable[[str], None]] = None,
                 probe=None):
        self.node = node
        self.env: Environment = node.env
        self.peers = [p for p in peers if p != node.name]
        self.suspect_after = suspect_after
        self.on_suspect = on_suspect
        #: Fired when a previously suspected peer proves alive again
        #: (heals from a partition, restarts): the rejoin/catch-up hook.
        self.on_clear = on_clear
        self.phi = PhiAccrual()
        self.health = health
        self.probe = probe
        self.suspected: set[str] = set()
        #: Degraded pins: suspicion that a merely-advancing heartbeat
        #: counter must NOT clear (the peer is alive but limping).
        self.degraded: set[str] = set()
        self._last_seen: dict[str, int] = {p: 0 for p in self.peers}
        self._stale_polls: dict[str, int] = {p: 0 for p in self.peers}
        self._process = self.env.process(self._run(), name=f"fd:{node.name}")

    def is_suspected(self, peer: str) -> bool:
        return peer in self.suspected

    def is_degraded(self, peer: str) -> bool:
        return peer in self.degraded

    def mark_degraded(self, peer: str) -> None:
        """Pin ``peer`` suspected as *degraded* (fail-slow, not dead).

        Fires ``on_suspect`` (so demotion/campaign paths engage exactly
        as for a silent peer), but the pin survives counter advances —
        only :meth:`clear_degraded` lifts it.
        """
        if peer in self.degraded:
            return
        self.degraded.add(peer)
        if peer not in self.suspected:
            self.suspected.add(peer)
            if self.on_suspect is not None:
                self.on_suspect(peer)

    def clear_degraded(self, peer: str) -> None:
        """Lift a degraded pin; normal clearing resumes (the next
        counter advance un-suspects the peer and fires ``on_clear``)."""
        self.degraded.discard(peer)

    def add_peer(self, name: str) -> None:
        """Start polling a newly joined peer's heartbeat."""
        if name == self.node.name or name in self.peers:
            return
        self.peers = sorted([*self.peers, name])
        self._last_seen[name] = 0
        self._stale_polls[name] = 0

    def remove_peer(self, name: str) -> None:
        """Stop polling a departed peer and pin it *suspected*.

        The pin makes every "skip the dead" filter (repair sources,
        campaign candidate lists, control fan-outs) treat the departed
        node as permanently gone.  ``on_suspect`` is deliberately NOT
        fired — whether departure triggers an election is the membership
        layer's call, not the detector's.
        """
        if name not in self.peers:
            return
        self.peers.remove(name)
        self._last_seen.pop(name, None)
        self._stale_polls.pop(name, None)
        self.degraded.discard(name)
        self.phi.forget(name)
        self.health.forget(name)
        self.suspected.add(name)

    def _run(self):
        while True:
            yield self.env.timeout(FD_POLL_US)
            if not self.node.alive:
                continue
            for peer in self.peers:
                region = self.node.region_of(peer, HB_REGION)
                qp = self.node.qp_to(peer)
                started = self.env.now
                completion = yield from qp.read(region, 0, 8)
                if completion.status is not WcStatus.SUCCESS:
                    self._note_stale(peer)
                    continue
                self.health.record(peer, self.env.now - started)
                count = int.from_bytes(completion.data, "little")
                if count > self._last_seen[peer]:
                    self._last_seen[peer] = count
                    self._stale_polls[peer] = 0
                    self.phi.arrival(peer, self.env.now)
                    if peer in self.suspected and peer not in self.degraded:
                        self.suspected.discard(peer)
                        if self.on_clear is not None:
                            self.on_clear(peer)
                else:
                    self._note_stale(peer)

    def _note_stale(self, peer: str) -> None:
        self._stale_polls[peer] += 1
        if peer in self.suspected:
            return
        level = self.phi.phi(peer, self.env.now)
        if level is not None:
            # Warmed model: suspicion is probabilistic, not counted.
            if level >= PHI_THRESHOLD:
                self.suspected.add(peer)
                if self.probe is not None:
                    self.probe.count("fd_phi_suspects", peer)
                if self.on_suspect is not None:
                    self.on_suspect(peer)
            return
        if self._stale_polls[peer] >= self.suspect_after:
            self.suspected.add(peer)
            if self.on_suspect is not None:
                self.on_suspect(peer)
