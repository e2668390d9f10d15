"""ibverbs-style work requests and completions over the simulated fabric.

Timing model (all parameters live in :class:`RdmaConfig`):

- Posting a work request costs the caller CPU (charged by the helper
  generators ``write``/``read``/``cas``/``send``; the raw ``post_*``
  variants are non-blocking and leave CPU accounting to the caller).
- A Reliable Connection queue pair transmits its send queue in order.
  Payload occupies the link for ``len(payload) * byte_us``.
- One-sided WRITE: the payload lands in the remote region at
  ``wire_us`` after transmission ends — no remote CPU involvement,
  which is the property Hamband exploits.  The sender's completion
  fires one ``ack_us`` later (RC acknowledgement).
- One-sided READ/CAS: a request travels to the remote NIC, the NIC
  performs the access (CAS pays ``atomic_extra_us`` — the paper's
  stated reason for the single-writer design), and the response
  travels back.
- Two-sided SEND: like WRITE on the wire, but the payload is delivered
  to the remote QP's receive queue, where remote *CPU* must pick it up.

Failures: operations that arrive at a crashed node, or at a queue pair
whose write permission the remote side revoked, complete with a non-OK
status — the sender observes the error on the completion, as with real
flushed work requests.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Generator, Optional, TYPE_CHECKING

from ..sim import Environment, Event, Store
from .memory import Access, MemoryRegion, RdmaAccessError

if TYPE_CHECKING:  # pragma: no cover
    from .fabric import RdmaNode

__all__ = [
    "Opcode",
    "QueuePair",
    "RdmaConfig",
    "WcStatus",
    "WorkCompletion",
    "post_write_batch",
]


class Opcode(enum.Enum):
    WRITE = "write"
    READ = "read"
    CAS = "compare_and_swap"
    SEND = "send"
    RECV = "recv"


class WcStatus(enum.Enum):
    SUCCESS = "success"
    REMOTE_ACCESS_ERROR = "remote_access_error"
    REMOTE_OPERATION_ERROR = "remote_operation_error"  # crashed peer
    PERMISSION_ERROR = "permission_error"
    #: Transport retries exhausted: the path to the peer is down.
    UNREACHABLE = "unreachable"
    #: Flushed by the fault injector (simulated NIC/switch fault).
    #: Transient from the poster's point of view — retryable.
    INJECTED = "injected"


@dataclass
class WorkCompletion:
    """What the sender observes when a work request completes."""

    opcode: Opcode
    status: WcStatus
    wr_id: int
    #: READ result bytes, or the pre-swap value for CAS.
    data: Any = None

    @property
    def ok(self) -> bool:
        return self.status is WcStatus.SUCCESS


@dataclass
class RdmaConfig:
    """Latency/cost parameters, in microseconds.

    Defaults are calibrated to the ballpark of a 40 Gbps InfiniBand RC
    setup as reported by the papers Hamband cites: small one-sided
    writes complete in ~1-2 us, RDMA atomics cost noticeably more than
    writes, and two-sided delivery additionally pays remote CPU.
    """

    post_cpu_us: float = 0.10
    wire_us: float = 0.60
    byte_us: float = 0.0002  # ~40 Gbps
    ack_us: float = 0.50
    atomic_extra_us: float = 1.20
    #: CPU a receiver spends taking one message out of a recv queue.
    recv_cpu_us: float = 0.25

    def tx_time(self, nbytes: int) -> float:
        return nbytes * self.byte_us


@dataclass
class _Incoming:
    """A SEND payload sitting in the receive queue."""

    payload: bytes
    arrived_at: float
    src: str


class QueuePair:
    """One endpoint of a Reliable Connection between two nodes.

    A connected pair is created via :meth:`repro.rdma.fabric.Fabric.connect`;
    each endpoint posts toward the other.  Ordering is per-QP FIFO, as RC
    guarantees.
    """

    _ids = itertools.count(1)

    def __init__(self, env: Environment, local: "RdmaNode", remote: "RdmaNode",
                 config: RdmaConfig):
        self.env = env
        self.local = local
        self.remote = remote
        self.config = config
        self.qp_num = next(self._ids)
        self.peer: Optional["QueuePair"] = None  # set by Fabric.connect
        #: The *remote* side may revoke our right to RDMA-write into it
        #: (Mu's leader-change mechanism).  Granted by default.
        self.write_permitted = True
        #: Receive queue for two-sided SENDs addressed to this endpoint.
        self.recv_queue = Store(env)
        self._busy_until = 0.0
        self._wr_ids = itertools.count(1)

    # -- permission management (exercised by consensus leader change) ----

    def revoke_peer_write(self) -> None:
        """Called by the local node: stop the peer writing into us."""
        if self.peer is not None:
            self.peer.write_permitted = False

    def grant_peer_write(self) -> None:
        if self.peer is not None:
            self.peer.write_permitted = True

    # -- raw posting (non-blocking; CPU accounting left to caller) -------

    def post_write(self, region: MemoryRegion, offset: int,
                   payload: bytes) -> Event:
        """One-sided RDMA write of ``payload`` into the remote ``region``."""
        self._check_target_region(region)
        completion = Event(self.env)
        wr_id = next(self._wr_ids)
        decision = self._consult_fault(Opcode.WRITE, len(payload))
        self.local.fabric.stats.count(Opcode.WRITE, len(payload))
        if decision is not None and decision.kind == "opfail":
            return self._injected(completion, Opcode.WRITE, wr_id,
                                  len(payload))
        # Silent-corruption classes: the op completes SUCCESS — the
        # sender never learns — but what *lands* differs.  ``corrupt``
        # bitflips payload bytes; ``torn`` lands only a prefix (a
        # one-sided write is not atomic).  Wire timing and byte
        # accounting still charge the full posted payload.
        landing = payload
        if decision is not None and decision.kind in ("corrupt", "torn"):
            landing = decision.mutate(payload)
        copies = 2 if decision is not None and decision.kind == "dup" else 1
        for copy in range(copies):
            arrive, complete = self._schedule_wire(len(payload))

            def deliver(arrive=arrive, complete=complete,
                        resolve=copy == 0) -> None:
                if not self.local.alive:
                    status = WcStatus.UNREACHABLE  # sender died in flight
                else:
                    status = self._landing_status(
                        region, offset, len(payload), Access.REMOTE_WRITE
                    )
                if status is WcStatus.SUCCESS:
                    region.write(offset, landing)
                if resolve:
                    self.env.call_later(
                        complete - arrive,
                        lambda: completion.succeed(
                            WorkCompletion(Opcode.WRITE, status, wr_id)
                        ),
                    )

            self.env.call_later(arrive - self.env.now, deliver)
        return completion

    def post_read(self, region: MemoryRegion, offset: int,
                  length: int) -> Event:
        """One-sided RDMA read of ``length`` bytes from the remote region."""
        self._check_target_region(region)
        completion = Event(self.env)
        wr_id = next(self._wr_ids)
        decision = self._consult_fault(Opcode.READ, length)
        self.local.fabric.stats.count(Opcode.READ, length)
        if decision is not None and decision.kind == "opfail":
            return self._injected(completion, Opcode.READ, wr_id, length)
        # Request is small; the response carries the payload.
        arrive, _ = self._schedule_wire(0)
        complete = arrive + self.config.tx_time(length) + self.config.wire_us

        def deliver() -> None:
            if not self.local.alive:
                status = WcStatus.UNREACHABLE  # requester died in flight
            else:
                status = self._landing_status(region, offset, length,
                                              Access.REMOTE_READ)
            data = region.read(offset, length) if status is WcStatus.SUCCESS else None
            self.env.call_later(
                complete - self.env.now,
                lambda: completion.succeed(
                    WorkCompletion(Opcode.READ, status, wr_id, data=data)
                ),
            )

        self.env.call_later(arrive - self.env.now, deliver)
        return completion

    def post_cas(self, region: MemoryRegion, offset: int, expected: int,
                 swap: int) -> Event:
        """One-sided 64-bit compare-and-swap on the remote region."""
        self._check_target_region(region)
        completion = Event(self.env)
        wr_id = next(self._wr_ids)
        decision = self._consult_fault(Opcode.CAS, 8)
        self.local.fabric.stats.count(Opcode.CAS, 8)
        if decision is not None and decision.kind == "opfail":
            return self._injected(completion, Opcode.CAS, wr_id, 8)
        arrive, _ = self._schedule_wire(8)
        arrive += self.config.atomic_extra_us
        complete = arrive + self.config.wire_us

        def deliver() -> None:
            if not self.local.alive:
                status = WcStatus.UNREACHABLE  # requester died in flight
            else:
                status = self._landing_status(region, offset, 8,
                                              Access.REMOTE_ATOMIC)
            old = None
            if status is WcStatus.SUCCESS:
                old = region.read_u64(offset)
                if old == expected:
                    region.write_u64(offset, swap)
            self.env.call_later(
                complete - self.env.now,
                lambda: completion.succeed(
                    WorkCompletion(Opcode.CAS, status, wr_id, data=old)
                ),
            )

        self.env.call_later(arrive - self.env.now, deliver)
        return completion

    def post_send(self, payload: bytes) -> Event:
        """Two-sided send into the peer endpoint's receive queue."""
        completion = Event(self.env)
        wr_id = next(self._wr_ids)
        decision = self._consult_fault(Opcode.SEND, len(payload))
        self.local.fabric.stats.count(Opcode.SEND, len(payload))
        if decision is not None and decision.kind == "opfail":
            return self._injected(completion, Opcode.SEND, wr_id,
                                  len(payload))
        copies = 2 if decision is not None and decision.kind == "dup" else 1
        src = self.local.name
        for copy in range(copies):
            arrive, complete = self._schedule_wire(len(payload))

            def deliver(arrive=arrive, complete=complete,
                        resolve=copy == 0) -> None:
                if not self.local.alive:
                    status = WcStatus.UNREACHABLE  # sender died in flight
                elif not self.local.fabric.link_up(
                    self.local.name, self.remote.name
                ):
                    status = WcStatus.UNREACHABLE
                elif not self.remote.alive:
                    status = WcStatus.REMOTE_OPERATION_ERROR
                else:
                    status = WcStatus.SUCCESS
                    if self.peer is not None:
                        self.peer.recv_queue.put(
                            _Incoming(payload, self.env.now, src)
                        )
                if resolve:
                    self.env.call_later(
                        complete - arrive,
                        lambda: completion.succeed(
                            WorkCompletion(Opcode.SEND, status, wr_id)
                        ),
                    )

            self.env.call_later(arrive - self.env.now, deliver)
        return completion

    # -- blocking helpers (charge CPU, wait for completion) --------------

    def write(self, region: MemoryRegion, offset: int,
              payload: bytes) -> Generator[Event, Any, WorkCompletion]:
        """``yield from`` helper: post a write and wait for its completion."""
        yield self.local.cpu.hold(self.config.post_cpu_us)
        completion = yield self.post_write(region, offset, payload)
        return completion

    def read(self, region: MemoryRegion, offset: int,
             length: int) -> Generator[Event, Any, WorkCompletion]:
        yield self.local.cpu.hold(self.config.post_cpu_us)
        completion = yield self.post_read(region, offset, length)
        return completion

    def cas(self, region: MemoryRegion, offset: int, expected: int,
            swap: int) -> Generator[Event, Any, WorkCompletion]:
        yield self.local.cpu.hold(self.config.post_cpu_us)
        completion = yield self.post_cas(region, offset, expected, swap)
        return completion

    def send(self, payload: bytes) -> Generator[Event, Any, WorkCompletion]:
        yield self.local.cpu.hold(self.config.post_cpu_us)
        completion = yield self.post_send(payload)
        return completion

    def recv(self) -> Generator[Event, Any, _Incoming]:
        """``yield from`` helper: take one incoming SEND, paying recv CPU."""
        incoming = yield self.recv_queue.get()
        yield self.local.cpu.hold(self.config.recv_cpu_us)
        return incoming

    # -- internals ---------------------------------------------------------

    def _consult_fault(self, opcode: Opcode, nbytes: int):
        """Ask the fault injector (if armed) what to do with this op.

        A ``delay`` decision — and the gray-failure ``slow`` / ``flaky``
        stretches, which are just adaptively-sized delays — is applied
        here, as a NIC/link stall: it pushes back ``_busy_until`` so
        this op *and everything queued behind it* slips — preserving
        the RC FIFO order that the layers above rely on.  That FIFO
        slip is also what makes fail-slow windows *compound*: sustained
        traffic into a slowed QP builds queue depth, which is the
        latency signal the adaptive failure detector keys on.
        ``opfail``/``dup``/``drop`` decisions are returned for the
        caller to act on.
        """
        hook = self.local.fabric.fault_hook
        if hook is None:
            return None
        decision = hook(
            opcode.value, self.local.name, self.remote.name, nbytes
        )
        if decision is not None and decision.kind in (
            "delay", "slow", "flaky"
        ):
            self._busy_until = (
                max(self._busy_until, self.env.now) + decision.delay_us
            )
        return decision

    def _injected(self, completion: Event, opcode: Opcode, wr_id: int,
                  nbytes: int) -> Event:
        """Complete an op with INJECTED status: flushed on the wire,
        nothing lands remotely.  The wire slot is still consumed."""
        _, complete = self._schedule_wire(nbytes)
        self.env.call_later(
            complete - self.env.now,
            lambda: completion.succeed(
                WorkCompletion(opcode, WcStatus.INJECTED, wr_id)
            ),
        )
        return completion

    def _schedule_wire(self, nbytes: int) -> tuple[float, float]:
        """Reserve the send queue; return (arrival time, completion time)."""
        start = max(self.env.now, self._busy_until)
        tx_end = start + self.config.tx_time(nbytes)
        self._busy_until = tx_end
        arrive = tx_end + self.config.wire_us
        complete = arrive + self.config.ack_us
        return arrive, complete

    def _landing_status(self, region: MemoryRegion, offset: int, length: int,
                        wanted: Access) -> WcStatus:
        if not self.local.fabric.link_up(self.local.name, self.remote.name):
            return WcStatus.UNREACHABLE
        if not self.remote.alive:
            return WcStatus.REMOTE_OPERATION_ERROR
        if wanted is Access.REMOTE_WRITE and not self.write_permitted:
            return WcStatus.PERMISSION_ERROR
        try:
            region.check_remote(wanted)
            region._check_bounds(offset, length)
        except RdmaAccessError:
            return WcStatus.REMOTE_ACCESS_ERROR
        return WcStatus.SUCCESS

    def _check_target_region(self, region: MemoryRegion) -> None:
        if region.owner != self.remote.name:
            raise RdmaAccessError(
                f"QP {self.local.name}->{self.remote.name} cannot reach "
                f"region owned by {region.owner}"
            )

    def __repr__(self) -> str:
        return f"QueuePair({self.local.name}->{self.remote.name})"


def post_write_batch(
    cpu, writes: list[tuple["QueuePair", MemoryRegion, int, bytes]]
) -> Generator[Event, Any, list[Event]]:
    """Doorbell batching: post several one-sided writes for ONE CPU
    charge (``yield from``-able; returns the completion events).

    Real NICs let a sender chain work requests and ring the doorbell
    once — the per-WR CPU cost collapses into a single register write.
    Modeled as one ``post_cpu_us`` charge for the whole batch; each
    write still pays its own wire/serialization time through its queue
    pair, and each completion is still individually observable (the
    caller typically waits for them together with ``env.all_of``).
    """
    if not writes:
        return []
    yield cpu.hold(writes[0][0].config.post_cpu_us)
    return [
        qp.post_write(region, offset, payload)
        for qp, region, offset, payload in writes
    ]
