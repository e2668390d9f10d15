"""A traditional message-passing network (the paper's MSG baseline).

Messages travel through the sender's network/OS stack, the wire, and
the receiver's stack — each hop costs CPU and time, in contrast to the
RDMA fabric where a one-sided write bypasses the remote CPU entirely.
Latency defaults are in the hundreds-of-microseconds-per-RTT regime the
paper attributes to message-passing SMRs, scaled to the same simulated
clock as :class:`~repro.rdma.RdmaConfig`.

Delivery is reliable and FIFO per sender-receiver pair (TCP-like), and
each delivered message is acknowledged; a sender that awaits the ack
observes a full round trip.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..sim import Environment, Event, Resource, Store

__all__ = ["MsgConfig", "MsgHost", "MsgNetwork"]


@dataclass
class MsgConfig:
    """Message-passing costs, in microseconds."""

    #: CPU to push one message through the local send stack.
    send_cpu_us: float = 2.5
    #: CPU to pull one message out of the receive stack.
    recv_cpu_us: float = 2.5
    #: One-way network latency (kernel + NIC + switch + kernel).
    wire_us: float = 18.0
    byte_us: float = 0.001  # ~8 Gbps effective through the stack


@dataclass
class Delivery:
    src: str
    payload: Any
    seq: int
    #: Event the receiver triggers to release the sender's ack wait.
    ack: Optional[Event]


class MsgHost:
    """One endpoint: an inbox plus per-peer FIFO send pipes."""

    def __init__(self, network: "MsgNetwork", name: str, cpu_cores: int):
        self.network = network
        self.env: Environment = network.env
        self.name = name
        self.cpu = Resource(self.env, capacity=cpu_cores)
        self.inbox: Store = Store(self.env)
        self.alive = True
        self._seq = itertools.count(1)
        self._pipe_busy_until: dict[str, float] = {}
        #: Acks this host owes for messages it has accepted but not yet
        #: acknowledged.  Failed deterministically if this host crashes,
        #: so senders awaiting a round trip never hang on a dead peer.
        self._pending_acks: set[Event] = set()

    def send(self, dst: str, payload: Any,
             want_ack: bool = True) -> Generator[Event, Any, Optional[Event]]:
        """``yield from`` helper: push one message into the stack.

        Returns an ack event (triggered once the receiver has processed
        the message) when ``want_ack``; the caller chooses whether to
        await it.
        """
        config = self.network.config
        yield self.cpu.hold(
            config.send_cpu_us + config.byte_us * _size_of(payload)
        )
        ack = Event(self.env) if want_ack else None
        seq = next(self._seq)
        target = self.network.hosts[dst]
        # Consult the fault injector, if one is armed on this network.
        decision = None
        hook = self.network.fault_hook
        if hook is not None:
            decision = hook(self.name, dst, _size_of(payload))
        # FIFO per pipe: messages to one peer queue behind each other.
        start = max(self.env.now, self._pipe_busy_until.get(dst, 0.0))
        arrival = start + config.wire_us
        if decision is not None and decision.kind in (
            "delay", "slow", "flaky"
        ):
            arrival += decision.delay_us
        self._pipe_busy_until[dst] = start

        if decision is not None and decision.kind == "drop":
            # Dropped on the wire: the payload never arrives, and the
            # sender's ack wait fails deterministically (TCP-reset-like)
            # instead of hanging forever.
            def lose() -> None:
                if ack is not None and not ack.triggered:
                    ack.fail(ConnectionError(
                        f"message {self.name}->{dst} dropped"
                    ))

            self.env.call_later(arrival - self.env.now, lose)
            return ack

        copies = 2 if decision is not None and decision.kind == "dup" else 1

        def deliver() -> None:
            if target.alive:
                delivery = Delivery(self.name, payload, seq, ack)
                if ack is not None:
                    target._pending_acks.add(ack)
                for _ in range(copies):
                    target.inbox.put(delivery)
            elif ack is not None and not ack.triggered:
                ack.fail(ConnectionError(f"{dst} is down"))

        self.env.call_later(arrival - self.env.now, deliver)
        return ack

    def recv(self) -> Generator[Event, Any, Delivery]:
        """Take one message out of the stack, paying receive CPU."""
        delivery = yield self.inbox.get()
        config = self.network.config
        yield self.cpu.hold(
            config.recv_cpu_us + config.byte_us * _size_of(delivery.payload)
        )
        return delivery

    def ack_back(self, delivery: Delivery) -> None:
        """Complete the sender's round trip for this message."""
        if delivery.ack is not None and not delivery.ack.triggered:
            ack = delivery.ack
            # The ack reply is on the wire: a crash of this host no
            # longer invalidates it, and the in-flight guard below makes
            # duplicate deliveries ack at most once.
            self._pending_acks.discard(ack)
            self.env.call_later(
                self.network.config.wire_us,
                lambda: None if ack.triggered else ack.succeed(None),
            )

    def crash(self) -> None:
        """Fail-stop: drop queued messages and fail every ack this host
        still owes, so senders blocked on a round trip unblock with a
        deterministic error instead of hanging forever."""
        self.alive = False
        self.inbox.items.clear()
        pending, self._pending_acks = self._pending_acks, set()
        for ack in pending:
            if not ack.triggered:
                ack.fail(ConnectionError(f"{self.name} crashed"))


def _size_of(payload: Any) -> int:
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    return 64  # typical serialized op size


class MsgNetwork:
    """All hosts of the message-passing deployment."""

    def __init__(self, env: Environment, config: Optional[MsgConfig] = None):
        self.env = env
        self.config = config or MsgConfig()
        self.hosts: dict[str, MsgHost] = {}
        #: Optional fault-injection hook consulted for every send:
        #: ``hook(src, dst, nbytes)`` returns a
        #: :class:`repro.sim.FaultDecision` or None.  Installed by
        #: :class:`repro.sim.FaultInjector`.
        self.fault_hook = None

    def add_host(self, name: str, cpu_cores: int = 1) -> MsgHost:
        if name in self.hosts:
            raise ValueError(f"host {name!r} already exists")
        host = MsgHost(self, name, cpu_cores)
        self.hosts[name] = host
        return host

    @classmethod
    def build(cls, env: Environment, n_hosts: int,
              config: Optional[MsgConfig] = None,
              cpu_cores: int = 1) -> "MsgNetwork":
        network = cls(env, config)
        for i in range(1, n_hosts + 1):
            network.add_host(f"p{i}", cpu_cores=cpu_cores)
        return network
