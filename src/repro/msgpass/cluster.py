"""Message-passing op-based CRDT replication (the paper's MSG baseline).

Each update is applied at the issuing replica and *sent* — through the
network/OS stack — to every peer, which applies it on receipt.  The
issuer's response waits for every peer's acknowledgement (reliable
delivery), so response time includes the full stack round trip; this is
the latency gap the paper attributes to message passing.

The baseline assumes op-based CRDT semantics (everything commutes), so
it is only meaningful for the conflict-free data types — exactly how
the paper deploys it (Figures 8 and 9).
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from ..core import Call, ObjectSpec
from ..sim import Environment, Event
from .network import MsgConfig, MsgHost, MsgNetwork

__all__ = ["MsgCrdtCluster", "MsgCrdtNode"]

#: How often :meth:`MsgCrdtCluster.quiesce` re-checks applied totals.
QUIESCE_POLL_US = 10.0


class MsgCrdtNode:
    """One replica of the message-passing CRDT deployment."""

    def __init__(self, host: MsgHost, spec: ObjectSpec,
                 processes: list[str]):
        self.host = host
        self.env: Environment = host.env
        self.name = host.name
        self.spec = spec
        self.processes = sorted(processes)
        self.peers = [p for p in self.processes if p != self.name]
        self.sigma = spec.initial_state()
        self.applied: dict[tuple[str, str], int] = {}
        self._rid = itertools.count(1)
        self.env.process(self._receive_loop(), name=f"msg-rx:{self.name}")

    def submit(self, method: str, arg: Any = None) -> Event:
        if method in self.spec.queries:
            return self.env.process(self._do_query(method, arg))
        return self.env.process(self._do_update(method, arg))

    def _do_query(self, method: str, arg: Any):
        yield self.host.cpu.hold(0.2)
        return self.spec.run_query(method, arg, self.sigma)

    def _do_update(self, method: str, arg: Any):
        call = Call(method, arg, self.name, next(self._rid))
        yield self.host.cpu.hold(0.1)
        self.sigma = self.spec.apply_call(call, self.sigma)
        self._bump(self.name, method)
        acks = []
        for peer in self.peers:
            ack = yield from self.host.send(
                peer, (call.method, call.arg, call.origin, call.rid)
            )
            acks.append(ack)
        for ack in acks:  # reliable delivery: wait the round trip
            try:
                yield ack
            except ConnectionError:
                pass  # dead peer: proceed with the survivors
        return call

    def _receive_loop(self):
        while True:
            delivery = yield from self.host.recv()
            if not self.host.alive:
                continue
            method, arg, origin, rid = delivery.payload
            call = Call(method, arg, origin, rid)
            yield self.host.cpu.hold(0.1)
            self.sigma = self.spec.apply_call(call, self.sigma)
            self._bump(origin, method)
            self.host.ack_back(delivery)

    def _bump(self, process: str, method: str) -> None:
        key = (process, method)
        self.applied[key] = self.applied.get(key, 0) + 1

    def applied_total(self) -> int:
        return sum(self.applied.values())

    def effective_state(self) -> Any:
        return self.sigma


class MsgCrdtCluster:
    """Driver-facing wrapper mirroring the HambandCluster surface."""

    def __init__(self, env: Environment, spec: ObjectSpec, n_nodes: int,
                 config: Optional[MsgConfig] = None, cpu_cores: int = 1):
        self.env = env
        self.spec = spec
        self.network = MsgNetwork.build(
            env, n_nodes, config=config, cpu_cores=cpu_cores
        )
        names = sorted(self.network.hosts)
        self.nodes = {
            name: MsgCrdtNode(self.network.hosts[name], spec, names)
            for name in names
        }

    def node(self, name: str) -> MsgCrdtNode:
        return self.nodes[name]

    def node_names(self) -> list[str]:
        return sorted(self.nodes)

    def applied_totals(self) -> dict[str, int]:
        return {n: node.applied_total() for n, node in self.nodes.items()}

    def effective_states(self) -> dict[str, Any]:
        return {n: node.effective_state() for n, node in self.nodes.items()}

    def converged(self) -> bool:
        states = list(self.effective_states().values())
        return all(self.spec.state_eq(states[0], s) for s in states[1:])

    def quiesce(self, total_updates: int, timeout_us: float = 10_000_000.0):
        deadline = self.env.now + timeout_us
        while True:
            if all(
                node.applied_total() >= total_updates
                for node in self.nodes.values()
                if node.host.alive
            ):
                return self.env.now
            if self.env.now > deadline:
                raise TimeoutError(
                    f"MSG cluster did not quiesce: {self.applied_totals()}"
                )
            yield self.env.timeout(QUIESCE_POLL_US)

    def crash(self, name: str) -> None:
        self.nodes[name].host.crash()
