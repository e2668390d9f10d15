"""Sharded keyspace: many independent Hamband clusters, one directory.

The paper's runtime replicates a *single* object per cluster.  The
north-star deployment is a keyed store far too large for one
synchronization domain, so this module partitions the keyspace across N
independent :class:`~repro.runtime.HambandCluster` shards — each with
its own F/L rings, sync groups, and Mu instance — built over one shared
simulation :class:`~repro.sim.Environment`:

- :class:`ShardRouter` — the deterministic directory.  Seeded
  consistent hashing (a fixed ring of virtual nodes per shard, hashed
  with :mod:`hashlib` so the mapping is stable across processes and
  Python hash randomization) plus explicit per-key pinning for tests.
- :class:`ShardedCluster` — the facade: builds the shards from ONE
  coordination analysis (the object spec is shared; only the keyspace
  is partitioned), addresses nodes as ``"s<shard>/p<node>"``, and
  re-exposes the cluster surface the drivers/chaos layers rely on
  (quiesce, stats, convergence, fault injection) per shard and
  globally.

Cross-shard *transactions* over this topology live in
:mod:`repro.runtime.txn`; the commit-path design follows SafarDB
(see PAPERS.md): RDT commutativity decides which call-sets need any
cross-shard coordination at all.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Callable, Optional, Union

from ..core import Coordination, ObjectSpec
from ..sim import Environment
from .cluster import HambandCluster
from .node import HambandNode, RuntimeConfig
from .probe import rollup_node_stats

__all__ = ["ShardRouter", "ShardedCluster"]

#: Points each shard owns on the router's hash ring.
VNODES = 64


def _point(seed: int, label: str) -> int:
    """A stable 64-bit hash-ring coordinate for ``label``.

    Built on blake2b, NOT the builtin ``hash`` — per-process hash
    randomization would re-shuffle the directory every run.
    """
    digest = hashlib.blake2b(
        f"{seed}:{label}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class ShardRouter:
    """Deterministic key → shard directory (seeded consistent hashing).

    Each shard owns :data:`VNODES` points on a 64-bit hash ring; a key maps
    to the shard owning the first point at or after the key's hash.
    The same ``(n_shards, seed)`` always yields the same directory.
    ``pin`` overrides the ring for individual keys (tests use this to
    force cross-shard or same-shard layouts).
    """

    def __init__(self, n_shards: int, seed: int = 0):
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        self.n_shards = n_shards
        self.seed = seed
        self._pins: dict[Any, int] = {}
        ring = [
            (_point(seed, f"shard:{shard}:vnode:{v}"), shard)
            for shard in range(n_shards)
            for v in range(VNODES)
        ]
        ring.sort()
        self._points = [point for point, _shard in ring]
        self._owners = [shard for _point, shard in ring]

    def shard_of(self, key: Any) -> int:
        """The shard owning ``key`` (pin wins over the ring)."""
        pinned = self._pins.get(key)
        if pinned is not None:
            return pinned
        point = _point(self.seed, f"key:{key!r}")
        index = bisect.bisect_left(self._points, point)
        if index == len(self._points):
            index = 0  # wrap: past the last point owns back to the first
        return self._owners[index]

    def pin(self, key: Any, shard: int) -> None:
        """Force ``key`` onto ``shard`` regardless of the ring."""
        if not 0 <= shard < self.n_shards:
            raise ValueError(
                f"shard {shard} out of range [0, {self.n_shards})"
            )
        self._pins[key] = shard

    def unpin(self, key: Any) -> None:
        self._pins.pop(key, None)

    def distribution(self, keys) -> dict[int, int]:
        """How many of ``keys`` land on each shard (all shards keyed)."""
        counts = {shard: 0 for shard in range(self.n_shards)}
        for key in keys:
            counts[self.shard_of(key)] += 1
        return counts


class ShardedCluster:
    """N independent Hamband shards of one object spec, plus routing.

    All shards replicate the *same* data type (one coordination
    analysis shared by every shard); the keyspace is what's
    partitioned.  Nodes are addressed ``"s<shard>/p<node>"`` anywhere a
    single cluster would take a bare node name — the fault surface and
    stats keep the same shapes as :class:`HambandCluster`, grouped by
    shard.
    """

    def __init__(self, env: Environment, coordination: Coordination,
                 shards: list[HambandCluster], router: ShardRouter):
        if len(shards) != router.n_shards:
            raise ValueError(
                f"router covers {router.n_shards} shards, got {len(shards)}"
            )
        self.env = env
        self.coordination = coordination
        self.shards = shards
        self.router = router

    @classmethod
    def build(cls, env: Environment,
              spec_or_coordination: Union[ObjectSpec, Coordination],
              n_shards: int, n_nodes: int = 3,
              config: Optional[RuntimeConfig] = None,
              cpu_cores: int = 2,
              shard_probe_factory: Optional[
                  Callable[[int], Callable[[str], Any]]
              ] = None,
              seed: int = 0) -> "ShardedCluster":
        """Construct ``n_shards`` fully wired ``n_nodes``-node shards.

        The coordination analysis runs once and is shared.
        ``shard_probe_factory(shard_index)`` returns the per-node probe
        factory for that shard (see
        :meth:`~repro.runtime.trace.ShardedRecorder.probe_factory_for`)
        — per-shard factories keep probes apart even though every shard
        names its nodes ``p1..pn``.
        """
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if isinstance(spec_or_coordination, Coordination):
            coordination = spec_or_coordination
        else:
            coordination = Coordination.analyze(spec_or_coordination)
        shards = [
            HambandCluster.build(
                env,
                coordination,
                n_nodes=n_nodes,
                config=config,
                cpu_cores=cpu_cores,
                probe_factory=(
                    shard_probe_factory(index) if shard_probe_factory
                    else None
                ),
            )
            for index in range(n_shards)
        ]
        return cls(env, coordination, shards, ShardRouter(n_shards, seed=seed))

    # -- addressing ------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard(self, index: int) -> HambandCluster:
        return self.shards[index]

    def shard_of(self, key: Any) -> int:
        return self.router.shard_of(key)

    def shard_for(self, key: Any) -> HambandCluster:
        return self.shards[self.router.shard_of(key)]

    @staticmethod
    def split_address(address: str) -> tuple[int, str]:
        """``"s2/p1"`` → ``(2, "p1")``."""
        shard_part, _, node = address.partition("/")
        if not node or not shard_part.startswith("s"):
            raise ValueError(
                f"expected an 's<shard>/<node>' address, got {address!r}"
            )
        return int(shard_part[1:]), node

    def node(self, address: str) -> HambandNode:
        shard, name = self.split_address(address)
        if not 0 <= shard < len(self.shards):
            raise ValueError(
                f"no shard s{shard} in a {len(self.shards)}-shard cluster"
            )
        return self.shards[shard].node(name)

    def node_names(self) -> list[str]:
        return [
            f"s{index}/{name}"
            for index, shard in enumerate(self.shards)
            for name in shard.node_names()
        ]

    # -- measurement -----------------------------------------------------

    def applied_totals(self) -> dict[str, int]:
        return {
            f"s{index}/{name}": total
            for index, shard in enumerate(self.shards)
            for name, total in shard.applied_totals().items()
        }

    def stats(self) -> dict[str, dict]:
        """Per-shard stats (each with its own rollup) plus a global one.

        ``stats()["s2"]`` is shard 2's :meth:`HambandCluster.stats`
        (per-node snapshots + ``"cluster"`` rollup); ``stats()
        ["global"]`` aggregates the shard rollups with the same
        summed / high-water-maxed rules — the rollup helper is
        shared, not re-implemented (see
        :func:`~repro.runtime.probe.rollup_node_stats`).
        """
        per_shard = {
            f"s{index}": shard.stats()
            for index, shard in enumerate(self.shards)
        }
        per_shard["global"] = rollup_node_stats({
            label: stats["cluster"] for label, stats in per_shard.items()
        })
        return per_shard

    def quiesce(self, targets: Union[int, dict[int, int]],
                timeout_us: float = 1_000_000.0):
        """Process: wait until every shard reflects its update target.

        ``targets`` is either one total applied to every shard or a
        ``{shard_index: total}`` mapping (shards drive different call
        counts under a keyed workload).  The shared timeout covers the
        whole topology.
        """
        if isinstance(targets, int):
            targets = {index: targets for index in range(self.n_shards)}
        deadline = self.env.now + timeout_us
        for index in sorted(targets):
            remaining = max(deadline - self.env.now, 0.0)
            yield from self.shards[index].quiesce(
                targets[index], timeout_us=remaining
            )
        return self.env.now

    def converged(self) -> bool:
        return all(shard.converged() for shard in self.shards)

    def integrity_holds(self) -> bool:
        return all(shard.integrity_holds() for shard in self.shards)

    def failures(self) -> list[str]:
        return [
            f"s{index}/{failure}"
            for index, shard in enumerate(self.shards)
            for failure in shard.failures()
        ]

    # -- failure injection ----------------------------------------------
    #
    # Same verbs as HambandCluster, taking "s<shard>/<node>" addresses;
    # partitions and heals are per shard (shards share no fabric, so a
    # cross-shard partition is meaningless).

    def suspend_heartbeat(self, address: str) -> None:
        shard, name = self.split_address(address)
        self.shards[shard].suspend_heartbeat(name)

    def crash(self, address: str) -> None:
        shard, name = self.split_address(address)
        self.shards[shard].crash(name)

    def restart(self, address: str, catch_up: bool = True) -> None:
        shard, name = self.split_address(address)
        self.shards[shard].restart(name, catch_up=catch_up)

    def add_node(self, address: str, cpu_cores: int = 2,
                 transfer: bool = True) -> HambandNode:
        """Scale-out one shard: ``"s2/p4"`` joins p4 into shard 2."""
        shard, name = self.split_address(address)
        return self.shards[shard].add_node(
            name, cpu_cores=cpu_cores, transfer=transfer
        )

    def remove_node(self, address: str) -> HambandNode:
        """Scale-in one shard (leader removal forces re-election)."""
        shard, name = self.split_address(address)
        return self.shards[shard].remove_node(name)

    def partition(self, shard: int, side_a: list[str],
                  side_b: list[str]) -> None:
        self.shards[shard].partition(side_a, side_b)

    def heal(self, shard: Optional[int] = None) -> None:
        if shard is not None:
            self.shards[shard].heal()
            return
        for each in self.shards:
            each.heal()
