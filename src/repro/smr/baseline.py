"""SMR-as-degenerate-WRDT: the all-conflicting coordination."""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from ..core import Coordination, MethodRelations, ObjectSpec, categorize
from ..core.graphs import ConflictGraph, DependencyGraph
from ..runtime import HambandCluster, RuntimeConfig
from ..sim import Environment

__all__ = ["SmrCluster", "smr_coordination"]


def smr_coordination(spec: ObjectSpec) -> Coordination:
    """A coordination in which every update method conflicts with every
    other — one synchronization group, one leader, total order.

    With a complete conflict relation, dependency tracking is redundant
    (the total order preserves all orders), so ``Dep`` is empty.
    """
    methods = spec.update_names()
    conflicts = {
        frozenset(pair)
        for pair in itertools.combinations_with_replacement(methods, 2)
    }
    relations = MethodRelations(
        methods=methods,
        conflicts=conflicts,
        dependencies={u: set() for u in methods},
        invariant_sufficient=set(),
    )
    conflict_graph = ConflictGraph(relations)
    dependency_graph = DependencyGraph(relations)
    categories = categorize(spec, conflict_graph, dependency_graph)
    return Coordination(
        spec, relations, conflict_graph, dependency_graph, categories
    )


class SmrCluster(HambandCluster):
    """A Mu SMR deployment of ``spec`` — the paper's strong baseline."""

    @classmethod
    def build_smr(cls, env: Environment, spec: ObjectSpec, n_nodes: int,
                  config: Optional[RuntimeConfig] = None,
                  probe_factory: Optional[Callable[[str], Any]] = None,
                  ) -> "SmrCluster":
        return cls.build(
            env,
            smr_coordination(spec),
            n_nodes,
            config=config,
            probe_factory=probe_factory,
        )
