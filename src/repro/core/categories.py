"""Method categorization (paper §2 "Method categories", §3.3).

- **reducible** — conflict-free, dependence-free, and summarizable:
  propagated as a single remotely-written summary call.
- **irreducible conflict-free** — conflict-free but dependent or not
  summarizable: propagated through per-source F buffers.
- **conflicting** — member of a synchronization group: ordered by the
  group's leader through L buffers.

:class:`Coordination` bundles everything the runtime needs: the
relations, the graphs, per-method categories, and leader assignment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .analysis import CallRelations, CoordinationAnalyzer, MethodRelations
from .graphs import ConflictGraph, DependencyGraph, SyncGroup
from .spec import ObjectSpec, Summarizer

__all__ = ["Category", "Coordination", "categorize"]


class Category(enum.Enum):
    REDUCIBLE = "reducible"
    IRREDUCIBLE_CONFLICT_FREE = "irreducible_conflict_free"
    CONFLICTING = "conflicting"


def categorize(spec: ObjectSpec, conflict_graph: ConflictGraph,
               dependency_graph: DependencyGraph) -> dict[str, Category]:
    """Assign every update method its coordination category."""
    categories: dict[str, Category] = {}
    for method in spec.update_names():
        if conflict_graph.sync_group(method) is not None:
            categories[method] = Category.CONFLICTING
        elif (
            dependency_graph.is_dependence_free(method)
            and spec.summarizer_of(method) is not None
        ):
            categories[method] = Category.REDUCIBLE
        else:
            categories[method] = Category.IRREDUCIBLE_CONFLICT_FREE
    return categories


@dataclass
class Coordination:
    """The full analysis result consumed by semantics and runtime."""

    spec: ObjectSpec
    relations: MethodRelations
    conflict_graph: ConflictGraph
    dependency_graph: DependencyGraph
    categories: dict[str, Category]

    @classmethod
    def analyze(cls, spec: ObjectSpec, seed: int = 0, n_states: int = 40,
                n_args: int = 8) -> "Coordination":
        """Run the bounded analysis end to end for ``spec``; the
        summarizer check and the relations share one sampled probe."""
        analyzer = CoordinationAnalyzer(
            spec, seed=seed, n_states=n_states, n_args=n_args
        )
        problems = analyzer.verify_summarizers()
        if problems:
            raise ValueError(
                f"spec {spec.name!r} has broken summarizers: {problems}"
            )
        relations = analyzer.analyze()
        conflict_graph = ConflictGraph(relations)
        dependency_graph = DependencyGraph(relations)
        categories = categorize(spec, conflict_graph, dependency_graph)
        return cls(spec, relations, conflict_graph, dependency_graph,
                   categories)

    # -- convenience views ---------------------------------------------------

    def category(self, method: str) -> Category:
        return self.categories[method]

    def sync_group(self, method: str) -> Optional[SyncGroup]:
        return self.conflict_graph.sync_group(method)

    def sync_groups(self) -> list[SyncGroup]:
        return self.conflict_graph.groups

    def dep(self, method: str) -> frozenset[str]:
        return self.dependency_graph.dependencies(method)

    def summarizer_of(self, method: str) -> Optional[Summarizer]:
        return self.spec.summarizer_of(method)

    def call_relations(self) -> CallRelations:
        return CallRelations(self.relations)

    def methods_in(self, category: Category) -> list[str]:
        return sorted(
            m for m, cat in self.categories.items() if cat is category
        )
