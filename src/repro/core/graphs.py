"""Conflict graph, synchronization groups, dependency graph (paper §2, §3.3).

The conflict relation induces an undirected *conflict graph* over
update methods; a connected component containing at least one
conflicting method is a *synchronization group* and is assigned a
leader process.  The dependency relation induces a directed
*dependency graph* (edge ``u -> u'`` when ``u' ∈ Dep(u)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .analysis import MethodRelations

__all__ = ["ConflictGraph", "DependencyGraph", "SyncGroup"]


@dataclass(frozen=True)
class SyncGroup:
    """A connected component of conflicting methods."""

    gid: str
    methods: frozenset[str]

    def __contains__(self, method: str) -> bool:
        return method in self.methods


class ConflictGraph:
    """The undirected conflict graph and its synchronization groups."""

    def __init__(self, relations: MethodRelations):
        self.relations = relations
        #: method -> conflicting methods (a self-loop, e.g. withdraw ⋈
        #: withdraw, lists the method as its own neighbour).
        self._adjacency: dict[str, set[str]] = {
            method: set() for method in relations.methods
        }
        for pair in relations.conflicts:
            for method in pair:
                self._adjacency[method] |= pair
        self._groups = self._build_groups()
        self._group_of = {
            method: group for group in self._groups for method in group.methods
        }

    def _build_groups(self) -> list[SyncGroup]:
        """Connected components with at least one conflict edge, in
        order of their smallest method."""
        groups = []
        seen: set[str] = set()
        for method in sorted(self._adjacency):
            if method in seen or not self._adjacency[method]:
                continue
            component, frontier = {method}, [method]
            while frontier:
                for neighbour in self._adjacency[frontier.pop()]:
                    if neighbour not in component:
                        component.add(neighbour)
                        frontier.append(neighbour)
            seen |= component
            gid = "sync:" + "+".join(sorted(component))
            groups.append(SyncGroup(gid, frozenset(component)))
        return groups

    @property
    def groups(self) -> list[SyncGroup]:
        return list(self._groups)

    def sync_group(self, method: str) -> Optional[SyncGroup]:
        """``SyncGroup(u)``; None means ⊥ (conflict-free)."""
        return self._group_of.get(method)

    def to_dot(self) -> str:
        """Graphviz rendering of the conflict graph, groups as clusters."""
        lines = ["graph conflicts {"]
        grouped: set[str] = set()
        for i, group in enumerate(self._groups):
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append(f'    label="{group.gid}";')
            for method in sorted(group.methods):
                lines.append(f'    "{method}";')
                grouped.add(method)
            lines.append("  }")
        for method in self.relations.methods:
            if method not in grouped:
                lines.append(f'  "{method}";')
        for pair in sorted(
            self.relations.conflicts, key=lambda p: sorted(p)
        ):
            members = sorted(pair)
            left, right = members[0], members[-1]
            lines.append(f'  "{left}" -- "{right}";')
        lines.append("}")
        return "\n".join(lines)

    def assign_leaders(self, processes: list[str]) -> dict[str, str]:
        """Round-robin each synchronization group onto a leader process.

        The paper's Fig. 10 experiment relies on distinct groups having
        distinct leaders when enough processes exist.
        """
        if not processes:
            raise ValueError("need at least one process")
        return {
            group.gid: processes[i % len(processes)]
            for i, group in enumerate(self._groups)
        }


class DependencyGraph:
    """The directed graph of ``Dep``; exposed mostly for introspection."""

    def __init__(self, relations: MethodRelations):
        self.relations = relations
        self._dep = {
            method: frozenset(relations.dep(method))
            for method in relations.methods
        }

    def dependencies(self, method: str) -> frozenset[str]:
        """``Dep(u)``: methods whose prior calls ``u`` must wait for."""
        return self._dep[method]

    def dependents(self, method: str) -> set[str]:
        return {u for u, deps in self._dep.items() if method in deps}

    def is_dependence_free(self, method: str) -> bool:
        return not self.dependencies(method)

    def to_dot(self) -> str:
        """Graphviz rendering of the dependency graph (u -> Dep(u))."""
        lines = ["digraph dependencies {"]
        for method in self.relations.methods:
            lines.append(f'  "{method}";')
        for method in self.relations.methods:
            for dep in sorted(self.dependencies(method)):
                lines.append(f'  "{method}" -> "{dep}";')
        lines.append("}")
        return "\n".join(lines)
