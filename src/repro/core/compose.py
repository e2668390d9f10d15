"""Composition of WRDT specifications.

The paper notes that composition of replicated data types is its own
research line ([27, 61, 89]); these combinators cover the two shapes
practitioners reach for first and preserve the analysis structure:

- :func:`product` — run several independent objects side by side in one
  replicated object.  State is the tuple of component states, methods
  are namespaced ``component.method``, the invariant is the
  conjunction.  Methods of different components commute and never
  depend on each other (they touch disjoint state), so the composite
  analysis is the disjoint union of the component analyses — two
  conflicting components yield two synchronization groups with
  independent leaders, exactly like the movie schema.
- :func:`map_of` — a keyed family of one component object (e.g. a map
  of accounts).  Methods take ``(key, inner_arg)``; same-key calls
  relate as in the component, different-key calls are independent.
  Lifted methods are not summarizable (two calls on different keys have
  no single-call composition), so reducible component methods become
  irreducible conflict-free in the family.

Both keep a component's declared delta invariant (``UpdateDef.keeps``):
the composite invariant is a conjunction over parts and a call changes
only its own part (in a family, the keyed part, which starts from the
component's initial state when absent), so the delta reads that part
exactly as a query does and is lifted the same way.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from .calls import Call
from .spec import ObjectSpec, QueryDef, SpecError, Summarizer, UpdateDef

__all__ = ["map_of", "product"]


def product(name: str, components: list[ObjectSpec]) -> ObjectSpec:
    """Side-by-side composition of independent objects."""
    if not components:
        raise SpecError("product of zero components")
    names = [c.name for c in components]
    if len(set(names)) != len(names):
        raise SpecError(f"component names must be unique, got {names}")

    def initial_state() -> tuple:
        return tuple(c.initial_state() for c in components)

    def invariant(state: tuple) -> bool:
        return all(
            c.invariant(part) for c, part in zip(components, state)
        )

    updates, queries, summarizers = [], [], []
    arg_gens: dict[str, Callable] = {}
    for index, component in enumerate(components):
        prefix = component.name
        for update in component.updates.values():
            updates.append(
                UpdateDef(
                    f"{prefix}.{update.name}",
                    _lift_update(index, update.apply),
                    _lift_query(index, update.keeps)
                    if update.keeps is not None else None,
                )
            )
            gen = component.arg_gens.get(update.name)
            if gen is not None:
                arg_gens[f"{prefix}.{update.name}"] = gen
        for query in component.queries.values():
            queries.append(
                QueryDef(
                    f"{prefix}.{query.name}",
                    _lift_query(index, query.compute),
                )
            )
        for summarizer in component.summarizers:
            summarizers.append(
                Summarizer(
                    group=f"{prefix}.{summarizer.group}",
                    methods=frozenset(
                        f"{prefix}.{m}" for m in summarizer.methods
                    ),
                    combine=_lift_combine(prefix, summarizer.combine),
                    identity=_lift_identity(prefix, summarizer.identity),
                )
            )

    declared = _product_declarations(components)
    state_gens = [c.state_gen for c in components]

    def state_gen(rng: random.Random) -> tuple:
        return tuple(
            gen(rng) if gen is not None else component.initial_state()
            for gen, component in zip(state_gens, components)
        )

    return ObjectSpec(
        name=name,
        initial_state=initial_state,
        invariant=invariant,
        updates=updates,
        queries=queries,
        summarizers=summarizers,
        state_gen=state_gen,
        arg_gens=arg_gens,
        declared_conflicts=declared[0],
        declared_dependencies=declared[1],
    )


def _product_declarations(components):
    """Compose the components' relations into composite declarations.

    Cross-component pairs are structurally independent (they touch
    disjoint parts of the tuple state), so the composite's relations are
    the disjoint union of per-component relations, each taken from the
    analysis of the *component* (declared ones as-is) — which is both
    cheaper and sounder than re-probing the whole product (a declared
    component's causal arguments never need to survive composite
    sampling).
    """
    from .analysis import CoordinationAnalyzer  # local: avoid cycle

    conflicts = set()
    dependencies: dict[str, set[str]] = {}
    for component in components:
        prefix = component.name
        relations = CoordinationAnalyzer(component).analyze()
        for pair in relations.conflicts:
            conflicts.add(frozenset(f"{prefix}.{m}" for m in pair))
        for method, deps in relations.dependencies.items():
            dependencies[f"{prefix}.{method}"] = {
                f"{prefix}.{d}" for d in deps
            }
    return conflicts, dependencies


def _lift_update(index: int, apply):
    def lifted(arg: Any, state: tuple) -> tuple:
        parts = list(state)
        parts[index] = apply(arg, parts[index])
        return tuple(parts)

    return lifted


def _lift_query(index: int, compute):
    def lifted(arg: Any, state: tuple) -> Any:
        return compute(arg, state[index])

    return lifted


def _lift_combine(prefix: str, combine):
    def lifted(c1: Call, c2: Call) -> Call:
        strip = len(prefix) + 1
        inner = combine(
            Call(c1.method[strip:], c1.arg, c1.origin, c1.rid),
            Call(c2.method[strip:], c2.arg, c2.origin, c2.rid),
        )
        return Call(f"{prefix}.{inner.method}", inner.arg, inner.origin,
                    inner.rid)

    return lifted


def _lift_identity(prefix: str, identity):
    def lifted(origin: str) -> Call:
        inner = identity(origin)
        return Call(f"{prefix}.{inner.method}", inner.arg, inner.origin,
                    inner.rid)

    return lifted


def map_of(name: str, component: ObjectSpec,
           sample_keys: Optional[list[Any]] = None) -> ObjectSpec:
    """A keyed family of ``component`` objects.

    Methods keep the component's names but take ``(key, inner_arg)``;
    queries likewise.  ``sample_keys`` feeds the bounded analysis (two
    keys suffice: one probes same-key interaction, the pair probes
    independence).
    """
    keys = sample_keys if sample_keys is not None else ["k1", "k2"]
    if len(keys) < 2:
        raise SpecError("need at least two sample keys for the analysis")

    def initial_state() -> tuple:
        return ()

    def invariant(state: tuple) -> bool:
        return all(component.invariant(part) for _key, part in state)

    def _as_dict(state: tuple) -> dict:
        return dict(state)

    def _with(state: tuple, key: Any, part: Any) -> tuple:
        entries = {k: v for k, v in state if k != key}
        if not component.state_eq(part, component.initial_state()):
            entries[key] = part
        return tuple(sorted(entries.items(), key=lambda kv: repr(kv[0])))

    updates, queries = [], []
    arg_gens: dict[str, Callable] = {}
    for update in component.updates.values():
        updates.append(
            UpdateDef(
                update.name,
                _lift_keyed_update(component, update.apply, _as_dict, _with),
                _lift_keyed_query(component, update.keeps, _as_dict)
                if update.keeps is not None else None,
            )
        )
        gen = component.arg_gens.get(update.name)
        # A declared component's causal arguments stay unsampled in the
        # family, so the analysis does not probe them with a bare key.
        if gen is not None or component.declared_conflicts is None:
            arg_gens[update.name] = _lift_keyed_gen(keys, gen)
    for query in component.queries.values():
        queries.append(
            QueryDef(query.name, _lift_keyed_query(component, query.compute,
                                                   _as_dict))
        )

    if component.declared_conflicts is not None:
        declared_conflicts = set(component.declared_conflicts)
        declared_dependencies = {
            m: set(d) for m, d in component.declared_dependencies.items()
        }
    else:
        declared_conflicts = None
        declared_dependencies = None

    component_state_gen = component.state_gen

    def state_gen(rng: random.Random) -> tuple:
        entries = {}
        for key in keys:
            if rng.random() < 0.7 and component_state_gen is not None:
                entries[key] = component_state_gen(rng)
        return tuple(sorted(entries.items(), key=lambda kv: repr(kv[0])))

    return ObjectSpec(
        name=name,
        initial_state=initial_state,
        invariant=invariant,
        updates=updates,
        queries=queries,
        # Keyed methods are not summarizable across keys.
        summarizers=[],
        state_gen=state_gen,
        arg_gens=arg_gens,
        declared_conflicts=declared_conflicts,
        declared_dependencies=declared_dependencies,
    )


def _lift_keyed_update(component, apply, as_dict, with_part):
    def lifted(arg: Any, state: tuple) -> tuple:
        key, inner_arg = arg
        part = as_dict(state).get(key, component.initial_state())
        return with_part(state, key, apply(inner_arg, part))

    return lifted


def _lift_keyed_query(component, compute, as_dict):
    def lifted(arg: Any, state: tuple) -> Any:
        key, inner_arg = arg
        part = as_dict(state).get(key, component.initial_state())
        return compute(inner_arg, part)

    return lifted


def _lift_keyed_gen(keys, gen):
    def lifted(rng: random.Random):
        inner = gen(rng) if gen is not None else None
        return (rng.choice(keys), inner)

    return lifted
