"""Replaying calls into per-node states — the trace checker's σ.

The checker core (:mod:`repro.runtime.stream_checker`, driven live or
by the offline :mod:`repro.runtime.checker`) verifies Lemma-1 integrity
and Lemma-2 convergence by folding every recorded apply into a replayed
state per node.  That fold lives here, once.
"""

from __future__ import annotations

from typing import Any, Iterable

from .calls import Call
from .spec import ObjectSpec

__all__ = ["Replay"]


class Replay:
    """The replayed state σ of every node, and the one place a call is
    folded into it.

    A replica's apply is stepped on its own (:meth:`step`).  A REDUCE
    is visible at every node in one event, so :meth:`reduce` steps it
    once per distinct pre-state: an update is a pure function of
    ``(argument, pre-state)`` (the :mod:`repro.core.spec` contract), so
    a replica in an already-stepped state (the same object, or an
    equal one) gets the verdict its own step would have computed.
    Nothing outlives the event: a checker holds one state per node and
    the joiner seed, whatever its window.

    Next to each σ sits ``holds[node]``, whether ``I(σ)`` holds, so a
    step decides permissibility by :meth:`ObjectSpec.holds_after`: the
    method's declared delta while the node is sound, the whole-state
    ``I`` once it is broken, until ``I`` holds again.  The verdicts are
    therefore those of the whole-state fold, violation or not.  The
    flags are derived from σ: a joiner's is recomputed, and
    :meth:`audit` checks every flag against the whole state once, at
    the end of a check.
    See docs/observability.md, "What observability costs".
    """

    def __init__(self, spec: ObjectSpec, nodes: Iterable[str]):
        self.spec = spec
        initial = spec.initial_state()
        self.sigma: dict[str, Any] = dict.fromkeys(nodes, initial)
        #: ``I(σ[node])``; the initial state satisfies ``I`` (ObjectSpec
        #: refuses a spec whose initial state does not).
        self.holds: dict[str, bool] = dict.fromkeys(self.sigma, True)
        #: The last method stepped at each node, for :meth:`audit`.
        self.last: dict[str, str] = {}
        #: The initial state folded with every REDUCE so far: a joiner's
        #: state transfer pulls the summary slots, so its replayed state
        #: starts here (it never sees the old REDUCE events).
        self.seed: Any = initial

    def step(self, call: Call, node: str) -> bool:
        """Fold ``call`` into σ[node]; True iff the post-state keeps
        the invariant (the call was permissible at its apply state)."""
        pre = self.sigma[node]
        post = self.sigma[node] = self.spec.apply_call(call, pre)
        ok = self.holds[node] = self.spec.holds_after(
            call, pre, post, self.holds[node]
        )
        self.last[node] = call.method
        return ok

    def reduce(self, call: Call, nodes: Iterable[str]) -> list[str]:
        """A summary write is visible at every node at once: step
        ``call`` at each of ``nodes`` and into the joiner seed; returns
        the nodes whose invariant it broke."""
        sigma, holds, spec = self.sigma, self.holds, self.spec
        #: ``(pre, post, I(post))`` per distinct pre-state of this event.
        stepped: list[tuple] = []

        def fold(pre: Any, pre_holds: bool) -> tuple:
            for seen, post, ok in stepped:
                if seen is pre or seen == pre:
                    return post, ok
            post = spec.apply_call(call, pre)
            ok = spec.holds_after(call, pre, post, pre_holds)
            stepped.append((pre, post, ok))
            return post, ok

        broken = []
        for node in nodes:
            sigma[node], ok = fold(sigma[node], holds[node])
            holds[node] = ok
            self.last[node] = call.method
            if not ok:
                broken.append(node)
        # The seed's own verdict is never reported: no flag kept for it.
        self.seed = fold(self.seed, False)[0]
        return broken

    def join(self, node: str) -> None:
        self.sigma[node] = self.seed
        self.holds[node] = bool(self.spec.invariant(self.seed))

    def audit(self) -> list[str]:
        """The safety net under the declared deltas: the whole-state
        ``I`` once per node, one message per node whose flag disagrees
        (a delta that breaks its contract)."""
        return [
            f"{node}: the whole-state invariant is {actual} but the "
            f"declared deltas say {not actual}, so a delta breaks its "
            f"contract (last method stepped there: "
            f"{self.last.get(node, 'none')})"
            for node, state in sorted(self.sigma.items())
            if (actual := bool(self.spec.invariant(state)))
            != self.holds[node]
        ]

    def divergence(self, nodes: list[str]) -> list[str]:
        """Lemma 2 at quiescence: one message per node of ``nodes``
        whose state differs from the first's."""
        sigma, base = self.sigma, nodes[0]
        return [
            f"equal histories but diverged states: {base} != {node} "
            f"({sigma[base]!r} vs {sigma[node]!r})"
            for node in nodes[1:]
            if not self.spec.state_eq(sigma[base], sigma[node])
        ]
