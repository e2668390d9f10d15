"""The purity contract of ``core/spec.py``: an update definition is a
function of ``(arg, pre_state)`` that never mutates its pre-state.

The trace checkers lean on it — replicas may hold the same state object
and one replayed REDUCE step is shared by every replica in an equal
state (``core.replay.Replay``) — so it is pinned for every bundled type,
on the call stream its workload generator issues.
"""

import copy
import itertools

import pytest

from repro.core import Call
from repro.datatypes import SPEC_FACTORIES
from repro.workload.generators import make_generator, setup_calls


@pytest.mark.parametrize("name", sorted(SPEC_FACTORIES))
def test_apply_call_leaves_its_pre_state_untouched(name):
    spec = SPEC_FACTORIES[name]()
    stream = itertools.chain(
        setup_calls(name),
        itertools.islice(make_generator(name, seed=7, node="p1"), 120),
    )
    state = spec.initial_state()
    methods = set()
    for rid, (method, arg) in enumerate(stream, 1):
        call = Call(method, arg, "p1", rid)
        before = copy.deepcopy(state)
        post = spec.apply_call(call, state)
        assert state == before, (
            f"{name}.{method}({arg!r}) mutated its pre-state"
        )
        assert spec.state_eq(post, spec.apply_call(call, before)), (
            f"{name}.{method}({arg!r}) is not a function of (arg, pre_state)"
        )
        methods.add(method)
        state = post
    assert methods, "the generator issued no update"
