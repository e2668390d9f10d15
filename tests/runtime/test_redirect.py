"""The one redirect policy: every client path reaches a leader through
:func:`~repro.runtime.cluster.submit_redirected`, and each give-up is a
``redirect`` count in ``giveups`` plus one ``giveup`` trace event."""

import ast
from pathlib import Path

from repro.runtime import (
    StreamingChecker,
    TraceChecker,
    TraceRecorder,
    TxnCoordinator,
    TxnOp,
)
from repro.sim import Environment

from ..workload.test_request_paths import _closed, _never_leading, _open
from .test_txn import build, open_and_fund, pin_two_accounts

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
POLICY = SRC / "runtime" / "cluster.py"
#: Names of the deleted two-sided forwarding path.
FORWARDING = {"submit_any", "fwd_req", "fwd_resp", "forward_to_leader"}


def _names(node):
    """Every identifier and string constant under ``node``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield child.name
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.value


def _redirect_sites(tree):
    """Lines that catch ``NotLeaderError`` or test for it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            if "NotLeaderError" in set(_names(node.type)):
                yield node.lineno
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2
              and "NotLeaderError" in set(_names(node.args[1]))):
            yield node.lineno


class TestOneRedirectLoop:
    def test_only_the_policy_handles_not_leader(self):
        sites = {}
        for path in sorted(SRC.rglob("*.py")):
            lines = list(_redirect_sites(ast.parse(path.read_text())))
            if lines:
                sites[str(path.relative_to(SRC))] = lines
        assert list(sites) == [str(POLICY.relative_to(SRC))], sites

    def test_two_sided_forwarding_stays_deleted(self):
        found = {
            str(path.relative_to(SRC)): sorted(
                FORWARDING & set(_names(ast.parse(path.read_text())))
            )
            for path in sorted(SRC.rglob("*.py"))
        }
        assert not {path: names for path, names in found.items() if names}


def _giveup_events(recorder):
    return [
        e for e in recorder.events()
        if e.kind == "giveup" and e.name == "redirect"
    ]


def _traced(cluster):
    """Give the stub nodes tracing probes (stubs have none)."""
    recorder = TraceRecorder(cluster.env)
    for name, node in cluster.nodes.items():
        node.probe = recorder.probe_factory(name)
    return recorder


def _redirect_giveups(recorder):
    return sum(
        probe.snapshot()["giveups"].get("redirect", 0)
        for probe in recorder.probes.values()
    )


class TestGiveUpsAreTraced:
    def test_closed_loop(self):
        cluster = _never_leading(Environment())
        recorder = _traced(cluster)
        result = _closed(cluster, total_ops=1)
        assert result.redirect_giveups == result.rejected_calls == 1
        assert _redirect_giveups(recorder) == 1
        (event,) = _giveup_events(recorder)
        assert event.origin == "add"

    def test_open_loop(self):
        cluster = _never_leading(Environment())
        recorder = _traced(cluster)
        result = _open(cluster)
        assert result.total_calls > 0
        assert result.redirect_giveups == result.rejected_calls
        assert result.redirect_giveups == result.total_calls
        assert _redirect_giveups(recorder) == result.redirect_giveups
        assert len(_giveup_events(recorder)) == result.redirect_giveups

    def test_coordinator(self):
        sharded, coordinator, recorder = _coordinator_giveup()
        assert coordinator.counters["redirect_giveups"] == 1
        assert coordinator.counters["rejected_calls"] == 0
        shard = sharded.shard(0)
        assert sum(
            shard.node(name).stats()["probe"]["giveups"].get("redirect", 0)
            for name in shard.node_names()
        ) == 1
        assert [e.origin for e in _giveup_events(recorder)] == ["deposit"]

    def test_giveup_events_carry_no_obligation(self):
        """Both checkers give the same verdict with and without the
        give-up event of a trace."""
        sharded, _coordinator, recorder = _coordinator_giveup()
        events = recorder.shard_events()[0]
        without = [e for e in events if e.kind != "giveup"]
        assert len(without) == len(events) - 1
        processes = sharded.shard(0).node_names()
        for make in (TraceChecker, StreamingChecker):
            reports = [
                make(sharded.coordination, processes=processes).check(trace)
                for trace in (events, without)
            ]
            assert reports[0].ok, reports[0].summary()
            assert reports[0].summary() == reports[1].summary()


def _coordinator_giveup():
    """One deposit on a recorded shard whose nodes have all failed: the
    coordinator runs out of its three attempts."""
    env, sharded, _, recorder = build(record=True)
    coordinator = TxnCoordinator(sharded, max_attempts=3)
    a, _b = pin_two_accounts(sharded)
    open_and_fund(env, sharded, (a,))
    shard = sharded.shard(0)
    for name in shard.node_names():
        shard.node(name).failed = True
    outcome = env.run(until=coordinator.submit([
        TxnOp(a, "deposit", (a, 10)),
    ]))
    assert not outcome.committed
    return sharded, coordinator, recorder
