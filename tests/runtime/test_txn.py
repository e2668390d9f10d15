"""Cross-shard transactions: classification, commit paths, atomicity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Coordination
from repro.datatypes import bankmap_spec, counter_spec, courseware_spec
from repro.runtime import (
    ShardedCluster,
    ShardedRecorder,
    ShardedTraceChecker,
    TxnCoordinator,
    TxnOp,
)
from repro.sim import Environment


def build(n_shards=2, n_nodes=3, lock_path_enabled=True, record=False):
    env = Environment()
    recorder = ShardedRecorder(env, n_shards=n_shards) if record else None
    sharded = ShardedCluster.build(
        env,
        bankmap_spec(),
        n_shards=n_shards,
        n_nodes=n_nodes,
        shard_probe_factory=(
            recorder.probe_factory_for if recorder is not None else None
        ),
    )
    if recorder is not None:
        recorder.attach(sharded.coordination)
    coordinator = TxnCoordinator(
        sharded, recorder=recorder, lock_path_enabled=lock_path_enabled
    )
    return env, sharded, coordinator, recorder


def pin_two_accounts(sharded):
    """Pin acct-a to shard 0 and acct-b to shard 1."""
    sharded.router.pin("acct-a", 0)
    sharded.router.pin("acct-b", 1)
    return "acct-a", "acct-b"


def open_and_fund(env, sharded, accounts, balance=50):
    for account in accounts:
        shard = sharded.shard_for(account)
        done = shard.node("p1").submit("open", account)
        env.run(until=done)
        if balance:
            done = shard.node("p1").submit(
                "deposit", (account, balance)
            )
            env.run(until=done)
    env.run(until=env.now + 200.0)


class TestClassification:
    @pytest.mark.parametrize("spec_factory", [
        bankmap_spec, counter_spec, courseware_spec,
    ])
    def test_matches_pairwise_conflict_ground_truth(self, spec_factory):
        """classify() agrees with MethodRelations.conflict: a call-set
        is "locked" exactly when one of its methods has a pairwise
        conflict with *some* update method of the spec (conflicts are
        with other in-flight transactions, not just within the set)."""
        spec = spec_factory()
        relations = Coordination.analyze(spec).relations
        updates = spec.update_names()

        env = Environment()
        sharded = ShardedCluster.build(env, spec, n_shards=2, n_nodes=3)
        coordinator = TxnCoordinator(sharded)

        import itertools
        for size in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(
                updates, size
            ):
                ops = [TxnOp(key=f"k{i}", method=m)
                       for i, m in enumerate(combo)]
                expected = "locked" if any(
                    relations.conflict(m, other)
                    for m in combo for other in updates
                ) else "commuting"
                assert coordinator.classify(ops) == expected, combo

    _cached = None

    @classmethod
    def _bank_coordinator(cls):
        # One cluster for every hypothesis example: classify() is pure.
        if cls._cached is None:
            spec = bankmap_spec()
            env = Environment()
            sharded = ShardedCluster.build(
                env, spec, n_shards=2, n_nodes=3
            )
            cls._cached = (
                spec, Coordination.analyze(spec).relations,
                TxnCoordinator(sharded),
            )
        return cls._cached

    @given(st.lists(
        st.sampled_from(bankmap_spec().update_names()),
        min_size=1, max_size=5,
    ))
    @settings(max_examples=60, deadline=None)
    def test_bankmap_property(self, methods):
        spec, relations, coordinator = self._bank_coordinator()
        ops = [TxnOp(key=f"k{i}", method=m)
               for i, m in enumerate(methods)]
        expected = "locked" if any(
            relations.conflict(m, other)
            for m in methods for other in spec.update_names()
        ) else "commuting"
        assert coordinator.classify(ops) == expected


class TestCommitPaths:
    def test_commuting_txn_commits_across_shards(self):
        env, sharded, coordinator, _ = build()
        a, b = pin_two_accounts(sharded)
        open_and_fund(env, sharded, (a, b))
        outcome = env.run(until=coordinator.submit([
            TxnOp(a, "deposit", (a, 10)),
            TxnOp(b, "deposit", (b, 20)),
        ]))
        assert outcome.committed
        assert outcome.classification == "commuting"
        assert len(outcome.issued) == 2
        assert {s for s, *_ in outcome.issued} == {0, 1}
        assert coordinator.counters["txns_commuting"] == 1
        assert coordinator.counters["txns_locked"] == 0

    def test_transfer_takes_the_lock_path_and_commits(self):
        env, sharded, coordinator, _ = build()
        a, b = pin_two_accounts(sharded)
        open_and_fund(env, sharded, (a, b))
        outcome = env.run(until=coordinator.submit([
            TxnOp(a, "withdraw", (a, 5)),
            TxnOp(b, "deposit", (b, 5)),
        ]))
        assert outcome.committed
        assert outcome.classification == "locked"
        assert len(outcome.issued) == 2
        assert coordinator.counters["txns_locked"] == 1
        assert coordinator.counters["commits"] == 1

    def test_overdraft_aborts_all_or_nothing(self):
        env, sharded, coordinator, _ = build()
        a, b = pin_two_accounts(sharded)
        open_and_fund(env, sharded, (a, b), balance=3)
        outcome = env.run(until=coordinator.submit([
            TxnOp(a, "withdraw", (a, 1000)),
            TxnOp(b, "deposit", (b, 1000)),
        ]))
        assert not outcome.committed
        assert outcome.issued == []
        assert outcome.rejected == 1
        assert coordinator.counters["aborts"] == 1
        # Neither side landed: balances unchanged after settling.
        env.run(until=env.now + 400.0)
        assert sharded.converged()

    def test_concurrent_locked_txns_serialize_not_deadlock(self):
        env, sharded, coordinator, _ = build()
        a, b = pin_two_accounts(sharded)
        open_and_fund(env, sharded, (a, b), balance=100)
        # Opposite-direction transfers over the same two shards: lock
        # acquisition in ascending shard order means no deadlock.
        first = coordinator.submit([
            TxnOp(a, "withdraw", (a, 5)), TxnOp(b, "deposit", (b, 5)),
        ])
        second = coordinator.submit([
            TxnOp(b, "withdraw", (b, 7)), TxnOp(a, "deposit", (a, 7)),
        ])
        out1 = env.run(until=first)
        out2 = env.run(until=second)
        assert out1.committed and out2.committed
        assert coordinator.counters["commits"] == 2


class TestRedirectGiveUps:
    def test_exhausted_attempts_are_counted(self):
        env, sharded, _, _ = build()
        coordinator = TxnCoordinator(sharded, max_attempts=3)
        a, _b = pin_two_accounts(sharded)
        open_and_fund(env, sharded, (a,))
        for name in sharded.shard(0).node_names():
            sharded.shard(0).node(name).failed = True
        outcome = env.run(until=coordinator.submit([
            TxnOp(a, "deposit", (a, 10)),
        ]))
        assert not outcome.committed
        assert outcome.rejected == 1
        assert coordinator.counters["redirect_giveups"] == 1
        assert coordinator.counters["rejected_calls"] == 0


class TestScaledInLeader:
    def test_coordinator_waits_out_a_removed_leader(self):
        """``p1`` leads ``withdraw`` on shard 0 and scales in while the
        survivors still name it: the call waits and re-resolves the
        leader instead of raising ``KeyError`` out of ``env.run``."""
        env, sharded, coordinator, _ = build()
        a, _b = pin_two_accounts(sharded)
        open_and_fund(env, sharded, (a,))
        shard = sharded.shard(0)
        assert shard.node("p1").current_leader("withdraw") == "p1"
        sharded.remove_node("s0/p1")
        assert {
            shard.node(name).current_leader("withdraw")
            for name in shard.node_names()
        } == {"p1"}
        outcome = env.run(until=coordinator.submit([
            TxnOp(a, "withdraw", (a, 1)),
        ]))
        if outcome.committed:
            assert [origin for _s, _m, origin, _r in outcome.issued] != [
                "p1"
            ]
        else:
            assert coordinator.counters["redirect_giveups"] == 1


class TestAtomicityGate:
    def run_overdraft(self, lock_path_enabled):
        env, sharded, coordinator, recorder = build(
            lock_path_enabled=lock_path_enabled, record=True
        )
        a, b = pin_two_accounts(sharded)
        open_and_fund(env, sharded, (a, b), balance=3)
        outcome = env.run(until=coordinator.submit([
            TxnOp(a, "withdraw", (a, 1000)),
            TxnOp(b, "deposit", (b, 1000)),
        ]))
        env.run(
            until=env.process(sharded.quiesce({
                0: sum(1 for s, *_ in outcome.issued if s == 0) + 2,
                1: sum(1 for s, *_ in outcome.issued if s == 1) + 2,
            }))
        )
        report = ShardedTraceChecker(
            sharded.coordination, n_shards=2
        ).check_recorder(recorder)
        return outcome, report

    def test_lock_path_on_passes_the_atomicity_check(self):
        outcome, report = self.run_overdraft(lock_path_enabled=True)
        assert not outcome.committed
        assert report.ok, report.summary()

    def test_negative_control_lock_path_off_fails_the_check(self):
        """Disabling the conflicting-txn lock path lets the deposit
        land while the withdraw is rejected — the checker must catch
        the surviving partial effect."""
        outcome, report = self.run_overdraft(lock_path_enabled=False)
        assert not outcome.committed
        assert len(outcome.issued) == 1  # the deposit escaped
        assert not report.ok
        assert any(
            v.kind == "atomicity" for v in report.all_violations()
        )
