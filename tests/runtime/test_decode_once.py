"""The decode-once contract: one codec per cluster, one decode per frame.

Every node of a cluster — a joiner included — and every layer of a node
hold the cluster's one :class:`WireCodec`, whose bounded memo shares one
decoded value among every reader of a frame.  Sharing is safe only if
no consumer mutates a decoded value, so after whole runs (each bundled
data type, and a silent-corruption chaos run) every memoized frame must
still decode afresh to an equal value.
"""

import pytest

from repro.bench import ExperimentConfig, run_harness
from repro.core import Call
from repro.datatypes import SPEC_FACTORIES, counter_spec
from repro.runtime import MEMO_FRAMES, HambandCluster, WireCodec, WireError
from repro.sim import Environment, FaultPlan


def _layer_codecs(node):
    yield node.codec
    yield node.transport.codec
    yield node.applier.codec
    yield node.conflict.codec
    yield node.control.codec
    for slot in node.applier.summary_readers.values():
        yield slot.codec


def assert_one_codec(cluster):
    codec = cluster.codec
    for node in cluster.nodes.values():
        assert all(c is codec for c in _layer_codecs(node)), node.name


def assert_memo_unmutated(codec):
    """Every memoized frame decodes afresh (no memo) to what the memo
    holds: no consumer mutated a shared decoded value."""
    memo = codec._memo
    assert 0 < len(memo) <= MEMO_FRAMES
    fresh = WireCodec(codec.table)
    decoders = {
        1: fresh.decode_value,
        2: fresh.decode_call_packet,
        3: lambda data: tuple(fresh.decode_call_batch(data)),
    }
    for data, value in memo.items():
        assert decoders[data[0]](data) == value, data.hex()


def _run(workload, plan=None):
    config = ExperimentConfig(
        system="hamband", workload=workload, n_nodes=4, total_ops=300,
        update_ratio=0.5, seed=3,
    )
    run = run_harness(config, plan=plan)
    assert run.settled
    return run


@pytest.mark.parametrize("workload", sorted(SPEC_FACTORIES))
def test_every_bundled_type_shares_one_unmutated_codec(workload):
    run = _run(workload)
    assert_one_codec(run.cluster)
    assert_memo_unmutated(run.cluster.codec)


def test_corrupt_chaos_run_leaves_the_memo_unmutated():
    plan = FaultPlan.named("corrupt-5pct", horizon_us=500.0)
    run = _run("counter", plan=plan)
    assert run.injector.counts().get("corrupt", 0) > 0
    assert run.check().ok
    assert_one_codec(run.cluster)
    assert_memo_unmutated(run.cluster.codec)


def test_a_joiner_gets_the_cluster_codec():
    env = Environment()
    cluster = HambandCluster.build(env, counter_spec(), n_nodes=3)
    env.run(until=cluster.node("p1").submit("add", 4))
    joiner = cluster.add_node("p4")
    env.run(until=env.now + 500.0)
    assert joiner.codec is cluster.codec
    assert_one_codec(cluster)
    env.run(until=joiner.submit("add", 3))
    env.run(until=env.now + 200.0)
    assert {n.effective_state() for n in cluster.nodes.values()} == {7}


class TestMemo:
    def test_bound_is_never_exceeded_and_oldest_goes_first(self):
        codec = WireCodec()
        frames = [codec.encode_value(i) for i in range(MEMO_FRAMES + 10)]
        for frame in frames:
            codec.decode_value(frame)
            assert len(codec._memo) <= MEMO_FRAMES
        assert list(codec._memo) == frames[10:]

    def test_readers_share_one_decoded_value(self):
        codec = WireCodec()
        packet = codec.encode_call_packet(
            Call("add", ("x", 1), "p1", 9), {("p2", "add"): 3}
        )
        first = codec.decode_call_packet(bytes(packet))
        assert codec.decode_call_packet(bytes(packet)) is first

    def test_corrupted_bytes_never_hit_and_every_reader_rejects(self):
        codec = WireCodec()
        frame = codec.encode_value(("a", 1)) + b"\x00"  # trailing byte
        for _ in range(3):
            with pytest.raises(WireError, match="trailing"):
                codec.decode_value(frame)
        assert not codec._memo

    def test_a_frame_of_one_kind_never_answers_for_another(self):
        codec = WireCodec()
        value = codec.encode_value(1)
        codec.decode_value(value)
        with pytest.raises(WireError, match="not a call packet"):
            codec.decode_call_packet(value)
        with pytest.raises(WireError, match="not a batch"):
            codec.decode_call_batch(value)
