"""Representative frames of every bundled data type, and their bytes.

:func:`golden_frames` builds, for each bundled data type and for both
the cluster (tabled) codec and the table-less one, the frames the
runtime ships: call packets, batches, summary payloads and the ``F`` /
``S`` backup messages.  It uses only the generic encoders
(``encode_call_packet``, ``encode_call_batch``, ``encode_value``), so
the same function records the golden file and re-derives it.

``wire_golden.json`` holds the bytes recorded before the codec grew
pre-packed headers; ``test_wire_compiled.py`` holds every encoder to
them.  To re-record (only for a deliberate format change)::

    PYTHONPATH=src python tests/runtime/wire_golden.py > tests/runtime/wire_golden.json
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

from repro.core import Call, Coordination
from repro.datatypes import SPEC_FACTORIES, orset_spec
from repro.runtime import WireCodec
from repro.workload.generators import make_generator

GOLDEN_PATH = Path(__file__).with_name("wire_golden.json")
FOUNDING = ["p1", "p2", "p3", "p4"]
#: A joiner's name: outside every founding table, so it rides the
#: codec's inline escape.
JOINER = "p5"
CALLS_PER_TYPE = 6

FACTORIES = dict(SPEC_FACTORIES)
FACTORIES["orset"] = orset_spec


def codecs_for(spec) -> dict[str, WireCodec]:
    return {
        "tabled": WireCodec.for_cluster(
            2, Coordination.analyze(spec), FOUNDING
        ),
        "plain": WireCodec(),
    }


def sample_calls(name: str, spec) -> list[tuple[Call, dict]]:
    """``CALLS_PER_TYPE`` calls from the workload generator, with small
    and multi-byte rids and dependency counts, tabled and inline names."""
    stream = make_generator(name, 1, "p2")
    updates = spec.update_names()
    entries = []
    for i, (method, arg) in enumerate(
        itertools.islice(stream, CALLS_PER_TYPE)
    ):
        origin = JOINER if i % 3 == 2 else FOUNDING[i % len(FOUNDING)]
        rid = (1, 127, 128, 300, 16_384, 7)[i]
        dep = {}
        if i % 2:
            dep = {
                ("p1", method): i,
                ("p3", updates[0]): 130 * i,
                (JOINER, updates[-1]): 2,
            }
        entries.append((Call(method, arg, origin, rid), dep))
    return entries


def golden_frames(name: str, spec, codec: WireCodec) -> dict[str, bytes]:
    """Case id -> frame bytes for one data type under one codec."""
    entries = sample_calls(name, spec)
    frames: dict[str, bytes] = {}
    for i, (call, dep) in enumerate(entries):
        packet = codec.encode_call_packet(call, dep)
        frames[f"packet.{i}"] = packet
        frames[f"F.{i}"] = codec.encode_value(("F", packet))
    frames["batch.1"] = codec.encode_call_batch(entries[:1])
    frames["batch.all"] = codec.encode_call_batch(entries)
    for summarizer in spec.summarizers:
        group = summarizer.group
        for i, (call, _dep) in enumerate(entries):
            if call.method not in summarizer.methods:
                continue
            counts = {call.method: 3 + 200 * i}
            payload = codec.encode_value(
                (call.method, call.arg, call.origin, call.rid, counts)
            )
            frames[f"summary.{group}.{i}"] = payload
            frames[f"S.{group}.{i}"] = codec.encode_value(
                ("S", group, payload)
            )
    return frames


def record() -> dict[str, dict[str, str]]:
    """``{"<type>/<codec>": {case: hex}}`` for every bundled type."""
    out = {}
    for name in sorted(FACTORIES):
        spec = FACTORIES[name]()
        for label, codec in codecs_for(spec).items():
            out[f"{name}/{label}"] = {
                case: frame.hex()
                for case, frame in golden_frames(name, spec, codec).items()
            }
    return out


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
