"""Smoke test of the benchmark harness itself.

Run explicitly (it is not part of tier-1, which collects ``tests/``):

    python -m pytest benchmarks/perf/test_perf_harness.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import LAYERS, layer_of_module  # noqa: E402
from worker import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SCALE = "0.02"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One full run of all seven workloads at 2% size."""
    out = tmp_path_factory.mktemp("perf")
    done = _run("--scale", SCALE, "--repeats", "2",
                "--out", str(out / "result.json"),
                "--trace-out", str(out / "trace.json"))
    assert done.returncode == 0, done.stderr
    return {
        "stdout": done.stdout,
        "result_path": out / "result.json",
        "result": json.loads((out / "result.json").read_text()),
        "trace": json.loads((out / "trace.json").read_text()),
    }


def test_benchmark_json_is_within_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [row["name"] for section in ("workloads", "end_to_end",
                                         "per_layer")
             for row in BENCHMARK[section]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for row in BENCHMARK["workloads"]:
        assert set(row) == {"name", "why"} and len(row["why"]) <= 200
        assert row["why"] == WORKLOADS[row["name"]].why
    assert [r["name"] for r in BENCHMARK["workloads"]] == list(WORKLOADS)
    for row in BENCHMARK["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
        assert run.END_TO_END[row["name"]][:2] == (row["unit"], row["better"])
    setup = [r for r in BENCHMARK["end_to_end"] if r["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        r["bound"] for r in BENCHMARK["end_to_end"])
    units = {**run.per_layer_units(),
             **{k: v[0] for k, v in run.END_TO_END.items()}}
    for row in BENCHMARK["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
        assert UNIT.fullmatch(row["unit"]), row
        assert row["better"] in ("higher", "lower")
        assert units[row["name"]] == row["unit"]
    # Nothing the harness measures is left out of the declaration.
    assert set(names) >= set(run.per_layer_units()) | set(run.END_TO_END)
    total_runs = 4 + 22 * len(BENCHMARK["workloads"])
    assert total_runs * (BENCHMARK["run_seconds"] + 2) < 3420


def test_layer_map_covers_every_source_file():
    sources = sorted(
        path.relative_to(ROOT / "src" / "repro").as_posix()
        for path in (ROOT / "src" / "repro").rglob("*.py")
    )
    assert sources
    unmapped = [s for s in sources if layer_of_module(s) not in LAYERS]
    assert not unmapped, f"add these modules to layers.py: {unmapped}"


def test_full_run_emits_every_declared_metric(smoke):
    result = smoke["result"]
    assert set(result["workloads"]) == set(WORKLOADS)
    for key in ("seed", "scale", "repeats", "commit", "python", "nproc",
                "loadavg_at_start", "sizes"):
        assert key in result["meta"]
    for name, row in result["workloads"].items():
        assert set(row["end_to_end"]) == set(run.END_TO_END), name
        assert set(row["per_layer"]) == set(run.per_layer_units()), name
        for metric, cell in row["end_to_end"].items():
            assert NAME.fullmatch(metric)
            assert UNIT.fullmatch(cell["unit"])
            if metric in run.HOST_METRICS:
                assert cell["n"] == 2 and len(cell["values"]) == 2
                assert min(cell["values"]) <= cell["value"] <= max(
                    cell["values"])
                assert cell["value"] > 0
        assert row["failed"] == 0
        assert len(row["children"]) == 2
        assert name in smoke["stdout"]
    for metric in list(run.END_TO_END) + list(run.per_layer_units()):
        assert metric in smoke["stdout"], metric
    assert "all correctness checks passed" in smoke["stdout"]


def test_layer_attribution_separates_the_workloads(smoke):
    layers = {name: row["per_layer"]
              for name, row in smoke["result"]["workloads"].items()}
    for layer in ("runtime.trace", "runtime.stream_checker"):
        assert layers["courseware_checked"][f"{layer}.self_share"] > 0
        assert layers["courseware_mixed"][f"{layer}.self_share"] == 0
    for name, row in layers.items():
        assert (row["runtime.txn.self_share"] > 0) == (name == "bank_sharded")
        assert (row["runtime.checker.self_share"] > 0) == (
            name == "courseware_crash")
    assert max(layers, key=lambda n: layers[n]["runtime.summary.self_share"]
               ) == "counter_serve"
    assert smoke["result"]["workloads"]["courseware_crash"]["end_to_end"][
        "sim_unavail_us"]["value"] > 0


def test_trace_out_holds_spans_and_profiles(smoke):
    trace = smoke["trace"]
    assert set(trace["profiles"]) == set(WORKLOADS)
    for span in trace["spans"]:
        assert set(span) == {"name", "start", "end", "parent", "workload"}
        assert span["end"] >= span["start"] >= 0
    seen = {(s["workload"].split("/")[0], s["name"]) for s in trace["spans"]}
    for name in WORKLOADS:
        for phase in ("setup", "timed", "phase.import", "phase.drive"):
            assert (name, phase) in seen


def test_compare_accepts_itself_and_flags_a_regression(smoke, tmp_path):
    same = _run("--compare", str(smoke["result_path"]),
                str(smoke["result_path"]))
    assert same.returncode == 0, same.stdout
    assert "worse" not in same.stdout.replace("0 worse", "")
    slower = json.loads(smoke["result_path"].read_text())
    cell = slower["workloads"]["gset_read"]["end_to_end"]["wall_calls_per_s"]
    for key in ("value", "q1", "q3"):
        cell[key] /= 2
    slower["workloads"]["gset_write"]["end_to_end"]["sim_p50_us"][
        "value"] *= 1.01
    path = tmp_path / "slower.json"
    path.write_text(json.dumps(slower))
    worse = _run("--compare", str(smoke["result_path"]), str(path))
    assert worse.returncode == 1
    assert "2 worse" in worse.stdout
    del slower["workloads"]["bank_sharded"]
    path.write_text(json.dumps(slower))
    for pair in ((smoke["result_path"], path), (path, smoke["result_path"])):
        subset = _run("--compare", *map(str, pair))
        assert subset.returncode == 2
        assert "not comparable" in subset.stdout


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_driver_run_prints_the_declared_metrics(trace, section):
    done = _run("--workload", "gset_read", "--seed", "7", "--seconds", "1",
                "--trace", trace, "--scale", SCALE)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    declared = {row["name"]: row["unit"] for row in BENCHMARK[section]}
    assert set(line["metrics"]) == set(declared)
    for name, cell in line["metrics"].items():
        assert set(cell) == {"value", "unit"}
        assert cell["unit"] == declared[name]
        assert isinstance(cell["value"], (int, float))


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "gset_read", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=tmp_path / "benchmarks" / "perf" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
