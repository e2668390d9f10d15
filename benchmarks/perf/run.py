"""The repo benchmark: host-time and sim-time metrics over seven workloads.

    python benchmarks/perf/run.py                      # everything, all workloads
    python benchmarks/perf/run.py --out A.json         # ... and keep the result
    python benchmarks/perf/run.py --compare A.json B.json
    python benchmarks/perf/run.py --workload gset_write --seed 3 \\
        --seconds 19 --trace 0                         # one driver run

Every (workload, repeat) is a fresh single-threaded child process
(``worker.py``), run one after another.  ``wall_*``, ``setup_s`` and
``peak_rss_mb`` are host measurements, aggregated over the children;
``sim_*`` are simulated-time results and must repeat exactly.
See README.md for the metric and workload tables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from layers import LAYERS  # noqa: E402
from worker import WORKLOADS  # noqa: E402

#: name -> (unit, better, clock).  ``host`` metrics are noisy and are
#: compared with the bound from BENCHMARK.json; ``sim``
#: metrics are deterministic and compared near-exactly; ``share``
#: metrics may not rise at all.
END_TO_END = {
    "wall_calls_per_s": ("calls/s", "higher", "host"),
    "setup_s": ("s", "lower", "host"),
    "peak_rss_mb": ("MiB", "lower", "host"),
    "sim_tput_ops_per_us": ("calls/us", "higher", "sim"),
    "sim_p50_us": ("us", "lower", "sim"),
    "sim_p99_us": ("us", "lower", "sim"),
    "sim_p999_us": ("us", "lower", "sim"),
    "failed_ops_share": ("fraction", "lower", "share"),
    "slo_miss_share": ("fraction", "lower", "share"),
    "sim_unavail_us": ("us", "lower", "sim"),
}
HOST_METRICS = [n for n, (_u, _b, c) in END_TO_END.items() if c == "host"]
SIM_METRICS = [n for n, (_u, _b, c) in END_TO_END.items() if c != "host"]
#: Host metrics whose value is the best child, not the median child.
#: Interference on a shared host only ever slows a child down (it costs
#: whole children 30-40% here, the quiet ones agree within 3%), so the
#: fastest child is the steadiest estimate of the program's own speed:
#: over 150 consecutive children the best of five spreads half as
#: wide as the median of five (README "Host noise").
BEST_OF = {"wall_calls_per_s", "setup_s"}
#: Relative tolerance for ``sim`` metrics between two result sets.
SIM_TOLERANCE = 0.005

PHASES = ("phase.import_s", "phase.analyze_s", "phase.build_s",
          "phase.drive_s", "phase.settle_s", "phase.check_s")
COUNT_UNITS = {
    "rdma.fabric.verbs_per_op": "verbs/call",
    "rdma.fabric.bytes_per_op": "B/call",
    "runtime.ringbuffer.records_drained_per_op": "records/call",
    "runtime.transport.op_retries": "count",
    "runtime.transport.backpressure_stalls": "count",
    "runtime.conflict.retries": "count",
    "runtime.conflict.calls_per_batch": "calls/batch",
    "runtime.trace.events_per_op": "events/call",
    "runtime.trace.dropped": "count",
    "runtime.stream_checker.window_peak": "count",
    "workload.serving.shed_share": "fraction",
    "runtime.statexfer.sim_catchup_us": "us",
}
ISOLATED_UNITS = {
    "sim.engine.events_per_s": "events/s",
    "runtime.wire.roundtrip_per_s": "calls/s",
    "runtime.ringbuffer.records_per_s": "records/s",
    "runtime.stream_checker.events_per_s": "events/s",
    "runtime.checker.events_per_s": "events/s",
    "datatypes.apply_check_per_s": "calls/s",
}

#: Fewest children a time-budgeted run makes, whatever they cost.
MIN_CHILDREN = 3
DEFAULT_REPEATS = 3
CHILD_TIMEOUT_S = 150


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in print order."""
    units = {name: "s" for name in PHASES}
    units["profile.overhead_ratio"] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "fraction"
        units[f"{layer}.calls_per_op"] = "fn-calls/call"
    units.update(COUNT_UNITS)
    units.update(ISOLATED_UNITS)
    return units


class GateFailure(Exception):
    """A correctness check failed; the message names the workload."""


# -- children ---------------------------------------------------------------


def _spawn(script: str, *args: str) -> dict:
    """Run one child to completion; its last stdout line is the result."""
    what = f"{script} {' '.join(args)}"
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / script), *args],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise GateFailure(
            f"{what} did not finish in {CHILD_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise GateFailure(f"{what} exited {done.returncode}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise GateFailure(f"{what} printed no result") from None


def run_child(workload: str, seed: int, scale: float, traced: bool) -> dict:
    child = _spawn(
        "worker.py", "--workload", workload, "--seed", str(seed),
        "--scale", repr(scale), "--profile", str(int(traced)),
        "--spawned-at", repr(time.monotonic()),
    )
    failed = [name for name, ok in child["checks"].items() if not ok]
    if failed:
        raise GateFailure(f"{workload}: failed checks {failed}")
    return child


def run_traced_child(untraced: dict) -> dict:
    """The profiled twin of ``untraced``; profiling must not change
    what is simulated."""
    traced = run_child(untraced["workload"], untraced["seed"],
                       untraced["scale"], traced=True)
    if traced["sim_digest"] != untraced["sim_digest"]:
        raise GateFailure(
            f"{untraced['workload']}: profiling changed sim_digest")
    return traced


def run_isolated(seed: int, scale: float) -> dict:
    return _spawn("isolated.py", "--seed", str(seed), "--scale", repr(scale))


def measure(workload: str, seed: int, scale: float, repeats: int = 0,
            seconds: float = 0.0) -> list[dict]:
    """Untraced children of one workload: exactly ``repeats`` of them,
    or as many as fit in ``seconds`` (at least MIN_CHILDREN)."""
    start = time.monotonic()
    children: list[dict] = []
    costs: list[float] = []
    while True:
        began = time.monotonic()
        children.append(run_child(workload, seed, scale, traced=False))
        costs.append(time.monotonic() - began)
        if repeats:
            if len(children) >= repeats:
                break
        elif len(children) >= MIN_CHILDREN and (
                time.monotonic() - start + statistics.median(costs)
                > seconds):
            break
    digests = {child["sim_digest"] for child in children}
    if len(digests) != 1:
        raise GateFailure(
            f"{workload}: sim_digest differs between repeats: "
            f"{sorted(digests)}")
    return children


# -- aggregation ------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(children: list[dict]) -> dict[str, dict]:
    """Value (median child, or best child for BEST_OF), median,
    quartiles and n per host metric; the (identical) value per sim
    metric.  A metric a workload does not define is None."""
    out = {}
    for name in HOST_METRICS:
        values = [child[name] for child in children]
        q1, q3 = _quartiles(values)
        median = statistics.median(values)
        best = max if END_TO_END[name][1] == "higher" else min
        out[name] = {
            "unit": END_TO_END[name][0],
            "value": best(values) if name in BEST_OF else median,
            "median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values,
        }
    for name in SIM_METRICS:
        out[name] = {
            "unit": END_TO_END[name][0],
            "value": children[0]["sim"][name],
            "n": children[0]["latency_samples"],
        }
    return out


def per_layer(untraced: dict, traced: dict, isolated: dict) -> dict:
    """Per-layer metric name -> value for one workload."""
    out = dict(untraced["phases"])
    out["profile.overhead_ratio"] = (
        traced["phases"]["phase.drive_s"] / untraced["phases"]["phase.drive_s"]
    )
    profile = traced["profile"]
    total = sum(row["self_s"] for row in profile.values())
    for layer in LAYERS:
        out[f"{layer}.self_share"] = profile[layer]["self_s"] / total
        out[f"{layer}.calls_per_op"] = (
            profile[layer]["calls"] / traced["total_calls"]
        )
    out.update(untraced["counts"])
    out.update(isolated)
    return out


def check_pair(results: dict) -> None:
    """courseware_checked runs courseware_mixed's inputs: their
    simulated results must be equal, recorder or not."""
    # Every sim_* value is a function of what the digest hashes.
    if (results["courseware_mixed"]["sim_digest"]
            != results["courseware_checked"]["sim_digest"]):
        raise GateFailure(
            "courseware_checked: sim_digest (and so sim_*) differs from "
            "courseware_mixed")


# -- full run ---------------------------------------------------------------


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_workload(name: str, result: dict) -> None:
    print(f"\n== {name}  ({WORKLOADS[name].why})")
    print(f"   size={result['size']} total_calls={result['total_calls']} "
          f"failed={result['failed']} sim_digest={result['sim_digest'][:16]}")
    for metric, row in result["end_to_end"].items():
        line = f"   {metric:22s} {_fmt(row['value']):>12s} {row['unit']:9s}"
        if "q1" in row:
            line += (f" {'best' if metric in BEST_OF else 'median'} of "
                     f"n={row['n']} [median {_fmt(row['median'])}, "
                     f"q1 {_fmt(row['q1'])}, q3 {_fmt(row['q3'])}]")
        elif row["value"] is not None:
            line += f" exact, from {row['n']} latency samples"
        print(line)
    units = per_layer_units()
    for metric, value in result["per_layer"].items():
        if metric.endswith((".self_share", ".calls_per_op")) and not value:
            continue  # layers the workload never enters
        print(f"   . {metric:44s} {_fmt(value):>12s} {units[metric]}")


def full_run(args) -> int:
    meta = {
        "seed": args.seed, "scale": args.scale, "repeats": args.repeats,
        "commit": _commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "loadavg_at_start": list(os.getloadavg()),
    }
    print(f"benchmark: seed={meta['seed']} scale={meta['scale']} "
          f"repeats={meta['repeats']} commit={meta['commit'][:12]} "
          f"python={meta['python']} nproc={meta['nproc']} "
          f"loadavg={meta['loadavg_at_start']}")
    print("host clock: wall_*, setup_s, peak_rss_mb, phase.*, *_per_s  |  "
          "simulated clock: sim_*  (open-loop arrivals are scheduled in "
          "simulated time, so generator lateness is 0 by construction)")
    isolated = run_isolated(args.seed, args.scale)
    results: dict[str, dict] = {}
    spans: list[dict] = []
    profiles: dict[str, dict] = {}
    for name in WORKLOADS:
        children = measure(name, args.seed, args.scale, repeats=args.repeats)
        first = children[0]
        traced = run_traced_child(first)
        profiles[name] = traced["profile"]
        for child in [*children, traced]:
            spans += child["spans"]
        result = {
            "size": first["size"], "total_calls": first["total_calls"],
            "attempted": first["attempted"], "failed": first["failed"],
            "sim_digest": first["sim_digest"],
            "end_to_end": end_to_end(children),
            "per_layer": per_layer(first, traced, isolated),
            "children": [
                {k: v for k, v in child.items() if k != "spans"}
                for child in children
            ],
        }
        results[name] = result
        print_workload(name, result)
    check_pair(results)
    print("\nall correctness checks passed")
    meta["sizes"] = {name: row["size"] for name, row in results.items()}
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"meta": meta, "workloads": results}, indent=1))
    if args.trace_out:
        Path(args.trace_out).write_text(json.dumps(
            {"spans": spans, "profiles": profiles}, indent=1))
    return 0


# -- one driver run ---------------------------------------------------------


def _declared(section: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


def driver_run(args) -> int:
    """``--workload W --seed N --seconds S --trace 0|1``: the last line
    of stdout is the result object the driver reads."""
    name = args.workload
    if args.trace:
        untraced = run_child(name, args.seed, args.scale, traced=False)
        traced = run_traced_child(untraced)
        children = [untraced, traced]
        values = per_layer(untraced, traced,
                           run_isolated(args.seed, args.scale))
        # The issue's end-to-end metrics that cannot be driver
        # end-to-end metrics (constant across seeds, zero, or defined
        # on one workload only) ride with the per-layer set; 0 = n/a.
        values.update({k: untraced["sim"][k] or 0.0 for k in SIM_METRICS})
        units = {**per_layer_units(),
                 **{k: END_TO_END[k][0] for k in SIM_METRICS}}
        section = "per_layer"
    else:
        children = measure(name, args.seed, args.scale, seconds=args.seconds)
        values = {k: row["value"]
                  for k, row in end_to_end(children).items()}
        units = {k: unit for k, (unit, _b, _c) in END_TO_END.items()}
        section = "end_to_end"
    metrics = {
        row["name"]: {"value": values[row["name"]],
                      "unit": units[row["name"]]}
        for row in _declared(section)
    }
    print(f"{name}: seed {args.seed}, {len(children)} children, "
          f"wall_calls_per_s "
          f"{[round(child['wall_calls_per_s']) for child in children]}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(child["attempted"] for child in children),
        "failed": sum(child["failed"] for child in children),
        "metrics": metrics,
    }))
    return 0


# -- compare ----------------------------------------------------------------


def _spread(row: dict) -> float:
    return (row["q3"] - row["q1"]) / row["value"] if row["value"] else 0.0


def _verdict(name: str, a: dict, b: dict, bound: float) -> str:
    _unit, better, clock = END_TO_END[name]
    va, vb = a["value"], b["value"]
    if va is None and vb is None:
        return "n/a"
    if va is None or vb is None:
        return "worse"
    sign = 1.0 if better == "lower" else -1.0
    if clock == "share":
        delta = sign * (vb - va)
        return "worse" if delta > 0 else "better" if delta < 0 else "within"
    worse_by = sign * (vb - va) / va if va else sign * (vb - va)
    if clock == "sim":
        bound = SIM_TOLERANCE
    if worse_by > bound:
        return "worse"
    if clock == "host" and max(_spread(a), _spread(b)) > bound:
        return "unresolved"
    return "better" if worse_by < -bound else "within"


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    for key in ("seed", "scale"):
        if a["meta"][key] != b["meta"][key]:
            print(f"not comparable: {key} {a['meta'][key]} vs "
                  f"{b['meta'][key]}")
            return 2
    if set(a["workloads"]) != set(b["workloads"]):
        print(f"not comparable: workloads {sorted(a['workloads'])} vs "
              f"{sorted(b['workloads'])}")
        return 2
    bounds = {row["name"]: row["bound"] for row in _declared("end_to_end")}
    worse = 0
    print(f"{'workload':20s} {'metric':22s} {'A':>12s} {'B':>12s} "
          f"{'change':>8s}  verdict")
    for name, ra in a["workloads"].items():
        rb = b["workloads"][name]
        for metric in END_TO_END:
            row_a, row_b = ra["end_to_end"][metric], rb["end_to_end"][metric]
            verdict = _verdict(metric, row_a, row_b, bounds.get(metric, 0.0))
            worse += verdict == "worse"
            va, vb = row_a["value"], row_b["value"]
            change = f"{(vb - va) / va:+.1%}" if va and vb is not None else ""
            print(f"{name:20s} {metric:22s} {_fmt(va):>12s} {_fmt(vb):>12s} "
                  f"{change:>8s}  {verdict}")
        exact = ["sim_digest"] if ra["sim_digest"] != rb["sim_digest"] else []
        counts_a = ra["children"][0]["counts"]
        counts_b = rb["children"][0]["counts"]
        exact += [k for k in counts_a if counts_a[k] != counts_b.get(k)]
        exact += [
            k for k, v in ra["per_layer"].items()
            if k.endswith(".calls_per_op") and v != rb["per_layer"][k]
        ]
        print(f"{name:20s} {'exact counts + digest':22s} "
              f"{'':12s} {'':12s} {'':8s}  "
              f"{'same' if not exact else 'differs: ' + ', '.join(exact)}")
    print(f"\n{worse} worse")
    return 1 if worse else 0


# -- entry ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every workload size")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="children per workload in a full run")
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--trace-out",
                        help="write spans and per-layer profiles here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one driver run of this workload")
    parser.add_argument("--seconds", type=float, default=19.0,
                        help="driver run: host seconds to measure for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver run: 0 end-to-end, 1 per-layer")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    try:
        return driver_run(args) if args.workload else full_run(args)
    except GateFailure as failure:
        print(f"FAILED: {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
