#!/usr/bin/env python3
"""Checks on the benchmark itself, run from the root of the repository.

  python3 perfbench/check.py smoke
      One-second runs of every workload, untraced and traced: each must
      print every metric named in BENCHMARK.json, with its unit, and be
      correct.

  python3 perfbench/check.py steady [--runs N] [--first-seed S]
                                    [--workloads a,b] [--out FILE]
      N untraced runs per workload, each with another seed, at the run
      length BENCHMARK.json fixes. For every end-to-end metric it prints
      the median and the quartile spread (Q3 - Q1) / median, and flags a
      spread above a third of the metric's bound (setup_s is not
      flagged). Then two traced runs per workload with one seed: their
      exact work counters must be identical.

  python3 perfbench/check.py compare A.json B.json
      Median shift of every end-to-end metric between two `steady --out`
      files, flagged where B is worse than A by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that are exact work counts: identical for one seed.
EXACT = [
    "freon.decisions",
    "freon.fan_commands",
    "freon.power_state_changes",
    "sim.offered",
    "sim.dropped",
    "sim.dropped_frac",
    "trace.frames_decoded",
    "trace.spans",
    "solver.batched_frac",
    "solver.solo_demotions",
    "solver.flow_recomputes",
    "solver.substeps",
    "solver.simd_lane_width",
    "net.datagrams",
    "net.timeouts",
    "net.malformed",
    "tracing.spans_dropped",
]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def smoke(bench):
    ok = True
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(bench, w["name"], 1, 1, trace)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            problems = []
            if got != want:
                problems.append(f"metrics differ: missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
            if not all(isinstance(v.get("value"), (int, float)) for v in result["metrics"].values()):
                problems.append("a value is not a number")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                                f"failed={result['failed']}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{w['name']:16} trace={trace}: {len(got)} metrics {status}")
            ok &= not problems
    return ok


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def steady(bench, args):
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {}
    ok = True
    for w in names:
        runs = [run(bench, w, args.first_seed + i, bench["run_seconds"], 0) for i in range(args.runs)]
        record[w] = [r["metrics"] for r in runs]
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, rel = spread(values)
            flag = "" if name == "setup_s" or rel <= bound / 3 else "  <-- above bound/3"
            ok &= not flag
            print(f"{w:16} {name:14} median {median:<14.6g} spread {rel:7.2%} "
                  f"(bound {bound:.0%}){flag}")
        print(f"{w:16} correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs")
        ok &= all(r["correct"] for r in runs)
        traced = [run(bench, w, args.first_seed, bench["run_seconds"], 1)["metrics"] for _ in range(2)]
        differ = [k for k in EXACT if traced[0][k]["value"] != traced[1][k]["value"]]
        print(f"{w:16} exact counters {'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")
        ok &= not differ
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    return ok


def compare(bench, a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    ok = True
    for m in bench["end_to_end"]:
        for w in a:
            if w not in b:
                continue
            ma = statistics.median(r[m["name"]]["value"] for r in a[w])
            mb = statistics.median(r[m["name"]]["value"] for r in b[w])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "  <-- worse than bound" if worse > m["bound"] else ""
            ok &= not flag
            print(f"{w:16} {m['name']:14} {ma:<14.6g} -> {mb:<14.6g} worse by {worse:7.2%}{flag}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("smoke")
    st = sub.add_parser("steady")
    st.add_argument("--runs", type=int, default=10)
    st.add_argument("--first-seed", type=int, default=1)
    st.add_argument("--workloads")
    st.add_argument("--out")
    cp = sub.add_parser("compare")
    cp.add_argument("a")
    cp.add_argument("b")
    args = parser.parse_args()
    bench = spec()
    if args.cmd == "smoke":
        ok = smoke(bench)
    elif args.cmd == "steady":
        ok = steady(bench, args)
    else:
        ok = compare(bench, args.a, args.b)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
