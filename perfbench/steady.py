#!/usr/bin/env python3
"""Steadiness check: runs workloads over many seeds and reports spreads.

Usage, from the root of a RAGO checkout:

    python3 perfbench/steady.py [--workloads rag_scan,rag_hot] [--seeds 10]
                                [--first-seed 1] [--seconds N] [--trace 0]
                                [--json out.json]

For each workload it runs ``perfbench/run.py`` once per seed and, for
each metric, prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median. End-to-end spreads are
compared with the metric's bound from BENCHMARK.json (``setup_s`` is
reported but not held to it). It also prints the failed share of
attempted requests. Exits 1 when a run fails, a check fails, or a
spread exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", default="")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    summary = {}
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.seeds):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds, args.trace)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run or check FAILED")
                ok = False
                continue
            results.append(result)
            print(f"{workload} seed {seed}: done", flush=True)
        if len(results) < 2:
            ok = False
            continue
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {len(results)} runs, failed shares {sorted(shares)}")
        print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        summary[workload] = {}
        for name in sorted(results[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median) if median else float("inf")
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag = "  OVER BOUND"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = "  over a third of bound"
            print(f"{name:44s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}"
                  f"{flag}")
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                       "spread": spread, "values": values}
        print()
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
