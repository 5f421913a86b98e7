#!/usr/bin/env python3
"""Run one workload N times with different seeds and summarize each metric.

Run from the repository root:

    python3 dvfbench/repeat.py --workload replay --runs 10 [--first-seed 1]
        [--seconds S] [--trace 0|1] [--json OUT]

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median, and
marks an end-to-end spread at or above a third of its bound in
BENCHMARK.json. It exits non-zero if any run fails or reports incorrect
outputs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarize(values):
    """(median, q1, q3, spread) of a list of at least two numbers."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def parse_result(stdout):
    """The JSON object on the last line of a run's standard output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run printed no result line")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = parse_result(proc.stdout)
        results.append(result)
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed share={share:.6g}",
              file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)

    ok = all(r["correct"] for r in results)
    names = list(results[0]["metrics"])
    print(f"{args.workload}: {args.runs} runs of {args.seconds:g} s, "
          f"trace={args.trace}")
    print(f"{'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med, q1, q3, spread = summarize(values)
        flag = ""
        if name in bounds and name != "setup_s" and spread >= bounds[name] / 3:
            flag = f"  >= bound/3 ({bounds[name] / 3:.3g})"
        print(f"{name:40s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.2%} {unit}{flag}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed shares: {sorted(shares)}; all correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
