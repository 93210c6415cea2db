#!/usr/bin/env python3
"""Paired host-speed comparison of two tlbbench binaries.

Runs N pairs of one workload, one run of each binary per pair, and swaps
which side runs first from pair to pair (the host's speed drifts, so
unpaired runs mislead). Every run gets the same --workload, --seed,
--seconds and --golden. A run whose last stdout line does not start with
{"correct":true or whose "failed" count is not 0 stops the comparison with
exit status 1: a speedup that moved a simulated result is no speedup.

For every end-to-end metric listed in BENCHMARK.json it prints each side's
median and quartiles, the median per-pair ratio (oriented so that > 1 means
the change is better), how many pairs the change won, and whether the gain
rule holds: the change wins at least 9 in 10 pairs, and the medians differ,
in the better direction, by more than the base side's interquartile range.
The last stdout line is the same summary as one JSON object.

Usage:
  perf_pairs.py --base BASE_TLBBENCH --change CHANGE_TLBBENCH
                --workload fsync_storm --seed 1 --seconds 30 --pairs 10
                [--golden perfbench/golden.txt] [--benchmark BENCHMARK.json]

Only standard-library Python.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """(q1, median, q3) by the inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_once(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", "0", "--golden", args.golden]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    if proc.returncode != 0 or not last.startswith('{"correct":true'):
        raise RuntimeError(f"{binary}: exit {proc.returncode}, last line {last[:200]!r}")
    result = json.loads(last)
    if result.get("failed") != 0:
        raise RuntimeError(f"{binary}: failed={result.get('failed')!r} (a golden digest moved)")
    return {name: m["value"] for name, m in result.get("metrics", {}).items()}


def summarize(metric, base, change):
    """Per-metric statistics over the paired runs."""
    higher = metric["better"] == "higher"
    ratios = []
    for b, c in zip(base, change):
        if b == c:
            ratios.append(1.0)
        elif min(b, c) <= 0:
            ratios.append(math.inf if (c > b) == higher else 0.0)
        else:
            ratios.append(c / b if higher else b / c)
    wins = sum(1 for r in ratios if r > 1.0)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gain = cmed - bmed if higher else bmed - cmed
    holds = wins * 10 >= 9 * len(ratios) and gain > bq3 - bq1
    return {
        "unit": metric.get("unit", ""),
        "better": metric["better"],
        "base": {"q1": bq1, "median": bmed, "q3": bq3},
        "change": {"q1": cq1, "median": cmed, "q3": cq3},
        "ratios": ratios,
        "ratio_median": statistics.median(ratios),
        "pairs_won": wins,
        "pairs": len(ratios),
        "gain_rule_holds": holds,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="tlbbench built from the parent tree")
    parser.add_argument("--change", required=True, help="tlbbench built from the changed tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--golden", default=os.path.join(REPO, "perfbench", "golden.txt"))
    parser.add_argument("--benchmark", default=os.path.join(REPO, "BENCHMARK.json"),
                        help="declares the end-to-end metrics and their better direction")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]

    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            try:
                runs[side].append(run_once(getattr(args, side), args))
            except (RuntimeError, ValueError) as e:
                print(f"perf_pairs: pair {i + 1}, {side}: {e}", file=sys.stderr)
                return 1
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "pairs": args.pairs, "metrics": {}}
    for metric in metrics:
        name = metric["name"]
        if not all(name in r for r in runs["base"] + runs["change"]):
            continue
        s = summarize(metric, [r[name] for r in runs["base"]], [r[name] for r in runs["change"]])
        summary["metrics"][name] = s
        print(f"{name} ({s['unit']}, {s['better']} is better)")
        for side in ("base", "change"):
            q = s[side]
            print(f"  {side:6} median {q['median']:.4g}  quartiles [{q['q1']:.4g}, {q['q3']:.4g}]")
        print(f"  ratio median {s['ratio_median']:.4f}  won {s['pairs_won']}/{s['pairs']}  "
              f"gain rule {'holds' if s['gain_rule_holds'] else 'does not hold'}")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
