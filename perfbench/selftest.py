#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

For each workload, with a handful of ops (--seconds 1):
  - an untraced run on the default seed prints every end-to-end metric of
    BENCHMARK.json with its unit, and no op fails against the golden digests;
  - two traced runs print every per-layer metric with its unit, agree exactly
    on the deterministic counts, report zero tlbcheck violations, and write a
    Chrome trace-event file;
  - a golden file with one corrupted digest turns ops into failed ops.
Also checks that a bad argument exits non-zero without a result line.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"

# Per-layer metrics computed from simulation counts alone: identical across
# runs of one seed on any host.
DETERMINISTIC = [
    "sim.events_per_op",
    "cache.accesses_per_shootdown",
    "cache.transfers_per_shootdown",
    "cache.cross_socket_transfers_per_shootdown",
    "hw.tlb_lookups_per_op",
    "hw.tlb_miss_ratio",
    "hw.tlb_fastpath_hit_ratio",
    "hw.pwc_hit_ratio",
    "hw.tlb_flushes_per_shootdown",
    "hw.tlb_full_flush_ratio",
    "hw.ipis_per_shootdown",
    "mm.remote_walks_per_op",
    "kernel.syscalls_per_op",
    "kernel.page_faults_per_op",
    "kernel.flush_requests_per_op",
    "core.shootdowns_per_op",
    "core.responder_full_ratio",
    "core.early_ack_ratio",
    "core.queue_ipi_resends_per_shootdown",
    "core.queue_drained_entries_per_drain",
    "core.queue_flush_all_fallbacks_per_op",
    "check.violations",
]

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, seed, trace, golden=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if golden:
        cmd += ["--golden", golden]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("selftest: %s exited %d" % (" ".join(cmd), out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(result, specs, label):
    metrics = result["metrics"]
    for spec in specs:
        m = metrics.get(spec["name"])
        check(m is not None and m.get("unit") == spec["unit"]
              and isinstance(m.get("value"), (int, float)),
              "%s prints %s [%s]" % (label, spec["name"], spec["unit"]))
    extra = set(metrics) - {s["name"] for s in specs}
    check(not extra, "%s prints no metric outside BENCHMARK.json %s" % (label, sorted(extra)))


def check_trace_file(path, label):
    try:
        with open(path) as f:
            doc = json.load(f)
        events = doc["traceEvents"]
        good = bool(events) and all(
            e["ph"] == "X" and isinstance(e["ts"], (int, float)) and e["dur"] >= 0
            and "op" in e["args"] for e in events)
        ops = {e["args"]["op"] for e in events if e["cat"] == "workloads"}
    except (OSError, ValueError, KeyError, TypeError):
        good, ops = False, set()
    check(good and len(ops) > 0, "%s trace file %s is Chrome trace-event JSON" % (label, path))


def corrupt_golden(workload):
    path = os.path.join(TARGET, "golden_corrupt.txt")
    with open(os.path.join(HERE, "golden.txt")) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        fields = line.split()
        if fields and fields[0] == workload:
            digest = fields[3]
            fields[3] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
            lines[i] = " ".join(fields)
            break
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def main():
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)

    bad = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "nope",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True)
    check(bad.returncode != 0 and '"correct"' not in bad.stdout,
          "an unknown workload exits non-zero without a result")

    for workload in [w["name"] for w in bench["workloads"]]:
        plain = run(workload, 1, 0)
        check_metrics(plain, bench["end_to_end"], workload)
        check(plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1,
              "%s default seed: %d ops, none failed" % (workload, plain["attempted"]))

        traced = [run(workload, 7, 1) for _ in range(2)]
        check_metrics(traced[0], bench["per_layer"], workload + " traced")
        for name in DETERMINISTIC:
            values = [t["metrics"][name]["value"] for t in traced]
            check(values[0] == values[1], "%s %s repeats exactly (%r)" % (workload, name, values))
        check(traced[0]["correct"] and traced[0]["metrics"]["check.violations"]["value"] == 0,
              "%s traced run is correct with zero tlbcheck violations" % workload)
        check_trace_file(os.path.join(TARGET, "traces", "trace_%s_seed7.json" % workload), workload)

        broken = run(workload, 1, 0, golden=corrupt_golden(workload))
        check(broken["failed"] > 0 and not broken["correct"],
              "%s corrupted golden digest -> %d failed ops" % (workload, broken["failed"]))

    print("selftest: %s" % ("PASS" if not failures else "%d FAILED" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
