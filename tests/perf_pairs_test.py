#!/usr/bin/env python3
"""Checks scripts/perf_pairs.py against stub tlbbench binaries.

The stubs print a fixed result line instead of simulating: the base stub
reports 100 Mcycles/s, the change stub 110, and a broken stub reports one
failed op. The script must report the change's win and gain rule, alternate
which side runs first, and reject the broken stub with exit status 1.

Usage: perf_pairs_test.py --script scripts/perf_pairs.py
"""

import argparse
import json
import os
import stat
import subprocess
import sys
import tempfile

STUB = """#!{python}
import json, os, sys
with open(os.environ["PERF_PAIRS_LOG"], "a") as log:
    log.write({name!r} + "\\n")
metrics = {{"sim_mcycles_per_s": {{"value": {mcycles}, "unit": "Mcycles/s"}},
           "op_ms_p50": {{"value": {op_ms}, "unit": "ms"}},
           "peak_rss_mb": {{"value": 12.0, "unit": "MB"}},
           "setup_s": {{"value": 0.05, "unit": "s"}}}}
print("op 1 ok")
print(json.dumps({{"correct": True, "attempted": 3, "failed": {failed}, "metrics": metrics}},
                 separators=(",", ":")))
"""


def make_stub(directory, name, mcycles, op_ms, failed):
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        f.write(STUB.format(python=sys.executable, name=name, mcycles=mcycles, op_ms=op_ms,
                            failed=failed))
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
    return path


def run(script, base, change, log, pairs):
    env = dict(os.environ, PERF_PAIRS_LOG=log)
    open(log, "w").close()
    cmd = [sys.executable, script, "--base", base, "--change", change, "--workload",
           "fsync_storm", "--seed", "1", "--seconds", "1", "--pairs", str(pairs), "--golden",
           os.devnull]
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--script", required=True)
    args = parser.parse_args()
    errors = []

    def expect(cond, what):
        if not cond:
            errors.append(what)

    with tempfile.TemporaryDirectory() as tmp:
        base = make_stub(tmp, "base", 100.0, 10.0, 0)
        change = make_stub(tmp, "change", 110.0, 9.0, 0)
        broken = make_stub(tmp, "broken", 120.0, 8.0, 1)
        log = os.path.join(tmp, "order.log")

        proc = run(args.script, base, change, log, pairs=3)
        expect(proc.returncode == 0, f"good pairs: exit {proc.returncode}, stderr {proc.stderr}")
        if proc.returncode == 0:
            summary = json.loads(proc.stdout.strip().splitlines()[-1])
            sim = summary["metrics"]["sim_mcycles_per_s"]
            expect(sim["pairs_won"] == 3, f"sim_mcycles_per_s pairs_won {sim['pairs_won']}")
            expect(abs(sim["ratio_median"] - 1.1) < 1e-9, f"ratio {sim['ratio_median']}")
            expect(sim["gain_rule_holds"], "sim_mcycles_per_s gain rule should hold")
            op = summary["metrics"]["op_ms_p50"]
            expect(op["pairs_won"] == 3 and op["gain_rule_holds"], f"op_ms_p50 {op}")
            rss = summary["metrics"]["peak_rss_mb"]
            expect(rss["pairs_won"] == 0 and not rss["gain_rule_holds"], f"peak_rss_mb {rss}")
        with open(log) as f:
            order = f.read().split()
        expect(order == ["base", "change", "change", "base", "base", "change"],
               f"run order {order}")

        proc = run(args.script, base, broken, log, pairs=3)
        expect(proc.returncode == 1, f"failed=1 stub: exit {proc.returncode}")
        expect("failed=1" in proc.stderr, f"failed=1 stub: stderr {proc.stderr!r}")

    for e in errors:
        print(f"FAIL {e}")
    print("perf_pairs_test:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
