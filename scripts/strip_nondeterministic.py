#!/usr/bin/env python3
"""Strip the host-dependent sections from a BENCH_*.json report.

Every bench report is deterministic — same binary, same flags, same bytes —
except for one top-level carve-out:

  "host"  sweep-executor wall time / realized parallel speedup
          (bench/report.h SetHost, src/exec/sweep.h HostJson)

CI's determinism gates run a bench twice (or at --threads 1 vs --threads N),
strip both files with this script, and `cmp` the results. Canonical output
(sorted keys, fixed separators) so byte comparison is meaningful.

Usage: strip_nondeterministic.py <in.json> <out.json>
Only standard-library Python.
"""

import json
import sys


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(argv[1]) as f:
        doc = json.load(f)
    doc.pop("host", None)
    with open(argv[2], "w") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
