#!/usr/bin/env python3
"""CI gate for tlbcheck-instrumented bench runs.

Each BENCH_*.json produced under `--check` carries a "tlbcheck" section:

  "tlbcheck": {"violations": N, "suppressed": M, "reports": [...]}

This script asserts that the section is present (i.e. the run really was
checked — a silently unchecked run passing is the failure mode we care most
about) and that every paper configuration ran violation-free. On failure it
prints the classified reports so the CI log shows WHAT the oracle saw
(kind, cpu, va, generations), not just a count.

Usage: check_tlbcheck.py <BENCH_*.json> [more...]
Only standard-library Python.
"""

import json
import sys


def fail(path, msg):
    print(f"FAIL {path}: {msg}")
    return 1


def check(path):
    with open(path) as f:
        doc = json.load(f)
    tc = doc.get("tlbcheck")
    if tc is None:
        return fail(path, 'no "tlbcheck" section — was this bench run with --check?')
    rc = 0
    violations = tc.get("violations")
    if not isinstance(violations, int):
        rc |= fail(path, f'tlbcheck.violations is {violations!r}, expected an integer')
    elif violations != 0:
        rc |= fail(path, f"tlbcheck found {violations} violation(s)")
        for rep in tc.get("reports", []):
            print(f"       {json.dumps(rep, sort_keys=True)}")
    if doc.get("status") != "pass":
        rc |= fail(path, f'status is {doc.get("status")!r}, expected "pass"')
    if rc == 0:
        print(f'OK   {path}: tlbcheck clean (violations=0, '
              f'suppressed={tc.get("suppressed", 0)})')
    return rc


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    rc = 0
    for path in argv[1:]:
        try:
            rc |= check(path)
        except (OSError, json.JSONDecodeError) as e:
            rc |= fail(path, str(e))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
