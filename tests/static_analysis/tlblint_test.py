#!/usr/bin/env python3
"""Self-test for scripts/tlblint.py: each rule class fires exactly once on a
seeded violation, and each suppression mechanism silences exactly its rule.

Builds throwaway mini-trees in a temp dir and runs tlblint over them via its
public entry point (subprocess, same as CI), asserting on the --json output.

Usage: tlblint_test.py [--lint PATH_TO_TLBLINT]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_LINT = os.path.join(HERE, "..", "..", "scripts", "tlblint.py")


def run_lint(lint, root, extra=()):
    out = os.path.join(root, "findings.json")
    proc = subprocess.run(
        [sys.executable, lint, "--root", root, "--json", out, *extra],
        capture_output=True, text=True)
    with open(out, encoding="utf-8") as f:
        payload = json.load(f)
    return proc.returncode, payload["findings"], proc.stdout + proc.stderr


def write(root, relpath, content):
    path = os.path.join(root, relpath)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)


CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def expect(cond, msg, errors):
    if not cond:
        errors.append(msg)


def by_rule(findings):
    counts = {}
    for f in findings:
        counts[f["rule"]] = counts.get(f["rule"], 0) + 1
    return counts


@case
def layering_fires_once(lint, errors):
    # exec -> core is not an edge; exec -> sim is.
    with tempfile.TemporaryDirectory() as root:
        write(root, "src/exec/sweep2.h", """\
#include "src/core/shootdown2.h"
#include "src/sim/json.h"
""")
        write(root, "src/core/shootdown2.h", "\n")
        write(root, "src/sim/json.h", "\n")
        rc, findings, _ = run_lint(lint, root, ("--rules", "layering"))
        counts = by_rule(findings)
        expect(rc == 1 and counts.get("layering") == 1,
               f"layering: expected exactly 1 finding, got rc={rc} {counts}",
               errors)


@case
def layering_hw_may_not_include_exec(lint, errors):
    # Machine owns no host threads: the sweep executor sits above hw.
    with tempfile.TemporaryDirectory() as root:
        write(root, "src/hw/machine2.h", '#include "src/exec/sweep.h"\n')
        write(root, "src/exec/sweep.h", "\n")
        rc, findings, _ = run_lint(lint, root, ("--rules", "layering"))
        expect(rc == 1 and by_rule(findings).get("layering") == 1,
               f"layering-hw-exec: expected 1 finding, got {findings}", errors)


@case
def layering_unknown_dir(lint, errors):
    with tempfile.TemporaryDirectory() as root:
        write(root, "src/newdir/a.h", '#include "src/sim/b.h"\n')
        rc, findings, _ = run_lint(lint, root, ("--rules", "layering"))
        expect(rc == 1 and by_rule(findings).get("layering") == 1,
               f"layering-unknown: expected 1 finding, got {findings}", errors)


@case
def determinism_fires_once_per_class(lint, errors):
    with tempfile.TemporaryDirectory() as root:
        write(root, "src/mm/clocky.cc",
              "auto t = std::chrono::steady_clock::now();\n")
        write(root, "bench/randy.cc", "int r = rand();\n")
        write(root, "examples/ptrkey.cc", "std::map<Foo*, int> order;\n")
        write(root, "src/mm/unord.cc", """\
std::unordered_map<int, int> refs_;
void f() {
  for (auto& kv : refs_) {
  }
}
""")
        rc, findings, _ = run_lint(lint, root, ("--rules", "determinism"))
        counts = by_rule(findings)
        expect(rc == 1 and counts.get("determinism") == 4,
               f"determinism: expected 4 findings (one per class), got {counts}"
               f" {findings}", errors)


@case
def determinism_det_ok_suppresses(lint, errors):
    with tempfile.TemporaryDirectory() as root:
        write(root, "src/mm/unord.cc", """\
std::unordered_map<int, int> refs_;
void f() {
  for (auto& kv : refs_) {  // det-ok: order-independent zeroing
  }
}
""")
        rc, findings, _ = run_lint(lint, root, ("--rules", "determinism"))
        expect(rc == 0 and not findings,
               f"det-ok: expected clean, got {findings}", errors)


@case
def determinism_clock_allowed_in_exec(lint, errors):
    with tempfile.TemporaryDirectory() as root:
        write(root, "src/exec/timer.cc",
              "auto t = std::chrono::steady_clock::now();\n")
        rc, findings, _ = run_lint(lint, root, ("--rules", "determinism"))
        expect(rc == 0 and not findings,
               f"clock-allowed: expected clean, got {findings}", errors)


@case
def strict_flags_directive_typo(lint, errors):
    with tempfile.TemporaryDirectory() as root:
        write(root, "src/mm/typo.h", "int x;  // tlblint: alow(layering)\n")
        write(root, "src/mm/gone.h", "int y;  // tlblint: allow(banked)\n")
        rc, findings, _ = run_lint(lint, root, ("--strict",))
        expect(rc == 1 and by_rule(findings).get("hygiene") == 2,
               f"hygiene: expected exactly 2 findings, got {findings}", errors)
        rc2, findings2, _ = run_lint(lint, root)  # non-strict: tolerated
        expect(rc2 == 0 and not findings2,
               f"hygiene: non-strict should tolerate, got {findings2}", errors)


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--lint", default=DEFAULT_LINT)
    args = ap.parse_args(argv[1:])
    lint = os.path.abspath(args.lint)
    errors = []
    for fn in CASES:
        fn(lint, errors)
        status = "FAIL" if errors else "PASS"
        print(f"{status} {fn.__name__}")
        if errors:
            break
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    print(f"tlblint selftest: OK ({len(CASES)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
