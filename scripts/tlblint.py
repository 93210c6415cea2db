#!/usr/bin/env python3
"""tlblint: static layering & determinism linter for the tlbsim tree.

Two rule classes, each aimed at an invariant the C++ type system cannot
state:

  layering      Include-direction DAG over src/ subdirectories. The checker
                (src/check) is observational: nothing outside it may include
                it. src/sim and src/mm are the foundation: they include no
                other src/ directory.
                The full allowed-dependency map is ALLOWED_DEPS below; the
                single historical back-edge (src/kernel/kernel.h ->
                src/core/optimizations.h) is pinned in LAYERING_WHITELIST as
                a file pair so it cannot silently widen into kernel -> core.

  determinism   Host-nondeterminism gate. Flags host clocks outside
                sanctioned host-side-timing code, host randomness, range-for
                over unordered containers, and
                pointer-keyed ordered containers (std::map/set<T*>: iteration
                order follows allocation addresses). Suppress a provably
                order-independent loop with `// det-ok: <why>` on the line.

Per-line suppression for any rule: `// tlblint: allow(<rule>) <reason>`.

With --strict, every `// tlblint: ...` comment must also be a recognized
directive (directive hygiene).

Engine: a deliberately dependency-free syntactic analysis (Python stdlib
only — CI runners and dev containers need no libclang/bindings). An AST
engine can slot in behind the same Finding interface if clang Python
bindings ever become a baseline.

Usage: tlblint.py [--root DIR] [--strict] [--json PATH] [--rules r1,r2,...]
Exit 0: clean. 1: findings. 2: usage/internal error.
"""

import argparse
import json
import os
import re
import sys

EXTS = (".h", ".cc", ".cpp")

# --- roots per rule class (relative to repo root) ---------------------------
DET_ROOTS = ("src", "bench", "examples")
SRC_ROOT = "src"

# --- layering ---------------------------------------------------------------
# Allowed #include targets per src/ subdirectory (a dir always may include
# itself). Tight by construction: an edge is added here deliberately, with
# review, or the build goes red. Keep acyclic.
ALLOWED_DEPS = {
    "mm": set(),
    "sim": set(),
    "cache": {"sim"},
    "exec": {"sim"},
    "hw": {"cache", "mm", "sim"},
    "virt": {"hw", "mm"},
    "kernel": {"cache", "hw", "mm", "sim"},
    "core": {"hw", "kernel", "sim"},
    "check": {"core", "hw", "kernel", "sim"},
    "workloads": {"cache", "core", "mm", "sim", "virt"},
}
# (including file, included file): historical back-edges pinned at file
# granularity so they cannot widen into a directory-level cycle.
LAYERING_WHITELIST = {
    ("src/kernel/kernel.h", "src/core/optimizations.h"),
}

# --- determinism ------------------------------------------------------------
# Paths (dir/ prefixes or exact files) where host clocks are by design:
# host-side speedup measurement.
CLOCK_ALLOWED = ("src/exec/", "bench/report.cc")

DET_SUPPRESS = "det-ok:"
CLOCK_RE = re.compile(
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
    r"|\bsystem_clock\b|\bsteady_clock\b|\bhigh_resolution_clock\b"
    r"|\bclock_gettime\s*\(|\bgettimeofday\s*\(")
RAND_RE = re.compile(
    r"\brand\s*\(|\bsrand\s*\(|std::random_device|\brandom_device\b"
    r"|\bl?rand48\s*\(|\bdrand48\s*\(")
UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<.*>\s+(\w+)\s*[;={(]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(.*?:\s*(?:\w+(?:\.|->))*(\w+)\s*\)")
PTRKEY_RE = re.compile(r"\b(?:std::)?(?:map|set|multimap|multiset)\s*<\s*(?:const\s+)?[\w:]+\s*\*")

# --- annotations ------------------------------------------------------------
TLBLINT_COMMENT_RE = re.compile(r"//\s*tlblint:\s*(\S+)")
KNOWN_DIRECTIVES_RE = re.compile(r"^allow\([\w-]+\)")

RULES = ("layering", "determinism")


class Finding:
    def __init__(self, rule, path, line, message, text):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message
        self.text = text.rstrip()

    def as_dict(self):
        return {"rule": self.rule, "file": self.path, "line": self.line,
                "message": self.message, "text": self.text}


def rel(path, root):
    return os.path.relpath(path, root).replace(os.sep, "/")


def walk(root, subdirs):
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in sorted(os.walk(base)):
            for name in sorted(names):
                if name.endswith(EXTS):
                    yield os.path.join(dirpath, name)


def read_lines(path):
    with open(path, encoding="utf-8") as f:
        return f.readlines()


# --- rule: layering ---------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(src/([a-z_]+)/[^"]+)"')


def check_layering(root, findings):
    for path in walk(root, (SRC_ROOT,)):
        r = rel(path, root)
        parts = r.split("/")
        if len(parts) < 3:
            continue
        this_dir = parts[1]
        for lineno, line in enumerate(read_lines(path), 1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            if "tlblint" in line and "allow(layering)" in line:
                continue
            target, target_dir = m.group(1), m.group(2)
            if target_dir == this_dir:
                continue
            if (r, target) in LAYERING_WHITELIST:
                continue
            allowed = ALLOWED_DEPS.get(this_dir)
            if allowed is None:
                findings.append(Finding(
                    "layering", r, lineno,
                    f"directory 'src/{this_dir}' has no entry in tlblint's "
                    "ALLOWED_DEPS layering map; add one deliberately",
                    line))
            elif target_dir not in allowed:
                findings.append(Finding(
                    "layering", r, lineno,
                    f"src/{this_dir} may not include src/{target_dir} "
                    f"(allowed: {sorted(allowed) or 'nothing'}); extend "
                    "ALLOWED_DEPS or LAYERING_WHITELIST in scripts/tlblint.py "
                    "only with a layering justification",
                    line))


# --- rule: determinism ------------------------------------------------------

def check_determinism(root, findings):
    files = list(walk(root, DET_ROOTS))
    unordered_vars = set()
    for path in files:
        for line in read_lines(path):
            m = UNORDERED_DECL_RE.search(line)
            if m:
                unordered_vars.add(m.group(1))
    for path in files:
        r = rel(path, root)
        clock_ok = any(r.startswith(p) if p.endswith("/") else r == p
                       for p in CLOCK_ALLOWED)
        for lineno, line in enumerate(read_lines(path), 1):
            if DET_SUPPRESS in line or "allow(determinism)" in line:
                continue
            if not clock_ok and CLOCK_RE.search(line):
                findings.append(Finding(
                    "determinism", r, lineno,
                    "host clock (use virtual time; see src/sim/engine.h)", line))
            if RAND_RE.search(line):
                findings.append(Finding(
                    "determinism", r, lineno,
                    "host randomness (use seeded tlbsim::Rng)", line))
            m = RANGE_FOR_RE.search(line)
            if m and m.group(1) in unordered_vars:
                findings.append(Finding(
                    "determinism", r, lineno,
                    f"iteration over unordered container '{m.group(1)}' "
                    "(hash order is not deterministic; sort first, or add "
                    "'// det-ok: <why order-independent>' if provably so)",
                    line))
            if PTRKEY_RE.search(line):
                findings.append(Finding(
                    "determinism", r, lineno,
                    "pointer-keyed ordered container (iteration order follows "
                    "allocation addresses, which vary run to run; key by a "
                    "stable id instead)", line))
    return unordered_vars


# --- strict-mode hygiene ----------------------------------------------------

def check_directive_hygiene(root, findings):
    """Every `// tlblint: ...` comment must be a recognized directive; a typo
    like `tlblint: alow(layering)` would otherwise silently allow nothing."""
    roots = set(DET_ROOTS) | {SRC_ROOT}
    for path in walk(root, sorted(roots)):
        r = rel(path, root)
        for lineno, line in enumerate(read_lines(path), 1):
            for m in TLBLINT_COMMENT_RE.finditer(line):
                d = m.group(1)
                if not KNOWN_DIRECTIVES_RE.match(d):
                    findings.append(Finding(
                        "hygiene", r, lineno,
                        f"unrecognized tlblint directive '{d}' "
                        "(known: allow(rule))", line))
                elif d.startswith("allow("):
                    named = d[len("allow("):].rstrip(")")
                    if named not in RULES:
                        findings.append(Finding(
                            "hygiene", r, lineno,
                            f"allow() names unknown rule '{named}' "
                            f"(known rules: {', '.join(RULES)})", line))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--strict", action="store_true",
                    help="also fail on tlblint-directive hygiene problems")
    ap.add_argument("--json", metavar="PATH", help="write findings as JSON")
    ap.add_argument("--rules", default=",".join(RULES),
                    help=f"comma-separated subset of: {', '.join(RULES)}")
    args = ap.parse_args(argv[1:])

    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    unknown = [r for r in rules if r not in RULES]
    if unknown:
        print(f"tlblint: unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    findings = []
    unordered_vars = set()
    if "layering" in rules:
        check_layering(args.root, findings)
    if "determinism" in rules:
        unordered_vars = check_determinism(args.root, findings)
    if args.strict:
        check_directive_hygiene(args.root, findings)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f"FAIL [{f.rule}] {f.path}:{f.line}: {f.message}\n     {f.text}")

    if args.json:
        payload = {
            "findings": [f.as_dict() for f in findings],
            "rules": rules,
            "strict": args.strict,
            "unordered_vars_tracked": sorted(unordered_vars),
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")

    if findings:
        print(f"\ntlblint: {len(findings)} problem(s) "
              f"[rules: {', '.join(rules)}{', strict' if args.strict else ''}]")
        return 1
    print(f"tlblint: OK [rules: {', '.join(rules)}"
          f"{', strict' if args.strict else ''}; "
          f"{len(unordered_vars)} unordered var(s) tracked]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
