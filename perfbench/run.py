#!/usr/bin/env python3
"""Builds the tlbbench binary from source (Release) and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fsync_storm --seed 1 --seconds 30 --trace 0

The build tree is $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
build output goes to stderr, so the benchmark result stays the last stdout line.
A traced run (--trace 1) writes its Chrome trace-event file next to the build
tree, under traces/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    build_cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(build_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "tlbbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--golden", default=os.path.join(HERE, "golden.txt"),
                        help="golden digests for the default seed")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(target, "perfbench"))
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace, "--golden", args.golden]
    if args.trace == "1":
        traces = os.path.join(target, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "trace_%s_seed%s.json" % (args.workload, args.seed))]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
