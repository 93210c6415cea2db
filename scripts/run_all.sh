#!/bin/sh
# Build, test, and regenerate every paper table/figure. JSON snapshots of
# each bench (BENCH_<name>.json) are collected under results/.
#
# Usage: run_all.sh [--quick]
#   --quick  reduced seed/run counts in the sweep benches — faster local
#            iteration, same table shapes.
set -e
cd "$(dirname "$0")/.."
quick=""
for arg in "$@"; do
  case "$arg" in
    --quick) quick="--quick" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done
# Pick Ninja only when configuring fresh: an already-configured build dir
# keeps its generator (re-running with -G on it is a CMake error).
if [ ! -f build/CMakeCache.txt ] && command -v ninja >/dev/null 2>&1; then
  cmake -B build -S . -G Ninja
else
  cmake -B build -S .
fi
nproc_val="$(nproc 2>/dev/null || echo 4)"
cmake --build build -j "$nproc_val"
ctest --test-dir build --output-on-failure
mkdir -p results
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "===== $b ====="
  # Every bench accepts these flags; sweep-shaped ones fan out across host
  # threads, the rest ignore --threads and --quick.
  # shellcheck disable=SC2086
  "$b" --json results/ --threads "$nproc_val" $quick
done
