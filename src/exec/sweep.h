// SweepRunner: ordered fan-out of self-contained simulation jobs.
//
// A sweep-shaped bench (figs 5-8, sysbench/apache thread sweeps, the
// ablation matrix) is a list of independent runs: each job constructs its
// own Machine/Kernel/MetricsRegistry, runs the simulation, and returns its
// result rows/metrics snapshot *by value*. SweepRunner executes the list
// across `threads` host threads and hands the results back **in submission
// order**, so everything downstream — stdout rows, BENCH_*.json sections —
// is byte-for-byte identical to the sequential run.
//
// Isolation contract for jobs:
//   - no shared mutable state: build every simulation object inside the job;
//   - no global RNG: each job owns its seeded Rng (via its MachineConfig);
//   - no stdout/stderr: return data, let the caller print in order;
//   - exceptions are fine: they are captured and rethrown to the Run()
//     caller (lowest submission index first) after the sweep settles.
//
// Run() has one code path for every thread count: the calling thread and
// min(threads, jobs) - 1 helper threads claim job indices from one atomic
// counter until the list is exhausted. Each job writes only its own result,
// exception and duration slot, and the helpers are joined before any slot
// is read, so the join is the only synchronization the results need. At
// `threads == 1` no thread starts and the caller runs the jobs in order.
// Call Run() from one thread at a time, and never from inside a job: the
// accumulated stats are not synchronized.
//
// Host-side wall time and the sum of per-job execution times are
// accumulated across Run() calls; HostJson() packages them as the
// non-deterministic "host" section of a bench report (stripped before CI's
// determinism cmp, see scripts/strip_nondeterministic.py).
#ifndef TLBSIM_SRC_EXEC_SWEEP_H_
#define TLBSIM_SRC_EXEC_SWEEP_H_

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/sim/json.h"

namespace tlbsim {

// Accumulated host-side cost of the sweeps a runner executed.
struct SweepStats {
  int threads = 1;
  uint64_t jobs = 0;
  double wall_seconds = 0.0;  // fan-out to last join, summed over sweeps
  double job_seconds = 0.0;   // per-job execution time, summed over jobs

  // Parallel speedup actually realized: serial work divided by elapsed
  // wall time (~1.0 at --threads 1, approaches min(threads, jobs) when the
  // sweep load-balances).
  double speedup() const { return wall_seconds > 0 ? job_seconds / wall_seconds : 1.0; }
};

class SweepRunner {
 public:
  // max(1, std::thread::hardware_concurrency()) — the --threads default.
  static int DefaultThreadCount();

  // `threads` <= 1 means the calling thread runs every job itself.
  explicit SweepRunner(int threads = DefaultThreadCount());

  int threads() const { return stats_.threads; }

  // Executes `jobs` and returns their results in submission order. If any
  // job threw, rethrows the lowest-index exception after every job has
  // settled.
  template <typename R>
  std::vector<R> Run(std::vector<std::function<R()>> jobs);

  // Stats accumulated across every Run() on this runner.
  SweepStats stats() const { return stats_; }

  // {"threads": N, "jobs": J, "wall_seconds": W, "job_seconds": S,
  //  "parallel_speedup": S/W} — the report-layer "host" section.
  Json HostJson() const;

 private:
  // Calls run(i) once for every i in [0, n) across the caller and its
  // helpers, joins the helpers, and accounts the sweep in stats_. `run`
  // must not throw.
  void FanOut(size_t n, const std::function<void(size_t)>& run);

  SweepStats stats_;
};

template <typename R>
std::vector<R> SweepRunner::Run(std::vector<std::function<R()>> jobs) {
  const size_t n = jobs.size();
  std::vector<std::optional<R>> slots(n);
  std::vector<std::exception_ptr> errors(n);
  FanOut(n, [&](size_t i) {
    try {
      slots[i].emplace(jobs[i]());
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (size_t i = 0; i < n; ++i) {
    if (errors[i]) {
      std::rethrow_exception(errors[i]);
    }
  }
  std::vector<R> results;
  results.reserve(n);
  for (std::optional<R>& s : slots) {
    results.push_back(std::move(*s));
  }
  return results;
}

}  // namespace tlbsim

#endif  // TLBSIM_SRC_EXEC_SWEEP_H_
