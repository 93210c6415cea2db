// Regenerates Figure 9: cycles of a write that triggers a copy-on-write
// fault, with all previous optimizations (all) vs all + CoW flush avoidance,
// in safe and unsafe mode.
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "bench/report.h"
#include "src/exec/sweep.h"
#include "src/sim/stats.h"
#include "src/workloads/microbench.h"

namespace tlbsim {
namespace {

constexpr int kRuns = 5;
constexpr int kQuickRuns = 2;

struct Measured {
  RunningStat across_runs;
  uint64_t cow_faults = 0;
  uint64_t flushes_avoided = 0;
  Json metrics;  // from the last run
};

// Aggregates `runs` consecutive sweep results into one table cell.
Measured Aggregate(std::vector<CowResult>::iterator it, int runs) {
  Measured m;
  for (int run = 0; run < runs; ++run, ++it) {
    m.across_runs.Add(it->write_cycles.mean());
    m.cow_faults = it->cow_faults;
    m.flushes_avoided = it->flushes_avoided;
    m.metrics = std::move(it->metrics);
  }
  return m;
}

Json Row(bool pti, const char* config, const Measured& m) {
  Json row = Json::Object();
  row["mode"] = pti ? "safe" : "unsafe";
  row["config"] = config;
  row["cycles_mean"] = m.across_runs.mean();
  row["cycles_stddev"] = m.across_runs.stddev();
  row["cow_faults"] = m.cow_faults;
  row["flushes_avoided"] = m.flushes_avoided;
  return row;
}

}  // namespace
}  // namespace tlbsim

int main(int argc, char** argv) {
  using namespace tlbsim;
  BenchReport report("fig9_cow", argc, argv);
  const int runs = report.quick() ? kQuickRuns : kRuns;
  Json config = Json::Object();
  config["runs"] = runs;
  config["pages"] = 64;
  config["rounds"] = 4;
  report.Set("config", std::move(config));

  // Jobs in cell-major order: (safe all, safe all+cow, unsafe all, unsafe
  // all+cow), `runs` seeds each.
  std::vector<std::function<CowResult()>> jobs;
  for (bool pti : {true, false}) {
    for (bool cow_avoidance : {false, true}) {
      for (int run = 0; run < runs; ++run) {
        CowConfig cfg;
        cfg.system.kernel.pti = pti;
        cfg.system.kernel.opts = OptimizationSet::AllGeneral();
        cfg.system.kernel.opts.cow_avoidance = cow_avoidance;
        cfg.system.machine.seed = 40 + static_cast<uint64_t>(run);
        cfg.pages = 64;
        cfg.rounds = 4;
        jobs.emplace_back([cfg] { return RunCowMicrobench(cfg); });
      }
    }
  }
  SweepRunner runner(report.threads());
  std::vector<CowResult> results = runner.Run(std::move(jobs));

  std::printf("# Figure 9: CoW page-fault write latency (cycles per event)\n");
  std::printf("# paper: CoW avoidance saves ~130 cycles (~3%% safe, ~5%% unsafe)\n\n");
  int rc = 0;
  auto it = results.begin();
  std::printf("%-8s %-10s %12s\n", "mode", "config", "cycles");
  for (bool pti : {true, false}) {
    Measured all = Aggregate(it, runs);
    it += runs;
    Measured all_cow = Aggregate(it, runs);
    it += runs;
    std::printf("%-8s %-10s %8.0f +-%3.0f\n", pti ? "safe" : "unsafe", "all",
                all.across_runs.mean(), all.across_runs.stddev());
    std::printf("%-8s %-10s %8.0f +-%3.0f   (saves %.0f cycles, %.1f%%)\n",
                pti ? "safe" : "unsafe", "all+cow", all_cow.across_runs.mean(),
                all_cow.across_runs.stddev(), all.across_runs.mean() - all_cow.across_runs.mean(),
                100.0 * (1.0 - all_cow.across_runs.mean() / all.across_runs.mean()));
    report.AddRow(Row(pti, "all", all));
    report.AddRow(Row(pti, "all+cow", all_cow));
    // The last all+cow run: CI probes its cow_flush_avoided counter.
    report.Set("metrics", std::move(all_cow.metrics));
    if (all_cow.across_runs.mean() >= all.across_runs.mean()) {
      std::printf("!! CoW avoidance did not help\n");
      rc = 1;
    }
  }
  report.SetHost(runner);
  return report.Finish(rc);
}
