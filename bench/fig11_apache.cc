// Regenerates Figure 11: Apache mpm_event-like server, speedup in served
// requests vs number of server cores (single socket, 1..11 cores), cumulative
// optimizations with userspace batching last.
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/report.h"
#include "src/exec/sweep.h"
#include "src/workloads/apache.h"

namespace tlbsim {
namespace {

std::vector<std::pair<std::string, OptimizationSet>> Columns(bool pti) {
  std::vector<std::pair<std::string, OptimizationSet>> cols;
  int general_levels = pti ? 4 : 3;
  for (int level = 1; level <= general_levels; ++level) {
    cols.emplace_back(OptimizationSet::kCumulativeNames[static_cast<size_t>(level)],
                      OptimizationSet::Cumulative(level));
  }
  OptimizationSet with_batching = OptimizationSet::Cumulative(general_levels);
  with_batching.userspace_batching = true;
  cols.emplace_back("+batching", with_batching);
  return cols;
}

// One figure cell: a single run (each cell is one core count x one column).
struct Cell {
  double requests_per_mcycle = 0.0;
  Json metrics;
};

Cell MeasureCell(bool pti, int cores, const OptimizationSet& opts) {
  ApacheConfig cfg;
  cfg.pti = pti;
  cfg.server_cores = cores;
  cfg.opts = opts;
  cfg.seed = 11;
  ApacheResult r = RunApache(cfg);
  return Cell{r.requests_per_mcycle, std::move(r.metrics)};
}

}  // namespace
}  // namespace tlbsim

int main(int argc, char** argv) {
  using namespace tlbsim;
  BenchReport report("fig11_apache", argc, argv);

  // One job per table cell, row-major with the baseline first — the exact
  // order the sequential loops measured in.
  std::vector<std::function<Cell()>> jobs;
  for (bool pti : {true, false}) {
    for (int cores = 1; cores <= 11; ++cores) {
      auto add = [&](const OptimizationSet& opts) {
        jobs.emplace_back([pti, cores, opts] { return MeasureCell(pti, cores, opts); });
      };
      add(OptimizationSet::None());
      for (auto& [name, opts] : Columns(pti)) {
        add(opts);
      }
    }
  }
  SweepRunner runner(report.threads());
  std::vector<Cell> results = runner.Run(std::move(jobs));

  Json last_metrics;
  size_t next = 0;
  for (bool pti : {true, false}) {
    std::printf("# Figure 11 (%s mode): Apache speedup vs baseline per core count\n",
                pti ? "safe" : "unsafe");
    auto cols = Columns(pti);
    std::printf("%-6s %14s", "cores", "base req/Mcyc");
    for (auto& [name, opts] : cols) {
      std::printf(" %12s", name.c_str());
    }
    std::printf("\n");
    for (int cores = 1; cores <= 11; ++cores) {
      double base = results[next++].requests_per_mcycle;
      std::printf("%-6d %14.2f", cores, base);
      Json row = Json::Object();
      row["mode"] = pti ? "safe" : "unsafe";
      row["cores"] = cores;
      row["base_requests_per_mcycle"] = base;
      Json& speedups = row["speedup"];
      speedups = Json::Object();
      for (auto& [name, opts] : cols) {
        Cell& cell = results[next++];
        std::printf(" %11.3fx", cell.requests_per_mcycle / base);
        speedups[name] = cell.requests_per_mcycle / base;
        last_metrics = std::move(cell.metrics);
      }
      std::printf("\n");
      report.AddRow(std::move(row));
    }
    std::printf("\n");
  }
  // Snapshot from the last 11-core unsafe row, fully optimized.
  report.Set("metrics", std::move(last_metrics));
  report.SetHost(runner);
  return report.Finish(0);
}
