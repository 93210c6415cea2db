// Regenerates Figure 10: Sysbench-like random writes to a memory-mapped file
// with periodic fdatasync, speedup over baseline as optimizations are added
// cumulatively (batching last), threads 1..16 on one NUMA node.
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/report.h"
#include "src/exec/sweep.h"
#include "src/workloads/sysbench.h"

namespace tlbsim {
namespace {

constexpr int kThreadCounts[] = {1, 2, 3, 4, 6, 8, 10, 12, 14, 16};
constexpr uint64_t kSeeds[] = {7, 8, 9, 10, 11};
constexpr int kQuickSeeds = 2;

// Cumulative columns in paper legend order; in-context exists only in safe
// mode (PTI), batching is always last.
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

// One figure cell: the seed-averaged throughput of one configuration, plus
// the registry snapshot of its last seed's run.
struct Cell {
  double writes_per_mcycle = 0.0;
  Json metrics;
};

Cell MeasureCell(bool pti, int threads, const OptimizationSet& opts, int seeds) {
  Cell cell;
  double sum = 0.0;
  for (int s = 0; s < seeds; ++s) {
    SysbenchConfig cfg;
    cfg.pti = pti;
    cfg.threads = threads;
    cfg.opts = opts;
    cfg.seed = kSeeds[s];
    SysbenchResult r = RunSysbench(cfg);
    sum += r.writes_per_mcycle;
    cell.metrics = std::move(r.metrics);
  }
  cell.writes_per_mcycle = sum / static_cast<double>(seeds);
  return cell;
}

}  // namespace
}  // namespace tlbsim

int main(int argc, char** argv) {
  using namespace tlbsim;
  BenchReport report("fig10_sysbench", argc, argv);
  const int seeds = report.quick() ? kQuickSeeds : static_cast<int>(std::size(kSeeds));

  // One job per table cell, row-major with the baseline first — the exact
  // order the sequential loops measured in.
  std::vector<std::function<Cell()>> jobs;
  for (bool pti : {true, false}) {
    for (int threads : kThreadCounts) {
      auto add = [&](const OptimizationSet& opts) {
        jobs.emplace_back([pti, threads, opts, seeds] {
          return MeasureCell(pti, threads, opts, seeds);
        });
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
    std::printf("# Figure 10 (%s mode): speedup over baseline, cumulative optimizations\n",
                pti ? "safe" : "unsafe");
    auto cols = Columns(pti);
    std::printf("%-8s", "threads");
    for (auto& [name, opts] : cols) {
      std::printf(" %12s", name.c_str());
    }
    std::printf("\n");
    for (int threads : kThreadCounts) {
      double base = results[next++].writes_per_mcycle;
      std::printf("%-8d", threads);
      Json row = Json::Object();
      row["mode"] = pti ? "safe" : "unsafe";
      row["threads"] = threads;
      row["base_writes_per_mcycle"] = base;
      Json& speedups = row["speedup"];
      speedups = Json::Object();
      for (auto& [name, opts] : cols) {
        Cell& cell = results[next++];
        std::printf(" %11.2fx", cell.writes_per_mcycle / base);
        speedups[name] = cell.writes_per_mcycle / base;
        last_metrics = std::move(cell.metrics);
      }
      std::printf("\n");
      report.AddRow(std::move(row));
    }
    std::printf("\n");
  }
  // Snapshot from the last 16-thread unsafe row, fully optimized.
  report.Set("metrics", std::move(last_metrics));
  report.SetHost(runner);
  return report.Finish(0);
}
