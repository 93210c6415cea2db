// Regenerates Figure 11: Apache mpm_event-like server, speedup in served
// requests vs number of server cores (single socket, 1..11 cores), cumulative
// optimizations with userspace batching last, plus the queue backend's
// baseline per row.
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

Cell MeasureCell(bool pti, int cores, const OptimizationSet& opts, FlushBackendKind backend) {
  ApacheConfig cfg;
  cfg.pti = pti;
  cfg.server_cores = cores;
  cfg.opts = opts;
  cfg.seed = 11;
  cfg.backend = backend;
  ApacheResult r = RunApache(cfg);
  return Cell{r.requests_per_mcycle, std::move(r.metrics)};
}

}  // namespace
}  // namespace tlbsim

int main(int argc, char** argv) {
  using namespace tlbsim;
  BenchReport report("fig11_apache", argc, argv);
  const bool queue = !report.ipi_only();
  report.SetConfig(Json::Object());

  // One job per table cell, row-major with the baseline first — the exact
  // order the sequential loops measured in. Unless ipi-only, each row ends
  // with one queue cell at the baseline: the queue backend implements none
  // of the paper's optimizations, so every column would repeat it
  // (workloads_test pins that).
  std::vector<std::function<Cell()>> jobs;
  for (bool pti : {true, false}) {
    for (int cores = 1; cores <= 11; ++cores) {
      auto add = [&](const OptimizationSet& opts, FlushBackendKind backend) {
        jobs.emplace_back([pti, cores, opts, backend] {
          return MeasureCell(pti, cores, opts, backend);
        });
      };
      add(OptimizationSet::None(), FlushBackendKind::kIpi);
      for (auto& [name, opts] : Columns(pti)) {
        add(opts, FlushBackendKind::kIpi);
      }
      if (queue) {
        add(OptimizationSet::None(), FlushBackendKind::kQueue);
      }
    }
  }
  SweepRunner runner(report.threads());
  std::vector<Cell> results = runner.Run(std::move(jobs));

  Json last_metrics_ipi;
  Json last_metrics_queue;
  size_t next = 0;
  for (bool pti : {true, false}) {
    std::printf("# Figure 11 (%s mode): Apache speedup vs baseline per core count\n",
                pti ? "safe" : "unsafe");
    auto cols = Columns(pti);
    std::printf("%-6s %14s", "cores", "base req/Mcyc");
    for (auto& [name, opts] : cols) {
      std::printf(" %12s", name.c_str());
    }
    if (queue) {
      std::printf(" %12s %12s", "queue", "queue/all-on");
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
      double all_on = 0.0;
      for (auto& [name, opts] : cols) {
        Cell& cell = results[next++];
        std::printf(" %11.3fx", cell.requests_per_mcycle / base);
        speedups[name] = cell.requests_per_mcycle / base;
        all_on = cell.requests_per_mcycle;
        last_metrics_ipi = std::move(cell.metrics);
      }
      if (queue) {
        // The queue baseline against the IPI baseline and the IPI cell with
        // every optimization on.
        Cell& cell = results[next++];
        std::printf(" %11.3fx %11.3fx", cell.requests_per_mcycle / base,
                    cell.requests_per_mcycle / all_on);
        row["queue_requests_per_mcycle"] = cell.requests_per_mcycle;
        row["queue_vs_ipi_base"] = cell.requests_per_mcycle / base;
        row["queue_vs_ipi_all"] = cell.requests_per_mcycle / all_on;
        last_metrics_queue = std::move(cell.metrics);
      }
      std::printf("\n");
      report.AddRow(std::move(row));
    }
    std::printf("\n");
  }
  // Snapshots from the last 11-core unsafe row: the IPI one fully
  // optimized, the queue one at its baseline.
  report.SetMetrics(FlushBackendKind::kIpi, std::move(last_metrics_ipi));
  report.SetMetrics(FlushBackendKind::kQueue, std::move(last_metrics_queue));
  report.SetHost(runner);
  return report.Finish(0);
}
