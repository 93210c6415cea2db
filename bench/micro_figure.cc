#include "bench/micro_figure.h"

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
constexpr int kRuns = 5;          // the paper's 5-run methodology
constexpr int kQuickRuns = 2;     // --quick: local iteration
constexpr int kIterations = 300;  // madvise calls per run (paper: 100k; the
                                  // simulator's variance is far lower)

constexpr Placement kPlacements[] = {Placement::kSameCore, Placement::kSameSocket,
                                     Placement::kOtherSocket};

}  // namespace

int RunMicroFigure(const char* bench_name, const char* figure_name, bool pti, int pages, int argc,
                   char** argv) {
  BenchReport report(bench_name, argc, argv);
  const int runs = report.quick() ? kQuickRuns : kRuns;
  Json config = Json::Object();
  config["figure"] = figure_name;
  config["pti"] = pti;
  config["pages"] = pages;
  config["runs"] = runs;
  config["iterations"] = kIterations;
  report.Set("config", std::move(config));

  // In unsafe mode there is no PTI, hence no in-context flushing bar.
  const int max_level = pti ? 4 : 3;

  // One job per (placement, level, run): each constructs and runs its own
  // simulation, returning the result by value. SweepRunner collects in
  // submission order, which is the print order below.
  std::vector<std::function<MicroResult()>> jobs;
  for (Placement place : kPlacements) {
    for (int level = 0; level <= max_level; ++level) {
      for (int run = 0; run < runs; ++run) {
        MicroConfig cfg;
        cfg.system.kernel.pti = pti;
        cfg.system.kernel.opts = OptimizationSet::Cumulative(level);
        cfg.system.machine.seed = 1000 + static_cast<uint64_t>(run);
        cfg.pages = pages;
        cfg.responders = {PlacementCpu(place)};
        cfg.iterations = kIterations;
        jobs.emplace_back([cfg] { return RunMadviseMicrobench(cfg); });
      }
    }
  }
  SweepRunner runner(report.threads());
  std::vector<MicroResult> results = runner.Run(std::move(jobs));

  std::printf("# %s: madvise(DONTNEED) microbenchmark, %s mode, flush %d PTE%s\n", figure_name,
              pti ? "safe" : "unsafe", pages, pages == 1 ? "" : "s");
  std::printf("# cycles per operation, mean +- stddev over %d runs x %d iterations\n", runs,
              kIterations);
  std::printf("%-13s %-12s %14s %14s %10s\n", "placement", "opts", "initiator", "responder",
              "vs-base");

  int rc = 0;
  size_t next = 0;
  for (Placement place : kPlacements) {
    double base_initiator = 0.0;
    for (int level = 0; level <= max_level; ++level) {
      RunningStat initiator_runs;
      RunningStat responder_runs;
      uint64_t shootdowns = 0;
      uint64_t early_acks = 0;
      Json metrics;
      for (int run = 0; run < runs; ++run) {
        MicroResult& r = results[next++];
        initiator_runs.Add(r.initiator.mean());
        responder_runs.Add(r.responder_cycles_per_op);
        shootdowns = r.shootdowns;
        early_acks = r.early_acks;
        metrics = std::move(r.metrics);
      }
      const double mean = initiator_runs.mean();
      if (level == 0) {
        base_initiator = mean;
      }
      const char* opts_name = OptimizationSet::kCumulativeNames[static_cast<size_t>(level)];
      double speed = base_initiator > 0 ? (1.0 - mean / base_initiator) : 0.0;
      std::printf("%-13s %-12s %8.0f +-%4.0f %8.0f +-%4.0f %9.1f%%\n", PlacementName(place),
                  opts_name, mean, initiator_runs.stddev(), responder_runs.mean(),
                  responder_runs.stddev(), 100.0 * speed);
      Json row = Json::Object();
      row["placement"] = PlacementName(place);
      row["level"] = level;
      row["opts"] = opts_name;
      row["initiator_mean"] = mean;
      row["initiator_stddev"] = initiator_runs.stddev();
      row["responder_mean"] = responder_runs.mean();
      row["responder_stddev"] = responder_runs.stddev();
      row["reduction_vs_base"] = speed;
      row["shootdowns"] = shootdowns;
      row["early_acks"] = early_acks;
      report.AddRow(std::move(row));
      // Ends on the last cross-socket run, all optimizations on: the
      // configuration CI probes for nonzero counters.
      report.Set("metrics", std::move(metrics));
      // Sanity: optimizations must not regress the initiator by > 5%.
      if (mean > base_initiator * 1.05) {
        std::printf("!! regression at level %d\n", level);
        rc = 1;
      }
    }
    std::printf("\n");
  }
  report.SetHost(runner);
  return report.Finish(rc);
}

}  // namespace tlbsim
