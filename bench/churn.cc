// High-churn mmap sweep for Optimization #7 (reuse_elision, arXiv 2409.10946
// "Skip TLB flushes for reused pages within mmap's").
//
// Two workloads (src/workloads/churn.h) run with the optimization off and on,
// across thread counts: arena recycling (anonymous madvise(DONTNEED) +
// retouch, plus a munmap/mmap scratch loop) and page-cache turnover
// (file-backed reclaim + refault). The off rows are the baseline the
// elision's speedup is measured against; the on rows carry the reuse counters
// (elided/benign/forced/hand-offs) that quantify how often churned frames come
// back under a provably benign translation.
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "bench/report.h"
#include "src/exec/sweep.h"
#include "src/workloads/churn.h"

namespace tlbsim {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr uint64_t kSeeds[] = {21, 22, 23};
constexpr int kQuickSeeds = 1;

struct Cell {
  double rounds_per_mcycle = 0.0;
  uint64_t flush_requests = 0;
  uint64_t shootdowns = 0;
  uint64_t elided_flushes = 0;
  uint64_t elided_pages = 0;
  uint64_t benign_closes = 0;
  uint64_t forced_flushes = 0;
  uint64_t evictions = 0;
  uint64_t frame_handoffs = 0;
  Json metrics;
};

Cell MeasureCell(bool pagecache, int threads, bool elision, int seeds) {
  Cell cell;
  double sum = 0.0;
  for (int s = 0; s < seeds; ++s) {
    ChurnConfig cfg;
    cfg.threads = threads;
    cfg.opts = OptimizationSet::AllGeneral();
    cfg.opts.reuse_elision = elision;
    cfg.seed = kSeeds[s];
    ChurnResult r = pagecache ? RunChurnPagecache(cfg) : RunChurnArena(cfg);
    sum += r.rounds_per_mcycle;
    cell.flush_requests = r.flush_requests;
    cell.shootdowns = r.shootdowns;
    cell.elided_flushes = r.elided_flushes;
    cell.elided_pages = r.elided_pages;
    cell.benign_closes = r.benign_closes;
    cell.forced_flushes = r.forced_flushes;
    cell.evictions = r.evictions;
    cell.frame_handoffs = r.frame_handoffs;
    cell.metrics = std::move(r.metrics);
  }
  cell.rounds_per_mcycle = sum / static_cast<double>(seeds);
  return cell;
}

}  // namespace
}  // namespace tlbsim

int main(int argc, char** argv) {
  using namespace tlbsim;
  BenchReport report("churn", argc, argv);
  const int seeds = report.quick() ? kQuickSeeds : static_cast<int>(std::size(kSeeds));

  // One job per cell, row-major in print order: workload, threads, elision
  // off then on.
  std::vector<std::function<Cell()>> jobs;
  for (bool pagecache : {false, true}) {
    for (int threads : kThreadCounts) {
      for (bool elision : {false, true}) {
        jobs.emplace_back([pagecache, threads, elision, seeds] {
          return MeasureCell(pagecache, threads, elision, seeds);
        });
      }
    }
  }
  SweepRunner runner(report.threads());
  std::vector<Cell> results = runner.Run(std::move(jobs));

  size_t next = 0;
  for (bool pagecache : {false, true}) {
    std::printf("# churn/%s: reuse-aware flush elision (all-general opts, safe mode)\n",
                pagecache ? "pagecache" : "arena");
    std::printf("%-8s %14s %14s %8s %8s %8s %8s %8s %8s\n", "threads", "off rnd/Mcyc",
                "on rnd/Mcyc", "speedup", "elided", "benign", "forced", "evict", "handoff");
    for (int threads : kThreadCounts) {
      Cell& off = results[next++];
      Cell& on = results[next++];
      double speedup =
          off.rounds_per_mcycle > 0.0 ? on.rounds_per_mcycle / off.rounds_per_mcycle : 0.0;
      std::printf("%-8d %14.2f %14.2f %7.2fx %8llu %8llu %8llu %8llu %8llu\n", threads,
                  off.rounds_per_mcycle, on.rounds_per_mcycle, speedup,
                  static_cast<unsigned long long>(on.elided_flushes),
                  static_cast<unsigned long long>(on.benign_closes),
                  static_cast<unsigned long long>(on.forced_flushes),
                  static_cast<unsigned long long>(on.evictions),
                  static_cast<unsigned long long>(on.frame_handoffs));
      Json row = Json::Object();
      row["workload"] = pagecache ? "pagecache" : "arena";
      row["threads"] = threads;
      row["off_rounds_per_mcycle"] = off.rounds_per_mcycle;
      row["on_rounds_per_mcycle"] = on.rounds_per_mcycle;
      row["speedup"] = speedup;
      row["off_flush_requests"] = off.flush_requests;
      row["on_flush_requests"] = on.flush_requests;
      row["off_shootdowns"] = off.shootdowns;
      row["on_shootdowns"] = on.shootdowns;
      row["elided_flushes"] = on.elided_flushes;
      row["elided_pages"] = on.elided_pages;
      row["benign_closes"] = on.benign_closes;
      row["forced_flushes"] = on.forced_flushes;
      row["evictions"] = on.evictions;
      row["frame_handoffs"] = on.frame_handoffs;
      report.AddRow(std::move(row));
      // The last elision-on run: the kernel.reuse_* counters in here are
      // what scripts/check_bench_json.py gates on.
      report.Set("metrics", std::move(on.metrics));
    }
    std::printf("\n");
  }
  report.SetHost(runner);
  return report.Finish(0);
}
