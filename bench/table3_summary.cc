// Regenerates Table 3: overall [initiator / responder] latency reduction for
// cross-socket shootdowns after applying all four §3 techniques, for 1 and
// 10 PTEs in safe and unsafe mode.
//
// Under --json the report additionally carries an "ablations" section: each
// optimization is enabled in isolation against the counter it is designed to
// reduce (IPIs, late acks, coherence transfers, INVPCIDs, CoW flushes), and
// the bench fails unless every enabled optimization strictly reduces its
// targeted counter — the protocol-level regression gate CI consumes.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench/report.h"
#include "src/core/snapshot.h"
#include "src/sim/stats.h"
#include "src/workloads/microbench.h"

namespace tlbsim {
namespace {

constexpr int kRuns = 5;
constexpr int kIterations = 300;

struct Cell {
  double initiator_reduction;
  double responder_reduction;
  Json metrics;  // from the last optimized run
};

Cell Measure(bool pti, int pages) {
  RunningStat base_i;
  RunningStat base_r;
  RunningStat opt_i;
  RunningStat opt_r;
  Json metrics;
  for (int run = 0; run < kRuns; ++run) {
    MicroConfig cfg;
    cfg.system.kernel.pti = pti;
    cfg.system.kernel.opts = OptimizationSet::None();
    cfg.system.machine.seed = 500 + static_cast<uint64_t>(run);
    cfg.pages = pages;
    cfg.iterations = kIterations;
    MicroResult b = RunMadviseMicrobench(cfg);
    base_i.Add(b.initiator.mean());
    base_r.Add(b.responder_cycles_per_op);
    cfg.system.kernel.opts = OptimizationSet::AllGeneral();  // the four §3 techniques
    MicroResult o = RunMadviseMicrobench(cfg);
    opt_i.Add(o.initiator.mean());
    opt_r.Add(o.responder_cycles_per_op);
    metrics = std::move(o.metrics);
  }
  return Cell{1.0 - opt_i.mean() / base_i.mean(), 1.0 - opt_r.mean() / base_r.mean(),
              std::move(metrics)};
}

// One madvise-microbenchmark run with exactly `opts` enabled; cross-socket
// responder, safe mode.
MicroResult SingleOptRun(OptimizationSet opts) {
  MicroConfig cfg;
  cfg.system.kernel.opts = opts;
  cfg.system.machine.seed = 500;
  cfg.pages = 10;
  cfg.iterations = kIterations;
  return RunMadviseMicrobench(cfg);
}

// The §4.2 batching scenario: 16 dirty pages msync'd while a second thread
// of the mm runs remotely — 16 per-page shootdowns in baseline, 4 with the
// 4-slot batch. Returns "apic.ipis_sent" from the run's registry snapshot.
uint64_t MsyncIpis(bool batching) {
  SystemConfig sc;
  sc.kernel.pti = true;
  sc.kernel.opts = OptimizationSet();
  sc.kernel.opts.userspace_batching = batching;
  sc.machine.seed = 500;
  System sys(sc);
  auto* p = sys.kernel().CreateProcess();
  auto* t = sys.kernel().CreateThread(p, 0);
  sys.kernel().CreateThread(p, 2);
  bool stop = false;
  SimCpu& responder = sys.machine().cpu(2);
  responder.Spawn([](SimCpu& c, const bool* s) -> SimTask {
    while (!*s) {
      co_await c.Execute(500);
    }
  }(responder, &stop));
  File* f = sys.kernel().CreateFile(1 << 20);
  sys.machine().cpu(0).Spawn([](System& s, Thread& th, File* file, bool* st) -> SimTask {
    Kernel& k = s.kernel();
    uint64_t a = co_await k.SysMmap(th, 16 * kPageSize4K, true, true, file);
    for (int i = 0; i < 16; ++i) {
      co_await k.UserAccess(th, a + static_cast<uint64_t>(i) * kPageSize4K, true);
    }
    co_await k.SysMsyncClean(th, a, 16 * kPageSize4K);
    *st = true;
  }(sys, *t, f, &stop));
  sys.machine().engine().Run();
  return BenchReport::Counter(SystemMetricsJson(sys), "apic.ipis_sent");
}

// The §4.1 CoW scenario; returns "shootdown.cow_flushes" from the snapshot.
uint64_t CowFlushes(bool avoidance) {
  CowConfig cfg;
  cfg.system.kernel.opts.cow_avoidance = avoidance;
  cfg.system.machine.seed = 500;
  cfg.pages = 64;
  cfg.rounds = 4;
  CowResult r = RunCowMicrobench(cfg);
  return BenchReport::Counter(r.metrics, "shootdown.cow_flushes");
}

struct Ablation {
  const char* optimization;
  const char* counter;   // the metric the optimization targets
  double baseline;       // counter with the optimization off
  double optimized;      // counter with (only) the optimization on
};

// Runs each optimization in isolation against its targeted counter.
std::vector<Ablation> RunAblations() {
  std::vector<Ablation> out;
  MicroResult base = SingleOptRun(OptimizationSet::None());

  OptimizationSet concurrent;
  concurrent.concurrent_flush = true;
  out.push_back({"concurrent_flush", "initiator_cycles_mean", base.initiator.mean(),
                 SingleOptRun(concurrent).initiator.mean()});

  // An optimization against a counter of the madvise runs' snapshots.
  auto madvise_counter = [&](const char* optimization, const char* counter,
                             OptimizationSet opts) {
    out.push_back({optimization, counter,
                   static_cast<double>(BenchReport::Counter(base.metrics, counter)),
                   static_cast<double>(BenchReport::Counter(SingleOptRun(opts).metrics, counter))});
  };

  OptimizationSet early;
  early.early_ack = true;
  madvise_counter("early_ack", "shootdown.late_acks", early);

  OptimizationSet cacheline;
  cacheline.cacheline_consolidation = true;
  madvise_counter("cacheline_consolidation", "coherence.transfers", cacheline);

  OptimizationSet in_context;
  in_context.in_context_flush = true;
  madvise_counter("in_context_flush", "shootdown.invpcid_issued", in_context);

  out.push_back({"cow_avoidance", "shootdown.cow_flushes", static_cast<double>(CowFlushes(false)),
                 static_cast<double>(CowFlushes(true))});

  out.push_back({"userspace_batching", "apic.ipis_sent", static_cast<double>(MsyncIpis(false)),
                 static_cast<double>(MsyncIpis(true))});
  return out;
}

}  // namespace
}  // namespace tlbsim

int main(int argc, char** argv) {
  using namespace tlbsim;
  BenchReport report("table3_summary", argc, argv);
  Json config = Json::Object();
  config["runs"] = kRuns;
  config["iterations"] = kIterations;
  report.Set("config", std::move(config));

  std::printf("# Table 3: [initiator / responder] latency reduction, initiator and\n");
  std::printf("# responder on different sockets, all four Section-3 techniques applied.\n");
  std::printf("# Paper reference: 1 PTE  safe 39%%/13%%  unsafe 39%%/18%%\n");
  std::printf("#                  10 PTE safe 58%%/22%%  unsafe 54%%/14%%\n\n");
  std::printf("%-9s %-22s %-22s\n", "", "Safe Mode", "Unsafe Mode");
  int rc = 0;
  Json last_metrics;
  double one_pte_safe = 0;  // 1-PTE initiator reductions
  double one_pte_unsafe = 0;
  for (int pages : {1, 10}) {
    Cell safe = Measure(true, pages);
    Cell unsafe = Measure(false, pages);
    std::printf("%d PTE%-3s  %4.0f%% / %-4.0f%%          %4.0f%% / %-4.0f%%\n", pages,
                pages == 1 ? "" : "s", 100 * safe.initiator_reduction,
                100 * safe.responder_reduction, 100 * unsafe.initiator_reduction,
                100 * unsafe.responder_reduction);
    for (const auto* cell : {&safe, &unsafe}) {
      Json row = Json::Object();
      row["pages"] = pages;
      row["mode"] = cell == &safe ? "safe" : "unsafe";
      row["initiator_reduction"] = cell->initiator_reduction;
      row["responder_reduction"] = cell->responder_reduction;
      report.AddRow(std::move(row));
    }
    last_metrics = std::move(safe.metrics);
    // Shape checks: reductions positive; 10-PTE initiator gain exceeds 1-PTE.
    if (safe.initiator_reduction <= 0 || unsafe.initiator_reduction <= 0) {
      rc = 1;
    }
    if (pages == 1) {
      one_pte_safe = safe.initiator_reduction;
      one_pte_unsafe = unsafe.initiator_reduction;
    } else if (safe.initiator_reduction <= one_pte_safe ||
               unsafe.initiator_reduction <= one_pte_unsafe) {
      std::printf("!! 10-PTE initiator gain does not exceed 1-PTE\n");
      rc = 1;
    }
  }
  report.Set("metrics", std::move(last_metrics));

  std::printf("\n# Per-optimization ablations: targeted counter, off vs on\n");
  std::printf("%-26s %-28s %14s %14s\n", "optimization", "counter", "baseline", "optimized");
  Json ablations = Json::Array();
  for (const Ablation& a : RunAblations()) {
    bool strict = a.optimized < a.baseline;
    std::printf("%-26s %-28s %14.0f %14.0f%s\n", a.optimization, a.counter, a.baseline,
                a.optimized, strict ? "" : "  !! no reduction");
    Json entry = Json::Object();
    entry["optimization"] = a.optimization;
    entry["counter"] = a.counter;
    entry["baseline"] = a.baseline;
    entry["optimized"] = a.optimized;
    entry["strict_reduction"] = strict;
    ablations.Append(std::move(entry));
    if (!strict) {
      rc = 1;
    }
  }
  report.Set("ablations", std::move(ablations));
  return report.Finish(rc);
}
