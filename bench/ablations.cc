// Ablation benches for the design choices DESIGN.md calls out:
//   1. x2APIC multicast vs sequential unicast IPIs (the §2.3.2 caveat about
//      RadixVM/LATR evaluations);
//   2. the in-context flush-merge threshold (Linux's 33-entry ceiling);
//   3. the §3.4 (4a) interplay: flush-user-PTEs-until-first-ack vs defer-all;
//   4. (queue backend) ring size: undersized per-responder rings overflow and
//      degrade to flush_all fallbacks.
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "bench/report.h"
#include "src/core/snapshot.h"
#include "src/exec/sweep.h"
#include "src/workloads/churn.h"
#include "src/workloads/microbench.h"
#include "src/workloads/sysbench.h"

namespace tlbsim {
namespace {

struct MulticastResult {
  Cycles madvise_cycles = 0;
  uint64_t icr_writes = 0;
};

MulticastResult MeasureMulticast(bool multicast) {
  SystemConfig cfg;
  cfg.kernel.pti = true;
  cfg.kernel.opts = OptimizationSet::AllGeneral();
  cfg.machine.seed = 5;
  System sys(cfg);
  sys.machine().apic().set_use_multicast(multicast);
  Process* p = sys.kernel().CreateProcess();
  Thread* ti = sys.kernel().CreateThread(p, 0);
  // 20 responder threads spread over both sockets.
  bool stop = false;
  for (int i = 1; i <= 20; ++i) {
    int cpu = i < 11 ? i : 17 + i;
    sys.kernel().CreateThread(p, cpu);
    SimCpu& c = sys.machine().cpu(cpu);
    c.Spawn([](SimCpu& cc, const bool* s) -> SimTask {
      while (!*s) {
        co_await cc.Execute(500);
      }
    }(c, &stop));
  }
  Cycles dur = 0;
  sys.machine().cpu(0).Spawn([](System& s, Thread& t, Cycles* out, bool* st) -> SimTask {
    Kernel& k = s.kernel();
    uint64_t a = co_await k.SysMmap(t, 10 * kPageSize4K, true, false);
    RunningStat stat;
    for (int it = 0; it < 100; ++it) {
      for (int i = 0; i < 10; ++i) {
        co_await k.UserAccess(t, a + static_cast<uint64_t>(i) * kPageSize4K, true);
      }
      Cycles t0 = s.machine().cpu(0).now();
      co_await k.SysMadviseDontneed(t, a, 10 * kPageSize4K);
      stat.Add(static_cast<double>(s.machine().cpu(0).now() - t0));
    }
    *out = static_cast<Cycles>(stat.mean());
    *st = true;
  }(sys, *ti, &dur, &stop));
  sys.machine().engine().Run();
  return MulticastResult{dur, sys.machine().apic().stats().icr_writes};
}

void MulticastAblation(SweepRunner* runner, BenchReport* report) {
  std::vector<std::function<MulticastResult()>> jobs;
  for (bool multicast : {true, false}) {
    jobs.emplace_back([multicast] { return MeasureMulticast(multicast); });
  }
  std::vector<MulticastResult> results = runner->Run(std::move(jobs));

  std::printf("== Ablation 1: multicast vs unicast IPIs (the §2.3.2 caveat) ==\n");
  size_t next = 0;
  for (bool multicast : {true, false}) {
    MulticastResult& r = results[next++];
    std::printf("  %-10s madvise over 20 remote CPUs: %lld cycles, ICR writes: %llu\n",
                multicast ? "multicast:" : "unicast:", static_cast<long long>(r.madvise_cycles),
                static_cast<unsigned long long>(r.icr_writes));
    Json row = Json::Object();
    row["ablation"] = "multicast_vs_unicast";
    row["multicast"] = multicast;
    row["madvise_cycles"] = static_cast<int64_t>(r.madvise_cycles);
    row["icr_writes"] = r.icr_writes;
    report->AddRow(std::move(row));
  }
  std::printf("\n");
}

Cycles MeasureThreshold(uint64_t threshold) {
  SystemConfig cfg;
  cfg.kernel.pti = true;
  cfg.kernel.opts = OptimizationSet::AllGeneral();
  cfg.kernel.flush_full_threshold = threshold;
  cfg.machine.seed = 5;
  System sys(cfg);
  Process* p = sys.kernel().CreateProcess();
  Thread* ti = sys.kernel().CreateThread(p, 0);
  sys.kernel().CreateThread(p, 30);
  bool stop = false;
  SimCpu& rc = sys.machine().cpu(30);
  rc.Spawn([](SimCpu& cc, const bool* s) -> SimTask {
    while (!*s) {
      co_await cc.Execute(500);
    }
  }(rc, &stop));
  Cycles dur = 0;
  sys.machine().cpu(0).Spawn([](System& s, Thread& t, Cycles* out, bool* st) -> SimTask {
    Kernel& k = s.kernel();
    uint64_t a = co_await k.SysMmap(t, 24 * kPageSize4K, true, false);
    RunningStat stat;
    for (int it = 0; it < 100; ++it) {
      for (int i = 0; i < 24; ++i) {
        co_await k.UserAccess(t, a + static_cast<uint64_t>(i) * kPageSize4K, true);
      }
      Cycles t0 = s.machine().cpu(0).now();
      co_await k.SysMadviseDontneed(t, a, 24 * kPageSize4K);
      stat.Add(static_cast<double>(s.machine().cpu(0).now() - t0));
    }
    *out = static_cast<Cycles>(stat.mean());
    *st = true;
  }(sys, *ti, &dur, &stop));
  sys.machine().engine().Run();
  return dur;
}

void ThresholdAblation(SweepRunner* runner, BenchReport* report) {
  constexpr uint64_t kThresholds[] = {4, 8, 16, 33, 64};
  std::vector<std::function<Cycles()>> jobs;
  for (uint64_t threshold : kThresholds) {
    jobs.emplace_back([threshold] { return MeasureThreshold(threshold); });
  }
  std::vector<Cycles> results = runner->Run(std::move(jobs));

  std::printf("== Ablation 2: full-flush threshold (tlb_single_page_flush_ceiling) ==\n");
  std::printf("  madvise of 24 PTEs, cross-socket responder, all-general opts, safe\n");
  size_t next = 0;
  for (uint64_t threshold : kThresholds) {
    Cycles dur = results[next++];
    std::printf("  threshold %2llu: madvise %lld cycles (%s)\n",
                static_cast<unsigned long long>(threshold), static_cast<long long>(dur),
                threshold < 24 ? "full flushes" : "selective");
    Json row = Json::Object();
    row["ablation"] = "full_flush_threshold";
    row["threshold"] = threshold;
    row["madvise_cycles"] = static_cast<int64_t>(dur);
    row["regime"] = threshold < 24 ? "full flushes" : "selective";
    report->AddRow(std::move(row));
  }
  std::printf("\n");
}

void FourAAblation(SweepRunner* runner, BenchReport* report) {
  std::vector<std::function<MicroResult()>> jobs;
  for (bool concurrent : {true, false}) {
    jobs.emplace_back([concurrent] {
      MicroConfig cfg;
      cfg.pti = true;
      cfg.pages = 10;
      cfg.placement = Placement::kOtherSocket;
      cfg.iterations = 300;
      cfg.opts = OptimizationSet::AllGeneral();
      cfg.opts.concurrent_flush = concurrent;  // off: defer-all, no spare cycles
      cfg.seed = 9;
      return RunMadviseMicrobench(cfg);
    });
  }
  std::vector<MicroResult> results = runner->Run(std::move(jobs));

  std::printf("== Ablation 3: in-context 4a interplay (eager-until-first-ack) ==\n");
  size_t next = 0;
  for (bool concurrent : {true, false}) {
    MicroResult& r = results[next++];
    std::printf("  concurrent=%d: initiator %.0f cyc, responder %.0f cyc\n", concurrent,
                r.initiator.mean(), r.responder_cycles_per_op);
    Json row = Json::Object();
    row["ablation"] = "in_context_4a_interplay";
    row["concurrent_flush"] = concurrent;
    row["initiator_cycles"] = r.initiator.mean();
    row["responder_cycles"] = r.responder_cycles_per_op;
    report->AddRow(std::move(row));
    report->SetMetrics(FlushBackendKind::kIpi, std::move(r.metrics));  // last: defer-all variant
  }
  std::printf("\n");
}

struct QueueRingResult {
  Cycles madvise_cycles = 0;
  uint64_t ring_overflows = 0;
  uint64_t fallbacks = 0;
  uint64_t resends = 0;
  uint64_t max_occupancy = 0;
  Json metrics;
};

// 24-PTE madvise storm against one cross-socket responder, queue backend:
// rings smaller than the flush batch overflow on every iteration and fall
// back to flush_all, while the default 64-entry ring absorbs it selectively.
QueueRingResult MeasureQueueRing(int ring_entries) {
  SystemConfig cfg;
  cfg.kernel.pti = true;
  cfg.kernel.opts = OptimizationSet::AllGeneral();
  cfg.machine.costs.queue_ring_entries = ring_entries;
  cfg.machine.seed = 5;
  cfg.backend = FlushBackendKind::kQueue;
  System sys(cfg);
  Process* p = sys.kernel().CreateProcess();
  Thread* ti = sys.kernel().CreateThread(p, 0);
  sys.kernel().CreateThread(p, 30);
  bool stop = false;
  SimCpu& rc = sys.machine().cpu(30);
  rc.Spawn([](SimCpu& cc, const bool* s) -> SimTask {
    while (!*s) {
      co_await cc.Execute(500);
    }
  }(rc, &stop));
  Cycles dur = 0;
  sys.machine().cpu(0).Spawn([](System& s, Thread& t, Cycles* out, bool* st) -> SimTask {
    Kernel& k = s.kernel();
    uint64_t a = co_await k.SysMmap(t, 24 * kPageSize4K, true, false);
    RunningStat stat;
    for (int it = 0; it < 100; ++it) {
      for (int i = 0; i < 24; ++i) {
        co_await k.UserAccess(t, a + static_cast<uint64_t>(i) * kPageSize4K, true);
      }
      Cycles t0 = s.machine().cpu(0).now();
      co_await k.SysMadviseDontneed(t, a, 24 * kPageSize4K);
      stat.Add(static_cast<double>(s.machine().cpu(0).now() - t0));
    }
    *out = static_cast<Cycles>(stat.mean());
    *st = true;
  }(sys, *ti, &dur, &stop));
  sys.machine().engine().Run();
  const QueueFlushBackend::Stats& qs = sys.queue()->stats();
  QueueRingResult r;
  r.madvise_cycles = dur;
  r.ring_overflows = qs.ring_overflows;
  r.fallbacks = qs.flush_all_fallbacks;
  r.resends = qs.ipi_resends;
  r.max_occupancy = qs.max_ring_occupancy;
  r.metrics = SystemMetricsJson(sys);
  return r;
}

void QueueRingAblation(SweepRunner* runner, BenchReport* report) {
  constexpr int kRings[] = {8, 16, 64};
  std::vector<std::function<QueueRingResult()>> jobs;
  for (int ring : kRings) {
    jobs.emplace_back([ring] { return MeasureQueueRing(ring); });
  }
  std::vector<QueueRingResult> results = runner->Run(std::move(jobs));

  std::printf("== Ablation 4: queue backend ring size (overflow -> flush_all) ==\n");
  std::printf("  madvise of 24 PTEs x100, cross-socket responder, queue backend\n");
  size_t next = 0;
  Json overflow_metrics;
  for (int ring : kRings) {
    QueueRingResult& r = results[next++];
    std::printf("  ring %2d: madvise %lld cycles, overflows %llu, fallbacks %llu,"
                " resends %llu, max occupancy %llu\n",
                ring, static_cast<long long>(r.madvise_cycles),
                static_cast<unsigned long long>(r.ring_overflows),
                static_cast<unsigned long long>(r.fallbacks),
                static_cast<unsigned long long>(r.resends),
                static_cast<unsigned long long>(r.max_occupancy));
    Json row = Json::Object();
    row["ablation"] = "queue_ring_size";
    row["backend"] = "queue";
    row["ring_entries"] = ring;
    row["madvise_cycles"] = static_cast<int64_t>(r.madvise_cycles);
    row["ring_overflows"] = r.ring_overflows;
    row["flush_all_fallbacks"] = r.fallbacks;
    row["ipi_resends"] = r.resends;
    row["max_ring_occupancy"] = r.max_occupancy;
    report->AddRow(std::move(row));
    if (ring == kRings[0]) {
      // Smallest ring: every madvise overflows, so this snapshot is the one
      // whose queue.ring_overflows / queue.flush_all_fallbacks counters the
      // CI gate requires to be nonzero.
      overflow_metrics = std::move(r.metrics);
    }
  }
  report->SetMetrics(FlushBackendKind::kQueue, std::move(overflow_metrics));
  std::printf("\n");
}

// Ablation 5: queue cost-knob crossover. The queue backend's initiator cost
// is governed by three knobs (ring capacity, initial spin budget, backoff
// multiplier); this sweep runs the 24-PTE madvise storm across their grid
// and puts the IPI protocol's cost on the same storm next to it, exposing
// where the async protocol crosses over the synchronous one.
struct CrossoverPoint {
  FlushBackendKind backend = FlushBackendKind::kQueue;
  int ring_entries = 64;
  Cycles initial_spin = 2000;
  int backoff_mult = 4;
};

struct CrossoverResult {
  Cycles madvise_cycles = 0;
  uint64_t spin_polls = 0;
  uint64_t spin_cycles = 0;
  uint64_t ipi_resends = 0;
  uint64_t fallbacks = 0;
  uint64_t ack_timeouts = 0;
};

CrossoverResult MeasureCrossover(const CrossoverPoint& pt) {
  SystemConfig cfg;
  cfg.kernel.pti = true;
  cfg.kernel.opts = OptimizationSet::AllGeneral();
  cfg.machine.seed = 5;
  cfg.backend = pt.backend;
  cfg.machine.costs.queue_ring_entries = pt.ring_entries;
  cfg.machine.costs.queue_initial_spin = pt.initial_spin;
  cfg.machine.costs.queue_backoff_mult = pt.backoff_mult;
  System sys(cfg);
  Process* p = sys.kernel().CreateProcess();
  Thread* ti = sys.kernel().CreateThread(p, 0);
  sys.kernel().CreateThread(p, 30);
  bool stop = false;
  SimCpu& rc = sys.machine().cpu(30);
  rc.Spawn([](SimCpu& cc, const bool* s) -> SimTask {
    while (!*s) {
      co_await cc.Execute(500);
    }
  }(rc, &stop));
  Cycles dur = 0;
  sys.machine().cpu(0).Spawn([](System& s, Thread& t, Cycles* out, bool* st) -> SimTask {
    Kernel& k = s.kernel();
    uint64_t a = co_await k.SysMmap(t, 24 * kPageSize4K, true, false);
    RunningStat stat;
    for (int it = 0; it < 100; ++it) {
      for (int i = 0; i < 24; ++i) {
        co_await k.UserAccess(t, a + static_cast<uint64_t>(i) * kPageSize4K, true);
      }
      Cycles t0 = s.machine().cpu(0).now();
      co_await k.SysMadviseDontneed(t, a, 24 * kPageSize4K);
      stat.Add(static_cast<double>(s.machine().cpu(0).now() - t0));
    }
    *out = static_cast<Cycles>(stat.mean());
    *st = true;
  }(sys, *ti, &dur, &stop));
  sys.machine().engine().Run();
  CrossoverResult r;
  r.madvise_cycles = dur;
  if (sys.queue() != nullptr) {
    const QueueFlushBackend::Stats& qs = sys.queue()->stats();
    r.spin_polls = qs.spin_polls;
    r.spin_cycles = qs.spin_cycles;
    r.ipi_resends = qs.ipi_resends;
    r.fallbacks = qs.flush_all_fallbacks;
    r.ack_timeouts = qs.ack_timeouts;
  }
  return r;
}

void QueueCrossoverAblation(SweepRunner* runner, BenchReport* report) {
  constexpr int kRings[] = {8, 64};
  constexpr Cycles kSpins[] = {500, 2000, 8000};
  constexpr int kBackoffs[] = {2, 4};

  std::vector<CrossoverPoint> points;
  points.push_back(CrossoverPoint{FlushBackendKind::kIpi, 64, 2000, 4});  // baseline
  for (int ring : kRings) {
    for (Cycles spin : kSpins) {
      for (int backoff : kBackoffs) {
        points.push_back(CrossoverPoint{FlushBackendKind::kQueue, ring, spin, backoff});
      }
    }
  }
  std::vector<std::function<CrossoverResult()>> jobs;
  for (const CrossoverPoint& pt : points) {
    jobs.emplace_back([pt] { return MeasureCrossover(pt); });
  }
  std::vector<CrossoverResult> results = runner->Run(std::move(jobs));

  std::printf("== Ablation 5: queue cost-knob crossover vs IPI ==\n");
  std::printf("  madvise of 24 PTEs x100, cross-socket responder\n");
  Cycles ipi_cycles = results[0].madvise_cycles;
  for (size_t i = 0; i < points.size(); ++i) {
    const CrossoverPoint& pt = points[i];
    const CrossoverResult& r = results[i];
    bool queue = pt.backend == FlushBackendKind::kQueue;
    double vs_ipi = ipi_cycles > 0
                        ? static_cast<double>(r.madvise_cycles) / static_cast<double>(ipi_cycles)
                        : 0.0;
    if (queue) {
      std::printf("  queue ring %2d spin %4lld backoff %d: %lld cycles (%.2fx IPI),"
                  " polls %llu, resends %llu, fallbacks %llu\n",
                  pt.ring_entries, static_cast<long long>(pt.initial_spin), pt.backoff_mult,
                  static_cast<long long>(r.madvise_cycles), vs_ipi,
                  static_cast<unsigned long long>(r.spin_polls),
                  static_cast<unsigned long long>(r.ipi_resends),
                  static_cast<unsigned long long>(r.fallbacks));
    } else {
      std::printf("  ipi baseline: %lld cycles\n", static_cast<long long>(r.madvise_cycles));
    }
    Json row = Json::Object();
    row["ablation"] = "queue_cost_crossover";
    row["backend"] = queue ? "queue" : "ipi";
    if (queue) {
      row["ring_entries"] = pt.ring_entries;
      row["initial_spin"] = static_cast<int64_t>(pt.initial_spin);
      row["backoff_mult"] = pt.backoff_mult;
    }
    row["madvise_cycles"] = static_cast<int64_t>(r.madvise_cycles);
    row["vs_ipi"] = vs_ipi;
    if (queue) {
      row["spin_polls"] = r.spin_polls;
      row["spin_cycles"] = r.spin_cycles;
      row["ipi_resends"] = r.ipi_resends;
      row["flush_all_fallbacks"] = r.fallbacks;
      row["ack_timeouts"] = r.ack_timeouts;
    }
    report->AddRow(std::move(row));
  }
  std::printf("\n");
}

// Ablation 6: reuse-aware flush elision (Optimization #7). The two high-churn
// workloads from src/workloads/churn.h run with the flag off and on; the on
// rows surface how many zap-time shootdowns were elided and how the deferred
// obligations closed (benign refault / forced flush / allocator hand-off).
struct ReuseElisionResult {
  double off_rounds_per_mcycle = 0.0;
  double on_rounds_per_mcycle = 0.0;
  uint64_t off_flush_requests = 0;
  uint64_t on_flush_requests = 0;
  uint64_t elided_flushes = 0;
  uint64_t benign_closes = 0;
  uint64_t forced_flushes = 0;
  uint64_t frame_handoffs = 0;
};

ReuseElisionResult MeasureReuseElision(bool pagecache, FlushBackendKind backend) {
  ReuseElisionResult r;
  for (bool elision : {false, true}) {
    ChurnConfig cfg;
    cfg.threads = 4;
    cfg.opts = OptimizationSet::AllGeneral();
    cfg.opts.reuse_elision = elision;
    cfg.seed = 21;
    cfg.backend = backend;
    ChurnResult cr = pagecache ? RunChurnPagecache(cfg) : RunChurnArena(cfg);
    if (elision) {
      r.on_rounds_per_mcycle = cr.rounds_per_mcycle;
      r.on_flush_requests = cr.flush_requests;
      r.elided_flushes = cr.elided_flushes;
      r.benign_closes = cr.benign_closes;
      r.forced_flushes = cr.forced_flushes;
      r.frame_handoffs = cr.frame_handoffs;
    } else {
      r.off_rounds_per_mcycle = cr.rounds_per_mcycle;
      r.off_flush_requests = cr.flush_requests;
    }
  }
  return r;
}

void ReuseElisionAblation(SweepRunner* runner, BenchReport* report) {
  std::vector<std::pair<bool, FlushBackendKind>> points;
  for (FlushBackendKind backend : report->backends()) {
    for (bool pagecache : {false, true}) {
      points.emplace_back(pagecache, backend);
    }
  }
  std::vector<std::function<ReuseElisionResult()>> jobs;
  for (auto& [pagecache, backend] : points) {
    bool pc = pagecache;
    FlushBackendKind b = backend;
    jobs.emplace_back([pc, b] { return MeasureReuseElision(pc, b); });
  }
  std::vector<ReuseElisionResult> results = runner->Run(std::move(jobs));

  std::printf("== Ablation 6: reuse-aware flush elision (Optimization #7) ==\n");
  std::printf("  high-churn workloads, 4 threads, all-general opts, safe mode\n");
  for (size_t i = 0; i < points.size(); ++i) {
    auto& [pagecache, backend] = points[i];
    ReuseElisionResult& r = results[i];
    double speedup = r.off_rounds_per_mcycle > 0.0
                         ? r.on_rounds_per_mcycle / r.off_rounds_per_mcycle
                         : 0.0;
    std::printf("  %-5s %-9s off %8.2f on %8.2f rnd/Mcyc (%.2fx), elided %llu,"
                " benign %llu, forced %llu, handoffs %llu\n",
                FlushBackendName(backend), pagecache ? "pagecache" : "arena",
                r.off_rounds_per_mcycle, r.on_rounds_per_mcycle, speedup,
                static_cast<unsigned long long>(r.elided_flushes),
                static_cast<unsigned long long>(r.benign_closes),
                static_cast<unsigned long long>(r.forced_flushes),
                static_cast<unsigned long long>(r.frame_handoffs));
    Json row = Json::Object();
    row["ablation"] = "reuse_elision_churn";
    row["backend"] = FlushBackendName(backend);
    row["workload"] = pagecache ? "pagecache" : "arena";
    row["off_rounds_per_mcycle"] = r.off_rounds_per_mcycle;
    row["on_rounds_per_mcycle"] = r.on_rounds_per_mcycle;
    row["speedup"] = speedup;
    row["off_flush_requests"] = r.off_flush_requests;
    row["on_flush_requests"] = r.on_flush_requests;
    row["elided_flushes"] = r.elided_flushes;
    row["benign_closes"] = r.benign_closes;
    row["forced_flushes"] = r.forced_flushes;
    row["frame_handoffs"] = r.frame_handoffs;
    report->AddRow(std::move(row));
  }
  std::printf("\n");
}

}  // namespace
}  // namespace tlbsim

int main(int argc, char** argv) {
  using namespace tlbsim;
  BenchReport report("ablations", argc, argv);
  report.SetConfig(Json::Object());
  // One runner for all ablation sweeps; stats (and the "host" section)
  // accumulate across the Run() calls. Ablations 1-3 probe IPI-protocol
  // design choices; ablation 4 is specific to the queue backend.
  SweepRunner runner(report.threads());
  MulticastAblation(&runner, &report);
  ThresholdAblation(&runner, &report);
  FourAAblation(&runner, &report);
  if (!report.ipi_only()) {
    QueueRingAblation(&runner, &report);
    // Includes its own IPI-baseline row: the crossover is only meaningful
    // with the queue protocol side by side, so it rides the queue axis.
    QueueCrossoverAblation(&runner, &report);
  }
  // Runs on every backend of this invocation (the elision is
  // backend-independent, so each axis gets its own off/on pair).
  ReuseElisionAblation(&runner, &report);
  report.SetHost(runner);
  return report.Finish(0);
}
