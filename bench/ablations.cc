// Ablation benches for the design choices DESIGN.md calls out:
//   1. x2APIC multicast vs sequential unicast IPIs (the §2.3.2 caveat about
//      RadixVM/LATR evaluations);
//   2. the in-context flush-merge threshold (Linux's 33-entry ceiling);
//   3. the §3.4 (4a) interplay: flush-user-PTEs-until-first-ack vs defer-all;
//   4. (queue backend) ring size: undersized per-responder rings overflow and
//      degrade to flush_all fallbacks;
//   5. (queue backend) the queue cost knobs' crossover against IPI;
//   6. reuse-aware flush elision (Optimization #7) on the churn workloads.
// Ablations 1-5 are runs of the §5.1 madvise microbenchmark.
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "bench/report.h"
#include "src/exec/sweep.h"
#include "src/workloads/churn.h"
#include "src/workloads/microbench.h"

namespace tlbsim {
namespace {

// Runs one madvise microbenchmark per config; results in config order.
std::vector<MicroResult> RunMicro(SweepRunner* runner, const std::vector<MicroConfig>& configs) {
  std::vector<std::function<MicroResult()>> jobs;
  for (const MicroConfig& cfg : configs) {
    jobs.emplace_back([cfg] { return RunMadviseMicrobench(cfg); });
  }
  return runner->Run(std::move(jobs));
}

// The storm ablations 1-5 vary: madvise of `pages` PTEs x100 against a
// cross-socket responder, all-general opts, safe mode, seed 5.
MicroConfig Storm(int pages) {
  MicroConfig cfg;
  cfg.system.kernel.opts = OptimizationSet::AllGeneral();
  cfg.system.machine.seed = 5;
  cfg.pages = pages;
  cfg.iterations = 100;
  return cfg;
}

Cycles MadviseCycles(const MicroResult& r) { return static_cast<Cycles>(r.initiator.mean()); }

void MulticastAblation(SweepRunner* runner, BenchReport* report) {
  std::vector<MicroConfig> configs;
  for (bool multicast : {true, false}) {
    MicroConfig cfg = Storm(10);
    // 20 responder threads spread over both sockets.
    cfg.responders.clear();
    for (int i = 1; i <= 20; ++i) {
      cfg.responders.push_back(i < 11 ? i : 17 + i);
    }
    cfg.ipi_multicast = multicast;
    configs.push_back(std::move(cfg));
  }
  std::vector<MicroResult> results = RunMicro(runner, configs);

  std::printf("== Ablation 1: multicast vs unicast IPIs (the §2.3.2 caveat) ==\n");
  for (size_t i = 0; i < configs.size(); ++i) {
    bool multicast = configs[i].ipi_multicast;
    Cycles cycles = MadviseCycles(results[i]);
    uint64_t icr_writes = BenchReport::Counter(results[i].metrics, "apic.icr_writes");
    std::printf("  %-10s madvise over 20 remote CPUs: %lld cycles, ICR writes: %llu\n",
                multicast ? "multicast:" : "unicast:", static_cast<long long>(cycles),
                static_cast<unsigned long long>(icr_writes));
    Json row = Json::Object();
    row["ablation"] = "multicast_vs_unicast";
    row["multicast"] = multicast;
    row["madvise_cycles"] = static_cast<int64_t>(cycles);
    row["icr_writes"] = icr_writes;
    report->AddRow(std::move(row));
  }
  std::printf("\n");
}

void ThresholdAblation(SweepRunner* runner, BenchReport* report) {
  std::vector<MicroConfig> configs;
  for (uint64_t threshold : {4, 8, 16, 33, 64}) {
    MicroConfig cfg = Storm(24);
    cfg.system.kernel.flush_full_threshold = threshold;
    configs.push_back(std::move(cfg));
  }
  std::vector<MicroResult> results = RunMicro(runner, configs);

  std::printf("== Ablation 2: full-flush threshold (tlb_single_page_flush_ceiling) ==\n");
  std::printf("  madvise of 24 PTEs, cross-socket responder, all-general opts, safe\n");
  for (size_t i = 0; i < configs.size(); ++i) {
    uint64_t threshold = configs[i].system.kernel.flush_full_threshold;
    Cycles dur = MadviseCycles(results[i]);
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
  std::vector<MicroConfig> configs;
  for (bool concurrent : {true, false}) {
    MicroConfig cfg = Storm(10);
    cfg.system.kernel.opts.concurrent_flush = concurrent;  // off: defer-all, no spare cycles
    cfg.system.machine.seed = 9;
    cfg.iterations = 300;
    configs.push_back(std::move(cfg));
  }
  std::vector<MicroResult> results = RunMicro(runner, configs);

  std::printf("== Ablation 3: in-context 4a interplay (eager-until-first-ack) ==\n");
  for (size_t i = 0; i < configs.size(); ++i) {
    bool concurrent = configs[i].system.kernel.opts.concurrent_flush;
    MicroResult& r = results[i];
    std::printf("  concurrent=%d: initiator %.0f cyc, responder %.0f cyc\n", concurrent,
                r.initiator.mean(), r.responder_cycles_per_op);
    Json row = Json::Object();
    row["ablation"] = "in_context_4a_interplay";
    row["concurrent_flush"] = concurrent;
    row["initiator_cycles"] = r.initiator.mean();
    row["responder_cycles"] = r.responder_cycles_per_op;
    report->AddRow(std::move(row));
    report->Set("metrics", std::move(r.metrics));  // last: defer-all variant
  }
  std::printf("\n");
}

// 24-PTE madvise storm on the queue backend: rings smaller than the flush
// batch overflow on every iteration and fall back to flush_all, while the
// default 64-entry ring absorbs it selectively.
void QueueRingAblation(SweepRunner* runner, BenchReport* report) {
  std::vector<MicroConfig> configs;
  for (int ring : {8, 16, 64}) {
    MicroConfig cfg = Storm(24);
    cfg.system.backend = FlushBackendKind::kQueue;
    cfg.system.machine.costs.queue_ring_entries = ring;
    configs.push_back(std::move(cfg));
  }
  std::vector<MicroResult> results = RunMicro(runner, configs);

  std::printf("== Ablation 4: queue backend ring size (overflow -> flush_all) ==\n");
  std::printf("  madvise of 24 PTEs x100, cross-socket responder, queue backend\n");
  for (size_t i = 0; i < configs.size(); ++i) {
    int ring = configs[i].system.machine.costs.queue_ring_entries;
    const Json& m = results[i].metrics;
    Cycles cycles = MadviseCycles(results[i]);
    uint64_t overflows = BenchReport::Counter(m, "queue.ring_overflows");
    uint64_t fallbacks = BenchReport::Counter(m, "queue.flush_all_fallbacks");
    uint64_t resends = BenchReport::Counter(m, "queue.ipi_resends");
    uint64_t max_occupancy = BenchReport::Counter(m, "queue.max_ring_occupancy");
    std::printf("  ring %2d: madvise %lld cycles, overflows %llu, fallbacks %llu,"
                " resends %llu, max occupancy %llu\n",
                ring, static_cast<long long>(cycles), static_cast<unsigned long long>(overflows),
                static_cast<unsigned long long>(fallbacks),
                static_cast<unsigned long long>(resends),
                static_cast<unsigned long long>(max_occupancy));
    Json row = Json::Object();
    row["ablation"] = "queue_ring_size";
    row["backend"] = "queue";
    row["ring_entries"] = ring;
    row["madvise_cycles"] = static_cast<int64_t>(cycles);
    row["ring_overflows"] = overflows;
    row["flush_all_fallbacks"] = fallbacks;
    row["ipi_resends"] = resends;
    row["max_ring_occupancy"] = max_occupancy;
    report->AddRow(std::move(row));
  }
  std::printf("\n");
}

// Ablation 5: queue cost-knob crossover. The queue backend's initiator cost
// is governed by three knobs (ring capacity, initial spin budget, backoff
// multiplier); this sweep runs the 24-PTE madvise storm across their grid
// and puts the IPI protocol's cost on the same storm next to it, exposing
// where the async protocol crosses over the synchronous one.
void QueueCrossoverAblation(SweepRunner* runner, BenchReport* report) {
  std::vector<MicroConfig> configs = {Storm(24)};  // IPI baseline
  for (int ring : {8, 64}) {
    for (Cycles spin : {500, 2000, 8000}) {
      for (int backoff : {2, 4}) {
        MicroConfig cfg = Storm(24);
        cfg.system.backend = FlushBackendKind::kQueue;
        cfg.system.machine.costs.queue_ring_entries = ring;
        cfg.system.machine.costs.queue_initial_spin = spin;
        cfg.system.machine.costs.queue_backoff_mult = backoff;
        configs.push_back(std::move(cfg));
      }
    }
  }
  std::vector<MicroResult> results = RunMicro(runner, configs);

  std::printf("== Ablation 5: queue cost-knob crossover vs IPI ==\n");
  std::printf("  madvise of 24 PTEs x100, cross-socket responder\n");
  Cycles ipi_cycles = MadviseCycles(results[0]);
  for (size_t i = 0; i < configs.size(); ++i) {
    const CostModel& costs = configs[i].system.machine.costs;
    const Json& m = results[i].metrics;
    bool queue = configs[i].system.backend == FlushBackendKind::kQueue;
    Cycles cycles = MadviseCycles(results[i]);
    double vs_ipi =
        ipi_cycles > 0 ? static_cast<double>(cycles) / static_cast<double>(ipi_cycles) : 0.0;
    if (queue) {
      std::printf("  queue ring %2d spin %4lld backoff %d: %lld cycles (%.2fx IPI),"
                  " polls %llu, resends %llu, fallbacks %llu\n",
                  costs.queue_ring_entries, static_cast<long long>(costs.queue_initial_spin),
                  costs.queue_backoff_mult, static_cast<long long>(cycles), vs_ipi,
                  static_cast<unsigned long long>(BenchReport::Counter(m, "queue.spin_polls")),
                  static_cast<unsigned long long>(BenchReport::Counter(m, "queue.ipi_resends")),
                  static_cast<unsigned long long>(
                      BenchReport::Counter(m, "queue.flush_all_fallbacks")));
    } else {
      std::printf("  ipi baseline: %lld cycles\n", static_cast<long long>(cycles));
    }
    Json row = Json::Object();
    row["ablation"] = "queue_cost_crossover";
    row["backend"] = queue ? "queue" : "ipi";
    if (queue) {
      row["ring_entries"] = costs.queue_ring_entries;
      row["initial_spin"] = static_cast<int64_t>(costs.queue_initial_spin);
      row["backoff_mult"] = costs.queue_backoff_mult;
    }
    row["madvise_cycles"] = static_cast<int64_t>(cycles);
    row["vs_ipi"] = vs_ipi;
    if (queue) {
      row["spin_polls"] = BenchReport::Counter(m, "queue.spin_polls");
      row["spin_cycles"] = BenchReport::Counter(m, "queue.spin_cycles");
      row["ipi_resends"] = BenchReport::Counter(m, "queue.ipi_resends");
      row["flush_all_fallbacks"] = BenchReport::Counter(m, "queue.flush_all_fallbacks");
      row["ack_timeouts"] = BenchReport::Counter(m, "queue.ack_timeouts");
    }
    report->AddRow(std::move(row));
  }
  std::printf("\n");
}

// Ablation 6: reuse-aware flush elision (Optimization #7) on the IPI
// protocol. The two high-churn workloads from src/workloads/churn.h run with
// the flag off and on; the on rows surface how many zap-time shootdowns were
// elided and how the deferred obligations closed (benign refault / forced
// flush / allocator hand-off).
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

ReuseElisionResult MeasureReuseElision(bool pagecache) {
  ReuseElisionResult r;
  for (bool elision : {false, true}) {
    ChurnConfig cfg;
    cfg.threads = 4;
    cfg.opts = OptimizationSet::AllGeneral();
    cfg.opts.reuse_elision = elision;
    cfg.seed = 21;
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
  std::vector<std::function<ReuseElisionResult()>> jobs;
  for (bool pagecache : {false, true}) {
    jobs.emplace_back([pagecache] { return MeasureReuseElision(pagecache); });
  }
  std::vector<ReuseElisionResult> results = runner->Run(std::move(jobs));

  std::printf("== Ablation 6: reuse-aware flush elision (Optimization #7) ==\n");
  std::printf("  high-churn workloads, 4 threads, all-general opts, safe mode\n");
  for (size_t i = 0; i < results.size(); ++i) {
    bool pagecache = i == 1;
    ReuseElisionResult& r = results[i];
    double speedup = r.off_rounds_per_mcycle > 0.0
                         ? r.on_rounds_per_mcycle / r.off_rounds_per_mcycle
                         : 0.0;
    std::printf("  ipi   %-9s off %8.2f on %8.2f rnd/Mcyc (%.2fx), elided %llu,"
                " benign %llu, forced %llu, handoffs %llu\n",
                pagecache ? "pagecache" : "arena", r.off_rounds_per_mcycle,
                r.on_rounds_per_mcycle, speedup,
                static_cast<unsigned long long>(r.elided_flushes),
                static_cast<unsigned long long>(r.benign_closes),
                static_cast<unsigned long long>(r.forced_flushes),
                static_cast<unsigned long long>(r.frame_handoffs));
    Json row = Json::Object();
    row["ablation"] = "reuse_elision_churn";
    row["backend"] = "ipi";
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
  // One runner for all ablation sweeps; stats (and the "host" section)
  // accumulate across the Run() calls. Ablations 1-3 probe IPI-protocol
  // design choices; ablations 4-5 are specific to the queue backend.
  SweepRunner runner(report.threads());
  MulticastAblation(&runner, &report);
  ThresholdAblation(&runner, &report);
  FourAAblation(&runner, &report);
  QueueRingAblation(&runner, &report);
  QueueCrossoverAblation(&runner, &report);
  ReuseElisionAblation(&runner, &report);
  report.SetHost(runner);
  return report.Finish(0);
}
