// Workload drivers: determinism, paper-shape assertions for each experiment
// family (cheap versions of the bench checks, suitable for CI), every case
// under the tlbcheck oracle.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <string_view>
#include <tuple>

#include "src/check/check_context.h"
#include "src/workloads/apache.h"
#include "src/workloads/churn.h"
#include "src/workloads/fracture.h"
#include "src/workloads/microbench.h"
#include "src/workloads/sysbench.h"

namespace tlbsim {
namespace {

// Every case runs with the oracle attached to each System it builds and
// fails on any violation. FractureTest's workload drives a bare Machine,
// which no checker attaches to, so the oracle sees nothing of its runs.
class OracleChecked : public ::testing::Test {
 protected:
  void SetUp() override {
    EnableTlbCheckEverywhere();
    ResetGlobalTlbCheckSink();
  }
  void TearDown() override {
    SetCheckEverySystem(false);
    EXPECT_EQ(GlobalTlbCheckViolationCount(), 0u) << GlobalTlbCheckReport().Dump(2);
  }
};
using MicrobenchTest = OracleChecked;
using QueueBaselineTest = OracleChecked;
using CowBenchTest = OracleChecked;
using SysbenchTest = OracleChecked;
using ApacheTest = OracleChecked;
using FractureTest = OracleChecked;
using ChurnTest = OracleChecked;

MicroResult Micro(int level, int pages, Placement p, bool pti = true, uint64_t seed = 1) {
  MicroConfig cfg;
  cfg.system.kernel.pti = pti;
  cfg.system.kernel.opts = OptimizationSet::Cumulative(level);
  cfg.system.machine.seed = seed;
  cfg.pages = pages;
  cfg.responders = {PlacementCpu(p)};
  cfg.iterations = 100;
  return RunMadviseMicrobench(cfg);
}

// The value at `path` in a registry snapshot, e.g. {"counters", "apic.ipis_sent"}.
uint64_t MetricAt(const Json& metrics, std::initializer_list<std::string_view> path) {
  const Json* v = &metrics;
  for (std::string_view key : path) {
    v = v->Find(key);
    if (v == nullptr) {
      ADD_FAILURE() << "no metric " << key;
      return 0;
    }
  }
  return v->AsUint();
}

TEST_F(MicrobenchTest, Deterministic) {
  MicroResult a = Micro(0, 4, Placement::kOtherSocket);
  MicroResult b = Micro(0, 4, Placement::kOtherSocket);
  EXPECT_DOUBLE_EQ(a.initiator.mean(), b.initiator.mean());
  EXPECT_DOUBLE_EQ(a.responder_cycles_per_op, b.responder_cycles_per_op);
}

TEST_F(MicrobenchTest, EveryIterationShootsDown) {
  MicroResult r = Micro(0, 1, Placement::kSameSocket);
  EXPECT_EQ(r.shootdowns, 100u);
  EXPECT_EQ(r.initiator.count(), 100u);
}

// Responders on the SMT sibling, the same socket and the other socket. Each
// shootdown sends one IPI per responder; with x2APIC multicast cpus 1 and 4
// share cluster 0 and cpu 30 sits in cluster 1, so it costs two ICR writes,
// and one per IPI without.
TEST_F(MicrobenchTest, EveryResponderGetsAnIpi) {
  for (bool multicast : {true, false}) {
    SCOPED_TRACE(multicast ? "multicast" : "unicast");
    MicroConfig cfg;
    cfg.system.kernel.opts = OptimizationSet::None();
    cfg.pages = 2;
    cfg.responders = {1, 4, 30};
    cfg.iterations = 20;
    cfg.ipi_multicast = multicast;
    MicroResult r = RunMadviseMicrobench(cfg);
    EXPECT_EQ(r.shootdowns, 20u);
    EXPECT_EQ(MetricAt(r.metrics, {"counters", "apic.ipis_sent"}), 60u);
    EXPECT_EQ(MetricAt(r.metrics, {"counters", "apic.icr_writes"}), multicast ? 40u : 60u);
    uint64_t irq_cycles = 0;
    for (std::string_view cpu : {"1", "4", "30"}) {
      uint64_t c = MetricAt(r.metrics, {"per_cpu", "cpu.cycles_in_irq", "by_cpu", cpu});
      EXPECT_GT(c, 0u) << "cpu " << cpu;
      irq_cycles += c;
    }
    EXPECT_DOUBLE_EQ(r.responder_cycles_per_op, static_cast<double>(irq_cycles) / 3 / 20);
  }
}

TEST_F(MicrobenchTest, ConcurrentFlushingHelpsInitiator) {
  EXPECT_LT(Micro(1, 10, Placement::kOtherSocket).initiator.mean(),
            Micro(0, 10, Placement::kOtherSocket).initiator.mean());
}

TEST_F(MicrobenchTest, ConcurrentBenefitGrowsWithPages) {
  auto gain = [](int pages) {
    double base = Micro(0, pages, Placement::kSameCore).initiator.mean();
    double conc = Micro(1, pages, Placement::kSameCore).initiator.mean();
    return 1.0 - conc / base;
  };
  EXPECT_GT(gain(10), gain(1));
}

TEST_F(MicrobenchTest, EarlyAckBenefitGrowsWithDistance) {
  auto gain = [](Placement p) {
    double before = Micro(2, 10, p).initiator.mean();
    double after = Micro(3, 10, p).initiator.mean();
    return before - after;
  };
  EXPECT_GT(gain(Placement::kOtherSocket), gain(Placement::kSameCore));
}

TEST_F(MicrobenchTest, InContextHelpsResponderInSafeMode) {
  double before = Micro(3, 10, Placement::kOtherSocket).responder_cycles_per_op;
  double after = Micro(4, 10, Placement::kOtherSocket).responder_cycles_per_op;
  EXPECT_LT(after, before);
}

TEST_F(MicrobenchTest, InitiatorLatencyOrdersByDistance) {
  double same_core = Micro(0, 1, Placement::kSameCore).initiator.mean();
  double same_socket = Micro(0, 1, Placement::kSameSocket).initiator.mean();
  double cross = Micro(0, 1, Placement::kOtherSocket).initiator.mean();
  EXPECT_LT(same_core, same_socket);
  EXPECT_LT(same_socket, cross);
}

TEST_F(MicrobenchTest, UnsafeModeFasterThanSafe) {
  EXPECT_LT(Micro(0, 10, Placement::kOtherSocket, /*pti=*/false).initiator.mean(),
            Micro(0, 10, Placement::kOtherSocket, /*pti=*/true).initiator.mean());
}

// The backend, opts and pti a workload config runs with.
std::tuple<FlushBackendKind&, OptimizationSet&, bool&> Knobs(MicroConfig& c) {
  return {c.system.backend, c.system.kernel.opts, c.system.kernel.pti};
}
template <typename Config>
std::tuple<FlushBackendKind&, OptimizationSet&, bool&> Knobs(Config& c) {
  return {c.backend, c.opts, c.pti};
}

ChurnResult Churn(bool pagecache, int threads, FlushBackendKind backend, bool elision = true) {
  ChurnConfig cfg;
  cfg.opts = OptimizationSet::AllGeneral();
  cfg.opts.reuse_elision = elision;
  cfg.threads = threads;
  cfg.iters = 8;
  cfg.backend = backend;
  return pagecache ? RunChurnPagecache(cfg) : RunChurnArena(cfg);
}

// The queue backend on the paper's workloads. It
// implements none of the optimizations the figures sweep (the IPI engine
// holds them all; QueueFlushBackend reads only cow_avoidance), so the
// ablations and related_work run it at None(). Two kernel-side reads could
// still carry a flag into a queue run: the lazy-flag line chosen by
// cacheline_consolidation, and the BeginBatch/EndBatch hooks that
// userspace_batching calls. Each configuration below must therefore give the
// same queue result at None() as with every figure optimization on.
template <typename Config, typename Run, typename Key>
void ExpectQueueIgnoresFigureOpts(Config cfg, Run run, Key key) {
  auto [backend, opts, pti] = Knobs(cfg);
  backend = FlushBackendKind::kQueue;
  auto base = run(cfg);
  opts = OptimizationSet::Cumulative(pti ? 4 : 3);
  opts.userspace_batching = true;
  auto all = run(cfg);
  EXPECT_EQ(key(base), key(all));
  EXPECT_EQ(base.metrics.Dump(), all.metrics.Dump());
}

// The async protocol's vital signs in a run's snapshot: rings were occupied,
// responders drained and acked, initiators spun.
void ExpectQueueRan(const Json& metrics, std::initializer_list<std::string_view> more = {}) {
  for (std::string_view name : {"queue.shootdowns", "queue.drains", "queue.acks"}) {
    EXPECT_GT(MetricAt(metrics, {"counters", name}), 0u) << name;
  }
  for (std::string_view name : more) {
    EXPECT_GT(MetricAt(metrics, {"counters", name}), 0u) << name;
  }
}

TEST_F(QueueBaselineTest, FigureWorkloadsIgnoreFigureOptimizations) {
  for (bool pti : {true, false}) {
    for (int pages : {1, 10}) {
      for (Placement place :
           {Placement::kSameCore, Placement::kSameSocket, Placement::kOtherSocket}) {
        SCOPED_TRACE(std::string(pti ? "safe/" : "unsafe/") + std::to_string(pages) + "pte/" +
                     PlacementName(place));
        MicroConfig cfg;
        cfg.system.kernel.pti = pti;
        cfg.pages = pages;
        cfg.responders = {PlacementCpu(place)};
        cfg.iterations = 20;
        ExpectQueueIgnoresFigureOpts(cfg, RunMadviseMicrobench, [&](const MicroResult& r) {
          ExpectQueueRan(r.metrics, {"queue.spin_cycles", "queue.max_ring_occupancy"});
          if (pages == 10) {
            // The retry loop resends when a 10-page drain outlasts the spin budget.
            EXPECT_GT(MetricAt(r.metrics, {"counters", "queue.ipi_resends"}), 0u);
          }
          return std::tuple(r.initiator.mean(), r.initiator.stddev(), r.responder_cycles_per_op,
                            r.shootdowns);
        });
      }
    }
    SCOPED_TRACE(pti ? "safe" : "unsafe");
    SysbenchConfig sysbench;
    sysbench.pti = pti;
    sysbench.threads = 4;
    sysbench.writes_per_thread = 32;
    ExpectQueueIgnoresFigureOpts(sysbench, RunSysbench, [](const SysbenchResult& r) {
      ExpectQueueRan(r.metrics);
      return std::tuple(r.total_cycles, r.shootdowns, r.responder_full_storm, r.skipped_gen);
    });
    ApacheConfig apache;
    apache.pti = pti;
    apache.server_cores = 4;
    apache.requests_per_core = 10;
    ExpectQueueIgnoresFigureOpts(apache, RunApache, [](const ApacheResult& r) {
      ExpectQueueRan(r.metrics);
      return std::tuple(r.raw_requests_per_mcycle, r.shootdowns);
    });
  }
}

// A ring smaller than the flush overflows on every madvise and must fall
// back to a responder-side flush_all (ablation 4's smallest ring).
TEST_F(QueueBaselineTest, RingOverflowFallsBackToFlushAll) {
  MicroConfig cfg;
  cfg.system.backend = FlushBackendKind::kQueue;
  cfg.system.machine.costs.queue_ring_entries = 8;
  cfg.pages = 24;
  cfg.iterations = 20;
  MicroResult r = RunMadviseMicrobench(cfg);
  ExpectQueueRan(r.metrics, {"queue.max_ring_occupancy", "queue.ring_overflows",
                             "queue.flush_all_fallbacks"});
}

// The one figure optimization the queue implements (§4.1).
TEST_F(QueueBaselineTest, CowAvoidanceSavesCycles) {
  for (bool pti : {true, false}) {
    SCOPED_TRACE(pti ? "safe" : "unsafe");
    CowConfig cfg;
    cfg.system.backend = FlushBackendKind::kQueue;
    cfg.system.kernel.pti = pti;
    cfg.system.kernel.opts = OptimizationSet::AllGeneral();
    cfg.pages = 32;
    cfg.rounds = 2;
    CowResult base = RunCowMicrobench(cfg);
    cfg.system.kernel.opts.cow_avoidance = true;
    CowResult opt = RunCowMicrobench(cfg);
    EXPECT_LT(opt.write_cycles.mean(), base.write_cycles.mean());
    EXPECT_GT(opt.flushes_avoided, 0u);
    EXPECT_EQ(base.flushes_avoided, 0u);
  }
}

// Reuse elision (Optimization #7) is kernel-side, so it must pay on the queue
// too: elided zaps, benign closes and fewer flush requests than without it.
TEST_F(QueueBaselineTest, ChurnElisionMovesFlushesOffTheShootdownPath) {
  for (bool pagecache : {false, true}) {
    SCOPED_TRACE(pagecache ? "pagecache" : "arena");
    ChurnResult off = Churn(pagecache, 4, FlushBackendKind::kQueue, /*elision=*/false);
    ChurnResult on = Churn(pagecache, 4, FlushBackendKind::kQueue, /*elision=*/true);
    EXPECT_GT(on.elided_flushes, 0u);
    EXPECT_GT(on.benign_closes, 0u);
    EXPECT_LT(on.flush_requests, off.flush_requests);
    ExpectQueueRan(on.metrics);
  }
}

TEST_F(CowBenchTest, AvoidanceSavesCycles) {
  CowConfig cfg;
  cfg.system.kernel.opts = OptimizationSet::AllGeneral();
  cfg.pages = 32;
  cfg.rounds = 2;
  CowResult base = RunCowMicrobench(cfg);
  cfg.system.kernel.opts.cow_avoidance = true;
  CowResult opt = RunCowMicrobench(cfg);
  EXPECT_LT(opt.write_cycles.mean(), base.write_cycles.mean());
  EXPECT_EQ(opt.flushes_avoided, 64u);  // 32 pages x 2 rounds
  EXPECT_EQ(base.flushes_avoided, 0u);
}

TEST_F(SysbenchTest, RunsAndCountsShootdowns) {
  SysbenchConfig cfg;
  cfg.threads = 4;
  cfg.writes_per_thread = 48;
  cfg.seed = 3;
  SysbenchResult r = RunSysbench(cfg);
  EXPECT_GT(r.writes_per_mcycle, 0.0);
  EXPECT_GT(r.shootdowns, 0u);
}

TEST_F(SysbenchTest, BatchingImprovesThroughput) {
  // Batching pays on top of the baseline and on top of the general
  // optimizations alike.
  for (OptimizationSet base : {OptimizationSet::None(), OptimizationSet::AllGeneral()}) {
    SysbenchConfig cfg;
    cfg.threads = 4;
    cfg.writes_per_thread = 64;
    cfg.seed = 3;
    cfg.opts = base;
    double unbatched = RunSysbench(cfg).writes_per_mcycle;
    cfg.opts.userspace_batching = true;
    double batched = RunSysbench(cfg).writes_per_mcycle;
    EXPECT_GT(batched, unbatched) << base.Describe();
  }
}

TEST_F(SysbenchTest, FlushStormsAppearWithManyThreads) {
  SysbenchConfig cfg;
  cfg.threads = 12;
  cfg.writes_per_thread = 64;
  cfg.seed = 3;
  SysbenchResult r = RunSysbench(cfg);
  EXPECT_GT(r.responder_full_storm + r.skipped_gen, 0u);
}

TEST_F(ApacheTest, ThroughputScalesWithCoresUntilCap) {
  ApacheConfig cfg;
  cfg.requests_per_core = 30;
  cfg.server_cores = 1;
  double one = RunApache(cfg).requests_per_mcycle;
  cfg.server_cores = 4;
  double four = RunApache(cfg).requests_per_mcycle;
  EXPECT_GT(four, 2.5 * one);
}

TEST_F(ApacheTest, OptimizationsHelpAtHighCoreCounts) {
  ApacheConfig cfg;
  cfg.requests_per_core = 30;
  cfg.server_cores = 8;
  cfg.generator_cap_per_mcycle = 1e9;  // uncapped
  double base = RunApache(cfg).raw_requests_per_mcycle;
  cfg.opts = OptimizationSet::AllGeneral();
  double opt = RunApache(cfg).raw_requests_per_mcycle;
  EXPECT_GT(opt, base);
}

TEST_F(ApacheTest, GeneratorCapClips) {
  ApacheConfig cfg;
  cfg.requests_per_core = 20;
  cfg.server_cores = 4;
  cfg.generator_cap_per_mcycle = 10.0;
  ApacheResult r = RunApache(cfg);
  EXPECT_DOUBLE_EQ(r.requests_per_mcycle, 10.0);
  EXPECT_GT(r.raw_requests_per_mcycle, 10.0);
}

TEST_F(FractureTest, FracturingRowSelectiveEqualsFull) {
  FractureConfig cfg;
  cfg.guest_size = PageSize::k2M;
  cfg.host_size = PageSize::k4K;
  cfg.rounds = 10;
  cfg.selective_flush = false;
  uint64_t full = RunFractureWorkload(cfg).dtlb_misses;
  cfg.selective_flush = true;
  FractureResult sel = RunFractureWorkload(cfg);
  EXPECT_EQ(sel.dtlb_misses, full);
  EXPECT_EQ(sel.fracture_forced_full, 10u);
}

TEST_F(FractureTest, NonFracturingSelectiveIsCheap) {
  FractureConfig cfg;
  cfg.guest_size = PageSize::k4K;
  cfg.host_size = PageSize::k4K;
  cfg.rounds = 10;
  cfg.selective_flush = false;
  uint64_t full = RunFractureWorkload(cfg).dtlb_misses;
  cfg.selective_flush = true;
  uint64_t sel = RunFractureWorkload(cfg).dtlb_misses;
  EXPECT_LT(sel * 5, full);
}

TEST_F(FractureTest, MitigationRestoresSelectiveFlush) {
  FractureConfig cfg;
  cfg.guest_size = PageSize::k2M;
  cfg.host_size = PageSize::k4K;
  cfg.rounds = 10;
  cfg.selective_flush = true;
  uint64_t broken = RunFractureWorkload(cfg).dtlb_misses;
  cfg.disable_fracture_degrade = true;
  uint64_t fixed = RunFractureWorkload(cfg).dtlb_misses;
  EXPECT_LT(fixed * 5, broken);
}

TEST_F(FractureTest, HugePagesReduceMissCounts) {
  FractureConfig cfg;
  cfg.vm = false;
  cfg.rounds = 10;
  cfg.host_size = PageSize::k4K;
  uint64_t small = RunFractureWorkload(cfg).dtlb_misses;
  cfg.host_size = PageSize::k2M;
  uint64_t huge = RunFractureWorkload(cfg).dtlb_misses;
  EXPECT_LT(huge * 10, small);
}

TEST_F(ChurnTest, SeededStormDeterministic) {
  // Replaying the seeded storm must be cycle-identical for every workload
  // shape, backend and thread count.
  for (bool pagecache : {false, true}) {
    for (FlushBackendKind backend : {FlushBackendKind::kIpi, FlushBackendKind::kQueue}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE((pagecache ? std::string("pagecache") : std::string("arena")) + "/" +
                     (backend == FlushBackendKind::kQueue ? "queue" : "ipi") + "/t" +
                     std::to_string(threads));
        ChurnResult a = Churn(pagecache, threads, backend);
        ChurnResult replay = Churn(pagecache, threads, backend);
        EXPECT_EQ(a.total_cycles, replay.total_cycles);
        EXPECT_EQ(a.flush_requests, replay.flush_requests);
        EXPECT_EQ(a.shootdowns, replay.shootdowns);
        EXPECT_EQ(a.elided_flushes, replay.elided_flushes);
        EXPECT_EQ(a.elided_pages, replay.elided_pages);
        EXPECT_EQ(a.benign_closes, replay.benign_closes);
        EXPECT_EQ(a.forced_flushes, replay.forced_flushes);
        EXPECT_EQ(a.evictions, replay.evictions);
        EXPECT_EQ(a.frame_handoffs, replay.frame_handoffs);
      }
    }
  }
}

TEST_F(ChurnTest, ElisionMovesFlushesOffTheShootdownPath) {
  for (bool pagecache : {false, true}) {
    SCOPED_TRACE(pagecache ? "pagecache" : "arena");
    ChurnConfig cfg;
    cfg.opts = OptimizationSet::AllGeneral();
    cfg.threads = 4;
    cfg.iters = 8;
    ChurnResult off = pagecache ? RunChurnPagecache(cfg) : RunChurnArena(cfg);
    cfg.opts.reuse_elision = true;
    ChurnResult on = pagecache ? RunChurnPagecache(cfg) : RunChurnArena(cfg);
    EXPECT_EQ(off.elided_flushes, 0u);
    EXPECT_EQ(off.benign_closes, 0u);
    EXPECT_GT(on.elided_flushes, 0u);
    EXPECT_GT(on.benign_closes, 0u);
    EXPECT_LT(on.flush_requests, off.flush_requests);
  }
}

}  // namespace
}  // namespace tlbsim
