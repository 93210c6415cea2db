// System-level integration: multi-process isolation, context switching,
// whole-system determinism, optimization-set plumbing, machine wiring.
#include <gtest/gtest.h>

#include "src/check/check_context.h"
#include "src/core/system.h"
#include "tests/testutil.h"

namespace tlbsim {
namespace {

TEST(MachineTest, WiringMatchesConfig) {
  MachineConfig cfg;
  cfg.topo.sockets = 1;
  cfg.topo.cores_per_socket = 4;
  cfg.topo.smt = 2;
  Machine m(cfg);
  EXPECT_EQ(m.num_cpus(), 8);
  for (int i = 0; i < m.num_cpus(); ++i) {
    EXPECT_EQ(m.cpu(i).id(), i);
  }
}

TEST(MachineTest, PerCpuRngStreamsDiffer) {
  Machine m(MachineConfig{});
  uint64_t a = m.cpu(0).rng().UniformU64();
  uint64_t b = m.cpu(1).rng().UniformU64();
  EXPECT_NE(a, b);
}

TEST(OptimizationSetTest, CumulativePresetsAreMonotone) {
  for (int level = 1; level <= 6; ++level) {
    OptimizationSet lo = OptimizationSet::Cumulative(level - 1);
    OptimizationSet hi = OptimizationSet::Cumulative(level);
    // Everything enabled at level-1 stays enabled at level.
    EXPECT_LE(lo.concurrent_flush, hi.concurrent_flush);
    EXPECT_LE(lo.early_ack, hi.early_ack);
    EXPECT_LE(lo.cacheline_consolidation, hi.cacheline_consolidation);
    EXPECT_LE(lo.in_context_flush, hi.in_context_flush);
    EXPECT_LE(lo.cow_avoidance, hi.cow_avoidance);
    EXPECT_LE(lo.userspace_batching, hi.userspace_batching);
  }
  EXPECT_EQ(OptimizationSet::Cumulative(0).Describe(), "baseline");
  EXPECT_EQ(OptimizationSet::None().Describe(), "baseline");
  EXPECT_NE(OptimizationSet::All().Describe().find("batching"), std::string::npos);
}

TEST(OptimizationSetTest, AllGeneralExcludesUseCaseSpecific) {
  OptimizationSet g = OptimizationSet::AllGeneral();
  EXPECT_TRUE(g.concurrent_flush && g.early_ack && g.cacheline_consolidation &&
              g.in_context_flush);
  EXPECT_FALSE(g.cow_avoidance);
  EXPECT_FALSE(g.userspace_batching);
}

TEST(FlushInfoTest, PageCountAndFull) {
  FlushTlbInfo info;
  info.start = 0x1000;
  info.end = 0x5000;
  EXPECT_EQ(info.PageCount(), 4u);
  EXPECT_FALSE(info.IsFull());
  info.end = kFlushAll;
  EXPECT_TRUE(info.IsFull());
  EXPECT_EQ(info.PageCount(), 0u);
  info.end = 0x1000;  // empty range
  EXPECT_EQ(info.PageCount(), 0u);
}

TEST(FlushInfoTest, HugeStride) {
  FlushTlbInfo info;
  info.start = 0;
  info.end = 4 * kPageSize2M;
  info.stride_shift = static_cast<int>(kHugeShift);
  EXPECT_EQ(info.PageCount(), 4u);
}

TEST(SystemTest, TwoProcessesAreIsolated) {
  System sys(TestConfig(OptimizationSet::All()));
  Kernel& k = sys.kernel();
  auto* p1 = k.CreateProcess();
  auto* p2 = k.CreateProcess();
  auto* t1 = k.CreateThread(p1, 0);
  auto* t2 = k.CreateThread(p2, 2);
  EXPECT_NE(p1->mm->kernel_pcid, p2->mm->kernel_pcid);
  EXPECT_NE(p1->mm->user_pcid, p2->mm->user_pcid);

  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    uint64_t a1 = co_await k.SysMmap(*t1, 8 * kPageSize4K, true, false);
    uint64_t a2 = co_await k.SysMmap(*t2, 8 * kPageSize4K, true, false);
    for (int i = 0; i < 8; ++i) {
      co_await k.UserAccess(*t1, a1 + i * kPageSize4K, true);
      co_await k.UserAccess(*t2, a2 + i * kPageSize4K, true);
    }
    // p1's madvise must not IPI p2's CPU (different mm).
    uint64_t ipis_before = sys.machine().apic().stats().ipis_sent;
    co_await k.SysMadviseDontneed(*t1, a1, 8 * kPageSize4K);
    EXPECT_EQ(sys.machine().apic().stats().ipis_sent, ipis_before);
    // p2's pages are untouched.
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(p2->mm->pt.Walk(a2 + i * kPageSize4K).present);
    }
  }));
  sys.machine().engine().Run();
  EXPECT_TRUE(TlbCoherent(sys, *p1->mm));
  EXPECT_TRUE(TlbCoherent(sys, *p2->mm));
}

TEST(SystemTest, ContextSwitchBetweenProcessesKeepsCoherence) {
  System sys(TestConfig(OptimizationSet::All()));
  Kernel& k = sys.kernel();
  auto* p1 = k.CreateProcess();
  auto* p2 = k.CreateProcess();
  auto* t1 = k.CreateThread(p1, 0);
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    uint64_t a1 = co_await k.SysMmap(*t1, 4 * kPageSize4K, true, false);
    for (int i = 0; i < 4; ++i) {
      co_await k.UserAccess(*t1, a1 + i * kPageSize4K, true);
    }
    // Switch cpu0 to p2 and back; p1's translations must not be usable by
    // p2 (PCID separation), and coherence holds throughout.
    co_await k.SwitchTo(0, p2->mm.get());
    EXPECT_FALSE(p1->mm->cpumask.test(0));
    EXPECT_TRUE(p2->mm->cpumask.test(0));
    co_await k.SwitchTo(0, p1->mm.get());
    EXPECT_TRUE(p1->mm->cpumask.test(0));
  }));
  sys.machine().engine().Run();
  EXPECT_TRUE(TlbCoherent(sys, *p1->mm));
  EXPECT_TRUE(TlbCoherent(sys, *p2->mm));
  EXPECT_EQ(sys.kernel().stats().context_switches, 2u);
}

TEST(SystemTest, WholeSystemDeterminism) {
  auto run = [] {
    SystemConfig cfg = TestConfig(OptimizationSet::All());
    cfg.machine.seed = 99;
    cfg.machine.costs.jitter_frac = 0.05;
    System sys(cfg);
    Kernel& k = sys.kernel();
    auto* p = k.CreateProcess();
    Thread* threads[2] = {k.CreateThread(p, 0), k.CreateThread(p, 30)};
    for (Thread* t : threads) {
      sys.machine().cpu(t->cpu).Spawn(Go([&k, &sys, t]() -> Co<void> {
        uint64_t a = co_await k.SysMmap(*t, 8 * kPageSize4K, true, false);
        for (int r = 0; r < 5; ++r) {
          for (int i = 0; i < 8; ++i) {
            co_await k.UserAccess(*t, a + i * kPageSize4K, true);
          }
          co_await k.SysMadviseDontneed(*t, a, 8 * kPageSize4K);
        }
      }));
    }
    Cycles end = sys.machine().engine().Run();
    return std::make_tuple(end, sys.shootdown().stats().shootdowns,
                           sys.machine().apic().stats().ipis_sent,
                           sys.machine().coherence().global_stats().transfers);
  };
  EXPECT_EQ(run(), run());
}

TEST(SystemTest, MprotectShootdownAcrossThreads) {
  System sys(TestConfig(OptimizationSet::All()));
  Kernel& k = sys.kernel();
  auto* p = k.CreateProcess();
  auto* t0 = k.CreateThread(p, 0);
  k.CreateThread(p, 2);
  sys.machine().engine().Spawn(0, BusyLoop(sys.machine().cpu(2), 500, 1000));
  bool write_after_protect = true;
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    uint64_t a = co_await k.SysMmap(*t0, 2 * kPageSize4K, true, false);
    co_await k.UserAccess(*t0, a, true);
    co_await k.SysMprotect(*t0, a, 2 * kPageSize4K, /*writable=*/false);
    write_after_protect = co_await k.UserAccess(*t0, a, true);
  }));
  sys.machine().engine().Run();
  EXPECT_FALSE(write_after_protect);
  EXPECT_TRUE(TlbCoherent(sys, *p->mm));
}

TEST(SystemTest, HugePageMadviseUsesHugeStride) {
  System sys(TestConfig(OptimizationSet::All()));
  Kernel& k = sys.kernel();
  auto* p = k.CreateProcess();
  auto* t = k.CreateThread(p, 0);
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    uint64_t a = co_await k.SysMmap(*t, 2 * kPageSize2M, true, false, nullptr, 0, PageSize::k2M);
    co_await k.UserAccess(*t, a, true);
    co_await k.UserAccess(*t, a + kPageSize2M, true);
    co_await k.SysMadviseDontneed(*t, a, 2 * kPageSize2M);
    EXPECT_FALSE(p->mm->pt.Walk(a).present);
  }));
  sys.machine().engine().Run();
  EXPECT_TRUE(TlbCoherent(sys, *p->mm));
}

struct ScanResult {
  Cycles cycles_per_round = 0;
  uint64_t remote_walks = 0;
};

// Linux's NUMA balancing write-protects a task's memory so the next access
// faults and shows which node uses the page, one of the flush sources §2.1
// lists. A scanner on cpu 0 runs 20 read-only/read-write mprotect rounds over
// 24 pages while threads on cpus 2 and 30 keep writing them, under the oracle.
ScanResult RunMprotectScan(OptimizationSet opts, int numa_nodes) {
  constexpr int kPages = 24;
  constexpr int kRounds = 20;
  constexpr uint64_t kBytes = kPages * kPageSize4K;
  InstallTlbCheckFactory();
  SystemConfig cfg = TestConfig(opts);
  cfg.machine.numa.nodes = numa_nodes;
  cfg.check = true;
  System sys(cfg);
  Kernel& k = sys.kernel();
  auto* p = k.CreateProcess();
  Thread* scanner = k.CreateThread(p, 0);
  Thread* writers[] = {k.CreateThread(p, 2), k.CreateThread(p, 30)};
  SimCpu& cpu0 = sys.machine().cpu(0);
  bool done = false;
  ScanResult out;
  cpu0.Spawn(Go([&]() -> Co<void> {
    uint64_t a = co_await k.SysMmap(*scanner, kBytes, true, false);
    for (int i = 0; i < kPages; ++i) {
      co_await k.UserAccess(*scanner, a + i * kPageSize4K, true);
    }
    for (Thread* w : writers) {
      sys.machine().cpu(w->cpu).Spawn(Go([&, w, a]() -> Co<void> {
        SimCpu& cpu = sys.machine().cpu(w->cpu);
        Rng rng(static_cast<uint64_t>(w->cpu));
        while (!done) {
          uint64_t page = static_cast<uint64_t>(rng.UniformInt(0, kPages - 1));
          co_await k.UserAccess(*w, a + page * kPageSize4K, true);
          co_await cpu.Execute(2000);
        }
      }));
    }
    Cycles scan = 0;
    for (int round = 0; round < kRounds; ++round) {
      co_await cpu0.Execute(20000);
      Cycles t0 = cpu0.now();
      co_await k.SysMprotect(*scanner, a, kBytes, /*writable=*/false);
      co_await k.SysMprotect(*scanner, a, kBytes, /*writable=*/true);
      scan += cpu0.now() - t0;
    }
    out.cycles_per_round = scan / kRounds;
    done = true;
  }));
  sys.machine().engine().Run();
  out.remote_walks = sys.machine().metrics().percpu("numa.remote_walks").total();
  EXPECT_NE(sys.checker(), nullptr);
  EXPECT_TRUE(NoCheckViolations(sys));
  EXPECT_TRUE(TlbCoherent(sys, *p->mm));
  return out;
}

TEST(SystemTest, NumaBalancingScanGainsFromOptsAndReplication) {
  // Flat memory: the general optimizations shorten every protection round.
  ScanResult base = RunMprotectScan(OptimizationSet::None(), 1);
  ScanResult general = RunMprotectScan(OptimizationSet::AllGeneral(), 1);
  EXPECT_LT(general.cycles_per_round, base.cycles_per_round);

  // Two nodes: Mitosis-style page-table replication turns the cpu-30
  // writer's cross-node walks local.
  OptimizationSet replicated;
  replicated.pt_replication = true;
  ScanResult numa = RunMprotectScan(OptimizationSet::None(), 2);
  ScanResult mitosis = RunMprotectScan(replicated, 2);
  EXPECT_GT(numa.remote_walks, 0u);
  EXPECT_EQ(mitosis.remote_walks, 0u);
}

// The 8-socket, 224-cpu preset: cpu 0 madvises 8 pages of a process that also
// runs on one cpu of every other socket, so one shootdown reaches 7 sockets.
// Two runs must replay identically, and the oracle must stay silent.
TEST(SystemTest, EightSocketShootdownReplays) {
  auto run = [] {
    InstallTlbCheckFactory();
    SystemConfig cfg;
    cfg.machine.topo = Topology::EightSocket();
    cfg.kernel.pti = true;
    cfg.kernel.opts = OptimizationSet::AllGeneral();
    cfg.check = true;
    System sys(cfg);
    Machine& m = sys.machine();
    const Topology& topo = m.config().topo;
    Kernel& k = sys.kernel();
    auto* p = k.CreateProcess();
    Thread* initiator = k.CreateThread(p, 0);
    for (int s = 1; s < topo.sockets; ++s) {
      int cpu = s * topo.cpus_per_socket();
      k.CreateThread(p, cpu);
      m.cpu(cpu).Spawn(BusyLoop(m.cpu(cpu), 100, 500));
    }
    Cycles madvise_cycles = 0;
    m.cpu(0).Spawn(Go([&]() -> Co<void> {
      uint64_t a = co_await k.SysMmap(*initiator, 8 * kPageSize4K, true, false);
      for (int i = 0; i < 8; ++i) {
        co_await k.UserAccess(*initiator, a + i * kPageSize4K, true);
      }
      Cycles t0 = m.cpu(0).now();
      co_await k.SysMadviseDontneed(*initiator, a, 8 * kPageSize4K);
      madvise_cycles = m.cpu(0).now() - t0;
    }));
    Cycles end = m.engine().Run();
    EXPECT_NE(sys.checker(), nullptr);
    EXPECT_TRUE(NoCheckViolations(sys));
    EXPECT_TRUE(TlbCoherent(sys, *p->mm));
    return std::make_tuple(madvise_cycles, m.apic().stats().ipis_sent,
                           m.engine().events_processed(), end);
  };
  auto first = run();
  EXPECT_EQ(first, run());
  EXPECT_EQ(std::get<1>(first), 7u);
}

}  // namespace
}  // namespace tlbsim
