// Property tests over the full protocol: for EVERY combination of the six
// optimizations (2^6), under randomized concurrent workloads, no TLB may ever
// contradict the page tables once the engine drains — the paper's safety
// claim ("without sacrificing safety and correctness").
#include <gtest/gtest.h>

#include "src/check/check_context.h"
#include "src/core/system.h"
#include "tests/testutil.h"

namespace tlbsim {
namespace {

OptimizationSet FromMask(int mask) {
  OptimizationSet o;
  o.concurrent_flush = mask & 1;
  o.early_ack = mask & 2;
  o.cacheline_consolidation = mask & 4;
  o.in_context_flush = mask & 8;
  o.cow_avoidance = mask & 16;
  o.userspace_batching = mask & 32;
  return o;
}

class AllCombosTest : public ::testing::TestWithParam<int> {};

// Three threads of one process on distinct topological distances hammer
// overlapping ranges with faults, madvise, msync, mprotect and CoW breaks.
TEST_P(AllCombosTest, RandomizedWorkloadStaysCoherent) {
  int mask = GetParam();
  InstallTlbCheckFactory();
  for (bool pti : {true, false}) {
    SystemConfig cfg = TestConfig(FromMask(mask), pti);
    cfg.machine.seed = static_cast<uint64_t>(mask) * 31 + (pti ? 7 : 0) + 1;
    cfg.check = true;  // tlbcheck rides along: correct runs must stay silent
    System sys(cfg);
    Kernel& k = sys.kernel();
    auto* p = k.CreateProcess();
    Thread* threads[3] = {
        k.CreateThread(p, 0),   // initiator home
        k.CreateThread(p, 2),   // same socket
        k.CreateThread(p, 30),  // other socket
    };
    File* f = k.CreateFile(1 << 22);

    auto worker = [&](Thread* t, uint64_t seed) -> Co<void> {
      Rng rng(seed);
      uint64_t anon = co_await k.SysMmap(*t, 32 * kPageSize4K, true, false);
      uint64_t priv = co_await k.SysMmap(*t, 16 * kPageSize4K, true, /*shared=*/false, f);
      uint64_t shared = co_await k.SysMmap(*t, 16 * kPageSize4K, true, /*shared=*/true, f);
      for (int step = 0; step < 60; ++step) {
        int op = static_cast<int>(rng.UniformInt(0, 5));
        uint64_t page = static_cast<uint64_t>(rng.UniformInt(0, 15));
        switch (op) {
          case 0:
            co_await k.UserAccess(*t, anon + page * kPageSize4K, true);
            break;
          case 1:
            co_await k.UserAccess(*t, priv + page * kPageSize4K, rng.Chance(0.5));
            break;
          case 2:
            co_await k.UserAccess(*t, shared + page * kPageSize4K, true);
            break;
          case 3:
            co_await k.SysMadviseDontneed(*t, anon + (page / 2) * kPageSize4K,
                                          4 * kPageSize4K);
            break;
          case 4:
            co_await k.SysMsyncClean(*t, shared, 16 * kPageSize4K);
            break;
          case 5:
            co_await k.UserAccess(*t, anon + page * kPageSize4K, false);
            break;
        }
      }
    };
    sys.machine().engine().Spawn(0, Go([&, t = threads[0]]() -> Co<void> {
      co_await worker(t, 100 + static_cast<uint64_t>(mask));
    }));
    sys.machine().engine().Spawn(0, Go([&, t = threads[1]]() -> Co<void> {
      co_await worker(t, 200 + static_cast<uint64_t>(mask));
    }));
    sys.machine().engine().Spawn(0, Go([&, t = threads[2]]() -> Co<void> {
      co_await worker(t, 300 + static_cast<uint64_t>(mask));
    }));
    sys.machine().engine().Run();

    EXPECT_TRUE(TlbCoherent(sys, *p->mm))
        << "opts mask=" << mask << " (" << FromMask(mask).Describe() << ") pti=" << pti;
    EXPECT_TRUE(NoCheckViolations(sys))
        << "opts mask=" << mask << " (" << FromMask(mask).Describe() << ") pti=" << pti;
    // No CFD left in flight, no batch left open, no unfinished flushes.
    for (int c = 0; c < sys.machine().num_cpus(); ++c) {
      PerCpu& pc = k.percpu(c);
      EXPECT_FALSE(pc.batched_mode) << "cpu" << c;
      EXPECT_EQ(pc.batched.size(), 0u) << "cpu" << c;
      EXPECT_EQ(pc.unfinished_flushes, 0) << "cpu" << c;
      EXPECT_TRUE(pc.csq.empty()) << "cpu" << c;
      for (int t = 0; t < sys.machine().num_cpus(); ++t) {
        EXPECT_FALSE(pc.cfd_built(t) && pc.cfd(t).in_flight) << "cpu" << c << " target " << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOptimizationCombos, AllCombosTest, ::testing::Range(0, 64),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = FromMask(info.param).Describe();
                           for (char& ch : name) {
                             if (!isalnum(static_cast<unsigned char>(ch))) {
                               ch = '_';
                             }
                           }
                           return std::to_string(info.param) + "_" + name;
                         });

// Generation monotonicity: per-CPU local generations never exceed the mm
// generation and never decrease across a workload.
TEST(GenerationInvariantTest, LocalGenNeverExceedsMmGen) {
  System sys(TestConfig(OptimizationSet::All()));
  Kernel& k = sys.kernel();
  auto* p = k.CreateProcess();
  auto* t0 = k.CreateThread(p, 0);
  auto* t1 = k.CreateThread(p, 2);
  auto worker = [&](Thread* t) -> Co<void> {
    uint64_t a = co_await k.SysMmap(*t, 8 * kPageSize4K, true, false);
    for (int i = 0; i < 20; ++i) {
      co_await k.UserAccess(*t, a + (i % 8) * kPageSize4K, true);
      if (i % 4 == 3) {
        co_await k.SysMadviseDontneed(*t, a, 8 * kPageSize4K);
      }
      EXPECT_LE(k.percpu(t->cpu).loaded_mm_tlb_gen, p->mm->tlb_gen);
    }
  };
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> { co_await worker(t0); }));
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> { co_await worker(t1); }));
  sys.machine().engine().Run();
  EXPECT_LE(k.percpu(0).loaded_mm_tlb_gen, p->mm->tlb_gen);
  EXPECT_LE(k.percpu(2).loaded_mm_tlb_gen, p->mm->tlb_gen);
}

// Determinism: identical seeds produce identical virtual-time outcomes.
TEST(DeterminismTest, SameSeedSameTimeline) {
  auto run = [](uint64_t seed) {
    SystemConfig cfg = TestConfig(OptimizationSet::All());
    cfg.machine.seed = seed;
    cfg.machine.costs.jitter_frac = 0.05;  // jitter on, still deterministic
    System sys(cfg);
    Kernel& k = sys.kernel();
    auto* p = k.CreateProcess();
    auto* t = k.CreateThread(p, 0);
    auto* tr = k.CreateThread(p, 30);
    (void)tr;
    sys.machine().engine().Spawn(0, BusyLoop(sys.machine().cpu(30), 200, 1000));
    sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
      uint64_t a = co_await k.SysMmap(*t, 10 * kPageSize4K, true, false);
      for (int i = 0; i < 10; ++i) {
        co_await k.UserAccess(*t, a + i * kPageSize4K, true);
      }
      co_await k.SysMadviseDontneed(*t, a, 10 * kPageSize4K);
    }));
    return sys.machine().engine().Run();
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // different jitter draws move the timeline
}

}  // namespace
}  // namespace tlbsim
