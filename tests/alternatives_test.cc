// FreeBSD-style and LATR-style backends: functional correctness plus the
// §2.3 critiques — FreeBSD's global-mutex serialization and LATR's changed
// unmap semantics (stale translations usable until the epoch ends).
#include "src/core/alternatives.h"

#include <gtest/gtest.h>

#include "src/check/check_context.h"
#include "src/core/system.h"
#include "tests/testutil.h"

namespace tlbsim {
namespace {

// A jitter-free safe-mode system running `backend` under the oracle.
SystemConfig AltConfig(FlushBackendKind backend) {
  InstallTlbCheckFactory();
  SystemConfig cfg = TestConfig(OptimizationSet::None());
  cfg.backend = backend;
  cfg.check = true;
  return cfg;
}

FreeBsdShootdownEngine& FreeBsd(System& sys) {
  return dynamic_cast<FreeBsdShootdownEngine&>(sys.backend());
}

LatrEngine& Latr(System& sys) { return dynamic_cast<LatrEngine&>(sys.backend()); }

// A thread of `p` on cpu 30 reads a page that cpu 0 wrote, cpu 0 madvises it
// away, then the reader makes a syscall (LATR's sync point) and reads the
// page again. Returns the page faults of that second read: 1 once the zap
// reached cpu 30's TLB, 0 if the read went through the zapped translation.
uint64_t RereadAfterMadvise(System& sys, Process* p) {
  Kernel& k = sys.kernel();
  Thread* writer = k.CreateThread(p, 0);
  Thread* reader = k.CreateThread(p, 30);
  SimCpu& cpu0 = sys.machine().cpu(0);
  SimCpu& cpu30 = sys.machine().cpu(30);
  uint64_t addr = 0;
  bool read = false;
  bool zapped = false;
  uint64_t faults = 0;
  cpu0.Spawn(Go([&]() -> Co<void> {
    uint64_t a = co_await k.SysMmap(*writer, kPageSize4K, true, false);
    co_await k.UserAccess(*writer, a, true);
    addr = a;
    while (!read) {
      co_await cpu0.Execute(500);
    }
    co_await k.SysMadviseDontneed(*writer, a, kPageSize4K);
    zapped = true;
  }));
  cpu30.Spawn(Go([&]() -> Co<void> {
    while (addr == 0) {
      co_await cpu30.Execute(500);
    }
    co_await k.UserAccess(*reader, addr, false);
    read = true;
    while (!zapped) {
      co_await cpu30.Execute(500);
    }
    co_await k.SysMmap(*reader, kPageSize4K, true, false);
    uint64_t before = k.stats().page_faults;
    co_await k.UserAccess(*reader, addr, false);
    faults = k.stats().page_faults - before;
  }));
  sys.machine().engine().Run();
  return faults;
}

TEST(FreeBsdTest, BasicShootdownWorks) {
  System sys(AltConfig(FlushBackendKind::kFreeBsd));
  auto* p = sys.kernel().CreateProcess();
  EXPECT_EQ(RereadAfterMadvise(sys, p), 1u);
  EXPECT_EQ(FreeBsd(sys).stats().shootdowns, 1u);
  EXPECT_TRUE(TlbCoherent(sys, *p->mm));
  EXPECT_TRUE(NoCheckViolations(sys));
}

TEST(FreeBsdTest, GlobalMutexSerializesConcurrentShootdowns) {
  System sys(AltConfig(FlushBackendKind::kFreeBsd));
  Kernel& k = sys.kernel();
  auto* p = k.CreateProcess();
  Thread* t0 = k.CreateThread(p, 0);
  Thread* t1 = k.CreateThread(p, 2);
  k.CreateThread(p, 4);
  sys.machine().cpu(4).Spawn(BusyLoop(sys.machine().cpu(4), 3000, 500));
  auto worker = [&](Thread* t) -> Co<void> {
    uint64_t a = co_await k.SysMmap(*t, 8 * kPageSize4K, true, false);
    for (int r = 0; r < 10; ++r) {
      for (int i = 0; i < 8; ++i) {
        co_await k.UserAccess(*t, a + i * kPageSize4K, true);
      }
      co_await k.SysMadviseDontneed(*t, a, 8 * kPageSize4K);
    }
  };
  sys.machine().cpu(0).Spawn(Go([&]() -> Co<void> { co_await worker(t0); }));
  sys.machine().cpu(2).Spawn(Go([&]() -> Co<void> { co_await worker(t1); }));
  sys.machine().engine().Run();
  EXPECT_GT(FreeBsd(sys).stats().mutex_waits, 0u);  // serialization observed
  EXPECT_TRUE(TlbCoherent(sys, *p->mm));
  EXPECT_TRUE(NoCheckViolations(sys));
}

TEST(FreeBsdTest, NoGenerationSkipping) {
  // Unlike Linux, every responder executes every flush — even redundant ones.
  System sys(AltConfig(FlushBackendKind::kFreeBsd));
  Kernel& k = sys.kernel();
  auto* p = k.CreateProcess();
  auto* t = k.CreateThread(p, 0);
  k.CreateThread(p, 2);
  sys.machine().cpu(2).Spawn(BusyLoop(sys.machine().cpu(2), 2000, 500));
  sys.machine().cpu(0).Spawn(Go([&]() -> Co<void> {
    uint64_t a = co_await k.SysMmap(*t, kPageSize4K, true, false);
    for (int r = 0; r < 5; ++r) {
      co_await k.UserAccess(*t, a, true);
      co_await k.SysMadviseDontneed(*t, a, kPageSize4K);
    }
  }));
  sys.machine().engine().Run();
  // 5 rounds, each a shootdown; invlpg on initiator (5) + responder (5).
  EXPECT_EQ(FreeBsd(sys).stats().shootdowns, 5u);
  EXPECT_EQ(FreeBsd(sys).stats().invlpg_issued, 10u);
  EXPECT_TRUE(NoCheckViolations(sys));
}

TEST(FreeBsdTest, HigherFullFlushCeiling) {
  // 40 pages: Linux would full-flush (ceiling 33); FreeBSD stays selective
  // (ceiling 4096).
  System sys(AltConfig(FlushBackendKind::kFreeBsd));
  Kernel& k = sys.kernel();
  auto* p = k.CreateProcess();
  auto* t = k.CreateThread(p, 0);
  sys.machine().cpu(0).Spawn(Go([&]() -> Co<void> {
    uint64_t a = co_await k.SysMmap(*t, 40 * kPageSize4K, true, false);
    for (int i = 0; i < 40; ++i) {
      co_await k.UserAccess(*t, a + i * kPageSize4K, true);
    }
    co_await k.SysMadviseDontneed(*t, a, 40 * kPageSize4K);
  }));
  sys.machine().engine().Run();
  EXPECT_EQ(FreeBsd(sys).stats().full_flushes, 0u);
  EXPECT_EQ(FreeBsd(sys).stats().invlpg_issued, 40u);
  EXPECT_TRUE(NoCheckViolations(sys));
}

TEST(LatrTest, NoIpisAreSent) {
  System sys(AltConfig(FlushBackendKind::kLatr));
  Kernel& k = sys.kernel();
  auto* p = k.CreateProcess();
  auto* t = k.CreateThread(p, 0);
  k.CreateThread(p, 30);
  sys.machine().cpu(30).Spawn(BusyLoop(sys.machine().cpu(30), 500, 1000));
  sys.machine().cpu(0).Spawn(Go([&]() -> Co<void> {
    uint64_t a = co_await k.SysMmap(*t, 4 * kPageSize4K, true, false);
    for (int i = 0; i < 4; ++i) {
      co_await k.UserAccess(*t, a + i * kPageSize4K, true);
    }
    co_await k.SysMadviseDontneed(*t, a, 4 * kPageSize4K);
  }));
  sys.machine().engine().Run();
  EXPECT_EQ(sys.machine().apic().stats().ipis_sent, 0u);
  EXPECT_GT(Latr(sys).stats().flushes_queued, 0u);
  // After the epoch sweep the system is coherent again.
  EXPECT_TRUE(TlbCoherent(sys, *p->mm));
  EXPECT_TRUE(NoCheckViolations(sys));
}

// The §2.3.2 critique, demonstrated: after madvise(DONTNEED) returns on one
// thread, another CPU can still use its stale translation — LATR's laziness
// changes the POSIX-visible semantics until the epoch/sync point.
TEST(LatrTest, StaleTranslationUsableUntilEpoch) {
  System sys(AltConfig(FlushBackendKind::kLatr));
  Kernel& k = sys.kernel();
  auto* p = k.CreateProcess();
  Thread* t0 = k.CreateThread(p, 0);
  k.CreateThread(p, 30);
  sys.machine().cpu(30).Spawn(BusyLoop(sys.machine().cpu(30), 100, 500));

  bool stale_usable = false;
  sys.machine().cpu(0).Spawn(Go([&]() -> Co<void> {
    uint64_t addr = co_await k.SysMmap(*t0, kPageSize4K, true, false);
    co_await k.UserAccess(*t0, addr, true);
    // Make cpu30 cache the translation too.
    SimCpu& remote = sys.machine().cpu(30);
    XlateResult r = Mmu::Translate(remote, addr, AccessIntent{false, false, true});
    EXPECT_TRUE(r.ok);
    co_await k.SysMadviseDontneed(*t0, addr, kPageSize4K);
    // madvise returned: under Linux semantics cpu30 must fault now. Under
    // LATR the stale entry is still live until cpu30 syncs or the epoch ends.
    stale_usable = remote.tlb().Probe(remote.active_pcid(), addr).has_value();
  }));
  sys.machine().engine().Run();
  EXPECT_TRUE(stale_usable);  // the semantic difference the paper criticizes
  // ... but the epoch sweep eventually restores coherence.
  EXPECT_TRUE(TlbCoherent(sys, *p->mm));
  EXPECT_TRUE(NoCheckViolations(sys));
}

TEST(LatrTest, DrainsAtKernelExit) {
  // The madvise queues the flush for cpu 30; its syscall drains the queue on
  // the way out, so the read after it faults.
  System sys(AltConfig(FlushBackendKind::kLatr));
  auto* p = sys.kernel().CreateProcess();
  EXPECT_EQ(RereadAfterMadvise(sys, p), 1u);
  EXPECT_GT(Latr(sys).stats().drains, 0u);
  EXPECT_TRUE(TlbCoherent(sys, *p->mm));
  EXPECT_TRUE(NoCheckViolations(sys));
}

TEST(LatrTest, InitiatorLatencyBeatsSynchronousShootdown) {
  // LATR's selling point: the initiator never waits for IPIs.
  auto measure = [](FlushBackendKind backend) {
    System sys(AltConfig(backend));
    Kernel& k = sys.kernel();
    auto* p = k.CreateProcess();
    auto* t = k.CreateThread(p, 0);
    k.CreateThread(p, 30);
    sys.machine().cpu(30).Spawn(BusyLoop(sys.machine().cpu(30), 1000, 1000));
    Cycles dur = 0;
    sys.machine().cpu(0).Spawn(Go([&]() -> Co<void> {
      uint64_t a = co_await k.SysMmap(*t, 4 * kPageSize4K, true, false);
      for (int i = 0; i < 4; ++i) {
        co_await k.UserAccess(*t, a + i * kPageSize4K, true);
      }
      Cycles t0 = sys.machine().cpu(0).now();
      co_await k.SysMadviseDontneed(*t, a, 4 * kPageSize4K);
      dur = sys.machine().cpu(0).now() - t0;
    }));
    sys.machine().engine().Run();
    EXPECT_TRUE(NoCheckViolations(sys));
    return dur;
  };
  EXPECT_LT(measure(FlushBackendKind::kLatr), measure(FlushBackendKind::kFreeBsd));
}

}  // namespace
}  // namespace tlbsim
