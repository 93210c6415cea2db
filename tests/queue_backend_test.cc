// QueueFlushBackend: protocol behaviour of the charmos-style asynchronous
// shootdown — ring wraparound, overflow fallback, ack-generation coalescing,
// the single-CPU degenerate case, seeded-storm determinism — plus the two
// fault-injection knobs (ring_overflow_no_fallback, drop_ipi_resend), each
// of which tlbcheck must classify as exactly one violation.
#include "src/core/queue_backend.h"

#include <gtest/gtest.h>

#include "src/check/check_context.h"
#include "src/core/fault_injection.h"
#include "src/core/system.h"
#include "src/workloads/microbench.h"
#include "tests/testutil.h"

namespace tlbsim {
namespace {

SystemConfig QueueConfig(OptimizationSet opts, bool pti = true) {
  SystemConfig cfg = TestConfig(opts, pti);
  cfg.backend = FlushBackendKind::kQueue;
  return cfg;
}

// Initiator on cpu0, busy responder on `responder_cpu`, same process.
struct QueueRig {
  System sys;
  CheckContext chk;
  Process* proc = nullptr;
  Thread* initiator = nullptr;
  Thread* responder = nullptr;

  explicit QueueRig(SystemConfig cfg, int responder_cpu = 30) : sys(cfg) {
    chk.Attach(sys);
    proc = sys.kernel().CreateProcess();
    initiator = sys.kernel().CreateThread(proc, 0);
    responder = sys.kernel().CreateThread(proc, responder_cpu);
    sys.machine().engine().Spawn(0, BusyLoop(sys.machine().cpu(responder_cpu), 500, 1000));
  }

  // mmap + touch `pages`, then `rounds` madvise(DONTNEED) calls over them.
  void RunMadvise(int pages, int rounds = 1) {
    sys.machine().engine().Spawn(0, Go([this, pages, rounds]() -> Co<void> {
      Kernel& k = sys.kernel();
      uint64_t addr = co_await k.SysMmap(*initiator, pages * kPageSize4K, true, false);
      for (int r = 0; r < rounds; ++r) {
        for (int i = 0; i < pages; ++i) {
          co_await k.UserAccess(*initiator, addr + i * kPageSize4K, true);
        }
        co_await k.SysMadviseDontneed(*initiator, addr, pages * kPageSize4K);
      }
    }));
    sys.machine().engine().Run();
  }
};

TEST(QueueBackendTest, RemoteFlushDrainsAndAcks) {
  QueueRig rig(QueueConfig(OptimizationSet::AllGeneral()));
  rig.RunMadvise(4);
  const QueueFlushBackend::Stats& s = rig.sys.queue()->stats();
  EXPECT_EQ(s.shootdowns, 1u);
  EXPECT_EQ(s.enqueued, 4u);
  EXPECT_EQ(s.drained_entries, 4u);
  EXPECT_EQ(s.ack_timeouts, 0u);
  EXPECT_GE(s.acks, 1u);
  EXPECT_EQ(rig.sys.queue()->ack_gen(30), rig.sys.queue()->next_tlb_gen());
  EXPECT_EQ(rig.sys.queue()->RingOccupancy(30), 0u);
  EXPECT_TRUE(TlbCoherent(rig.sys, *rig.proc->mm));
  EXPECT_EQ(rig.chk.violation_count(), 0u) << rig.chk.Summary();
}

TEST(QueueBackendTest, SingleCpuDegenerateCaseStaysLocal) {
  System sys(QueueConfig(OptimizationSet::AllGeneral()));
  auto* p = sys.kernel().CreateProcess();
  auto* t = sys.kernel().CreateThread(p, 0);
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    uint64_t a = co_await sys.kernel().SysMmap(*t, kPageSize4K, true, false);
    co_await sys.kernel().UserAccess(*t, a, true);
    co_await sys.kernel().SysMadviseDontneed(*t, a, kPageSize4K);
  }));
  sys.machine().engine().Run();
  const QueueFlushBackend::Stats& s = sys.queue()->stats();
  EXPECT_EQ(s.local_only, 1u);
  EXPECT_EQ(s.shootdowns, 0u);
  EXPECT_EQ(s.enqueued, 0u);
  EXPECT_EQ(s.ipi_sends, 0u);
  EXPECT_EQ(sys.machine().apic().stats().ipis_sent, 0u);
  EXPECT_TRUE(TlbCoherent(sys, *p->mm));
}

TEST(QueueBackendTest, RingWrapsAroundAcrossRounds) {
  SystemConfig cfg = QueueConfig(OptimizationSet::AllGeneral());
  cfg.machine.costs.queue_ring_entries = 8;
  QueueRig rig(cfg);
  // 5 rounds x 4 pages = 20 slots through an 8-entry ring: the indices wrap
  // twice, and because each madvise waits for its ack, nothing overflows.
  rig.RunMadvise(4, 5);
  const QueueFlushBackend::Stats& s = rig.sys.queue()->stats();
  EXPECT_EQ(s.enqueued, 20u);
  EXPECT_EQ(s.drained_entries, 20u);
  EXPECT_EQ(s.ring_overflows, 0u);
  EXPECT_EQ(s.ack_timeouts, 0u);
  EXPECT_EQ(rig.sys.queue()->RingOccupancy(30), 0u);
  EXPECT_EQ(rig.sys.queue()->ack_gen(30), rig.sys.queue()->next_tlb_gen());
  EXPECT_TRUE(TlbCoherent(rig.sys, *rig.proc->mm));
  EXPECT_EQ(rig.chk.violation_count(), 0u) << rig.chk.Summary();
}

TEST(QueueBackendTest, OverflowFallsBackToFlushAll) {
  SystemConfig cfg = QueueConfig(OptimizationSet::AllGeneral());
  cfg.machine.costs.queue_ring_entries = 4;
  QueueRig rig(cfg);
  // 8 pages into a 4-entry ring: the 5th enqueue overflows and converts the
  // remainder into the responder-side flush_all flag.
  rig.RunMadvise(8);
  const QueueFlushBackend::Stats& s = rig.sys.queue()->stats();
  EXPECT_EQ(s.enqueued, 4u);
  EXPECT_EQ(s.ring_overflows, 1u);
  EXPECT_EQ(s.flush_all_fallbacks, 1u);
  EXPECT_EQ(s.drain_flush_all, 1u);
  EXPECT_GE(s.drain_full, 1u);
  EXPECT_EQ(s.ack_timeouts, 0u);
  EXPECT_EQ(rig.sys.queue()->ack_gen(30), rig.sys.queue()->next_tlb_gen());
  // The fallback full flush keeps the responder's TLB coherent and silent
  // under checking — the safety valve works.
  EXPECT_TRUE(TlbCoherent(rig.sys, *rig.proc->mm));
  EXPECT_EQ(rig.chk.violation_count(), 0u) << rig.chk.Summary();
}

TEST(QueueBackendTest, ConcurrentShootdownsCoalesceIntoOneFlush) {
  System sys(QueueConfig(OptimizationSet::AllGeneral()));
  CheckContext chk;
  chk.Attach(sys);
  auto* p = sys.kernel().CreateProcess();
  auto* ta = sys.kernel().CreateThread(p, 0);
  auto* tb = sys.kernel().CreateThread(p, 2);
  sys.kernel().CreateThread(p, 4);
  sys.machine().engine().Spawn(0, BusyLoop(sys.machine().cpu(4), 500, 1000));

  // Two initiators fire madvise at (nearly) the same instant. The second to
  // enqueue on cpu4 finds ipi_pending already set, skips its IPI, and the
  // single drain acknowledges both tickets via the generation comparison.
  bool a_ready = false;
  bool b_ready = false;
  auto initiate = [&](Thread* t, bool* mine, bool* other, Cycles skew) -> Co<void> {
    Kernel& k = sys.kernel();
    SimCpu& cpu = sys.machine().cpu(t->cpu);
    uint64_t addr = co_await k.SysMmap(*t, 4 * kPageSize4K, true, false);
    for (int i = 0; i < 4; ++i) {
      co_await k.UserAccess(*t, addr + i * kPageSize4K, true);
    }
    *mine = true;
    while (!*other) {
      co_await cpu.Execute(100);
    }
    co_await cpu.Execute(skew);
    co_await k.SysMadviseDontneed(*t, addr, 4 * kPageSize4K);
  };
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    co_await initiate(ta, &a_ready, &b_ready, 0);
  }));
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    co_await initiate(tb, &b_ready, &a_ready, 100);
  }));
  sys.machine().engine().Run();

  const QueueFlushBackend::Stats& s = sys.queue()->stats();
  EXPECT_EQ(s.shootdowns, 2u);
  EXPECT_GE(s.ipi_coalesced, 1u);  // the second initiator rode the first's IPI
  EXPECT_EQ(s.ack_timeouts, 0u);
  // One ack_gen publication covered both tickets on the shared responder.
  EXPECT_EQ(sys.queue()->ack_gen(4), sys.queue()->next_tlb_gen());
  for (int c : {0, 2, 4}) {
    EXPECT_EQ(sys.queue()->RingOccupancy(c), 0u) << "cpu" << c;
  }
  EXPECT_TRUE(TlbCoherent(sys, *p->mm));
  EXPECT_EQ(chk.violation_count(), 0u) << chk.Summary();
}

TEST(QueueBackendTest, SeededStormIsDeterministic) {
  MicroConfig cfg;
  cfg.system.kernel.opts = OptimizationSet::AllGeneral();
  cfg.system.machine.seed = 123;
  cfg.system.backend = FlushBackendKind::kQueue;
  cfg.pages = 4;
  cfg.iterations = 50;
  MicroResult a = RunMadviseMicrobench(cfg);
  MicroResult b = RunMadviseMicrobench(cfg);
  EXPECT_EQ(a.initiator.mean(), b.initiator.mean());
  EXPECT_EQ(a.responder_cycles_per_op, b.responder_cycles_per_op);
  EXPECT_EQ(a.shootdowns, b.shootdowns);
  // The full registry snapshot — every queue.* counter and histogram —
  // replays byte-identically under the same seed.
  EXPECT_EQ(a.metrics.Dump(2), b.metrics.Dump(2));
}

TEST(QueueBackendTest, OverflowWithoutFallbackIsExactlyOneViolation) {
  SystemConfig cfg = QueueConfig(OptimizationSet::AllGeneral());
  cfg.machine.costs.queue_ring_entries = 4;
  System sys(cfg);
  CheckContext chk;
  chk.Attach(sys);
  auto* p = sys.kernel().CreateProcess();
  auto* t0 = sys.kernel().CreateThread(p, 0);
  auto* t1 = sys.kernel().CreateThread(p, 2);
  FaultInjection fi;
  fi.ring_overflow_no_fallback = true;
  sys.queue()->set_fault_injection(fi);

  // The victim warms TLB entries for exactly the pages the overflow will
  // drop (indices 4..7 of an 8-page flush into a 4-entry ring), then idles
  // without touching them again — so the only report is the overflow itself.
  uint64_t addr = 0;
  bool warmed = false;
  bool done = false;
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    Kernel& k = sys.kernel();
    addr = co_await k.SysMmap(*t0, 8 * kPageSize4K, true, false);
    for (int i = 0; i < 8; ++i) {
      co_await k.UserAccess(*t0, addr + i * kPageSize4K, true);
    }
    while (!warmed) {
      co_await sys.machine().cpu(0).Execute(200);
    }
    co_await k.SysMadviseDontneed(*t0, addr, 8 * kPageSize4K);
    done = true;
  }));
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    Kernel& k = sys.kernel();
    while (addr == 0) {
      co_await sys.machine().cpu(2).Execute(200);
    }
    for (int i = 4; i < 8; ++i) {
      co_await k.UserAccess(*t1, addr + i * kPageSize4K, false);
    }
    warmed = true;
    while (!done) {
      co_await sys.machine().cpu(2).Execute(200);
    }
  }));
  sys.machine().engine().Run();

  const QueueFlushBackend::Stats& s = sys.queue()->stats();
  EXPECT_EQ(s.ring_overflows, 1u);
  EXPECT_EQ(s.flush_all_fallbacks, 0u);
  ASSERT_EQ(chk.violation_count(), 1u) << chk.Summary();
  EXPECT_EQ(chk.violations()[0].kind, ViolationKind::kQueueOverflowLost);
  EXPECT_EQ(chk.violations()[0].cpu, 2);
}

TEST(QueueBackendTest, DroppedResendTimesOutAsExactlyOneViolation) {
  SystemConfig cfg = QueueConfig(OptimizationSet::AllGeneral());
  // Stretch the responder's ack-publication window so the second shootdown
  // lands inside it deterministically: its enqueue coalesces against the
  // dying IPI and only the (dropped) resend could reach the responder.
  cfg.machine.costs.queue_ack_publish = 200000;
  System sys(cfg);
  CheckContext chk;
  chk.Attach(sys);
  // Two initiators in two processes whose mms share only the responder cpu4:
  // keeping each initiator off the other's target list means neither is
  // stalled behind a 200k-cycle drain of its own CPU, so B's enqueue timing
  // below is governed purely by its explicit delay. pb's responder thread is
  // created last so cpu4 stays loaded with pb's mm (pa's entries drain via
  // the skipped-mm path, acked by queue generation alone).
  auto* pa = sys.kernel().CreateProcess();
  auto* ta = sys.kernel().CreateThread(pa, 0);
  sys.kernel().CreateThread(pa, 4);
  auto* pb = sys.kernel().CreateProcess();
  auto* tb = sys.kernel().CreateThread(pb, 2);
  sys.kernel().CreateThread(pb, 4);
  sys.machine().engine().Spawn(0, BusyLoop(sys.machine().cpu(4), 500, 1000));
  FaultInjection fi;
  fi.drop_ipi_resend = true;
  sys.queue()->set_fault_injection(fi);

  bool a_started = false;
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    Kernel& k = sys.kernel();
    uint64_t a = co_await k.SysMmap(*ta, 2 * kPageSize4K, true, false);
    for (int i = 0; i < 2; ++i) {
      co_await k.UserAccess(*ta, a + i * kPageSize4K, true);
    }
    a_started = true;
    co_await k.SysMadviseDontneed(*ta, a, 2 * kPageSize4K);
  }));
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    Kernel& k = sys.kernel();
    uint64_t b = co_await k.SysMmap(*tb, 2 * kPageSize4K, true, false);
    for (int i = 0; i < 2; ++i) {
      co_await k.UserAccess(*tb, b + i * kPageSize4K, true);
    }
    while (!a_started) {
      co_await sys.machine().cpu(2).Execute(100);
    }
    // Land inside cpu4's publication window: well after its final head
    // check (~2k cycles into the drain) and well before the window closes.
    co_await sys.machine().cpu(2).Execute(20000);
    co_await k.SysMadviseDontneed(*tb, b, 2 * kPageSize4K);
  }));
  sys.machine().engine().Run();

  const QueueFlushBackend::Stats& s = sys.queue()->stats();
  EXPECT_GE(s.ipi_coalesced, 1u);
  EXPECT_EQ(s.ipi_resends, 0u);  // the fault swallowed every retry IPI
  EXPECT_EQ(s.ack_timeouts, 1u);
  ASSERT_EQ(chk.violation_count(), 1u) << chk.Summary();
  EXPECT_EQ(chk.violations()[0].kind, ViolationKind::kQueueAckTimeout);
  EXPECT_EQ(chk.violations()[0].cpu, 4);
}

}  // namespace
}  // namespace tlbsim
