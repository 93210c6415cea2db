// Fault-injection tests for the tlbcheck analysis subsystem (src/check/):
// each test deliberately breaks one link of the shootdown protocol via
// ShootdownEngine fault injection and asserts that tlbcheck reports exactly
// the expected classified violation — plus clean-run tests asserting the
// checkers stay silent when the protocol is intact, and the two RwSem rules
// driven through real semaphores.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/check/check_context.h"
#include "src/core/fault_injection.h"
#include "src/core/system.h"
#include "src/kernel/rwsem.h"
#include "tests/testutil.h"

namespace tlbsim {
namespace {

// Rig shared by the lost-flush style tests: two threads of one process on
// cpu0 (initiator) and cpu2 (victim). The victim warms a TLB entry for one
// page, the initiator zaps that page (madvise), then the victim touches it
// again. With an intact protocol the second touch page-faults and remaps;
// with an injected lost flush it silently consumes the stale translation.
struct TwoCpuRig {
  System sys;
  CheckContext chk;
  Process* p = nullptr;
  Thread* t0 = nullptr;
  Thread* t1 = nullptr;
  uint64_t addr = 0;
  bool warmed = false;
  bool zapped = false;

  explicit TwoCpuRig(OptimizationSet opts, bool pti = true) : sys(TestConfig(opts, pti)) {
    chk.Attach(sys);  // before CreateProcess: the checker sees every mm
    p = sys.kernel().CreateProcess();
    t0 = sys.kernel().CreateThread(p, 0);
    t1 = sys.kernel().CreateThread(p, 2);
  }

  void Run(bool victim_touches_after) {
    Kernel& k = sys.kernel();
    sys.machine().engine().Spawn(0, Go([this, &k]() -> Co<void> {
      addr = co_await k.SysMmap(*t0, 8 * kPageSize4K, true, false);
      co_await k.UserAccess(*t0, addr, true);  // populate the page
      while (!warmed) {
        co_await sys.machine().cpu(0).Execute(200);
      }
      co_await k.SysMadviseDontneed(*t0, addr, kPageSize4K);
      zapped = true;
    }));
    sys.machine().engine().Spawn(0, Go([this, &k, victim_touches_after]() -> Co<void> {
      while (addr == 0) {
        co_await sys.machine().cpu(2).Execute(200);
      }
      co_await k.UserAccess(*t1, addr, false);  // warm the victim's TLB
      warmed = true;
      while (!zapped) {
        co_await sys.machine().cpu(2).Execute(200);
      }
      if (victim_touches_after) {
        co_await k.UserAccess(*t1, addr, false);
      }
    }));
    sys.machine().engine().Run();
  }
};

TEST(TlbCheckTest, CleanRunReportsNothing) {
  for (int mask = 0; mask < 2; ++mask) {
    TwoCpuRig rig(mask == 0 ? OptimizationSet{} : OptimizationSet::All());
    rig.Run(/*victim_touches_after=*/true);
    EXPECT_EQ(rig.chk.violation_count(), 0u) << rig.chk.Summary();
  }
}

TEST(TlbCheckTest, DroppedResponderFlushIsLostFlush) {
  TwoCpuRig rig(OptimizationSet{});
  FaultInjection fi;
  fi.drop_responder_flush = true;
  rig.sys.shootdown().set_fault_injection(fi);
  rig.Run(/*victim_touches_after=*/true);

  ASSERT_EQ(rig.chk.violation_count(), 1u) << rig.chk.Summary();
  EXPECT_EQ(rig.chk.CountOf(ViolationKind::kLostFlush), 1u) << rig.chk.Summary();
  const Violation& v = rig.chk.violations()[0];
  EXPECT_EQ(v.cpu, 2);
  EXPECT_EQ(v.va, rig.addr);
  EXPECT_GE(v.applied_gen, v.write_gen);  // the lost-flush signature
}

TEST(TlbCheckTest, SkippedAckWaitLeavesStaleCpu) {
  TwoCpuRig rig(OptimizationSet{});
  FaultInjection fi;
  fi.skip_ack_wait = true;
  rig.sys.shootdown().set_fault_injection(fi);
  rig.Run(/*victim_touches_after=*/false);

  ASSERT_EQ(rig.chk.violation_count(), 1u) << rig.chk.Summary();
  EXPECT_EQ(rig.chk.CountOf(ViolationKind::kShootdownLeftStaleCpu), 1u) << rig.chk.Summary();
  EXPECT_EQ(rig.chk.violations()[0].cpu, 2);  // the CPU left behind
}

TEST(TlbCheckTest, NonMonotoneGenBumpIsReported) {
  System sys(TestConfig(OptimizationSet{}));
  CheckContext chk;
  chk.Attach(sys);
  FaultInjection fi;
  fi.gen_bump_decrement = true;
  sys.shootdown().set_fault_injection(fi);

  Kernel& k = sys.kernel();
  auto* p = k.CreateProcess();
  auto* t = k.CreateThread(p, 0);
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    uint64_t a = co_await k.SysMmap(*t, 4 * kPageSize4K, true, false);
    co_await k.UserAccess(*t, a, true);
    co_await k.SysMadviseDontneed(*t, a, kPageSize4K);  // gen 1 -> 2 (guard: >1)
    co_await k.UserAccess(*t, a, true);                 // re-fault the page
    co_await k.SysMadviseDontneed(*t, a, kPageSize4K);  // injected: gen 2 -> 1
  }));
  sys.machine().engine().Run();

  ASSERT_EQ(chk.violation_count(), 1u) << chk.Summary();
  EXPECT_EQ(chk.CountOf(ViolationKind::kNonMonotoneGen), 1u) << chk.Summary();
}

TEST(TlbCheckTest, SkippedUserFlushOnSelectivePathIsLostFlush) {
  System sys(TestConfig(OptimizationSet{}, /*pti=*/true));
  CheckContext chk;
  chk.Attach(sys);
  FaultInjection fi;
  fi.skip_user_flush = true;
  sys.shootdown().set_fault_injection(fi);

  Kernel& k = sys.kernel();
  auto* p = k.CreateProcess();
  auto* t = k.CreateThread(p, 0);
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    uint64_t a = co_await k.SysMmap(*t, 4 * kPageSize4K, true, false);
    co_await k.UserAccess(*t, a, true);                 // warm the user-PCID entry
    co_await k.SysMadviseDontneed(*t, a, kPageSize4K);  // selective; user half skipped
    co_await k.UserAccess(*t, a, false);                // consumes the stale entry
  }));
  sys.machine().engine().Run();

  ASSERT_EQ(chk.violation_count(), 1u) << chk.Summary();
  EXPECT_EQ(chk.CountOf(ViolationKind::kLostFlush), 1u) << chk.Summary();
  EXPECT_EQ(chk.violations()[0].pcid, p->mm->user_pcid);
}

TEST(TlbCheckTest, SkippedUserFlushOnFullPathIsPtiPairingMissing) {
  System sys(TestConfig(OptimizationSet{}, /*pti=*/true));
  CheckContext chk;
  chk.Attach(sys);
  FaultInjection fi;
  fi.skip_user_flush = true;
  sys.shootdown().set_fault_injection(fi);

  Kernel& k = sys.kernel();
  auto* p = k.CreateProcess();
  auto* t = k.CreateThread(p, 0);
  // 34 pages > the 33-page threshold: the flush converts to a full flush,
  // which under PTI must pair kernel-PCID work with user-PCID coverage.
  constexpr uint64_t kPages = 34;
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    uint64_t a = co_await k.SysMmap(*t, kPages * kPageSize4K, true, false);
    for (uint64_t i = 0; i < kPages; ++i) {
      co_await k.UserAccess(*t, a + i * kPageSize4K, true);
    }
    co_await k.SysMadviseDontneed(*t, a, kPages * kPageSize4K);
  }));
  sys.machine().engine().Run();

  ASSERT_EQ(chk.violation_count(), 1u) << chk.Summary();
  EXPECT_EQ(chk.CountOf(ViolationKind::kPtiPairingMissing), 1u) << chk.Summary();
}

TEST(TlbCheckTest, UnguardedEarlyAckIsReported) {
  OptimizationSet opts;
  opts.concurrent_flush = true;
  opts.early_ack = true;
  System sys(TestConfig(opts));
  CheckContext chk;
  chk.Attach(sys);
  FaultInjection fi;
  fi.skip_early_ack_guard = true;
  sys.shootdown().set_fault_injection(fi);

  Kernel& k = sys.kernel();
  auto* p = k.CreateProcess();
  auto* t0 = k.CreateThread(p, 0);
  auto* t1 = k.CreateThread(p, 30);
  (void)t1;
  sys.machine().engine().Spawn(0, BusyLoop(sys.machine().cpu(30), 500, 1000));
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    uint64_t a = co_await k.SysMmap(*t0, 8 * kPageSize4K, true, false);
    co_await k.UserAccess(*t0, a, true);
    co_await k.SysMadviseDontneed(*t0, a, kPageSize4K);
  }));
  sys.machine().engine().Run();

  // The unguarded early ack itself must be flagged; depending on timing the
  // initiator may additionally observe the responder's stale generation at
  // completion (that is the *consequence* of the missing guard).
  EXPECT_EQ(chk.CountOf(ViolationKind::kEarlyAckUnguarded), 1u) << chk.Summary();
  EXPECT_LE(chk.violation_count(), 2u) << chk.Summary();
}

TEST(TlbCheckTest, ExecutableCowAvoidanceIsReported) {
  OptimizationSet opts;
  opts.cow_avoidance = true;
  System sys(TestConfig(opts));
  CheckContext chk;
  chk.Attach(sys);
  FaultInjection fi;
  fi.cow_avoid_executable = true;  // treat the executable page as data
  sys.shootdown().set_fault_injection(fi);

  Kernel& k = sys.kernel();
  auto* p = k.CreateProcess();
  auto* t = k.CreateThread(p, 0);
  File* f = k.CreateFile(1 << 16);
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    uint64_t a = co_await k.SysMmap(*t, 4 * kPageSize4K, true, /*shared=*/false, f);
    p->mm->FindVma(a)->executable = true;    // code mapping
    co_await k.UserAccess(*t, a, false);     // map RO + CoW (file page shared)
    co_await k.UserAccess(*t, a, true);      // CoW break -> avoidance (injected)
  }));
  sys.machine().engine().Run();

  ASSERT_EQ(chk.violation_count(), 1u) << chk.Summary();
  EXPECT_EQ(chk.CountOf(ViolationKind::kCowUnsafeAvoidance), 1u) << chk.Summary();
}

TEST(TlbCheckTest, FactoryAttachesCheckerThroughSystemConfig) {
  InstallTlbCheckFactory();
  SystemConfig cfg = TestConfig(OptimizationSet::All());
  cfg.check = true;
  System sys(cfg);
  ASSERT_NE(sys.checker(), nullptr);

  Kernel& k = sys.kernel();
  auto* p = k.CreateProcess();
  auto* t = k.CreateThread(p, 0);
  (void)p;
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    uint64_t a = co_await k.SysMmap(*t, 8 * kPageSize4K, true, false);
    for (int i = 0; i < 8; ++i) {
      co_await k.UserAccess(*t, a + static_cast<uint64_t>(i) * kPageSize4K, true);
    }
    co_await k.SysMadviseDontneed(*t, a, 8 * kPageSize4K);
  }));
  sys.machine().engine().Run();

  EXPECT_EQ(sys.checker()->violation_count(), 0u) << sys.checker()->Summary();
}

// NUMA system with per-socket page-table replication (Mitosis). The clean
// run must be silent; with replica propagation faulted out, the replicas
// diverge from the primary and the flush-ack-time scan classifies it.
SystemConfig ReplicationConfig() {
  SystemConfig cfg = TestConfig(OptimizationSet{});
  cfg.kernel.opts.pt_replication = true;
  cfg.machine.numa.nodes = 2;
  return cfg;
}

// Touch two pages, madvise one. Two pages matter: with propagation skipped,
// the initial Maps never reach the replica either, so a single-page scenario
// ends with primary and replica both empty — agreeing by accident. The
// second, unzapped page keeps the primary non-empty and exposes the skew.
SimTask ReplicaStormProgram(System& sys, Thread& t, Thread& victim) {
  Kernel& k = sys.kernel();
  (void)victim;  // parked on the remote socket so its CPU is a flush target
  uint64_t a = co_await k.SysMmap(t, 2 * kPageSize4K, true, false);
  co_await k.UserAccess(t, a, true);
  co_await k.UserAccess(t, a + kPageSize4K, true);
  co_await k.SysMadviseDontneed(t, a, kPageSize4K);
}

TEST(TlbCheckTest, ReplicatedCleanRunReportsNothing) {
  System sys(ReplicationConfig());
  CheckContext chk;
  chk.Attach(sys);
  Kernel& k = sys.kernel();
  auto* p = k.CreateProcess();
  auto* t0 = k.CreateThread(p, 0);
  auto* t1 = k.CreateThread(p, 30);  // socket 1 = node 1
  ASSERT_TRUE(p->mm->pt.replicated());
  sys.machine().engine().Spawn(0, ReplicaStormProgram(sys, *t0, *t1));
  sys.machine().engine().Run();
  EXPECT_EQ(chk.violation_count(), 0u) << chk.Summary();
}

TEST(TlbCheckTest, SkippedReplicaPropagationIsReplicaDivergence) {
  System sys(ReplicationConfig());
  CheckContext chk;
  chk.Attach(sys);
  Kernel& k = sys.kernel();
  auto* p = k.CreateProcess();
  auto* t0 = k.CreateThread(p, 0);
  auto* t1 = k.CreateThread(p, 30);
  FaultInjection fi;
  fi.skip_replica_propagation = true;
  sys.shootdown().set_fault_injection(fi);  // reaches the existing mm too
  sys.machine().engine().Spawn(0, ReplicaStormProgram(sys, *t0, *t1));
  sys.machine().engine().Run();

  ASSERT_EQ(chk.violation_count(), 1u) << chk.Summary();
  EXPECT_EQ(chk.CountOf(ViolationKind::kReplicaDivergence), 1u) << chk.Summary();
  const Violation& v = chk.violations()[0];
  EXPECT_EQ(v.cpu, 0);  // flagged on the initiator at shootdown completion
  EXPECT_NE(v.va, 0u);
}

TEST(TlbCheckTest, ViolationJsonIsDeterministicallyShaped) {
  TwoCpuRig rig(OptimizationSet{});
  FaultInjection fi;
  fi.drop_responder_flush = true;
  rig.sys.shootdown().set_fault_injection(fi);
  rig.Run(/*victim_touches_after=*/true);

  Json j = rig.chk.ToJson();
  EXPECT_EQ(j.Find("violations")->AsUint(), 1u);
  ASSERT_EQ(j.Find("reports")->size(), 1u);
  const Json& r = j.Find("reports")->items()[0];
  std::vector<std::string> keys;
  for (const auto& [key, value] : r.members()) {
    keys.push_back(key);
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"kind", "time", "cpu", "mm", "va", "pcid",
                                            "write_gen", "applied_gen", "detail"}));
  EXPECT_EQ(r.Find("kind")->AsString(), "lost_flush");
  EXPECT_EQ(r.Find("cpu")->AsInt(), 2);
  EXPECT_TRUE(r.Find("detail")->is_string());
}

// --- RwSem rules (mmap_sem is a sleeping reader-writer lock) ---

struct LockRig {
  System sys{TestConfig(OptimizationSet{})};
  CheckContext chk;
  LockRig() { chk.Attach(sys); }
  Engine* engine() { return &sys.machine().engine(); }
  SimCpu& cpu(int i) { return sys.machine().cpu(i); }
};

TEST(TlbCheckTest, ExclusiveReacquisitionIsRecursive) {
  LockRig rig;
  // Two semaphores: holding one while exclusively taking another is the
  // self-deadlock pattern the rule exists for, whichever instance it is.
  RwSem outer(rig.engine());
  RwSem inner(rig.engine());
  rig.engine()->Spawn(0, Go([&]() -> Co<void> {
    SimCpu& cpu = rig.cpu(0);
    co_await outer.Lock(cpu, true);
    co_await inner.Lock(cpu, true);
    inner.Unlock(cpu, true);
    outer.Unlock(cpu, true);
  }));
  rig.engine()->Run();

  ASSERT_EQ(rig.chk.violation_count(), 1u) << rig.chk.Summary();
  EXPECT_EQ(rig.chk.CountOf(ViolationKind::kRecursiveLock), 1u) << rig.chk.Summary();
}

TEST(TlbCheckTest, SharedReacquisitionIsPermitted) {
  LockRig rig;
  RwSem outer(rig.engine());
  RwSem inner(rig.engine());
  rig.engine()->Spawn(0, Go([&]() -> Co<void> {
    SimCpu& cpu = rig.cpu(0);
    co_await outer.Lock(cpu, false);  // down_read twice is fine
    co_await inner.Lock(cpu, false);
    inner.Unlock(cpu, false);
    outer.Unlock(cpu, false);
  }));
  rig.engine()->Run();
  EXPECT_EQ(rig.chk.violation_count(), 0u) << rig.chk.Summary();
}

TEST(TlbCheckTest, IrqContextAcquisitionIsReported) {
  LockRig rig;
  RwSem sem(rig.engine());
  SimCpu& cpu = rig.cpu(0);
  cpu.RegisterIrqHandler(77, [&sem](SimCpu& c) -> Co<void> {
    co_await sem.Lock(c, true);
    sem.Unlock(c, true);
  });
  rig.engine()->Spawn(0, Go([&]() -> Co<void> {
    co_await sem.Lock(cpu, true);  // task context, IRQs on: permitted
    co_await cpu.Execute(500);
    sem.Unlock(cpu, true);
    co_await cpu.Execute(2000);  // window for the IRQ-context acquisition
  }));
  rig.engine()->Schedule(1000, [&] { cpu.RaiseIrq(77); });
  rig.engine()->Run();

  ASSERT_EQ(rig.chk.violation_count(), 1u) << rig.chk.Summary();
  EXPECT_EQ(rig.chk.CountOf(ViolationKind::kIrqUnsafeLock), 1u) << rig.chk.Summary();
}

// --- Optimization #7 (reuse_elision) ---

OptimizationSet ReuseOpts() {
  OptimizationSet o;
  o.reuse_elision = true;
  return o;
}

TEST(TlbCheckTest, CleanReuseElisionRunReportsNothing) {
  // The elided zap leaves the victim's entry live and the benign refault
  // re-legitimizes it: the checker's reuse license must keep both the stale
  // hit and the never-bumped write record out of the violation report.
  TwoCpuRig rig(ReuseOpts());
  rig.Run(/*victim_touches_after=*/true);
  EXPECT_EQ(rig.chk.violation_count(), 0u) << rig.chk.Summary();
  EXPECT_EQ(rig.sys.kernel().stats().reuse_elided_flushes, 1u);
}

// Rig for the frame hand-off path: process A (initiator cpu0, victim cpu2)
// elides a zap; process B on cpu1 then faults an anonymous page and the
// allocator hands it A's just-freed frame, force-closing the license. The
// victim touches the zapped va once more after the hand-off.
struct ReuseHandoffRig {
  System sys;
  CheckContext chk;
  Process* pa = nullptr;
  Thread* a0 = nullptr;
  Thread* a1 = nullptr;
  Process* pb = nullptr;
  Thread* b0 = nullptr;
  uint64_t addr = 0;
  bool warmed = false;
  bool zapped = false;
  bool handed = false;

  ReuseHandoffRig() : sys(TestConfig(ReuseOpts())) {
    chk.Attach(sys);
    pa = sys.kernel().CreateProcess();
    a0 = sys.kernel().CreateThread(pa, 0);
    a1 = sys.kernel().CreateThread(pa, 2);
    pb = sys.kernel().CreateProcess();
    b0 = sys.kernel().CreateThread(pb, 1);
  }

  void Run() {
    Kernel& k = sys.kernel();
    sys.machine().engine().Spawn(0, Go([this, &k]() -> Co<void> {
      addr = co_await k.SysMmap(*a0, 8 * kPageSize4K, true, false);
      co_await k.UserAccess(*a0, addr, true);
      while (!warmed) {
        co_await sys.machine().cpu(0).Execute(200);
      }
      co_await k.SysMadviseDontneed(*a0, addr, kPageSize4K);  // elided
      zapped = true;
    }));
    sys.machine().engine().Spawn(0, Go([this, &k]() -> Co<void> {
      while (!zapped) {
        co_await sys.machine().cpu(1).Execute(200);
      }
      uint64_t b_addr = co_await k.SysMmap(*b0, kPageSize4K, true, false);
      co_await k.UserAccess(*b0, b_addr, true);  // takes A's freed frame
      handed = true;
    }));
    sys.machine().engine().Spawn(0, Go([this, &k]() -> Co<void> {
      while (addr == 0) {
        co_await sys.machine().cpu(2).Execute(200);
      }
      co_await k.UserAccess(*a1, addr, false);  // warm the victim's TLB
      warmed = true;
      while (!handed) {
        co_await sys.machine().cpu(2).Execute(200);
      }
      co_await k.UserAccess(*a1, addr, false);
    }));
    sys.machine().engine().Run();
  }
};

TEST(TlbCheckTest, ReuseFrameHandoffPurgeKeepsVictimClean) {
  ReuseHandoffRig rig;
  rig.Run();
  EXPECT_GE(rig.sys.kernel().stats().reuse_frame_handoffs, 1u);
  EXPECT_EQ(rig.chk.violation_count(), 0u) << rig.chk.Summary();
}

TEST(TlbCheckTest, ReuseElideUnsafeKnobIsExactlyOneViolation) {
  ReuseHandoffRig rig;
  FaultInjection fi;
  fi.reuse_elide_unsafe = true;  // hand-off skips the stale-entry purge
  rig.sys.shootdown().set_fault_injection(fi);
  rig.Run();

  ASSERT_EQ(rig.chk.violation_count(), 1u) << rig.chk.Summary();
  EXPECT_EQ(rig.chk.CountOf(ViolationKind::kReuseElideUnsafe), 1u) << rig.chk.Summary();
  const Violation& v = rig.chk.violations()[0];
  EXPECT_EQ(v.cpu, 2);  // the victim consumed the orphaned translation
  EXPECT_EQ(v.va, rig.addr);
}

}  // namespace
}  // namespace tlbsim
