// Alternative TLB-shootdown designs the paper compares against (§2.2/§2.3):
//
//  - FreeBsdShootdownEngine: FreeBSD's scheme. One global smp_ipi_mtx allows
//    a single shootdown to be delivered and served at a time (paper §3.3),
//    the local flush strictly precedes the IPIs, responders ack only after
//    flushing, and there is no generation tracking — every responder always
//    executes the requested flush. Full-flush ceiling is 4096 entries
//    (paper §2.1 [17]).
//
//  - LatrEngine: a LATR-like lazy scheme (§2.3.2 [21]). The initiator
//    flushes locally and appends the flush to per-CPU lazy queues WITHOUT
//    sending IPIs; remote CPUs drain their queues at their next kernel
//    entry/exit or scheduler tick. Freed pages must survive until every CPU
//    has drained (an epoch), so munmap's pages are reclaimed asynchronously —
//    reproducing the semantic change the paper criticizes: after munmap
//    returns, a stale translation may still be usable on another core until
//    its epoch ends (breaking userfaultfd-style expectations).
#ifndef TLBSIM_SRC_CORE_ALTERNATIVES_H_
#define TLBSIM_SRC_CORE_ALTERNATIVES_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/kernel/flush_backend.h"
#include "src/kernel/kernel.h"

namespace tlbsim {

class FreeBsdShootdownEngine final : public TlbFlushBackend {
 public:
  struct Stats {
    uint64_t shootdowns = 0;
    uint64_t local_only = 0;
    uint64_t mutex_waits = 0;  // shootdowns that had to queue on smp_ipi_mtx
    uint64_t invlpg_issued = 0;
    uint64_t full_flushes = 0;
  };

  explicit FreeBsdShootdownEngine(Kernel* kernel);

  FlushStats flush_stats() const override;
  Co<void> FlushRange(SimCpu& cpu, MmStruct& mm, uint64_t start, uint64_t end, int stride_shift,
                      bool freed_tables) override;
  Co<void> OnReturnToUser(SimCpu& cpu, MmStruct& mm) override;
  Co<void> OnCowFault(SimCpu& cpu, MmStruct& mm, uint64_t va, bool executable) override;
  void BeginBatch(SimCpu& cpu, MmStruct& mm) override;
  Co<void> EndBatch(SimCpu& cpu, MmStruct& mm) override;
  Co<void> OnSwitchIn(SimCpu& cpu, MmStruct& mm) override;
  Co<void> HandleFlushIrq(SimCpu& cpu) override;

  const Stats& stats() const { return stats_; }

  // FreeBSD flushes whole TLBs above 4096 entries (vs Linux's 33).
  static constexpr uint64_t kFullFlushCeiling = 4096;

 private:
  Co<void> LocalFlush(SimCpu& cpu, MmStruct& mm, const FlushTlbInfo& info);

  Kernel* kernel_;
  // smp_ipi_mtx: serializes every shootdown machine-wide.
  bool mtx_held_ = false;
  SimFlag mtx_release_;
  // The single in-flight request (valid while mtx_held_).
  FlushTlbInfo current_;
  Stats stats_;
};

class LatrEngine final : public TlbFlushBackend {
 public:
  struct Stats {
    uint64_t flushes_queued = 0;   // lazy per-CPU queue entries
    uint64_t drains = 0;           // queue drains at sync points
    uint64_t local_only = 0;
    uint64_t epochs_started = 0;
  };

  // Delay before lazily-invalidated pages may be reclaimed (LATR uses the
  // next scheduler tick, ~1ms; scaled down here).
  static constexpr Cycles kEpochCycles = 200000;

  explicit LatrEngine(Kernel* kernel);

  FlushStats flush_stats() const override;
  Co<void> FlushRange(SimCpu& cpu, MmStruct& mm, uint64_t start, uint64_t end, int stride_shift,
                      bool freed_tables) override;
  Co<void> OnReturnToUser(SimCpu& cpu, MmStruct& mm) override;
  Co<void> OnCowFault(SimCpu& cpu, MmStruct& mm, uint64_t va, bool executable) override;
  void BeginBatch(SimCpu& cpu, MmStruct& mm) override;
  Co<void> EndBatch(SimCpu& cpu, MmStruct& mm) override;
  Co<void> OnSwitchIn(SimCpu& cpu, MmStruct& mm) override;
  Co<void> HandleFlushIrq(SimCpu& cpu) override;

  const Stats& stats() const { return stats_; }

  // Drains cpu's lazy queue (called from the kernel-exit hook and ticks).
  Co<void> Drain(SimCpu& cpu);

  // True while some lazily-flushed range has not reached its epoch end —
  // the window in which LATR's semantics differ from POSIX (stale
  // translations may still be used on remote cores).
  bool HasPendingLazyFlushes() const;

 private:
  Co<void> LocalFlush(SimCpu& cpu, const FlushTlbInfo& info);

  Kernel* kernel_;
  std::vector<std::deque<FlushTlbInfo>> queues_;  // per CPU
  int pending_epochs_ = 0;
  Stats stats_;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_CORE_ALTERNATIVES_H_
