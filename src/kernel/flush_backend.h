// The interface between the generic kernel and the TLB-flush protocol.
//
// The kernel (syscalls, fault handler, context switch) calls these hooks at
// the same points Linux calls its tlbflush.h entry points; src/core provides
// the implementation — the baseline Linux 5.2.8 protocol plus the paper's
// optimizations behind feature flags.
#ifndef TLBSIM_SRC_KERNEL_FLUSH_BACKEND_H_
#define TLBSIM_SRC_KERNEL_FLUSH_BACKEND_H_

#include <cstdint>

#include "src/hw/cpu.h"
#include "src/sim/metrics.h"
#include "src/sim/task.h"

namespace tlbsim {

struct MmStruct;

class TlbFlushBackend {
 public:
  // The counters workloads report, in one shape for every protocol; a field
  // a protocol has no notion of reads 0.
  struct FlushStats {
    uint64_t shootdowns = 0;          // flushes that reached a remote CPU
    uint64_t early_acks = 0;          // §3.2 acks sent at handler entry
    uint64_t cow_flush_avoided = 0;   // §4.1 CoW faults that skipped the flush
    uint64_t storm_full_flushes = 0;  // responder full flushes forced by a generation gap
    uint64_t skipped_gen = 0;         // responder work a newer flush already covered
  };

  virtual ~TlbFlushBackend() = default;

  virtual FlushStats flush_stats() const = 0;

  // Copies the protocol's own Stats into `metrics` as "<protocol>.<field>"
  // counters (src/core/snapshot.h). The related-work designs publish none.
  virtual void PublishMetrics(MetricsRegistry& /*metrics*/) const {}

  // flush_tlb_mm_range(): PTEs in [start, end) changed; synchronize every
  // TLB that may cache them. `freed_tables` when paging structures are being
  // released (munmap) — this forbids early acknowledgement (§3.2).
  virtual Co<void> FlushRange(SimCpu& cpu, MmStruct& mm, uint64_t start, uint64_t end,
                              int stride_shift, bool freed_tables) = 0;

  // Return-to-user transition (syscall exit, IRQ exit to user): apply any
  // deferred user-address-space flushes (§3.4) and load the user PCID.
  virtual Co<void> OnReturnToUser(SimCpu& cpu, MmStruct& mm) = 0;

  // After a CoW PTE upgrade on `va` (§4.1). `executable` PTEs must take the
  // conservative flush path (the write trick cannot reach the ITLB).
  virtual Co<void> OnCowFault(SimCpu& cpu, MmStruct& mm, uint64_t va, bool executable) = 0;

  // Userspace-safe batching window (§4.2): opened before a suitable syscall
  // modifies PTEs, closed (with a completion barrier) before mmap_sem drops.
  virtual void BeginBatch(SimCpu& cpu, MmStruct& mm) = 0;
  virtual Co<void> EndBatch(SimCpu& cpu, MmStruct& mm) = 0;

  // Address space becomes active on `cpu` (context switch in / lazy exit):
  // catch up with the mm's TLB generation if this CPU missed flushes.
  virtual Co<void> OnSwitchIn(SimCpu& cpu, MmStruct& mm) = 0;

  // CALL_FUNCTION_VECTOR handler body: drain the CPU's call-single-queue.
  virtual Co<void> HandleFlushIrq(SimCpu& cpu) = 0;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_KERNEL_FLUSH_BACKEND_H_
