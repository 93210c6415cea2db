// Kernel/protocol-side observation interface for the tlbcheck analysis
// subsystem (src/check/). The Kernel holds one nullable sink pointer shared
// with the ShootdownEngine; all call sites are null-guarded, so the hooks are
// zero-cost when checking is off.
//
// The events trace the steps of the tlb_gen generation protocol that the
// shootdown's correctness argument is built on:
//
//   tlb_gen bump -> IPI send -> responder ack -> local flush -> completion
//
// plus the state transitions (catch-up windows, CoW avoidance) whose timing
// the invariant checker must know about to avoid false positives. PTE writes
// reach the checker through the page table's PteWriteObserver
// (src/mm/page_table.h), not through this sink.
#ifndef TLBSIM_SRC_KERNEL_PROTOCOL_CHECK_H_
#define TLBSIM_SRC_KERNEL_PROTOCOL_CHECK_H_

#include <cstdint>
#include <span>

namespace tlbsim {

class SimCpu;
struct MmStruct;

class ProtocolCheckSink {
 public:
  virtual ~ProtocolCheckSink() = default;

  // An address space came to life (CreateProcess); the checker registers its
  // PCIDs and installs the PTE-write observer on its page table.
  virtual void OnMmCreated(MmStruct& mm) = 0;

  // mm->context.tlb_gen was published as `new_gen`, covering [start, end)
  // (the pre-threshold-conversion range; end == kFlushAll covers everything).
  virtual void OnTlbGenBump(SimCpu& cpu, MmStruct& mm, uint64_t new_gen, uint64_t start,
                            uint64_t end) = 0;

  // The initiator enqueued CFDs and fired the IPI for generation `gen`. No
  // check reads it (default no-op); it marks the send phase's start.
  virtual void OnIpiSent(SimCpu& cpu, MmStruct& mm, uint64_t gen,
                         std::span<const int> targets) {
    (void)cpu; (void)mm; (void)gen; (void)targets;
  }

  // A responder acknowledged `initiator`'s CFD. `early` follows §3.2;
  // `guarded` reports whether unfinished_flushes protects the window.
  virtual void OnAck(SimCpu& cpu, int initiator, bool early, bool guarded) = 0;

  // `cpu` advanced its loaded generation for `mm` to `new_gen`. `full` marks
  // a full (vs selective) flush; `user_covered` reports whether the user-PCID
  // half was flushed, deferred, or is irrelevant (!pti) — the dual-PCID
  // pairing invariant.
  virtual void OnLocalGenApplied(SimCpu& cpu, MmStruct& mm, uint64_t new_gen, bool full,
                                 bool user_covered) = 0;

  // The initiator observed every ack: the shootdown for `gen` completed.
  virtual void OnShootdownComplete(SimCpu& cpu, MmStruct& mm, uint64_t gen,
                                   std::span<const int> targets) = 0;

  // §4.1 CoW flush avoidance replaced the flush for `va`; `executable` is the
  // paper's guard condition (must force a real flush when set).
  virtual void OnCowAvoidance(SimCpu& cpu, MmStruct& mm, uint64_t va, bool executable) = 0;

  // --- queue backend (charmos-style async rings; default no-op so the IPI
  // protocol's sinks need not care) ---

  // `target`'s bounded ring overflowed while the initiator enqueued for
  // `gen`; `fallback_set` reports whether the flush_all fallback flag was
  // raised to cover the dropped addresses.
  virtual void OnQueueOverflow(SimCpu& cpu, MmStruct& mm, int target, uint64_t gen,
                               bool fallback_set) {
    (void)cpu; (void)mm; (void)target; (void)gen; (void)fallback_set;
  }

  // The initiator exhausted its spin/backoff/resend budget for `gen` and
  // abandoned `target` without ever observing its ack.
  virtual void OnQueueAckTimeout(SimCpu& cpu, MmStruct& mm, int target, uint64_t gen) {
    (void)cpu; (void)mm; (void)target; (void)gen;
  }

  // --- reuse elision, Optimization #7 (default no-op so the paper's
  // protocol sinks need not care) ---

  // A zap of (va -> pfn) in `mm` skipped its shootdown: stale translations
  // may stay cached until one of the two close events below. The oracle opens
  // a license that REPLACES the generic pending-flush leniency for this page:
  // from here on staleness is benign only while the record provably is.
  virtual void OnReuseElided(SimCpu& cpu, MmStruct& mm, uint64_t va, uint64_t pfn) {
    (void)cpu; (void)mm; (void)va; (void)pfn;
  }

  // The same mm faulted `va` back in over the same frame under
  // same-or-stricter permissions: the stale entries now describe a live
  // translation (possibly over-granting a revoked write bit — the licensed
  // benign window) and no flush is ever needed.
  virtual void OnReuseBenignClose(SimCpu& cpu, MmStruct& mm, uint64_t va, uint64_t pfn) {
    (void)cpu; (void)mm; (void)va; (void)pfn;
  }

  // The record was closed by force: eviction, mismatching re-population, or
  // the allocator handing the frame to a new owner. `stale_dropped` reports
  // whether the kernel actually purged the stale translations (flush or
  // direct drop); false — only under the reuse_elide_unsafe fault knob —
  // leaves them live, and any later consumption is a real violation.
  virtual void OnReuseFlushClose(MmStruct& mm, uint64_t va, bool stale_dropped) {
    (void)mm; (void)va; (void)stale_dropped;
  }
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_KERNEL_PROTOCOL_CHECK_H_
