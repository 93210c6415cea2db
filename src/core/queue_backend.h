// QueueFlushBackend: an asynchronous, charmos-style TLB shootdown protocol
// raced against the paper's Linux 5.2.8 IPI design (ROADMAP item 1).
//
// Instead of per-(initiator, target) call-function data acknowledged one CFD
// at a time, the initiator writes individual page addresses into a bounded
// per-responder ring (lock-free in the modeled design: a head fetch_add
// reserves the slot) and publishes a ticket from a global next_tlb_gen
// counter. Responders drain their ring until the head stops moving, apply the
// Linux generation protocol per entry (skip if covered, selective only when
// contiguous, full flush on a generation gap), then publish the largest
// ticket they actually processed as their ack_gen.
//
// Acknowledgement is a generation comparison, not a per-message flag, so
// concurrent shootdowns coalesce: one drain acknowledges every initiator
// whose entries it consumed, and an initiator whose target already has an
// IPI pending does not send another one. The cost of that asynchrony is a
// window between a responder's final head check and its ack publication in
// which freshly enqueued work is neither drained nor IPI'd — the initiator's
// spin -> exponential backoff -> IPI-resend retry loop exists to close it.
// A full ring falls back to a flush_all flag on the responder (the bounded
// ring's safety valve); both failure modes have fault-injection knobs
// (FaultInjection::ring_overflow_no_fallback / drop_ipi_resend) that tlbcheck
// classifies as kQueueOverflowLost / kQueueAckTimeout.
//
// All protocol constants (ring capacity, initial spin, retry count, backoff
// multiplier, per-step cycle costs) live in CostModel as queue_* knobs.
#ifndef TLBSIM_SRC_CORE_QUEUE_BACKEND_H_
#define TLBSIM_SRC_CORE_QUEUE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/fault_injection.h"
#include "src/kernel/flush_backend.h"
#include "src/kernel/kernel.h"
#include "src/sim/metrics.h"

namespace tlbsim {

class QueueFlushBackend final : public TlbFlushBackend {
 public:
  struct Stats {
    uint64_t flush_requests = 0;
    uint64_t shootdowns = 0;       // flushes with >= 1 remote target
    uint64_t local_only = 0;
    uint64_t full_requests = 0;    // wide flushes posted as flush_all flags
    uint64_t enqueued = 0;         // ring slots written by initiators
    uint64_t max_ring_occupancy = 0;
    uint64_t ring_overflows = 0;   // enqueue attempts that found the ring full
    uint64_t flush_all_fallbacks = 0;  // overflows converted to flush_all
    uint64_t ipi_sends = 0;        // first-time IPIs (per target)
    uint64_t ipi_coalesced = 0;    // skipped because the target had one pending
    uint64_t ipi_resends = 0;      // retry-loop resends (per target)
    uint64_t acks = 0;             // responder ack_gen publications
    uint64_t ack_timeouts = 0;     // targets abandoned after the retry budget
    uint64_t spin_polls = 0;
    uint64_t spin_cycles = 0;      // initiator cycles burned polling ack_gen
    uint64_t drains = 0;           // HandleFlushIrq invocations
    uint64_t drained_entries = 0;
    uint64_t drain_skipped_mm = 0;   // entry for an mm not loaded here
    uint64_t drain_skipped_gen = 0;  // entry already covered by a full flush
    uint64_t drain_flush_all = 0;    // flush_all flags consumed
    uint64_t drain_full = 0;         // drains that ended in a full flush
    uint64_t drain_full_storm = 0;   // ... because of a generation gap
    uint64_t full_local_flushes = 0;
    uint64_t invlpg_issued = 0;
    uint64_t invpcid_issued = 0;
    uint64_t lazy_skipped = 0;
    uint64_t switch_in_flushes = 0;
    uint64_t cow_flush_avoided = 0;
    uint64_t cow_flushes = 0;
  };

  explicit QueueFlushBackend(Kernel* kernel);

  // TlbFlushBackend:
  FlushStats flush_stats() const override;
  void PublishMetrics(MetricsRegistry& metrics) const override;
  Co<void> FlushRange(SimCpu& cpu, MmStruct& mm, uint64_t start, uint64_t end, int stride_shift,
                      bool freed_tables) override;
  Co<void> OnReturnToUser(SimCpu& cpu, MmStruct& mm) override;
  Co<void> OnCowFault(SimCpu& cpu, MmStruct& mm, uint64_t va, bool executable) override;
  void BeginBatch(SimCpu& cpu, MmStruct& mm) override;
  Co<void> EndBatch(SimCpu& cpu, MmStruct& mm) override;
  Co<void> OnSwitchIn(SimCpu& cpu, MmStruct& mm) override;
  Co<void> HandleFlushIrq(SimCpu& cpu) override;

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

  // Deliberate protocol faults for tlbcheck validation (tests only).
  void set_fault_injection(const FaultInjection& fi) {
    inject_ = fi;
    kernel_->SetReplicaSkip(fi.skip_replica_propagation);
    kernel_->SetReuseElideUnsafe(fi.reuse_elide_unsafe);
  }

  // Current occupancy of `cpu`'s ring (tests).
  uint64_t RingOccupancy(int cpu) const;
  uint64_t ack_gen(int cpu) const { return queues_[static_cast<size_t>(cpu)]->ack_gen; }
  // Tickets issued so far (the last one handed out).
  uint64_t next_tlb_gen() const { return next_tlb_gen_; }

 private:
  // One queued invalidation: a single page of one mm, tagged with the mm
  // generation it belongs to and the global ticket that acknowledges it.
  struct Entry {
    MmStruct* mm = nullptr;
    uint64_t va = 0;
    int stride_shift = 0;
    uint64_t mm_gen = 0;
    uint64_t queue_gen = 0;
  };

  // Per-responder ring + acknowledgement state (tlb_shootdown_cpu).
  struct CpuQueue {
    std::vector<Entry> ring;  // capacity costs.queue_ring_entries
    uint64_t head = 0;        // next slot an initiator writes
    uint64_t tail = 0;        // next slot the responder reads
    bool flush_all = false;   // overflow / wide-flush fallback
    uint64_t flush_all_queue_gen = 0;  // ticket the fallback acknowledges
    bool ipi_pending = false;
    uint64_t ack_gen = 0;     // largest ticket fully processed
    LineId ring_line = 0;     // the slot array
    LineId ctl_line = 0;      // head/tail/ack_gen/flags word
  };

  const OptimizationSet& opts() const { return kernel_->config().opts; }
  bool pti() const { return kernel_->config().pti; }
  uint64_t threshold() const { return kernel_->config().flush_full_threshold; }
  const CostModel& costs() const { return kernel_->machine().costs(); }
  ProtocolCheckSink* chk() const { return kernel_->check_sink(); }

  void ComputeTargets(SimCpu& cpu, MmStruct& mm, CpuList* targets);

  // Initiator-local TLB synchronization under the generation protocol.
  Co<void> LocalFlush(SimCpu& cpu, MmStruct& mm, const FlushTlbInfo& info);

  // Writes `info` into `target`'s ring (per page), or posts the flush_all
  // flag for wide flushes and on overflow.
  void EnqueueForTarget(SimCpu& cpu, MmStruct& mm, int target, const FlushTlbInfo& info,
                        uint64_t queue_gen, bool wants_full);

  // True when every target's ack_gen has reached `queue_gen`.
  bool AllAcked(SimCpu& cpu, const CpuList& targets, uint64_t queue_gen);

  Kernel* kernel_;
  std::vector<std::unique_ptr<CpuQueue>> queues_;
  uint64_t next_tlb_gen_ = 0;  // global ticket counter
  LineId gen_line_ = 0;        // the cacheline holding it
  Stats stats_;
  FaultInjection inject_;

  // Live observability handles (registered only when this backend exists, so
  // reports of other protocols never see queue.* names).
  Histogram* h_ring_occupancy_ = nullptr;   // queue.ring_occupancy
  Histogram* h_ack_wait_cycles_ = nullptr;  // queue.ack_wait_cycles
  Histogram* h_drain_cycles_ = nullptr;     // queue.drain_cycles
  PerCpuCounter* c_initiated_ = nullptr;    // queue.initiated
  PerCpuCounter* c_drains_ = nullptr;       // queue.drains
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_CORE_QUEUE_BACKEND_H_
