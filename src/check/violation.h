// Violation records produced by the tlbcheck checkers (src/check/).
#ifndef TLBSIM_SRC_CHECK_VIOLATION_H_
#define TLBSIM_SRC_CHECK_VIOLATION_H_

#include <cstdint>
#include <string>

#include "src/sim/json.h"
#include "src/sim/time.h"

namespace tlbsim {

enum class ViolationKind {
  // Stale-translation oracle: a CPU consumed a TLB entry predating an
  // incompatible PTE write whose flush generation it had already applied.
  kLostFlush,
  // Invariant: a completed shootdown left a non-lazy CPU in mm_cpumask with a
  // loaded generation older than the shootdown's.
  kShootdownLeftStaleCpu,
  // Invariant: mm->context.tlb_gen published non-monotonically.
  kNonMonotoneGen,
  // Invariant: early ack (§3.2) without the unfinished_flushes guard.
  kEarlyAckUnguarded,
  // Invariant: PTI full flush did not pair the kernel-PCID flush with
  // user-PCID coverage (flush or deferred-flush marking).
  kPtiPairingMissing,
  // Invariant: CoW avoidance (§4.1) applied where the paper forbids it
  // (executable mapping / writable stale entry left behind).
  kCowUnsafeAvoidance,
  // mmap_sem: a CPU re-acquired an RwSem it holds, with either side
  // exclusive (shared/shared is permitted, like down_read twice).
  kRecursiveLock,
  // mmap_sem: an RwSem, a sleeping lock, acquired in IRQ or NMI context.
  kIrqUnsafeLock,
  // Invariant (pt_replication): at flush-acknowledgement time a per-node
  // page-table replica disagreed with the primary — remote walkers could
  // translate through an entry the completed shootdown claims is gone.
  kReplicaDivergence,
  // Invariant (queue backend): a responder ring overflowed and the dropped
  // addresses were not converted into a flush_all fallback — the overflowed
  // pages will never be invalidated on that CPU.
  kQueueOverflowLost,
  // Invariant (queue backend): the initiator exhausted its spin/backoff/resend
  // retry budget and abandoned a responder that never published its ack — the
  // shootdown "completed" with that CPU's queued flushes still pending.
  kQueueAckTimeout,
  // Reuse elision (Optimization #7): a CPU consumed a stale translation whose
  // elided flush was licensed, after the licensed frame was handed to a new
  // owner without the forced close purging the stale entries.
  kReuseElideUnsafe,
};

inline const char* ViolationKindName(ViolationKind k) {
  switch (k) {
    case ViolationKind::kLostFlush:
      return "lost_flush";
    case ViolationKind::kShootdownLeftStaleCpu:
      return "shootdown_left_stale_cpu";
    case ViolationKind::kNonMonotoneGen:
      return "non_monotone_tlb_gen";
    case ViolationKind::kEarlyAckUnguarded:
      return "early_ack_unguarded";
    case ViolationKind::kPtiPairingMissing:
      return "pti_pairing_missing";
    case ViolationKind::kCowUnsafeAvoidance:
      return "cow_unsafe_avoidance";
    case ViolationKind::kRecursiveLock:
      return "recursive_lock";
    case ViolationKind::kIrqUnsafeLock:
      return "irq_unsafe_lock";
    case ViolationKind::kReplicaDivergence:
      return "replica_divergence";
    case ViolationKind::kQueueOverflowLost:
      return "queue_overflow_lost";
    case ViolationKind::kQueueAckTimeout:
      return "queue_ack_timeout";
    case ViolationKind::kReuseElideUnsafe:
      return "reuse_elide_unsafe";
  }
  return "unknown";
}

struct Violation {
  ViolationKind kind = ViolationKind::kLostFlush;
  Cycles time = 0;  // consuming CPU's local virtual time
  int cpu = -1;
  uint64_t mm_id = 0;
  uint64_t va = 0;
  uint16_t pcid = 0;
  uint64_t write_gen = 0;    // generation covering the offending PTE write
  uint64_t applied_gen = 0;  // generation the CPU had applied at detection
  std::string detail;

  Json ToJson() const {
    Json j = Json::Object();
    j["kind"] = ViolationKindName(kind);
    j["time"] = static_cast<uint64_t>(time);
    j["cpu"] = static_cast<int64_t>(cpu);
    j["mm"] = mm_id;
    j["va"] = va;
    j["pcid"] = static_cast<uint64_t>(pcid);
    j["write_gen"] = write_gen;
    j["applied_gen"] = applied_gen;
    j["detail"] = detail;
    return j;
  }
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_CHECK_VIOLATION_H_
