// Hardware-side observation interface for the tlbcheck analysis subsystem
// (src/check/). A SimCpu holds one nullable sink pointer; every call site is
// guarded by a null check, so a simulation built without checking pays one
// predicted-not-taken branch per event and nothing else (zero-cost-when-off).
//
// Events at this layer are *architectural*: translation consumption, TLB
// fills, interrupt entry/exit and RwSem transitions. Protocol-level events
// (generation bumps, IPIs, acks) go through the kernel-side sink
// (src/kernel/protocol_check.h).
#ifndef TLBSIM_SRC_HW_CHECK_SINK_H_
#define TLBSIM_SRC_HW_CHECK_SINK_H_

#include <cstdint>

#include "src/hw/tlb.h"

namespace tlbsim {

class SimCpu;

class HwCheckSink {
 public:
  virtual ~HwCheckSink() = default;

  // The MMU consumed a cached translation: a TLB hit whose permissions
  // satisfied the access (the only way a stale entry can do damage). `itlb`
  // distinguishes instruction fetches; `write`/`exec`/`user_intent` mirror
  // the AccessIntent.
  virtual void OnTlbHit(SimCpu& cpu, bool itlb, uint16_t pcid, uint64_t va, const TlbEntry& entry,
                        bool write, bool exec, bool user_intent) = 0;

  // Interrupt entry/exit on `cpu` (IRQs and NMIs; `vector` identifies which).
  // No check reads them (default no-op); they bound the responder's phase.
  virtual void OnIrqEnter(SimCpu& cpu, int vector) { (void)cpu; (void)vector; }
  virtual void OnIrqExit(SimCpu& cpu, int vector) { (void)cpu; (void)vector; }

  // `cpu` acquired or released an RwSem, shared or `exclusive`. The kernel's
  // only RwSem is mmap_sem, so per-CPU hold counts need no lock identity.
  virtual void OnLockAcquire(SimCpu& cpu, bool exclusive) = 0;
  virtual void OnLockRelease(SimCpu& cpu, bool exclusive) = 0;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_HW_CHECK_SINK_H_
