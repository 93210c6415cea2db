// Per-CPU kernel state: cpu_tlbstate, the SMP call-function queue, and the
// deferred-flush bookkeeping used by the paper's optimizations.
//
// Cacheline layout is explicit because it *is* the experiment (§3.3):
//   Split layout (baseline Linux, Figure 4a):
//     - tlbstate_line: loaded_mm / generations / lazy flag (false sharing);
//     - csq_line:      call-single-queue head;
//     - each CFD has its own line holding {func, info*, flags};
//     - flush_tlb_info lives on the initiator's *stack* line (extra TLB
//       pressure: stacks are 4KB-mapped, globals 2MB-mapped).
//   Consolidated layout (Figure 4b):
//     - the lazy flag is colocated with the csq head (read together);
//     - flush_tlb_info is inlined into the CFD (one line carries everything).
#ifndef TLBSIM_SRC_KERNEL_PERCPU_H_
#define TLBSIM_SRC_KERNEL_PERCPU_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/cache/coherence.h"
#include "src/kernel/flush_info.h"
#include "src/sim/flag.h"

namespace tlbsim {

struct MmStruct;

// Call-function data: one entry per (initiator, target) pair, like Linux's
// per-cpu cfd_data. The `done` flag models the csd lock/flags word the
// initiator spins on.
struct Cfd {
  explicit Cfd(Engine* engine) : done(engine) {}

  LineId line = 0;  // the CFD cacheline
  SimFlag done;     // acknowledgement (csd flags)
  // The shootdown work. With cacheline consolidation and a single info, the
  // info travels inside the CFD line; otherwise the responder additionally
  // reads the initiator's stack flush_tlb_info line (split layout).
  FlushBatch work;
  int initiator = -1;
  bool in_flight = false;
};

// The deferred user-address-space flush state (paper §3.4): either a merged
// selective range or a full-flush indication, consumed on return to user.
struct DeferredUserFlush {
  bool full = false;
  bool any = false;
  uint64_t start = UINT64_MAX;
  uint64_t end = 0;
  int stride_shift = static_cast<int>(kPageShift);
  uint64_t pages = 0;

  void Reset() { *this = DeferredUserFlush{}; }

  void MergeRange(uint64_t s, uint64_t e, int stride, uint64_t threshold) {
    any = true;
    if (full) {
      return;
    }
    if (s < start) {
      start = s;
    }
    if (e > end) {
      end = e;
    }
    if (stride > stride_shift) {
      stride_shift = stride;
    }
    pages = (end - start + (1ULL << stride_shift) - 1) >> stride_shift;
    if (pages > threshold) {
      full = true;
    }
  }

  void MarkFull() {
    any = true;
    full = true;
  }
};

struct PerCpu {
  PerCpu(Engine* engine, CoherenceModel* coherence, int cpu, int num_cpus)
      : cfds_(static_cast<size_t>(num_cpus)), engine_(engine) {
    // Allocation-free naming (names materialize only if NameOf is called):
    // PerCpu construction runs once per CPU per simulated System, thousands
    // of times across a bench sweep.
    uint64_t c = static_cast<uint64_t>(cpu);
    tlbstate_line = coherence->AllocateLine("cpu", c, ".tlbstate");
    csq_line = coherence->AllocateLine("cpu", c, ".call_single_queue");
    stack_info_line = coherence->AllocateLine("cpu", c, ".stack_flush_info");
    // Every CFD's line id is allocated here, in target order, so line ids do
    // not depend on which pairs a run shoots down; the Cfd objects are built
    // on first use (cfd()).
    for (int t = 0; t < num_cpus; ++t) {
      LineId line = coherence->AllocateLine("cpu", c, ".cfd[", static_cast<uint64_t>(t), "]");
      if (t == 0) {
        first_cfd_line_ = line;
      }
      assert(line == first_cfd_line_ + static_cast<LineId>(t) && "named line ids are dense");
    }
  }
  PerCpu(const PerCpu&) = delete;
  PerCpu& operator=(const PerCpu&) = delete;

  // This CPU's call-function data for target `t`, built the first time an
  // initiator here targets `t`. The only way to reach a Cfd.
  Cfd& cfd(int t) {
    std::unique_ptr<Cfd>& slot = cfds_[static_cast<size_t>(t)];
    if (!slot) {
      slot = std::make_unique<Cfd>(engine_);
      slot->line = first_cfd_line_ + static_cast<LineId>(t);
    }
    return *slot;
  }
  // Whether cfd(t) was ever called (tests).
  bool cfd_built(int t) const { return cfds_[static_cast<size_t>(t)] != nullptr; }

  // --- cpu_tlbstate ---
  MmStruct* loaded_mm = nullptr;
  uint64_t loaded_mm_tlb_gen = 0;  // generation this CPU's TLB is sync'd to
  bool is_lazy = false;            // running a kernel thread on a borrowed mm
  // Leaving lazy mode: the lazy flag is already down but the catch-up flush
  // has not run yet; shootdowns completing in this window legitimately leave
  // the CPU behind (tlbcheck must not flag it).
  bool catching_up = false;

  // --- deferred flushes (PTI / §3.4) ---
  DeferredUserFlush deferred_user;

  // NMI-safety: count of flushes accepted (acked) but not yet applied on this
  // CPU; nmi_uaccess_okay() must fail while nonzero (paper §3.2).
  int unfinished_flushes = 0;

  // --- batching (§4.2) ---
  bool batched_mode = false;
  // The paper's munmap-only extension (§5.3): this CPU advertises that it is
  // inside a batching-safe syscall and initiators may skip its IPI; it
  // catches up at the mmap_sem-release barrier. msync/fdatasync batching
  // defers its own flushes but does NOT set this.
  bool ipi_defer_mode = false;
  FlushBatch batched;  // up to kBatchSlots pending infos
  static constexpr size_t kBatchSlots = FlushBatch::kCapacity;

  // --- SMP layer ---
  // Call single queue (llist of pending CFDs), FIFO. A vector: it holds at
  // most one CFD per initiator and keeps its capacity, so queueing a CFD
  // never allocates once warm.
  std::vector<Cfd*> csq;
  // Initiator-owned flush info used by the split layout ("on the stack").
  FlushTlbInfo stack_info;

  // --- cachelines ---
  LineId tlbstate_line;
  LineId csq_line;
  LineId stack_info_line;

 private:
  std::vector<std::unique_ptr<Cfd>> cfds_;  // by target; null until first use
  Engine* engine_;
  LineId first_cfd_line_ = 0;  // target t's CFD line is first_cfd_line_ + t
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_KERNEL_PERCPU_H_
