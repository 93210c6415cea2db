// MmStruct: one address space (Linux's struct mm_struct + arch context).
#ifndef TLBSIM_SRC_KERNEL_MM_STRUCT_H_
#define TLBSIM_SRC_KERNEL_MM_STRUCT_H_

#include <cstdint>
#include <map>

#include "src/cache/coherence.h"
#include "src/kernel/cpumask.h"
#include "src/kernel/reuse_table.h"
#include "src/kernel/rwsem.h"
#include "src/kernel/vma.h"
#include "src/mm/page_table.h"

namespace tlbsim {

struct MmStruct {
  MmStruct(uint64_t id, Engine* engine, CoherenceModel* coherence)
      : id(id),
        // Root id derived from the kernel-scoped mm id, not the global
        // PageTable counter: the id reaches coherence-line addresses
        // (kernel.cc LineOf), so it must not depend on how many simulations
        // this process ran before — sweep jobs execute in any order on any
        // host thread and must still replay identically.
        pt(id + 1),
        // PCIDs 0/1 are reserved for the init/idle address space.
        kernel_pcid(static_cast<uint16_t>(2 + (id * 2) % 1022)),
        user_pcid(static_cast<uint16_t>(2 + (id * 2 + 1) % 1022)),
        mmap_sem(engine),
        // Allocation-free naming: MmStructs are constructed on the bench hot
        // path (one per simulated process per sweep point).
        gen_line(coherence->AllocateLine("mm", id, ".context.tlb_gen")) {}
  MmStruct(const MmStruct&) = delete;
  MmStruct& operator=(const MmStruct&) = delete;

  uint64_t id;
  PageTable pt;

  // With PTI each process has two address spaces/PCIDs (paper §2.1); without
  // PTI only kernel_pcid is used.
  uint16_t kernel_pcid;
  uint16_t user_pcid;

  // CPUs on which this mm is loaded (mm_cpumask).
  CpuBits cpumask;

  // Address-space generation (mm->context.tlb_gen): bumped on every PTE
  // change that requires a flush. Responders compare against their local
  // generation to skip redundant flushes (paper §2.2).
  uint64_t tlb_gen = 1;

  RwSem mmap_sem;

  // VMAs keyed by start address.
  std::map<uint64_t, Vma> vmas;

  // Simple bump allocator for mmap placement.
  uint64_t next_map = 0x500000000000ULL;

  // Optimization #7 bookkeeping: translations whose zap-time shootdown was
  // elided and may still be cached stale somewhere (kernel.cc owns the
  // record/consult/close logic).
  ReuseTable reuse;

  // Cacheline holding the mm's TLB bookkeeping (contended during storms).
  LineId gen_line;

  Vma* FindVma(uint64_t va) {
    auto it = vmas.upper_bound(va);
    if (it == vmas.begin()) {
      return nullptr;
    }
    --it;
    return it->second.Contains(va) ? &it->second : nullptr;
  }
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_KERNEL_MM_STRUCT_H_
