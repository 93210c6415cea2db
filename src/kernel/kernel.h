// The mini-kernel: processes, threads, VMAs, demand paging, CoW, the
// mm syscalls the paper's workloads exercise, lazy-TLB context switching and
// PTI-aware kernel entry/exit.
//
// All TLB-synchronization policy is delegated to a TlbFlushBackend
// (src/core/shootdown.h) at exactly the points Linux calls its tlbflush
// entry points.
#ifndef TLBSIM_SRC_KERNEL_KERNEL_H_
#define TLBSIM_SRC_KERNEL_KERNEL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/optimizations.h"
#include "src/hw/machine.h"
#include "src/hw/mmu.h"
#include "src/kernel/file.h"
#include "src/kernel/flush_backend.h"
#include "src/kernel/mm_struct.h"
#include "src/kernel/percpu.h"
#include "src/mm/phys.h"

namespace tlbsim {

struct KernelConfig {
  // "Safe" mode: PTI on, dual PCIDs per mm, doubled flush work (paper §5).
  bool pti = true;
  OptimizationSet opts;
  // Linux's tlb_single_page_flush_ceiling: selective flushes above this many
  // entries become full flushes (paper §2.1/§3.4).
  uint64_t flush_full_threshold = 33;
};

struct Process;
class ProtocolCheckSink;

struct Thread {
  uint64_t id = 0;
  Process* process = nullptr;
  int cpu = -1;
  // 32-bit compatibility task: returns to userspace via IRET, where no stack
  // is available for the in-context flush loop — deferred selective flushes
  // are promoted to a full flush (paper §3.4 caveat).
  bool compat32 = false;
};

struct Process {
  uint64_t id = 0;
  std::unique_ptr<MmStruct> mm;
  std::vector<std::unique_ptr<Thread>> threads;
};

class Kernel {
 public:
  struct Stats {
    uint64_t syscalls = 0;
    uint64_t page_faults = 0;
    uint64_t cow_faults = 0;
    uint64_t demand_faults = 0;
    uint64_t flush_requests = 0;   // FlushRange invocations
    uint64_t context_switches = 0;
    uint64_t lazy_entries = 0;
    uint64_t compat_iret_full_flushes = 0;  // §3.4 IRET caveat promotions
    // Optimization #7 (reuse_elision); all zero when the flag is off.
    uint64_t reuse_elided_flushes = 0;  // zap-time shootdowns skipped
    uint64_t reuse_elided_pages = 0;    // pages covered by those skips
    uint64_t reuse_benign_closes = 0;   // same-frame refault, no flush ever
    uint64_t reuse_forced_flushes = 0;  // mismatching refault forced the flush
    uint64_t reuse_evictions = 0;       // table eviction forced the flush
    uint64_t reuse_frame_handoffs = 0;  // allocator recycled a recorded frame
  };

  Kernel(Machine* machine, KernelConfig config);
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // Must be called once before any syscalls; registers interrupt handlers
  // and transition hooks.
  void SetFlushBackend(TlbFlushBackend* backend);

  Machine& machine() { return *machine_; }
  const KernelConfig& config() const { return config_; }
  // Experiment harnesses adjust optimization flags between runs.
  KernelConfig& mutable_config() { return config_; }
  FrameAllocator& frames() { return frames_; }
  PerCpu& percpu(int cpu) { return *percpu_.at(static_cast<size_t>(cpu)); }
  TlbFlushBackend& backend() { return *backend_; }
  const Stats& stats() const { return stats_; }

  // --- process / thread management ---
  Process* CreateProcess();
  // Creates a thread pinned to `cpu` and context-switches the CPU to the
  // process's address space (synchronously, zero-cost setup; use SwitchTo
  // for costed switches mid-experiment).
  Thread* CreateThread(Process* p, int cpu);
  File* CreateFile(uint64_t size_bytes);

  // --- syscalls; call on the thread's CPU from a simulated program ---
  // Maps `len` bytes; returns the chosen address.
  Co<uint64_t> SysMmap(Thread& t, uint64_t len, bool writable, bool shared, File* file = nullptr,
                       uint64_t file_offset = 0, PageSize page_size = PageSize::k4K);
  Co<void> SysMunmap(Thread& t, uint64_t addr, uint64_t len);
  Co<void> SysMadviseDontneed(Thread& t, uint64_t addr, uint64_t len);
  // msync/fdatasync-style cleaning: write-protect + clear dirty on every
  // dirty page of [addr, addr+len); one flush per page in baseline Linux
  // (clear_page_dirty_for_io), batched under §4.2.
  Co<void> SysMsyncClean(Thread& t, uint64_t addr, uint64_t len);
  Co<void> SysMprotect(Thread& t, uint64_t addr, uint64_t len, bool writable);
  // read(2)-style syscall: the kernel copies `len` bytes from `file` INTO the
  // user buffer at `buf`. The kernel access to userspace memory is why §4.2
  // restricts batching to syscalls that never touch userspace: a deferred
  // remote flush would let this copy walk through stale translations.
  // Returns false on EFAULT.
  Co<bool> SysRead(Thread& t, File* file, uint64_t offset, uint64_t buf, uint64_t len);

  // fork(2): duplicates the address space copy-on-write. Every writable
  // private page is write-protected in the PARENT too, which requires a TLB
  // flush/shootdown on the parent's CPUs — fork is itself a shootdown
  // source, and the classic producer of CoW faults (§4.1). The child gets a
  // thread on `child_cpu`.
  Co<Process*> SysFork(Thread& t, int child_cpu);

  // --- user memory access (demand paging, CoW) ---
  // Performs one user-mode load/store at `va`, handling any fault. Returns
  // false if the address is unmapped (SIGSEGV-equivalent).
  Co<bool> UserAccess(Thread& t, uint64_t va, bool write);

  // Executes one instruction fetch at `va` (fills the ITLB). Returns false
  // on SIGSEGV / NX.
  Co<bool> UserExec(Thread& t, uint64_t va);

  // --- context switching / lazy TLB ---
  Co<void> SwitchTo(int cpu, MmStruct* mm);      // full context switch
  Co<void> EnterLazyMode(int cpu);               // switch to a kernel thread
  Co<void> LeaveLazyMode(int cpu);               // resume the user thread

  // NMI-safe user access check (nmi_uaccess_okay, §3.2).
  bool NmiUaccessOkay(int cpu) const;

  // Exposed for the protocol layer and tests.
  Co<void> SyscallEnter(Thread& t);
  Co<void> SyscallExit(Thread& t);

  // Charges the PTE-update cost incl. the page-table cacheline (8 PTEs/line).
  void ChargePteUpdate(SimCpu& cpu, MmStruct& mm, uint64_t va);

  // True if `opts.userspace_batching` applies to the given syscall class.
  bool BatchingEnabled() const { return config_.opts.userspace_batching; }

  // Applies the skip_replica_propagation fault knob (tests only) to every
  // process's page table, existing and future. Forwarded by the shootdown
  // engine's set_fault_injection so test rigs need no extra plumbing.
  void SetReplicaSkip(bool skip);

  // Applies the reuse_elide_unsafe fault knob (tests only): the foreign-
  // handoff close stops purging stale translations, recreating the unsafe
  // reuse the elision's safety check exists to prevent. Forwarded like
  // SetReplicaSkip by both flush backends' set_fault_injection.
  void SetReuseElideUnsafe(bool on) { reuse_elide_unsafe_ = on; }

  // tlbcheck protocol sink (src/check/); null when checking is off. Shared
  // with the ShootdownEngine through this accessor.
  void set_check_sink(ProtocolCheckSink* sink) { check_ = sink; }
  ProtocolCheckSink* check_sink() const { return check_; }

 private:
  // Zaps present PTEs in [addr, addr+len): clears them, collects the old
  // leaves so frames are released only after the flush completes and the
  // reuse-elision path can record what was revoked.
  struct ZappedLeaf {
    uint64_t va = 0;
    Pte pte;  // pre-zap leaf
    PageSize size = PageSize::k4K;
  };
  struct ZapResult {
    uint64_t pages = 0;
    // Minimum flush stride over the zapped leaves (Linux tlb-gather tracks
    // the smallest page size it unmaps); meaningful only when pages > 0.
    int min_stride_shift = static_cast<int>(kHugeShift);
    std::vector<ZappedLeaf> leaves;
  };
  Co<ZapResult> ZapRange(SimCpu& cpu, MmStruct& mm, uint64_t addr, uint64_t len);

  // --- Optimization #7 (reuse_elision) ---
  // Zap-time decision: when every zapped leaf is a non-executable 4K page and
  // the batch fits the reuse table, record the revoked translations, charge
  // only a local invalidation and skip the shootdown. Returns whether the
  // flush was elided. Table evictions force the deferred flush inline.
  Co<bool> TryReuseElide(SimCpu& cpu, MmStruct& mm, const ZapResult& zr);
  // Fault-time consult: a record for `page_va` closes either benignly (same
  // frame back, same-or-stricter permissions — no flush at all) or with the
  // deferred FlushRange the elision skipped.
  Co<void> ConsultReuseOnFault(SimCpu& cpu, MmStruct& mm, uint64_t page_va, uint64_t pfn,
                               uint64_t flags, PageSize size);
  // FrameAllocator reuse observer: a recorded frame is being handed to a new
  // owner; purge the stale translations the elided zap left behind (unless
  // the reuse_elide_unsafe fault knob deliberately skips the purge).
  void OnFrameReuse(uint64_t pfn);
  void EraseReuseRecord(MmStruct& mm, uint64_t va, uint64_t pfn);

  Co<void> HandlePageFault(Thread& t, uint64_t va, bool write, FaultKind kind);

  // Surcharge for touching data homed on another node (no-op on flat
  // machines: cpu.numa_node() is -1 there).
  void ChargeRemoteDram(SimCpu& cpu, uint64_t pa);

  Machine* machine_;
  KernelConfig config_;
  FrameAllocator frames_;
  // Shared persistent-memory write channel: writebacks serialize on it,
  // modelling bandwidth saturation under many concurrent fdatasyncs.
  Cycles pmem_channel_free_at_ = 0;
  TlbFlushBackend* backend_ = nullptr;
  ProtocolCheckSink* check_ = nullptr;
  std::vector<std::unique_ptr<PerCpu>> percpu_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::unique_ptr<File>> files_;
  uint64_t next_process_id_ = 1;
  uint64_t next_thread_id_ = 1;
  uint64_t next_file_id_ = 1;
  bool replica_skip_ = false;
  bool reuse_elide_unsafe_ = false;
  // Optimization #7: global index of open reuse records by frame (multimap:
  // one shared file page can be recorded by several mms). The fault path
  // marks the (mm, va) it is about to consult so OnFrameReuse leaves that
  // record for ConsultReuseOnFault instead of force-closing it.
  std::multimap<uint64_t, std::pair<MmStruct*, uint64_t>> reuse_by_pfn_;
  MmStruct* reuse_consult_mm_ = nullptr;
  uint64_t reuse_consult_va_ = 0;
  SimCpu* reuse_alloc_cpu_ = nullptr;
  Stats stats_;
  PerCpuCounter* c_syscalls_ = nullptr;  // live "kernel.syscalls" handle
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_KERNEL_KERNEL_H_
