#include "src/core/alternatives.h"

#include <algorithm>
#include <cassert>

#include "src/kernel/protocol_check.h"

namespace tlbsim {

namespace {

// Applies one flush request to `cpu`'s TLB state for both address spaces
// (eager; neither alternative implements the paper's deferral). Returns true
// when it flushed the whole PCIDs rather than page by page.
bool ApplyFlushToTlb(SimCpu& cpu, MmStruct& mm, const FlushTlbInfo& info, bool pti,
                     uint64_t full_ceiling) {
  bool full = info.IsFull() || info.PageCount() > full_ceiling;
  if (full) {
    cpu.ArchFlushPcid(mm.kernel_pcid);
    if (pti) {
      cpu.ArchFlushPcid(mm.user_pcid);
    }
    return true;
  }
  uint64_t stride = 1ULL << info.stride_shift;
  for (uint64_t va = info.start; va < info.end; va += stride) {
    cpu.ArchInvlPg(mm.kernel_pcid, va);
    if (pti) {
      cpu.ArchInvPcidAddr(mm.user_pcid, va);
    }
  }
  return false;
}

Cycles FlushCost(const CostModel& costs, const FlushTlbInfo& info, bool pti,
                 uint64_t full_ceiling) {
  bool full = info.IsFull() || info.PageCount() > full_ceiling;
  if (full) {
    return costs.cr3_write_flush + (pti ? costs.invpcid_single_ctx : 0);
  }
  auto pages = static_cast<Cycles>(info.PageCount());
  return pages * (costs.invlpg + (pti ? costs.invpcid_addr : 0));
}

// Bumps mm->context.tlb_gen for [start, end) and reports the new generation
// to the oracle; returns the flush request it covers.
FlushTlbInfo BumpTlbGen(Kernel& kernel, SimCpu& cpu, MmStruct& mm, uint64_t start, uint64_t end,
                        int stride_shift, bool freed_tables) {
  cpu.AccessLine(mm.gen_line, AccessType::kAtomicRmw);
  ++mm.tlb_gen;

  FlushTlbInfo info;
  info.mm = &mm;
  info.start = start;
  info.end = end;
  info.stride_shift = stride_shift;
  info.freed_tables = freed_tables;
  info.new_tlb_gen = mm.tlb_gen;
  if (ProtocolCheckSink* c = kernel.check_sink()) {
    c->OnTlbGenBump(cpu, mm, info.new_tlb_gen, start, end);
  }
  return info;
}

// `cpu` flushed both PCIDs up to generation `gen`: advances its loaded
// generation and reports it to the oracle.
void NoteGenApplied(Kernel& kernel, SimCpu& cpu, MmStruct& mm, uint64_t gen, bool full) {
  PerCpu& pc = kernel.percpu(cpu.id());
  pc.loaded_mm_tlb_gen = std::max(pc.loaded_mm_tlb_gen, gen);
  if (ProtocolCheckSink* c = kernel.check_sink()) {
    c->OnLocalGenApplied(cpu, mm, pc.loaded_mm_tlb_gen, full, /*user_covered=*/true);
  }
}

}  // namespace

// ----- FreeBSD -----

FreeBsdShootdownEngine::FreeBsdShootdownEngine(Kernel* kernel)
    : kernel_(kernel), mtx_release_(&kernel->machine().engine()) {
  kernel_->SetFlushBackend(this);
}

TlbFlushBackend::FlushStats FreeBsdShootdownEngine::flush_stats() const {
  FlushStats out;
  out.shootdowns = stats_.shootdowns;
  return out;
}

Co<void> FreeBsdShootdownEngine::LocalFlush(SimCpu& cpu, MmStruct& mm,
                                            const FlushTlbInfo& info) {
  const CostModel& costs = kernel_->machine().costs();
  bool pti = kernel_->config().pti;
  bool full = ApplyFlushToTlb(cpu, mm, info, pti, kFullFlushCeiling);
  if (full) {
    ++stats_.full_flushes;
  } else {
    stats_.invlpg_issued += info.PageCount();
  }
  co_await cpu.Execute(FlushCost(costs, info, pti, kFullFlushCeiling));
  NoteGenApplied(*kernel_, cpu, mm, info.new_tlb_gen, full);
}

Co<void> FreeBsdShootdownEngine::FlushRange(SimCpu& cpu, MmStruct& mm, uint64_t start,
                                            uint64_t end, int stride_shift, bool freed_tables) {
  const CostModel& costs = kernel_->machine().costs();
  FlushTlbInfo info = BumpTlbGen(*kernel_, cpu, mm, start, end, stride_shift, freed_tables);

  co_await cpu.Execute(cpu.rng().Jitter(costs.flush_dispatch, costs.jitter_frac));

  std::vector<int> targets;
  mm.cpumask.ForEachSet([&](int t) {
    if (t != cpu.id()) {
      targets.push_back(t);
    }
  });
  if (targets.empty()) {
    ++stats_.local_only;
    co_await LocalFlush(cpu, mm, info);
    if (ProtocolCheckSink* c = kernel_->check_sink()) {
      c->OnShootdownComplete(cpu, mm, info.new_tlb_gen, {});
    }
    co_return;
  }

  // smp_ipi_mtx: one shootdown machine-wide at a time (paper §3.3).
  if (mtx_held_) {
    ++stats_.mutex_waits;
    while (mtx_held_) {
      co_await cpu.WaitFlag(mtx_release_);
    }
  }
  mtx_held_ = true;
  current_ = info;
  ++stats_.shootdowns;

  // Local flush strictly before the remote kick (sequential, Figure 1a).
  co_await LocalFlush(cpu, mm, info);

  PerCpu& my = kernel_->percpu(cpu.id());
  for (int t : targets) {
    Cfd& cfd = my.cfd(t);
    cfd.done.Clear();
    cfd.work.clear();
    cfd.work.push_back(info);
    cfd.initiator = cpu.id();
    cfd.in_flight = true;
    cpu.AccessLine(cfd.line, AccessType::kAtomicRmw);
    cpu.AccessLine(kernel_->percpu(t).csq_line, AccessType::kAtomicRmw);
    cpu.AdvanceInline(costs.smp_enqueue);
    kernel_->percpu(t).csq.push_back(&cfd);
  }
  kernel_->machine().apic().SendIpi(cpu, targets, kCallFunctionVector);
  if (ProtocolCheckSink* c = kernel_->check_sink()) {
    c->OnIpiSent(cpu, mm, info.new_tlb_gen, targets);
  }

  for (int t : targets) {
    Cfd& cfd = my.cfd(t);
    while (true) {
      cpu.AccessLine(cfd.line, AccessType::kRead);
      if (cfd.done.is_set() && cfd.done.set_time() <= cpu.now()) {
        break;
      }
      co_await cpu.WaitFlag(cfd.done);
    }
    cfd.in_flight = false;
  }
  if (ProtocolCheckSink* c = kernel_->check_sink()) {
    c->OnShootdownComplete(cpu, mm, info.new_tlb_gen, targets);
  }

  mtx_held_ = false;
  mtx_release_.Set(cpu.now());
  mtx_release_.Clear();
}

Co<void> FreeBsdShootdownEngine::OnReturnToUser(SimCpu& cpu, MmStruct& mm) {
  if (kernel_->config().pti) {
    cpu.LoadAddressSpace(&mm.pt, mm.user_pcid);  // flushes were eager
  }
  co_return;
}

Co<void> FreeBsdShootdownEngine::OnCowFault(SimCpu& cpu, MmStruct& mm, uint64_t va,
                                            bool executable) {
  (void)executable;  // no CoW avoidance in this design
  co_await FlushRange(cpu, mm, va, va + kPageSize4K, static_cast<int>(kPageShift), false);
}

void FreeBsdShootdownEngine::BeginBatch(SimCpu&, MmStruct&) {}

Co<void> FreeBsdShootdownEngine::EndBatch(SimCpu&, MmStruct&) { co_return; }

Co<void> FreeBsdShootdownEngine::OnSwitchIn(SimCpu& cpu, MmStruct& mm) {
  PerCpu& pc = kernel_->percpu(cpu.id());
  cpu.AccessLine(mm.gen_line, AccessType::kRead);
  if (pc.loaded_mm_tlb_gen >= mm.tlb_gen) {
    co_return;
  }
  cpu.ArchFlushPcid(mm.kernel_pcid);
  if (kernel_->config().pti) {
    cpu.ArchFlushPcid(mm.user_pcid);
  }
  co_await cpu.Execute(kernel_->machine().costs().cr3_write_flush);
  NoteGenApplied(*kernel_, cpu, mm, mm.tlb_gen, /*full=*/true);
}

Co<void> FreeBsdShootdownEngine::HandleFlushIrq(SimCpu& cpu) {
  const CostModel& costs = kernel_->machine().costs();
  PerCpu& pc = kernel_->percpu(cpu.id());
  cpu.AccessLine(pc.csq_line, AccessType::kAtomicRmw);
  while (!pc.csq.empty()) {
    Cfd* cfd = pc.csq.front();
    pc.csq.erase(pc.csq.begin());
    cpu.AccessLine(cfd->line, AccessType::kRead);
    FlushBatch work = cfd->work;
    co_await cpu.Execute(costs.handler_body);
    // No generation tracking: always perform the requested flush.
    for (const FlushTlbInfo& info : work) {
      if (pc.loaded_mm == info.mm) {
        co_await LocalFlush(cpu, *info.mm, info);
      }
    }
    cpu.AccessLine(cfd->line, AccessType::kAtomicRmw);
    if (ProtocolCheckSink* c = kernel_->check_sink()) {
      c->OnAck(cpu, cfd->initiator, /*early=*/false, /*guarded=*/true);
    }
    cfd->done.Set(cpu.now());
  }
}

// ----- LATR -----

LatrEngine::LatrEngine(Kernel* kernel) : kernel_(kernel) {
  queues_.resize(static_cast<size_t>(kernel->machine().num_cpus()));
  kernel_->SetFlushBackend(this);
}

TlbFlushBackend::FlushStats LatrEngine::flush_stats() const {
  FlushStats out;
  out.shootdowns = stats_.epochs_started;  // flushes that queued remote work
  return out;
}

bool LatrEngine::HasPendingLazyFlushes() const {
  for (const auto& q : queues_) {
    if (!q.empty()) {
      return true;
    }
  }
  return false;
}

Co<void> LatrEngine::LocalFlush(SimCpu& cpu, const FlushTlbInfo& info) {
  bool pti = kernel_->config().pti;
  uint64_t ceiling = kernel_->config().flush_full_threshold;
  bool full = ApplyFlushToTlb(cpu, *info.mm, info, pti, ceiling);
  co_await cpu.Execute(FlushCost(kernel_->machine().costs(), info, pti, ceiling));
  NoteGenApplied(*kernel_, cpu, *info.mm, info.new_tlb_gen, full);
}

Co<void> LatrEngine::Drain(SimCpu& cpu) {
  auto& q = queues_[static_cast<size_t>(cpu.id())];
  if (q.empty()) {
    co_return;
  }
  ++stats_.drains;
  while (!q.empty()) {
    FlushTlbInfo info = q.front();
    q.pop_front();
    co_await LocalFlush(cpu, info);
  }
}

Co<void> LatrEngine::FlushRange(SimCpu& cpu, MmStruct& mm, uint64_t start, uint64_t end,
                                int stride_shift, bool freed_tables) {
  const CostModel& costs = kernel_->machine().costs();
  FlushTlbInfo info = BumpTlbGen(*kernel_, cpu, mm, start, end, stride_shift, freed_tables);

  co_await cpu.Execute(cpu.rng().Jitter(costs.flush_dispatch, costs.jitter_frac));

  // Local flush is immediate.
  co_await LocalFlush(cpu, info);

  // Remote CPUs get lazy queue entries; NO IPI is sent.
  bool queued_any = false;
  mm.cpumask.ForEachSet([&](int t) {
    if (t == cpu.id()) {
      return;
    }
    cpu.AccessLine(kernel_->percpu(t).csq_line, AccessType::kAtomicRmw);
    cpu.AdvanceInline(costs.smp_enqueue);
    queues_[static_cast<size_t>(t)].push_back(info);
    ++stats_.flushes_queued;
    queued_any = true;
  });
  if (!queued_any) {
    ++stats_.local_only;
    co_return;
  }

  // Epoch end (a scheduler-tick sweep in LATR): any queue entry of this
  // generation still pending is applied then, off the CPUs' critical paths.
  ++stats_.epochs_started;
  ++pending_epochs_;
  Engine& engine = kernel_->machine().engine();
  uint64_t cutoff = info.new_tlb_gen;
  engine.Schedule(std::max(cpu.now(), engine.now()) + kEpochCycles, [this, cutoff] {
    bool pti = kernel_->config().pti;
    for (int t = 0; t < kernel_->machine().num_cpus(); ++t) {
      auto& q = queues_[static_cast<size_t>(t)];
      while (!q.empty() && q.front().new_tlb_gen <= cutoff) {
        FlushTlbInfo pending = q.front();
        q.pop_front();
        SimCpu& remote = kernel_->machine().cpu(t);
        bool full = ApplyFlushToTlb(remote, *pending.mm, pending, pti,
                                    kernel_->config().flush_full_threshold);
        NoteGenApplied(*kernel_, remote, *pending.mm, pending.new_tlb_gen, full);
      }
    }
    --pending_epochs_;
  });
}

Co<void> LatrEngine::OnReturnToUser(SimCpu& cpu, MmStruct& mm) {
  co_await Drain(cpu);  // LATR processes lazy messages at sync points
  if (kernel_->config().pti) {
    cpu.LoadAddressSpace(&mm.pt, mm.user_pcid);
  }
}

Co<void> LatrEngine::OnCowFault(SimCpu& cpu, MmStruct& mm, uint64_t va, bool executable) {
  (void)executable;
  co_await FlushRange(cpu, mm, va, va + kPageSize4K, static_cast<int>(kPageShift), false);
}

void LatrEngine::BeginBatch(SimCpu&, MmStruct&) {}

Co<void> LatrEngine::EndBatch(SimCpu&, MmStruct&) { co_return; }

Co<void> LatrEngine::OnSwitchIn(SimCpu& cpu, MmStruct& mm) {
  co_await Drain(cpu);
  PerCpu& pc = kernel_->percpu(cpu.id());
  cpu.AccessLine(mm.gen_line, AccessType::kRead);
  if (pc.loaded_mm_tlb_gen >= mm.tlb_gen) {
    co_return;
  }
  cpu.ArchFlushPcid(mm.kernel_pcid);
  if (kernel_->config().pti) {
    cpu.ArchFlushPcid(mm.user_pcid);
  }
  co_await cpu.Execute(kernel_->machine().costs().cr3_write_flush);
  NoteGenApplied(*kernel_, cpu, mm, mm.tlb_gen, /*full=*/true);
}

Co<void> LatrEngine::HandleFlushIrq(SimCpu& cpu) { co_await Drain(cpu); }

}  // namespace tlbsim
