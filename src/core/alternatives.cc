#include "src/core/alternatives.h"

#include <algorithm>
#include <cassert>

namespace tlbsim {

namespace {

// Applies one flush request to `cpu`'s TLB state for both address spaces
// (eager; neither alternative implements the paper's deferral).
void ApplyFlushToTlb(SimCpu& cpu, MmStruct& mm, const FlushTlbInfo& info, bool pti,
                     uint64_t full_ceiling) {
  bool full = info.IsFull() || info.PageCount() > full_ceiling;
  if (full) {
    cpu.ArchFlushPcid(mm.kernel_pcid);
    if (pti) {
      cpu.ArchFlushPcid(mm.user_pcid);
    }
    return;
  }
  uint64_t stride = 1ULL << info.stride_shift;
  for (uint64_t va = info.start; va < info.end; va += stride) {
    cpu.ArchInvlPg(mm.kernel_pcid, va);
    if (pti) {
      cpu.ArchInvPcidAddr(mm.user_pcid, va);
    }
  }
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
  ApplyFlushToTlb(cpu, mm, info, pti, kFullFlushCeiling);
  if (info.IsFull() || info.PageCount() > kFullFlushCeiling) {
    ++stats_.full_flushes;
  } else {
    stats_.invlpg_issued += info.PageCount();
  }
  co_await cpu.Execute(FlushCost(costs, info, pti, kFullFlushCeiling));
  PerCpu& pc = kernel_->percpu(cpu.id());
  pc.loaded_mm_tlb_gen = std::max(pc.loaded_mm_tlb_gen, info.new_tlb_gen);
}

Co<void> FreeBsdShootdownEngine::FlushRange(SimCpu& cpu, MmStruct& mm, uint64_t start,
                                            uint64_t end, int stride_shift, bool freed_tables) {
  const CostModel& costs = kernel_->machine().costs();
  cpu.AccessLine(mm.gen_line, AccessType::kAtomicRmw);
  ++mm.tlb_gen;

  FlushTlbInfo info;
  info.mm = &mm;
  info.start = start;
  info.end = end;
  info.stride_shift = stride_shift;
  info.freed_tables = freed_tables;
  info.new_tlb_gen = mm.tlb_gen;

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
  pc.loaded_mm_tlb_gen = mm.tlb_gen;
}

Co<void> FreeBsdShootdownEngine::HandleFlushIrq(SimCpu& cpu) {
  const CostModel& costs = kernel_->machine().costs();
  bool pti = kernel_->config().pti;
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
        ApplyFlushToTlb(cpu, *info.mm, info, pti, kFullFlushCeiling);
        if (info.IsFull() || info.PageCount() > kFullFlushCeiling) {
          ++stats_.full_flushes;
        } else {
          stats_.invlpg_issued += info.PageCount();
        }
        co_await cpu.Execute(FlushCost(costs, info, pti, kFullFlushCeiling));
        pc.loaded_mm_tlb_gen = std::max(pc.loaded_mm_tlb_gen, info.new_tlb_gen);
      }
    }
    cpu.AccessLine(cfd->line, AccessType::kAtomicRmw);
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

Co<void> LatrEngine::Drain(SimCpu& cpu) {
  const CostModel& costs = kernel_->machine().costs();
  bool pti = kernel_->config().pti;
  auto& q = queues_[static_cast<size_t>(cpu.id())];
  if (q.empty()) {
    co_return;
  }
  ++stats_.drains;
  PerCpu& pc = kernel_->percpu(cpu.id());
  while (!q.empty()) {
    FlushTlbInfo info = q.front();
    q.pop_front();
    ApplyFlushToTlb(cpu, *info.mm, info, pti, kernel_->config().flush_full_threshold);
    co_await cpu.Execute(
        FlushCost(costs, info, pti, kernel_->config().flush_full_threshold));
    pc.loaded_mm_tlb_gen = std::max(pc.loaded_mm_tlb_gen, info.new_tlb_gen);
  }
}

Co<void> LatrEngine::FlushRange(SimCpu& cpu, MmStruct& mm, uint64_t start, uint64_t end,
                                int stride_shift, bool freed_tables) {
  const CostModel& costs = kernel_->machine().costs();
  cpu.AccessLine(mm.gen_line, AccessType::kAtomicRmw);
  ++mm.tlb_gen;

  FlushTlbInfo info;
  info.mm = &mm;
  info.start = start;
  info.end = end;
  info.stride_shift = stride_shift;
  info.freed_tables = freed_tables;
  info.new_tlb_gen = mm.tlb_gen;

  co_await cpu.Execute(cpu.rng().Jitter(costs.flush_dispatch, costs.jitter_frac));

  // Local flush is immediate.
  ApplyFlushToTlb(cpu, mm, info, kernel_->config().pti, kernel_->config().flush_full_threshold);
  co_await cpu.Execute(
      FlushCost(costs, info, kernel_->config().pti, kernel_->config().flush_full_threshold));
  PerCpu& my = kernel_->percpu(cpu.id());
  my.loaded_mm_tlb_gen = std::max(my.loaded_mm_tlb_gen, info.new_tlb_gen);

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
        ApplyFlushToTlb(kernel_->machine().cpu(t), *pending.mm, pending, pti,
                        kernel_->config().flush_full_threshold);
        PerCpu& pc = kernel_->percpu(t);
        pc.loaded_mm_tlb_gen = std::max(pc.loaded_mm_tlb_gen, pending.new_tlb_gen);
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
  pc.loaded_mm_tlb_gen = mm.tlb_gen;
}

Co<void> LatrEngine::HandleFlushIrq(SimCpu& cpu) { co_await Drain(cpu); }

}  // namespace tlbsim
