#include "src/core/shootdown.h"

#include <algorithm>
#include <cassert>

#include "src/kernel/protocol_check.h"

namespace tlbsim {

ShootdownEngine::ShootdownEngine(Kernel* kernel) : kernel_(kernel) {
  kernel_->SetFlushBackend(this);
  MetricsRegistry& m = kernel_->machine().metrics();
  h_initiator_cycles_ = &m.histogram("shootdown.initiator_cycles");
  h_flush_irq_cycles_ = &m.histogram("shootdown.flush_irq_cycles");
  h_targets_ = &m.histogram("shootdown.targets");
  c_initiated_ = &m.percpu("shootdown.initiated");
  c_flush_irqs_ = &m.percpu("shootdown.flush_irqs");
}

TlbFlushBackend::FlushStats ShootdownEngine::flush_stats() const {
  // A batch flush counts once as a batch and, when it reaches a remote CPU,
  // once more in DoShootdown.
  return {stats_.shootdowns + stats_.batch_shootdowns, stats_.early_acks,
          stats_.cow_flush_avoided, stats_.responder_full_storm, stats_.responder_skipped_gen};
}

void ShootdownEngine::PublishMetrics(MetricsRegistry& m) const {
  const Stats& s = stats_;
  m.counter("shootdown.flush_requests").Set(s.flush_requests);
  m.counter("shootdown.shootdowns").Set(s.shootdowns);
  m.counter("shootdown.local_only").Set(s.local_only);
  m.counter("shootdown.full_local_flushes").Set(s.full_local_flushes);
  m.counter("shootdown.invlpg_issued").Set(s.invlpg_issued);
  m.counter("shootdown.invpcid_issued").Set(s.invpcid_issued);
  m.counter("shootdown.early_acks").Set(s.early_acks);
  m.counter("shootdown.late_acks").Set(s.late_acks);
  m.counter("shootdown.deferred_selective").Set(s.deferred_selective);
  m.counter("shootdown.in_context_invlpg").Set(s.in_context_invlpg);
  m.counter("shootdown.in_context_full").Set(s.in_context_full);
  m.counter("shootdown.eager_user_during_wait").Set(s.eager_user_during_wait);
  m.counter("shootdown.batched_absorbed").Set(s.batched_absorbed);
  m.counter("shootdown.batch_shootdowns").Set(s.batch_shootdowns);
  m.counter("shootdown.batched_ipi_skipped").Set(s.batched_ipi_skipped);
  m.counter("shootdown.batch_barrier_flushes").Set(s.batch_barrier_flushes);
  m.counter("shootdown.responder_skipped_gen").Set(s.responder_skipped_gen);
  m.counter("shootdown.responder_selective").Set(s.responder_selective);
  m.counter("shootdown.responder_full").Set(s.responder_full);
  m.counter("shootdown.responder_full_storm").Set(s.responder_full_storm);
  m.counter("shootdown.cow_flush_avoided").Set(s.cow_flush_avoided);
  m.counter("shootdown.cow_flushes").Set(s.cow_flushes);
  m.counter("shootdown.lazy_skipped").Set(s.lazy_skipped);
  m.counter("shootdown.switch_in_flushes").Set(s.switch_in_flushes);
}

void ShootdownEngine::ComputeTargets(SimCpu& cpu, MmStruct& mm, bool freed_tables,
                                     CpuList* targets) {
  // Walk only the mask's set bits (ctz per word): target cost follows the
  // process's footprint, not num_cpus.
  mm.cpumask.ForEachSet([&](int t) {
    if (t == cpu.id()) {
      return;
    }
    PerCpu& pc = kernel_->percpu(t);
    // §3.3 item 1: the lazy flag's cacheline. In the split layout it shares
    // cpu_tlbstate with per-CPU TLB generations (false sharing: the target
    // rewrites that line on every flush it handles). Consolidated: it rides
    // on the CSQ-head line the initiator is about to touch anyway.
    LineId lazy_line = opts().cacheline_consolidation ? pc.csq_line : pc.tlbstate_line;
    cpu.AccessLine(lazy_line, AccessType::kRead);
    if (pc.is_lazy) {
      ++stats_.lazy_skipped;
      return;
    }
    // §4.2/§5.3: a CPU inside an munmap advertising ipi_defer_mode does not
    // access userspace; it catches up at its mmap_sem-release barrier.
    // Page-table frees still require a synchronous IPI (speculative walks
    // could touch freed tables).
    if (opts().userspace_batching && !freed_tables && pc.ipi_defer_mode &&
        pc.loaded_mm == &mm) {
      ++stats_.batched_ipi_skipped;
      return;
    }
    targets->push_back(t);
  });
}

bool ShootdownEngine::AckVisible(SimCpu& cpu, std::span<const int> targets) {
  PerCpu& my = kernel_->percpu(cpu.id());
  for (int t : targets) {
    Cfd& cfd = my.cfd(t);
    if (cfd.done.is_set() && cfd.done.set_time() <= cpu.now()) {
      return true;
    }
  }
  // The poll itself touches the first outstanding CFD line.
  if (!targets.empty()) {
    Cfd& cfd = my.cfd(targets.front());
    cpu.AccessLine(cfd.line, AccessType::kRead);
  }
  return false;
}

void ShootdownEngine::Ack(SimCpu& cpu, Cfd& cfd) {
  cpu.AccessLine(cfd.line, AccessType::kAtomicRmw);
  cfd.done.Set(cpu.now());
}

void ShootdownEngine::FlushUserPte(SimCpu& cpu, MmStruct& mm, uint64_t va, int stride_shift) {
  (void)stride_shift;
  cpu.ArchInvPcidAddr(mm.user_pcid, va);
  ++stats_.invpcid_issued;
}

Co<void> ShootdownEngine::LocalFlushAll(SimCpu& cpu, MmStruct& mm, const FlushBatch& infos,
                                        std::span<const int> targets) {
  const CostModel& costs = kernel_->machine().costs();
  PerCpu& pc = kernel_->percpu(cpu.id());
  uint64_t local_gen = pc.loaded_mm_tlb_gen;

  // Same generation protocol as the responder path (Linux runs both through
  // flush_tlb_func_common): a selective flush is only sufficient when this
  // CPU is exactly one generation behind; otherwise another CPU bumped the
  // generation for a range we have not applied, and only a full flush is safe.
  for (const FlushTlbInfo& info : infos) {
    if (info.new_tlb_gen <= local_gen) {
      continue;  // our interrupt handler already applied this one
    }
    bool wants_full = info.IsFull() || info.PageCount() > threshold();
    if (!wants_full && local_gen == info.new_tlb_gen - 1) {
      // Selective: kernel (active) address space eagerly with INVLPG.
      uint64_t stride = 1ULL << info.stride_shift;
      uint64_t pages = info.PageCount();
      for (uint64_t va = info.start; va < info.end; va += stride) {
        cpu.ArchInvlPg(mm.kernel_pcid, va);
      }
      stats_.invlpg_issued += pages;
      co_await cpu.Execute(static_cast<Cycles>(pages) * costs.invlpg);

      if (pti() && !inject_.skip_user_flush) {
        bool may_defer = opts().in_context_flush && !info.freed_tables;
        for (uint64_t va = info.start; va < info.end; va += stride) {
          if (may_defer) {
            // §3.4 (4a): while waiting for the first ack we have spare
            // cycles — keep flushing eagerly; once an ack is visible, defer
            // the rest to return-to-user.
            bool spare_cycles =
                opts().concurrent_flush && !targets.empty() && !AckVisible(cpu, targets);
            if (spare_cycles) {
              FlushUserPte(cpu, mm, va, info.stride_shift);
              ++stats_.eager_user_during_wait;
              co_await cpu.Execute(costs.invpcid_addr);
            } else {
              pc.deferred_user.MergeRange(va, va + stride, info.stride_shift, threshold());
              ++stats_.deferred_selective;
            }
          } else {
            FlushUserPte(cpu, mm, va, info.stride_shift);
            co_await cpu.Execute(costs.invpcid_addr);
          }
        }
      }
      local_gen = info.new_tlb_gen;
      if (ProtocolCheckSink* c = chk()) {
        // Selective user work is either flushed eagerly or deferred — both
        // count as covered (the deferred window is tracked via PerCpu).
        c->OnLocalGenApplied(cpu, mm, local_gen, /*full=*/false,
                             /*user_covered=*/!pti() || !inject_.skip_user_flush);
      }
    } else {
      ++stats_.full_local_flushes;
      cpu.ArchFlushPcid(mm.kernel_pcid);
      co_await cpu.Execute(costs.cr3_write_flush);
      bool user_covered = !pti();
      if (pti() && !inject_.skip_user_flush) {
        pc.deferred_user.MarkFull();  // baseline Linux defers full user flushes
        user_covered = true;
      }
      // A full flush catches up with everything published so far.
      local_gen = std::max(local_gen, mm.tlb_gen);
      if (ProtocolCheckSink* c = chk()) {
        c->OnLocalGenApplied(cpu, mm, local_gen, /*full=*/true, user_covered);
      }
    }
  }

  if (local_gen > pc.loaded_mm_tlb_gen) {
    pc.loaded_mm_tlb_gen = local_gen;
    cpu.AccessLine(pc.tlbstate_line, AccessType::kWrite);
  }
}

Co<void> ShootdownEngine::DoShootdown(SimCpu& cpu, MmStruct& mm, FlushBatch infos) {
  assert(!infos.empty());
  ScopedCycleTimer timer(h_initiator_cycles_, &cpu);
  c_initiated_->Inc(cpu.id());
  const CostModel& costs = kernel_->machine().costs();
  cpu.TracePhase("initiator: flush dispatch");
  co_await cpu.Execute(cpu.rng().Jitter(costs.flush_dispatch, costs.jitter_frac));

  bool any_freed = false;
  for (const FlushTlbInfo& info : infos) {
    any_freed |= info.freed_tables;
  }
  bool early_ack_ok = opts().early_ack && !any_freed;
  for (FlushTlbInfo& info : infos) {
    info.early_ack_allowed = early_ack_ok;
  }

  uint64_t max_gen = 0;
  for (const FlushTlbInfo& info : infos) {
    max_gen = std::max(max_gen, info.new_tlb_gen);
  }

  CpuList targets;
  ComputeTargets(cpu, mm, any_freed, &targets);
  h_targets_->Record(static_cast<double>(targets.size()));
  if (targets.empty()) {
    ++stats_.local_only;
    cpu.TracePhase("initiator: local flush (no remote targets)");
    co_await LocalFlushAll(cpu, mm, infos, {});
    if (ProtocolCheckSink* c = chk()) {
      c->OnShootdownComplete(cpu, mm, max_gen, {});
    }
    co_return;
  }
  ++stats_.shootdowns;

  if (!opts().concurrent_flush) {
    // Baseline order: local flush first, then kick the remotes (Figure 1a).
    cpu.TracePhase("initiator: local flush");
    co_await LocalFlushAll(cpu, mm, infos, {});
  }

  // Enqueue per-target call-function data and fire the multicast IPI.
  PerCpu& my = kernel_->percpu(cpu.id());
  bool consolidated = opts().cacheline_consolidation;
  if (!consolidated) {
    // Split layout: the flush info lives on the initiator's stack line.
    my.stack_info = infos.front();
    cpu.AccessLine(my.stack_info_line, AccessType::kWrite);
    cpu.AdvanceInline(costs.stack_info_tlb_penalty);
  }
  for (int t : targets) {
    Cfd& cfd = my.cfd(t);
    assert(!cfd.in_flight && "CFD reused while in flight");
    cfd.done.Clear();
    cfd.work = infos;
    cfd.initiator = cpu.id();
    cfd.in_flight = true;
    cpu.AccessLine(cfd.line, AccessType::kAtomicRmw);
    cpu.AccessLine(kernel_->percpu(t).csq_line, AccessType::kAtomicRmw);
    cpu.AdvanceInline(costs.smp_enqueue);
    kernel_->percpu(t).csq.push_back(&cfd);
  }
  cpu.TracePhase("initiator: send IPI");
  kernel_->machine().apic().SendIpi(cpu, targets, kCallFunctionVector);
  if (ProtocolCheckSink* c = chk()) {
    c->OnIpiSent(cpu, mm, max_gen, targets);
  }

  if (opts().concurrent_flush) {
    // §3.1: flush the local TLB while the IPIs fly.
    cpu.TracePhase("initiator: local flush (concurrent)");
    co_await LocalFlushAll(cpu, mm, infos, targets);
  }

  // Spin for every responder's acknowledgement.
  cpu.TracePhase("initiator: wait for acks");
  for (int t : targets) {
    Cfd& cfd = my.cfd(t);
    while (!inject_.skip_ack_wait) {
      cpu.AccessLine(cfd.line, AccessType::kRead);
      if (cfd.done.is_set() && cfd.done.set_time() <= cpu.now()) {
        break;
      }
      co_await cpu.WaitFlag(cfd.done);  // spurious wakes re-check
    }
    cfd.in_flight = false;
  }
  cpu.TracePhase("initiator: shootdown complete");
  if (ProtocolCheckSink* c = chk()) {
    c->OnShootdownComplete(cpu, mm, max_gen, targets);
  }
}

Co<void> ShootdownEngine::FlushRange(SimCpu& cpu, MmStruct& mm, uint64_t start, uint64_t end,
                                     int stride_shift, bool freed_tables) {
  ++stats_.flush_requests;
  const CostModel& costs = kernel_->machine().costs();

  // Bump the address-space generation (mm->context.tlb_gen).
  cpu.AccessLine(mm.gen_line, AccessType::kAtomicRmw);
  if (inject_.gen_bump_decrement && mm.tlb_gen > 1) {
    --mm.tlb_gen;  // fault injection: publish generations out of order
  } else {
    ++mm.tlb_gen;
  }

  FlushTlbInfo info;
  info.mm = &mm;
  info.start = start;
  info.end = end;
  info.stride_shift = stride_shift;
  info.freed_tables = freed_tables;
  info.new_tlb_gen = mm.tlb_gen;
  if (ProtocolCheckSink* c = chk()) {
    // Report the pre-threshold range: the generation promises at least this
    // much; a widened-to-full flush only covers more.
    c->OnTlbGenBump(cpu, mm, info.new_tlb_gen, start, end);
  }
  if (info.PageCount() > threshold()) {
    info.start = 0;
    info.end = kFlushAll;
  }

  PerCpu& pc = kernel_->percpu(cpu.id());
  if (pc.batched_mode) {
    // §4.2: absorb into the batch; flush when the 4 slots fill.
    pc.batched.push_back(info);
    ++stats_.batched_absorbed;
    cpu.AdvanceInline(costs.pte_update);  // slot bookkeeping
    if (pc.batched.size() >= PerCpu::kBatchSlots) {
      FlushBatch infos = pc.batched;
      pc.batched.clear();
      ++stats_.batch_shootdowns;
      co_await DoShootdown(cpu, mm, infos);
    }
    co_return;
  }

  FlushBatch one;
  one.push_back(info);
  co_await DoShootdown(cpu, mm, one);
}

void ShootdownEngine::BeginBatch(SimCpu& cpu, MmStruct& mm) {
  (void)mm;
  PerCpu& pc = kernel_->percpu(cpu.id());
  assert(!pc.batched_mode && pc.batched.empty());
  pc.batched_mode = true;
}

Co<void> ShootdownEngine::EndBatch(SimCpu& cpu, MmStruct& mm) {
  PerCpu& pc = kernel_->percpu(cpu.id());
  if (!pc.batched_mode) {
    co_return;
  }
  pc.batched_mode = false;
  if (!pc.batched.empty()) {
    FlushBatch infos = pc.batched;
    pc.batched.clear();
    ++stats_.batch_shootdowns;
    co_await DoShootdown(cpu, mm, infos);
  }
  // The mmap_sem-release barrier: while this CPU was in batched mode other
  // initiators skipped its IPI; catch up with the mm generation before any
  // userspace mapping can be touched again.
  cpu.AccessLine(mm.gen_line, AccessType::kRead);
  if (pc.loaded_mm_tlb_gen < mm.tlb_gen) {
    ++stats_.batch_barrier_flushes;
    cpu.ArchFlushPcid(mm.kernel_pcid);
    co_await cpu.Execute(kernel_->machine().costs().cr3_write_flush);
    if (pti()) {
      pc.deferred_user.MarkFull();
    }
    pc.loaded_mm_tlb_gen = mm.tlb_gen;
    cpu.AccessLine(pc.tlbstate_line, AccessType::kWrite);
    if (ProtocolCheckSink* c = chk()) {
      c->OnLocalGenApplied(cpu, mm, pc.loaded_mm_tlb_gen, /*full=*/true, /*user_covered=*/true);
    }
  }
}

Co<void> ShootdownEngine::OnReturnToUser(SimCpu& cpu, MmStruct& mm) {
  if (!pti()) {
    co_return;  // single address space; nothing deferred, no PCID switch
  }
  const CostModel& costs = kernel_->machine().costs();
  PerCpu& pc = kernel_->percpu(cpu.id());
  DeferredUserFlush d = pc.deferred_user;
  pc.deferred_user.Reset();

  if (!d.any) {
    // Plain exit: CR3 reload with NOFLUSH (cost folded into pti_exit_extra).
    cpu.LoadAddressSpace(&mm.pt, mm.user_pcid);
    co_return;
  }
  if (d.full) {
    ++stats_.in_context_full;
    cpu.TracePhase("exit: full user-space flush");
    cpu.ArchFlushPcid(mm.user_pcid);
    // CR3 load without the NOFLUSH bit: flush+switch in one instruction;
    // charge only the delta over the plain switch.
    co_await cpu.Execute(std::max<Cycles>(0, costs.cr3_write_flush - costs.cr3_switch));
    cpu.LoadAddressSpace(&mm.pt, mm.user_pcid);
    co_return;
  }
  // §3.4: in-context selective flush — switch to the user address space
  // first, then INVLPG (faster than INVPCID), then LFENCE against Spectre-v1
  // speculative skipping.
  cpu.TracePhase("exit: in-context INVLPG flush");
  cpu.LoadAddressSpace(&mm.pt, mm.user_pcid);
  uint64_t stride = 1ULL << d.stride_shift;
  uint64_t pages = 0;
  for (uint64_t va = d.start; va < d.end; va += stride) {
    cpu.ArchInvlPg(mm.user_pcid, va);
    ++pages;
  }
  stats_.in_context_invlpg += pages;
  stats_.invlpg_issued += pages;
  co_await cpu.Execute(static_cast<Cycles>(pages) * costs.invlpg + costs.lfence);
}

Co<void> ShootdownEngine::OnCowFault(SimCpu& cpu, MmStruct& mm, uint64_t va, bool executable) {
  const CostModel& costs = kernel_->machine().costs();
  // Fault injection: pretend executable pages are data pages, taking the
  // avoidance path the paper forbids for them.
  bool exec_eff = executable && !inject_.cow_avoid_executable;
  if (opts().cow_avoidance && !exec_eff) {
    ++stats_.cow_flush_avoided;
    cpu.TracePhase("cow: flush avoided via atomic access");
    if (ProtocolCheckSink* c = chk()) {
      c->OnCowAvoidance(cpu, mm, va, executable);
    }
    // Atomic no-op RMW on the faulting address (kernel context): forces the
    // stale translation out and caches the fresh PTE (§4.1). The page fault
    // plus this access also removes the stale user-PCID entry.
    PageTable::WalkResult walk = mm.pt.Walk(va);
    assert(walk.present);
    cpu.tlb().DropTranslation(mm.kernel_pcid, va);
    if (pti()) {
      cpu.tlb().DropTranslation(mm.user_pcid, va);
    }
    cpu.AccessLine(CoherenceModel::LineOfAddress(walk.pte.pfn() << kPageShift),
                   AccessType::kAtomicRmw);
    cpu.AdvanceInline(costs.cow_atomic_fixup);
    // The access walks the tables and caches the updated PTE (about to be
    // used by the retried user write).
    XlateResult r = Mmu::Translate(cpu, va, AccessIntent{true, false, /*user=*/false});
    (void)r;
    co_return;
  }
  ++stats_.cow_flushes;
  cpu.TracePhase("cow: flush path");
  if (mm.cpumask.count() > 1) {
    // Other threads may cache the mapping: full shootdown (ptep_clear_flush
    // on a multi-threaded mm).
    co_await FlushRange(cpu, mm, va, va + kPageSize4K, static_cast<int>(kPageShift),
                        /*freed_tables=*/false);
    co_return;
  }
  // Single-CPU mm: flush_tlb_page fast path — just the local invalidation,
  // no SMP dispatch.
  cpu.AccessLine(mm.gen_line, AccessType::kAtomicRmw);
  ++mm.tlb_gen;
  FlushTlbInfo info;
  info.mm = &mm;
  info.start = va;
  info.end = va + kPageSize4K;
  info.new_tlb_gen = mm.tlb_gen;
  if (ProtocolCheckSink* c = chk()) {
    c->OnTlbGenBump(cpu, mm, info.new_tlb_gen, info.start, info.end);
  }
  FlushBatch one;
  one.push_back(info);
  co_await LocalFlushAll(cpu, mm, one, {});
}

Co<void> ShootdownEngine::OnSwitchIn(SimCpu& cpu, MmStruct& mm) {
  const CostModel& costs = kernel_->machine().costs();
  PerCpu& pc = kernel_->percpu(cpu.id());
  cpu.AccessLine(mm.gen_line, AccessType::kRead);
  if (pc.loaded_mm_tlb_gen >= mm.tlb_gen) {
    co_return;  // TLB is current
  }
  ++stats_.switch_in_flushes;
  cpu.ArchFlushPcid(mm.kernel_pcid);
  co_await cpu.Execute(costs.cr3_write_flush);
  if (pti()) {
    pc.deferred_user.MarkFull();
  }
  pc.loaded_mm_tlb_gen = mm.tlb_gen;
  cpu.AccessLine(pc.tlbstate_line, AccessType::kWrite);
  if (ProtocolCheckSink* c = chk()) {
    c->OnLocalGenApplied(cpu, mm, pc.loaded_mm_tlb_gen, /*full=*/true, /*user_covered=*/true);
  }
}

Co<void> ShootdownEngine::HandleFlushIrq(SimCpu& cpu) {
  ScopedCycleTimer timer(h_flush_irq_cycles_, &cpu);
  c_flush_irqs_->Inc(cpu.id());
  const CostModel& costs = kernel_->machine().costs();
  PerCpu& pc = kernel_->percpu(cpu.id());
  // llist_del_all on the call-single-queue.
  cpu.AccessLine(pc.csq_line, AccessType::kAtomicRmw);
  while (!pc.csq.empty()) {
    Cfd* cfd = pc.csq.front();
    pc.csq.erase(pc.csq.begin());
    cpu.AccessLine(cfd->line, AccessType::kRead);
    bool info_inline = opts().cacheline_consolidation && cfd->work.size() == 1;
    if (!info_inline && cfd->initiator >= 0) {
      // Split layout: fetch the initiator's stack flush_tlb_info line, plus
      // the 4KB-stack dTLB penalty (§3.3 item 2).
      cpu.AccessLine(kernel_->percpu(cfd->initiator).stack_info_line, AccessType::kRead);
      cpu.AdvanceInline(costs.stack_info_tlb_penalty);
    }
    co_await cpu.Execute(costs.handler_body);

    // Copy the work descriptors out of the CFD *before* acknowledging: once
    // the ack is visible the initiator owns the CFD again and may reuse it
    // for its next shootdown while we are still flushing (the csd ownership
    // rule early acknowledgement must respect).
    FlushBatch work = cfd->work;

    bool early = true;
    for (const FlushTlbInfo& info : work) {
      early &= info.early_ack_allowed;
    }
    if (early) {
      // §3.2: acknowledge as soon as it is safe — no userspace mapping can be
      // used from here until the flush below completes; NMIs are guarded by
      // nmi_uaccess_okay().
      if (!inject_.skip_early_ack_guard) {
        ++pc.unfinished_flushes;
      }
      ++stats_.early_acks;
      cpu.TracePhase("responder: early ack");
      Ack(cpu, *cfd);
      if (ProtocolCheckSink* c = chk()) {
        c->OnAck(cpu, cfd->initiator, /*early=*/true,
                 /*guarded=*/!inject_.skip_early_ack_guard);
      }
    }
    for (const FlushTlbInfo& info : work) {
      co_await ResponderFlushOne(cpu, info);
    }
    if (early) {
      if (!inject_.skip_early_ack_guard) {
        --pc.unfinished_flushes;
      }
    } else {
      ++stats_.late_acks;
      cpu.TracePhase("responder: ack after flush");
      Ack(cpu, *cfd);
      if (ProtocolCheckSink* c = chk()) {
        c->OnAck(cpu, cfd->initiator, /*early=*/false, /*guarded=*/true);
      }
    }
  }
}

Co<void> ShootdownEngine::ResponderFlushOne(SimCpu& cpu, const FlushTlbInfo& info) {
  const CostModel& costs = kernel_->machine().costs();
  PerCpu& pc = kernel_->percpu(cpu.id());
  MmStruct* mm = info.mm;
  if (pc.loaded_mm != mm) {
    co_return;  // not our address space anymore; the switch path handles it
  }
  cpu.AccessLine(mm->gen_line, AccessType::kRead);
  uint64_t mm_gen = mm->tlb_gen;
  uint64_t local_gen = pc.loaded_mm_tlb_gen;
  if (info.new_tlb_gen <= local_gen) {
    ++stats_.responder_skipped_gen;  // someone already flushed for us
    co_return;
  }
  bool wants_full = info.IsFull() || info.PageCount() > threshold();
  bool full_applied = false;
  bool user_covered = true;
  if (!wants_full && local_gen == info.new_tlb_gen - 1) {
    ++stats_.responder_selective;
    uint64_t stride = 1ULL << info.stride_shift;
    uint64_t pages = info.PageCount();
    if (!inject_.drop_responder_flush) {
      for (uint64_t va = info.start; va < info.end; va += stride) {
        cpu.ArchInvlPg(mm->kernel_pcid, va);
      }
      stats_.invlpg_issued += pages;
      co_await cpu.Execute(static_cast<Cycles>(pages) * costs.invlpg);
      if (pti()) {
        bool may_defer = opts().in_context_flush && !info.freed_tables;
        if (may_defer) {
          pc.deferred_user.MergeRange(info.start, info.end, info.stride_shift, threshold());
          stats_.deferred_selective += pages;
          cpu.TracePhase("responder: user flush deferred in-context");
        } else {
          for (uint64_t va = info.start; va < info.end; va += stride) {
            FlushUserPte(cpu, *mm, va, info.stride_shift);
          }
          co_await cpu.Execute(static_cast<Cycles>(pages) * costs.invpcid_addr);
        }
      }
    }
    local_gen = info.new_tlb_gen;
  } else {
    // More than one generation behind (a flush storm), or an explicit full
    // flush: do a full flush and catch up with mm_gen entirely.
    ++stats_.responder_full;
    full_applied = true;
    if (!info.IsFull() && info.PageCount() <= threshold()) {
      ++stats_.responder_full_storm;
    }
    if (!inject_.drop_responder_flush) {
      cpu.ArchFlushPcid(mm->kernel_pcid);
      co_await cpu.Execute(costs.cr3_write_flush);
      if (pti()) {
        pc.deferred_user.MarkFull();
      }
    } else {
      user_covered = !pti();
    }
    local_gen = mm_gen;
  }
  pc.loaded_mm_tlb_gen = local_gen;
  cpu.AccessLine(pc.tlbstate_line, AccessType::kWrite);
  if (ProtocolCheckSink* c = chk()) {
    c->OnLocalGenApplied(cpu, *mm, local_gen, full_applied, user_covered);
  }
}

}  // namespace tlbsim
