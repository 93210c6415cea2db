#include "src/check/check_context.h"

#include <algorithm>
#include <mutex>
#include <tuple>
#include <utility>

#include "src/hw/cpu.h"
#include "src/hw/machine.h"
#include "src/kernel/flush_info.h"
#include "src/kernel/kernel.h"
#include "src/kernel/percpu.h"

namespace tlbsim {

namespace {

// Process-global violation sink fed by --check contexts at destruction.
// Sweep jobs run on multiple host threads, hence the mutex; determinism of
// the report comes from sorting at drain time, not from arrival order.
struct GlobalSink {
  std::mutex mu;
  std::vector<Violation> reports;
  uint64_t suppressed = 0;

  static GlobalSink& Instance() {
    static GlobalSink sink;
    return sink;
  }
};

std::unique_ptr<SystemChecker> MakeCheckContext(System& sys) {
  auto ctx = std::make_unique<CheckContext>();
  ctx->set_publish_globally(CheckEverySystem());
  ctx->Attach(sys);
  return ctx;
}

}  // namespace

// Adapter giving each (cpu, tlb-kind) pair its own TlbObserver identity.
struct TlbTapImpl final : TlbObserver {
  CheckContext* ctx = nullptr;
  int cpu = -1;
  bool itlb = false;
  void OnTlbInsert(const TlbEntry& e) override { ctx->OnTlbInsertTap(cpu, itlb, e); }
};

CheckContext::CheckContext() : pcid_map_(4096, nullptr) {}

CheckContext::~CheckContext() {
  if (!publish_globally_) {
    return;
  }
  GlobalSink& sink = GlobalSink::Instance();
  std::lock_guard<std::mutex> lock(sink.mu);
  for (const Violation& v : violations_) {
    sink.reports.push_back(v);
  }
  sink.suppressed += suppressed_;
}

void CheckContext::Attach(System& sys) {
  kernel_ = &sys.kernel();
  pti_ = kernel_->config().pti;
  Machine& machine = sys.machine();
  holds_.resize(static_cast<size_t>(machine.num_cpus()));
  for (int c = 0; c < machine.num_cpus(); ++c) {
    SimCpu& cpu = machine.cpu(c);
    cpu.set_check_sink(this);
    for (bool itlb : {false, true}) {
      auto tap = std::make_unique<TlbTapImpl>();
      tap->ctx = this;
      tap->cpu = c;
      tap->itlb = itlb;
      (itlb ? cpu.itlb() : cpu.tlb()).set_observer(tap.get());
      taps_.push_back(std::move(tap));
    }
  }
  kernel_->set_check_sink(this);
}

uint64_t CheckContext::CountOf(ViolationKind kind) const {
  uint64_t n = 0;
  for (const Violation& v : violations_) {
    if (v.kind == kind) {
      ++n;
    }
  }
  return n;
}

std::string CheckContext::Summary() const {
  std::string s = "tlbcheck: " + std::to_string(violations_.size()) + " violation(s)";
  bool first = true;
  for (const Violation& v : violations_) {
    s += first ? " [" : "; ";
    first = false;
    s += ViolationKindName(v.kind);
    s += " cpu" + std::to_string(v.cpu) + " mm" + std::to_string(v.mm_id) + ": " + v.detail;
  }
  if (!first) {
    s += "]";
  }
  if (suppressed_ > 0) {
    s += " (+" + std::to_string(suppressed_) + " repeats)";
  }
  return s;
}

Json CheckContext::ToJson() const {
  Json j = Json::Object();
  j["violations"] = static_cast<uint64_t>(violations_.size());
  j["suppressed"] = suppressed_;
  Json reports = Json::Array();
  for (const Violation& v : violations_) {
    reports.Append(v.ToJson());
  }
  j["reports"] = std::move(reports);
  return j;
}

void CheckContext::Report(Violation v) {
  auto key = std::make_tuple(static_cast<int>(v.kind), v.cpu, v.mm_id, v.va);
  uint64_t& times = seen_[key];
  ++times;
  if (times > 1 || violations_.size() >= kMaxReports) {
    ++suppressed_;
    return;
  }
  violations_.push_back(std::move(v));
}

void CheckContext::ReportLock(SimCpu& cpu, ViolationKind kind, const char* what) {
  Violation v;
  v.kind = kind;
  v.time = cpu.now();
  v.cpu = cpu.id();
  v.detail = std::string("rwsem ") + what + " on cpu" + std::to_string(cpu.id());
  Report(std::move(v));
}

CheckContext::MmState* CheckContext::StateForPcid(uint16_t pcid) {
  if (pcid >= pcid_map_.size()) {
    return nullptr;
  }
  return pcid_map_[pcid];
}

CheckContext::MmState* CheckContext::StateForRoot(uint64_t root_id) {
  auto it = mm_by_root_.find(root_id);
  return it == mm_by_root_.end() ? nullptr : it->second.get();
}

// --- ProtocolCheckSink ---

void CheckContext::OnMmCreated(MmStruct& mm) {
  auto state = std::make_unique<MmState>();
  state->mm = &mm;
  state->last_gen = mm.tlb_gen;
  pcid_map_[mm.kernel_pcid] = state.get();
  pcid_map_[mm.user_pcid] = state.get();
  mm.pt.set_write_observer(this);
  mm_by_root_[mm.pt.root_id()] = std::move(state);
}

void CheckContext::OnPteWrite(const PageTable& pt, uint64_t va, Pte old_pte, Pte new_pte,
                              PageSize size) {
  MmState* ms = StateForRoot(pt.root_id());
  if (ms == nullptr || !old_pte.present()) {
    return;
  }
  // Only *revoking* stores matter to cached translations: dropping the
  // mapping, moving the frame, or removing a permission. Pure upgrades and
  // hardware A/D-bit assists never invalidate what a TLB entry promises.
  bool revoking = !new_pte.present() || new_pte.pfn() != old_pte.pfn() ||
                  (old_pte.writable() && !new_pte.writable()) ||
                  (old_pte.user() && !new_pte.user()) ||
                  (old_pte.executable() && !new_pte.executable());
  if (!revoking) {
    return;
  }
  ++seq_;
  WriteRecord r;
  r.seq = seq_;
  r.gen = 0;  // pending until a tlb_gen bump covers the page
  uint64_t page_va = PageAlignDown(va, size);
  ms->pages[page_va].Push(r);
  ms->pending.emplace_back(page_va, seq_);
}

void CheckContext::OnTlbGenBump(SimCpu& cpu, MmStruct& mm, uint64_t new_gen, uint64_t start,
                                uint64_t end) {
  MmState* ms = StateForRoot(mm.pt.root_id());
  if (ms == nullptr) {
    return;
  }
  if (new_gen <= ms->last_gen) {
    Violation v;
    v.kind = ViolationKind::kNonMonotoneGen;
    v.time = cpu.now();
    v.cpu = cpu.id();
    v.mm_id = mm.id;
    v.write_gen = new_gen;
    v.applied_gen = ms->last_gen;
    v.detail = "tlb_gen published " + std::to_string(new_gen) + " after " +
               std::to_string(ms->last_gen);
    Report(std::move(v));
  } else {
    ms->last_gen = new_gen;
  }

  // Assign this bump's generation to every pending write its range covers
  // (conservative containment: an uncovered or aged-out write stays pending,
  // which can only make the oracle *less* eager, never wrong).
  auto covered = [&](uint64_t page_va) {
    return end == kFlushAll || (page_va >= PageAlignDown(start) && page_va < end);
  };
  auto it = ms->pending.begin();
  while (it != ms->pending.end()) {
    if (!covered(it->first)) {
      ++it;
      continue;
    }
    auto page_it = ms->pages.find(it->first);
    if (page_it != ms->pages.end()) {
      PageState& page = page_it->second;
      size_t live = std::min(page.count, PageState::kRing);
      for (size_t i = 0; i < live; ++i) {
        WriteRecord& r = page.ring[(page.count - 1 - i) % PageState::kRing];
        if (r.seq == it->second) {
          r.gen = new_gen;
          break;
        }
      }
    }
    it = ms->pending.erase(it);
  }

  // A real flush covering a licensed page hands responsibility back to the
  // generation protocol: this bump's shootdown retires the stale entries and
  // (via the pending assignment above) dates the elided zap's write records,
  // so the generic lost-flush rule takes over from here.
  auto lit = ms->reuse_licenses.begin();
  while (lit != ms->reuse_licenses.end()) {
    if (covered(lit->first)) {
      lit = ms->reuse_licenses.erase(lit);
    } else {
      ++lit;
    }
  }
}

void CheckContext::OnAck(SimCpu& cpu, int initiator, bool early, bool guarded) {
  if (early && !guarded) {
    Violation v;
    v.kind = ViolationKind::kEarlyAckUnguarded;
    v.time = cpu.now();
    v.cpu = cpu.id();
    v.detail = "early ack to cpu" + std::to_string(initiator) +
               " without raising unfinished_flushes";
    Report(std::move(v));
  }
}

void CheckContext::OnLocalGenApplied(SimCpu& cpu, MmStruct& mm, uint64_t new_gen, bool full,
                                     bool user_covered) {
  if (full && pti_ && !user_covered) {
    Violation v;
    v.kind = ViolationKind::kPtiPairingMissing;
    v.time = cpu.now();
    v.cpu = cpu.id();
    v.mm_id = mm.id;
    v.applied_gen = new_gen;
    v.detail = "full flush advanced kernel-PCID state to gen " + std::to_string(new_gen) +
               " without user-PCID coverage";
    Report(std::move(v));
  }
}

void CheckContext::OnShootdownComplete(SimCpu& cpu, MmStruct& mm, uint64_t gen,
                                       std::span<const int> targets) {
  (void)targets;
  // Invariant: once the initiator declares completion, no CPU actively using
  // this mm may still be behind `gen` — except in the windows the protocol
  // explicitly licenses (lazy CPUs, catch-up in progress, accepted-but-
  // unapplied early acks, deferred-IPI / batched responders).
  mm.cpumask.ForEachSet([&](int t) {
    const PerCpu& pc = kernel_->percpu(t);
    if (pc.loaded_mm != &mm || pc.is_lazy || pc.catching_up || pc.unfinished_flushes > 0 ||
        pc.ipi_defer_mode || pc.batched_mode) {
      return;
    }
    if (pc.loaded_mm_tlb_gen < gen) {
      Violation v;
      v.kind = ViolationKind::kShootdownLeftStaleCpu;
      v.time = cpu.now();
      v.cpu = t;
      v.mm_id = mm.id;
      v.write_gen = gen;
      v.applied_gen = pc.loaded_mm_tlb_gen;
      v.detail = "shootdown by cpu" + std::to_string(cpu.id()) + " completed at gen " +
                 std::to_string(gen) + " but cpu" + std::to_string(t) + " is at gen " +
                 std::to_string(pc.loaded_mm_tlb_gen);
      Report(std::move(v));
    }
  });

  // Invariant (pt_replication): flush acknowledgement is also the point where
  // Mitosis-style replicas must agree with the primary — a completed
  // shootdown with a diverged replica means remote walkers can still load
  // the very translation this shootdown retired.
  if (mm.pt.replicated()) {
    uint64_t va = 0;
    int node = -1;
    if (mm.pt.FindReplicaDivergence(&va, &node)) {
      Violation v;
      v.kind = ViolationKind::kReplicaDivergence;
      v.time = cpu.now();
      v.cpu = cpu.id();
      v.mm_id = mm.id;
      v.va = va;
      v.write_gen = gen;
      v.detail = "node " + std::to_string(node) + " page-table replica diverges from the "
                 "primary at va " + std::to_string(va) + " when the shootdown completed";
      Report(std::move(v));
    }
  }
}

void CheckContext::OnCowAvoidance(SimCpu& cpu, MmStruct& mm, uint64_t va, bool executable) {
  if (executable) {
    Violation v;
    v.kind = ViolationKind::kCowUnsafeAvoidance;
    v.time = cpu.now();
    v.cpu = cpu.id();
    v.mm_id = mm.id;
    v.va = va;
    v.detail = "CoW flush avoidance applied to an executable mapping (ITLB cannot "
               "self-invalidate, paper 4.1)";
    Report(std::move(v));
    return;
  }
  // The avoidance is sound only because the pre-break PTE was read-only: the
  // faulting access self-corrects via the permission-mismatch re-walk. A
  // *writable* cached translation anywhere breaks that argument.
  Machine& machine = kernel_->machine();
  for (int t = 0; t < machine.num_cpus(); ++t) {
    SimCpu& other = machine.cpu(t);
    for (Tlb* tlb : {&other.tlb(), &other.itlb()}) {
      for (uint16_t pcid : {mm.kernel_pcid, mm.user_pcid}) {
        auto e = tlb->Probe(pcid, va);
        if (e.has_value() && (e->flags & PteFlags::kWrite) != 0) {
          Violation v;
          v.kind = ViolationKind::kCowUnsafeAvoidance;
          v.time = cpu.now();
          v.cpu = t;
          v.mm_id = mm.id;
          v.va = va;
          v.pcid = pcid;
          v.detail = "CoW flush avoidance while cpu" + std::to_string(t) +
                     " caches a writable translation";
          Report(std::move(v));
          return;
        }
      }
    }
  }
}

// --- queue backend (src/core/queue_backend.h) ---

void CheckContext::OnQueueOverflow(SimCpu& cpu, MmStruct& mm, int target, uint64_t gen,
                                   bool fallback_set) {
  if (fallback_set) {
    return;  // the flush_all fallback covers the dropped addresses: by design
  }
  Violation v;
  v.kind = ViolationKind::kQueueOverflowLost;
  v.time = cpu.now();
  v.cpu = target;
  v.mm_id = mm.id;
  v.write_gen = gen;
  v.detail = "cpu" + std::to_string(cpu.id()) + " overflowed cpu" + std::to_string(target) +
             "'s flush ring at queue gen " + std::to_string(gen) +
             " without raising the flush_all fallback";
  Report(std::move(v));
}

void CheckContext::OnQueueAckTimeout(SimCpu& cpu, MmStruct& mm, int target, uint64_t gen) {
  Violation v;
  v.kind = ViolationKind::kQueueAckTimeout;
  v.time = cpu.now();
  v.cpu = target;
  v.mm_id = mm.id;
  v.write_gen = gen;
  const PerCpu& pc = kernel_->percpu(target);
  v.applied_gen = pc.loaded_mm_tlb_gen;
  v.detail = "cpu" + std::to_string(cpu.id()) + " exhausted its retry budget waiting for cpu" +
             std::to_string(target) + " to acknowledge queue gen " + std::to_string(gen);
  Report(std::move(v));
}

void CheckContext::OnReuseElided(SimCpu& cpu, MmStruct& mm, uint64_t va, uint64_t pfn) {
  (void)cpu;
  MmState* ms = StateForRoot(mm.pt.root_id());
  if (ms == nullptr) {
    return;
  }
  ms->reuse_licenses[PageAlignDown(va)] = ReuseLicense{pfn, ReuseLicense::State::kActive};
}

void CheckContext::OnReuseBenignClose(SimCpu& cpu, MmStruct& mm, uint64_t va, uint64_t pfn) {
  (void)cpu;
  MmState* ms = StateForRoot(mm.pt.root_id());
  if (ms == nullptr) {
    return;
  }
  auto it = ms->reuse_licenses.find(PageAlignDown(va));
  if (it == ms->reuse_licenses.end() || it->second.pfn != pfn) {
    return;
  }
  it->second.state = ReuseLicense::State::kBenignClosed;
}

void CheckContext::OnReuseFlushClose(MmStruct& mm, uint64_t va, bool stale_dropped) {
  MmState* ms = StateForRoot(mm.pt.root_id());
  if (ms == nullptr) {
    return;
  }
  auto it = ms->reuse_licenses.find(PageAlignDown(va));
  if (it == ms->reuse_licenses.end()) {
    return;
  }
  if (stale_dropped) {
    // The kernel purged (or is about to flush) the stale translations; from
    // here the normal generation protocol carries the proof.
    ms->reuse_licenses.erase(it);
  } else {
    // reuse_elide_unsafe fault knob: the purge was skipped while the frame
    // went to a new owner. Any later consumption of this translation is the
    // exact bug the elision's safety check exists to prevent.
    it->second.state = ReuseLicense::State::kUnsafe;
  }
}

// --- oracle ---

void CheckContext::OnTlbInsertTap(int cpu, bool itlb, const TlbEntry& e) {
  births_[BirthKey{cpu, itlb, e.pcid, e.vpn, e.size}] = seq_;
}

const CheckContext::WriteRecord* CheckContext::FindCoveringWrite(const MmState& ms, uint64_t va,
                                                                 uint64_t birth_seq,
                                                                 uint64_t applied_gen) const {
  for (PageSize size : {PageSize::k4K, PageSize::k2M}) {
    auto it = ms.pages.find(PageAlignDown(va, size));
    if (it == ms.pages.end()) {
      continue;
    }
    const PageState& page = it->second;
    size_t live = std::min(page.count, PageState::kRing);
    for (size_t i = 0; i < live; ++i) {
      const WriteRecord& r = page.ring[(page.count - 1 - i) % PageState::kRing];
      if (r.seq > birth_seq && r.gen != 0 && r.gen <= applied_gen) {
        return &r;
      }
    }
  }
  return nullptr;
}

void CheckContext::OnTlbHit(SimCpu& cpu, bool itlb, uint16_t pcid, uint64_t va,
                            const TlbEntry& entry, bool write, bool exec, bool user_intent) {
  (void)write;
  (void)exec;
  (void)user_intent;
  if (entry.global) {
    return;  // global mappings are outside the per-mm generation protocol
  }
  MmState* ms = StateForPcid(pcid);
  if (ms == nullptr) {
    return;
  }
  const PerCpu& pc = kernel_->percpu(cpu.id());
  if (pc.loaded_mm != ms->mm) {
    return;
  }

  // Ground truth: what would a fresh walk of the live page table return?
  PageTable::WalkResult ground = ms->mm->pt.Walk(va);
  Pte cached(entry.flags);
  bool consistent = ground.present && ground.size == entry.size &&
                    ground.pte.pfn() == entry.pfn &&
                    (!cached.writable() || ground.pte.writable()) &&
                    (!cached.user() || ground.pte.user()) &&
                    (!cached.executable() || ground.pte.executable());
  if (consistent) {
    return;
  }

  // Reuse-elision license (Optimization #7): an elided zap's revoking write
  // stays pending forever, so licensed pages answer here instead of through
  // the generic rule. Active / benign-closed licenses are the proved-benign
  // window; an unsafe license means the frame was handed to a new owner with
  // the purge skipped — consuming the translation is a hard violation.
  if (entry.size == PageSize::k4K) {
    auto lic = ms->reuse_licenses.find(PageAlignDown(va));
    if (lic != ms->reuse_licenses.end() && lic->second.pfn == entry.pfn) {
      if (lic->second.state == ReuseLicense::State::kUnsafe) {
        Violation v;
        v.kind = ViolationKind::kReuseElideUnsafe;
        v.time = cpu.now();
        v.cpu = cpu.id();
        v.mm_id = ms->mm->id;
        v.va = va;
        v.pcid = pcid;
        v.applied_gen = pc.loaded_mm_tlb_gen;
        v.detail = std::string(itlb ? "ITLB" : "DTLB") +
                   " consumed an elided-flush translation after its frame moved to a new owner";
        Report(std::move(v));
      }
      return;
    }
  }

  // The entry is stale. Benign unless a covering write's flush generation
  // was already applied by this CPU — then the flush demonstrably skipped
  // this translation: a lost flush.
  auto birth = births_.find(BirthKey{cpu.id(), itlb, pcid, entry.vpn, entry.size});
  if (birth == births_.end()) {
    return;  // never saw the fill; cannot reason about its age
  }
  const WriteRecord* w = FindCoveringWrite(*ms, va, birth->second, pc.loaded_mm_tlb_gen);
  if (w == nullptr) {
    return;  // pending flush (e.g. CoW avoidance, in-flight shootdown): benign
  }
  // PTI in-context deferral (3.4): user-PCID staleness is licensed while the
  // deferred flush that will clear it is still queued for return-to-user.
  if (pti_ && pcid == ms->mm->user_pcid &&
      (pc.deferred_user.full ||
       (pc.deferred_user.any && va >= pc.deferred_user.start && va < pc.deferred_user.end))) {
    return;
  }

  Violation v;
  v.kind = ViolationKind::kLostFlush;
  v.time = cpu.now();
  v.cpu = cpu.id();
  v.mm_id = ms->mm->id;
  v.va = va;
  v.pcid = pcid;
  v.write_gen = w->gen;
  v.applied_gen = pc.loaded_mm_tlb_gen;
  v.detail = std::string(itlb ? "ITLB" : "DTLB") + " consumed a translation predating a " +
             (ground.present ? "revoking PTE write" : "zapped mapping") + " flushed at gen " +
             std::to_string(w->gen);
  Report(std::move(v));
}

// --- mmap_sem rules ---

void CheckContext::OnLockAcquire(SimCpu& cpu, bool exclusive) {
  LockHolds& held = holds_[static_cast<size_t>(cpu.id())];
  // An RwSem sleeps when contended, and an interrupt handler must not.
  if (cpu.in_irq() || cpu.in_nmi()) {
    ReportLock(cpu, ViolationKind::kIrqUnsafeLock, "acquired in IRQ context");
  }
  // down_read twice is fine; anything exclusive on either side self-deadlocks.
  if (held.exclusive > 0 || (exclusive && held.shared > 0)) {
    ReportLock(cpu, ViolationKind::kRecursiveLock, "acquired while already held");
  }
  ++(exclusive ? held.exclusive : held.shared);
}

void CheckContext::OnLockRelease(SimCpu& cpu, bool exclusive) {
  LockHolds& held = holds_[static_cast<size_t>(cpu.id())];
  --(exclusive ? held.exclusive : held.shared);
}

// --- global --check plumbing ---

void InstallTlbCheckFactory() { SetSystemCheckerFactory(&MakeCheckContext); }

void EnableTlbCheckEverywhere() {
  InstallTlbCheckFactory();
  SetCheckEverySystem(true);
}

bool TlbCheckEverywhereEnabled() { return CheckEverySystem(); }

uint64_t GlobalTlbCheckViolationCount() {
  GlobalSink& sink = GlobalSink::Instance();
  std::lock_guard<std::mutex> lock(sink.mu);
  return sink.reports.size() + sink.suppressed;
}

Json GlobalTlbCheckReport() {
  GlobalSink& sink = GlobalSink::Instance();
  std::vector<Violation> reports;
  uint64_t suppressed = 0;
  {
    std::lock_guard<std::mutex> lock(sink.mu);
    reports = sink.reports;
    suppressed = sink.suppressed;
  }
  std::stable_sort(reports.begin(), reports.end(), [](const Violation& a, const Violation& b) {
    return std::make_tuple(a.mm_id, a.time, static_cast<int>(a.kind), a.cpu, a.va, a.detail) <
           std::make_tuple(b.mm_id, b.time, static_cast<int>(b.kind), b.cpu, b.va, b.detail);
  });
  Json j = Json::Object();
  j["violations"] = static_cast<uint64_t>(reports.size());
  j["suppressed"] = suppressed;
  Json arr = Json::Array();
  for (const Violation& v : reports) {
    arr.Append(v.ToJson());
  }
  j["reports"] = std::move(arr);
  return j;
}

void ResetGlobalTlbCheckSink() {
  GlobalSink& sink = GlobalSink::Instance();
  std::lock_guard<std::mutex> lock(sink.mu);
  sink.reports.clear();
  sink.suppressed = 0;
}

}  // namespace tlbsim
