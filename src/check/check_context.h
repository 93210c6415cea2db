// CheckContext: the tlbcheck analysis subsystem, attached to one System.
//
// The oracle and the invariants decide from the tlb_gen generation protocol
// alone. Three groups of checks sit behind the zero-cost-when-off hook
// interfaces (HwCheckSink / ProtocolCheckSink / PteWriteObserver /
// TlbObserver):
//
// 1. Stale-translation oracle. Every leaf PTE mutation is shadowed; writes
//    that revoke something (present bit, frame, a permission) become
//    WriteRecords, initially *pending* (gen 0). The tlb_gen bump whose range
//    covers the page assigns its generation to the record — from then on the
//    protocol's own contract applies: any CPU whose applied generation
//    reaches W.gen must have flushed W's range. Each TLB fill is stamped with
//    a birth sequence; at each *consumed* TLB hit the entry is compared with
//    a live page-table walk, and an inconsistent entry is a violation iff
//    some covering write W (newer than the entry's birth) has W.gen != 0 and
//    W.gen <= the CPU's applied generation, outside the paper-permitted
//    benign windows (pending flush, PTI deferred-user coverage §3.4).
//
// 2. Protocol invariants: monotone tlb_gen per mm; no non-lazy CPU in
//    mm_cpumask left behind a completed shootdown's generation; PTI
//    dual-PCID pairing on full flushes; early-ack guarded by
//    unfinished_flushes; CoW avoidance never applied to executable mappings
//    or while a writable stale entry is cached anywhere.
//
// 3. The two mmap_sem rules, from per-CPU shared/exclusive hold counts: an
//    RwSem sleeps, so taking one in IRQ or NMI context is irq_unsafe_lock,
//    and re-taking one with either side exclusive is recursive_lock.
//
// Construction/attachment must happen before the first CreateProcess (the
// System checker factory guarantees this). All bookkeeping is reachable only
// from simulation hooks running under the single-threaded cooperative
// engine, so no locking is needed inside a context.
#ifndef TLBSIM_SRC_CHECK_CHECK_CONTEXT_H_
#define TLBSIM_SRC_CHECK_CHECK_CONTEXT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/check/violation.h"
#include "src/core/system.h"
#include "src/hw/check_sink.h"
#include "src/kernel/protocol_check.h"
#include "src/sim/json.h"

namespace tlbsim {

class CheckContext final : public SystemChecker,
                           public ProtocolCheckSink,
                           public HwCheckSink,
                           public PteWriteObserver {
 public:
  CheckContext();
  ~CheckContext() override;

  // Wires every hook into `sys`. Must run before the first CreateProcess.
  void Attach(System& sys);

  // SystemChecker:
  uint64_t violation_count() const override { return violations_.size(); }
  std::string Summary() const override;

  const std::vector<Violation>& violations() const { return violations_; }
  uint64_t CountOf(ViolationKind kind) const;
  Json ToJson() const;

  // When set (the factory sets it in --check mode), the destructor publishes
  // all violations to the process-global sink consumed by bench reports.
  void set_publish_globally(bool on) { publish_globally_ = on; }

  // ProtocolCheckSink:
  void OnMmCreated(MmStruct& mm) override;
  void OnTlbGenBump(SimCpu& cpu, MmStruct& mm, uint64_t new_gen, uint64_t start,
                    uint64_t end) override;
  void OnAck(SimCpu& cpu, int initiator, bool early, bool guarded) override;
  void OnLocalGenApplied(SimCpu& cpu, MmStruct& mm, uint64_t new_gen, bool full,
                         bool user_covered) override;
  void OnShootdownComplete(SimCpu& cpu, MmStruct& mm, uint64_t gen,
                           std::span<const int> targets) override;
  void OnCowAvoidance(SimCpu& cpu, MmStruct& mm, uint64_t va, bool executable) override;
  void OnQueueOverflow(SimCpu& cpu, MmStruct& mm, int target, uint64_t gen,
                       bool fallback_set) override;
  void OnQueueAckTimeout(SimCpu& cpu, MmStruct& mm, int target, uint64_t gen) override;
  void OnReuseElided(SimCpu& cpu, MmStruct& mm, uint64_t va, uint64_t pfn) override;
  void OnReuseBenignClose(SimCpu& cpu, MmStruct& mm, uint64_t va, uint64_t pfn) override;
  void OnReuseFlushClose(MmStruct& mm, uint64_t va, bool stale_dropped) override;

  // HwCheckSink:
  void OnTlbHit(SimCpu& cpu, bool itlb, uint16_t pcid, uint64_t va, const TlbEntry& entry,
                bool write, bool exec, bool user_intent) override;
  void OnLockAcquire(SimCpu& cpu, bool exclusive) override;
  void OnLockRelease(SimCpu& cpu, bool exclusive) override;

  // PteWriteObserver:
  void OnPteWrite(const PageTable& pt, uint64_t va, Pte old_pte, Pte new_pte,
                  PageSize size) override;

 private:
  friend struct TlbTapImpl;

  // One revoking PTE store. gen == 0 means no tlb_gen bump has covered it
  // yet (a pending flush; consuming a predating entry is benign staleness).
  struct WriteRecord {
    uint64_t seq = 0;
    uint64_t gen = 0;
  };

  // Recent revoking writes to one page (ring; old entries age out — a lost
  // covering write then degrades to "benign", never to a false positive).
  struct PageState {
    static constexpr size_t kRing = 8;
    std::array<WriteRecord, kRing> ring{};
    size_t count = 0;  // total pushes; ring[(count-1) % kRing] is newest
    void Push(const WriteRecord& r) {
      ring[count % kRing] = r;
      ++count;
    }
  };

  // Reuse-elision benign window (Optimization #7). An elided zap's revoking
  // write stays pending (gen 0) forever, which the generic oracle treats as
  // benign — so licensed pages get their own, STRICTER rule: staleness for
  // the licensed (va -> pfn) is benign while the license is active (the
  // frame provably has no new owner) or benign-closed (the same translation
  // was reinstalled), and a hard violation once the frame was handed off
  // without the forced close purging the stale entries (kUnsafe).
  struct ReuseLicense {
    enum class State { kActive, kBenignClosed, kUnsafe };
    uint64_t pfn = 0;
    State state = State::kActive;
  };

  struct MmState {
    MmStruct* mm = nullptr;
    uint64_t last_gen = 1;                  // monotonicity watermark
    std::map<uint64_t, PageState> pages;    // keyed by size-aligned page va
    std::vector<std::pair<uint64_t, uint64_t>> pending;  // (page_va, seq)
    std::map<uint64_t, ReuseLicense> reuse_licenses;  // keyed by 4K page va
  };

  // RwSems one CPU holds, for the two mmap_sem rules.
  struct LockHolds {
    int shared = 0;
    int exclusive = 0;
  };

  // Birth stamp of one cached translation: the global write-sequence value
  // at fill time. Writes with seq > birth happened after the fill.
  struct BirthKey {
    int cpu;
    bool itlb;
    uint16_t pcid;
    uint64_t vpn;
    PageSize size;
    bool operator==(const BirthKey&) const = default;
  };
  struct BirthKeyHash {
    size_t operator()(const BirthKey& k) const {
      const uint64_t tag = static_cast<uint64_t>(k.cpu) << 32 |
                           static_cast<uint64_t>(k.pcid) << 8 |
                           static_cast<uint64_t>(k.itlb) << 4 | static_cast<uint64_t>(k.size);
      const uint64_t h = k.vpn * 0x9E3779B97F4A7C15ULL ^ tag * 0xC2B2AE3D27D4EB4FULL;
      return static_cast<size_t>(h ^ (h >> 29));
    }
  };

  MmState* StateForPcid(uint16_t pcid);
  MmState* StateForRoot(uint64_t root_id);

  void Report(Violation v);
  void ReportLock(SimCpu& cpu, ViolationKind kind, const char* what);

  // Looks for a revoking write to the page holding `va` that is newer than
  // `birth_seq` AND whose flush generation the consuming CPU already applied
  // (the lost-flush condition). Returns nullptr when no such write survives
  // in the rings (pending/aged-out writes mean benign staleness).
  const WriteRecord* FindCoveringWrite(const MmState& ms, uint64_t va, uint64_t birth_seq,
                                       uint64_t applied_gen) const;

  void OnTlbInsertTap(int cpu, bool itlb, const TlbEntry& e);

  Kernel* kernel_ = nullptr;
  bool pti_ = false;
  bool publish_globally_ = false;

  // Monotone global sequence of revoking PTE writes (total order courtesy of
  // the single-threaded engine).
  uint64_t seq_ = 0;

  std::vector<MmState*> pcid_map_;  // pcid -> owning mm state (4096 slots)
  std::map<uint64_t, std::unique_ptr<MmState>> mm_by_root_;
  // Looked up and overwritten, never iterated, so hash order never shows.
  std::unordered_map<BirthKey, uint64_t, BirthKeyHash> births_;

  std::vector<LockHolds> holds_;  // per CPU

  // Deduped violations: one record per (kind, cpu, mm, va); repeats counted.
  static constexpr size_t kMaxReports = 64;
  std::vector<Violation> violations_;
  std::map<std::tuple<int, int, uint64_t, uint64_t>, uint64_t> seen_;
  uint64_t suppressed_ = 0;

  // TLB insert taps (one per (cpu, tlb-kind)); owned here.
  std::vector<std::unique_ptr<TlbObserver>> taps_;
};

// --- global --check plumbing (bench drivers, CI) ---

// Registers the CheckContext factory with src/core/system.h (idempotent).
void InstallTlbCheckFactory();

// InstallTlbCheckFactory + force checking on for every System constructed
// from now on; factory-created contexts publish into the global sink.
void EnableTlbCheckEverywhere();

bool TlbCheckEverywhereEnabled();

// Violations accumulated by all destroyed --check contexts, process-wide.
uint64_t GlobalTlbCheckViolationCount();

// Deterministic JSON report of the global sink: violations sorted by
// (mm, time, kind, cpu, va) so --threads N runs serialize identically.
Json GlobalTlbCheckReport();

// Test hook: clears the global sink.
void ResetGlobalTlbCheckSink();

}  // namespace tlbsim

#endif  // TLBSIM_SRC_CHECK_CHECK_CONTEXT_H_
