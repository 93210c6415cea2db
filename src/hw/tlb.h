// Set-associative, PCID-tagged TLB model plus page-walk cache.
//
// Models the x86 semantics the paper depends on:
//   - entries are tagged with a PCID; global (G-bit) entries match any PCID;
//   - INVLPG invalidates one address in the *current* PCID (plus globals) and
//     drops the whole page-walk cache;
//   - INVPCID individual-address invalidates one (pcid, address) pair without
//     touching unrelated page-walk-cache entries (paper §3.4);
//   - a CR3 write without NOFLUSH drops all non-global entries of the loaded
//     PCID;
//   - "page fracturing" (paper §7): when any cached translation came from a
//     guest 2MB page backed by host 4KB pages, a *selective* flush degrades
//     to a full TLB flush.
//
// Epoch-tagged flushes: FlushAll and FlushPcid are O(1), not a scan. Every
// slot's LRU stamp doubles as its birth time (stamps come from one monotone
// clock), and the TLB keeps three flush marks: `mark_all_` (kills every
// entry born at or before it), `mark_nonglobal_` (same, but G-bit entries
// survive) and `pcid_mark_[pcid]` (non-global entries of one PCID). A slot
// is live iff it is valid and its stamp is newer than every mark that
// applies to it; a flush just records the current clock in the right mark.
// Epoch-dead slots are treated exactly like invalid ones everywhere (lookup,
// victim choice, occupancy), so behavior — including victim order and every
// Stats counter — is bit-for-bit what the scanning implementation produced.
//
// The fracture degrade check needs "is any fractured entry resident?"
// without a scan, so the TLB counts live fractured entries: one counter for
// global entries, one per PCID (generation-tagged so FlushAll can zero all
// 4096 of them in O(1)). The resident flag keeps the hardware-ish sticky
// semantics: set on insert, recomputed (now from the counters) only at
// flushes — a fractured entry that merely got evicted still forces the next
// selective flush to degrade until a full flush clears the flag.
//
// Fast-path lookups: workload inner loops hammer the same page, and at 224
// CPUs the two-page-size way scan (up to ways_4k + ways_2m slots per lookup)
// dominates simulated-access wall time. Lookup keeps a one-entry hit cache:
// when the slow path restamps exactly ONE slot, that (pcid, vpn, slot) is
// armed together with the current mutation generation; a repeat lookup of
// the same page under the same PCID then short-circuits to a three-compare
// fast hit. Every mutation — Insert, any flush or drop — bumps the
// generation, disarming the cache, so the fast hit fires only when the full
// scan would provably do the same thing: ++lookups, ++hits, restamp that
// single slot. Stats (bar the new fastpath_hits counter), LRU order and
// victim choice stay bit-for-bit identical to the scanning path.
//
// Lazy state: the slot arrays and the two per-PCID tables (~150 KB per TLB)
// are built by the first Insert, as a workload fills the TLBs of only a few
// of the machine's CPUs. Until then the TLB is empty and its clock is 0 —
// the value any flush mark would record — so flushes need not touch them.
#ifndef TLBSIM_SRC_HW_TLB_H_
#define TLBSIM_SRC_HW_TLB_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/mm/pte.h"

namespace tlbsim {

struct TlbEntry {
  uint64_t vpn = 0;  // virtual page number in units of the entry's page size
  uint16_t pcid = 0;
  uint64_t pfn = 0;
  uint64_t flags = 0;  // PteFlags bits
  PageSize size = PageSize::k4K;
  bool global = false;
  bool fractured = false;  // guest-2M translation backed by host-4K pieces
};

// Observation hook for the tlbcheck oracle (src/check/): sees every fill so
// the oracle can stamp each cached translation's birth time. Null unless
// checking is enabled.
class TlbObserver {
 public:
  virtual ~TlbObserver() = default;
  virtual void OnTlbInsert(const TlbEntry& e) = 0;
};

// Sizes loosely follow Skylake's combined DTLB+STLB capacity.
struct TlbGeometry {
  int sets_4k = 128;
  int ways_4k = 12;
  int sets_2m = 8;
  int ways_2m = 4;
};

class Tlb {
 public:
  struct Stats {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    uint64_t cross_pcid_evictions = 0;  // victim belonged to a different PCID
    uint64_t selective_flushes = 0;
    uint64_t full_flushes = 0;
    uint64_t fracture_forced_full = 0;  // selective flushes degraded to full
    uint64_t fastpath_hits = 0;  // hits served by the one-entry hit cache
  };

  explicit Tlb(const TlbGeometry& geo = TlbGeometry{}) : geo_(geo) {}

  // Looks up `va` under `pcid` (global entries match any pcid).
  std::optional<TlbEntry> Lookup(uint16_t pcid, uint64_t va);

  // Non-counting probe (for invariant checks in tests).
  std::optional<TlbEntry> Probe(uint16_t pcid, uint64_t va) const;

  void Insert(const TlbEntry& e);

  // INVLPG: drop translations of `va` for `current_pcid` and global ones.
  // Degrades to a full flush when fracturing applies. Returns true if the
  // flush was degraded (caller charges full-flush side effects).
  bool InvlPg(uint16_t current_pcid, uint64_t va);

  // INVPCID individual-address mode.
  bool InvPcidAddr(uint16_t pcid, uint64_t va);

  // Hardware-internal drop of one translation (e.g. on a permission-mismatch
  // re-walk). No fracture degrade, not counted as a software flush.
  void DropTranslation(uint16_t pcid, uint64_t va);

  // INVPCID single-context: drop all non-global entries of `pcid`.
  void FlushPcid(uint16_t pcid);

  // CR3 write (no NOFLUSH): drop all non-global entries of `pcid`.
  void FlushOnCr3Write(uint16_t pcid) { FlushPcid(pcid); }

  // Drop everything, optionally keeping G-bit entries (INVPCID all-context
  // keeps nothing; "full flush" via CR3 keeps globals).
  void FlushAll(bool keep_globals);

  // True if any resident entry is marked fractured.
  bool has_fractured() const { return fractured_resident_; }

  // Table-4 paravirtual mitigation switch: when false, selective flushes do
  // not degrade even with fractured entries (models the proposed ISA fix).
  void set_fracture_degrade_enabled(bool on) { fracture_degrade_ = on; }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

  // Number of valid entries (both page sizes).
  size_t Occupancy() const;

  // Enumerates valid entries (for coherence property checks).
  std::vector<TlbEntry> Entries() const;

  // tlbcheck hook: observer sees every Insert (null when checking off).
  void set_observer(TlbObserver* obs) { observer_ = obs; }

 private:
  // x86 PCIDs are 12-bit.
  static constexpr int kPcidSpace = 4096;

  struct Slot {
    TlbEntry entry;
    uint64_t stamp = 0;  // LRU stamp and birth mark (see header comment)
    bool valid = false;
  };

  // Lazy state (see header comment): built by the first Insert.
  bool built() const { return !slots_4k_.empty(); }
  void Build();

  std::vector<Slot>& ArrayFor(PageSize s) { return s == PageSize::k4K ? slots_4k_ : slots_2m_; }
  const std::vector<Slot>& ArrayFor(PageSize s) const {
    return s == PageSize::k4K ? slots_4k_ : slots_2m_;
  }
  int SetsFor(PageSize s) const { return s == PageSize::k4K ? geo_.sets_4k : geo_.sets_2m; }
  int WaysFor(PageSize s) const { return s == PageSize::k4K ? geo_.ways_4k : geo_.ways_2m; }

  // Valid and born after every flush mark that applies to it.
  bool IsLive(const Slot& slot) const {
    if (!slot.valid || slot.stamp <= mark_all_) {
      return false;
    }
    if (slot.entry.global) {
      return true;
    }
    return slot.stamp > mark_nonglobal_ && slot.stamp > pcid_mark_[PcidIndex(slot.entry.pcid)];
  }

  static size_t PcidIndex(uint16_t pcid) { return pcid & (kPcidSpace - 1); }

  // Live-fractured-entry accounting (see header comment). FracCount
  // normalizes the slot's generation before handing out the counter.
  uint32_t& FracCount(uint16_t pcid) {
    FracSlot& f = frac_pcid_[PcidIndex(pcid)];
    if (f.gen != frac_gen_) {
      f.gen = frac_gen_;
      f.count = 0;
    }
    return f.count;
  }
  void NoteFracturedInsert(const TlbEntry& e);
  void NoteFracturedDrop(const TlbEntry& e);

  // Drops matching entries of one page size; returns count dropped.
  int DropMatching(PageSize s, uint16_t pcid, uint64_t va, bool match_globals);

  TlbGeometry geo_;
  std::vector<Slot> slots_4k_;
  std::vector<Slot> slots_2m_;
  uint64_t clock_ = 0;

  // Flush marks (all start at 0; the first stamp handed out is 1).
  uint64_t mark_all_ = 0;
  uint64_t mark_nonglobal_ = 0;
  std::vector<uint64_t> pcid_mark_;  // size kPcidSpace

  struct FracSlot {
    uint32_t count = 0;
    uint32_t gen = 0;
  };
  std::vector<FracSlot> frac_pcid_;  // live non-global fractured, per PCID
  uint32_t frac_gen_ = 0;            // bumped by FlushAll: zeroes frac_pcid_
  uint64_t frac_global_ = 0;         // live fractured G-bit entries
  uint64_t fractured_total_ = 0;     // frac_global_ + sum of frac_pcid_

  bool fractured_resident_ = false;  // sticky; recomputed only at flushes
  bool fracture_degrade_ = true;
  TlbObserver* observer_ = nullptr;
  Stats stats_;

  // One-entry fast-path hit cache (see header comment). Armed iff
  // fast_slot_ != nullptr && fast_gen_ == mut_gen_. Slot pointers are stable:
  // the slot arrays never resize once built.
  Slot* fast_slot_ = nullptr;
  uint64_t fast_vpn_ = 0;
  uint16_t fast_pcid_ = 0;
  int fast_shift_ = 0;      // page-size shift of the armed entry
  uint64_t fast_gen_ = 0;   // mut_gen_ at arm time
  uint64_t mut_gen_ = 1;    // bumped by every insert/flush/drop
};

// Page-walk cache: caches PD-level lookups (one entry covers a 2MB region of
// one PCID). INVLPG drops the whole structure; INVPCID-addr drops only the
// entry covering that address.
//
// FlushAll is the INVLPG-side cost of every unbatched shootdown, so it uses
// the same epoch trick as the TLB: a flush records the clock in `mark_` and
// entries born at or before it are dead (O(1) instead of clearing). The
// targeted flushes stay scans — they already touch at most `capacity_`
// entries — and mark victims dead by zeroing their stamp.
class PageWalkCache {
 public:
  explicit PageWalkCache(int capacity = 32) : capacity_(capacity) {}

  bool Lookup(uint16_t pcid, uint64_t va);
  void Insert(uint16_t pcid, uint64_t va);
  void FlushAll();
  void FlushAddress(uint16_t pcid, uint64_t va);
  void FlushPcid(uint16_t pcid);

  struct Stats {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t full_flushes = 0;
  };
  const Stats& stats() const { return stats_; }

  // Number of live entries (dead ones linger in the vector until reused).
  size_t size() const;

 private:
  struct Entry {
    uint16_t pcid;
    uint64_t region;  // va >> 21
    uint64_t stamp;   // birth mark; 0 or <= mark_ means dead
  };
  bool Live(const Entry& e) const { return e.stamp > mark_; }

  int capacity_;
  uint64_t clock_ = 0;
  uint64_t mark_ = 0;
  std::vector<Entry> entries_;
  Stats stats_;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_HW_TLB_H_
