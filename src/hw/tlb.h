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
// Layout: one struct-of-arrays per page size, all its columns in one
// allocation. Slot i of set s is index s * ways + i in every column:
//   - `tag`: vpn + 1, 0 meaning invalid. Lookup, Probe and the flushes scan
//     a set's tags first, so a miss reads one contiguous run of words;
//   - `stamp`, `pcid` and `global`: everything the liveness test below and
//     Insert's victim choice read, so neither touches the payload;
//   - `payload` (pfn and flags) and `fractured`: read only on a hit, an
//     eviction or a drop.
// Set counts must be powers of two (the constructor throws otherwise), so a
// set index is a mask. No 2M entry can be live until a 2M Insert, nor after
// FlushAll(keep_globals=false) until the next one; while none can be, Lookup,
// Probe and the flushes skip the 2M array.
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
// Lazy state: the slot arrays and the two per-PCID tables (~120 KB for the
// default geometry and ~70 KB for the ITLB's, 64 KB of which is the PCID
// tables) are built by the first Insert, as a workload fills the TLBs of
// only a few of the machine's CPUs. Until then the TLB is empty and its
// clock is 0 — the value any flush mark would record — so flushes need not
// touch them.
#ifndef TLBSIM_SRC_HW_TLB_H_
#define TLBSIM_SRC_HW_TLB_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
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
  };

  // Throws std::invalid_argument unless both set counts are powers of two
  // and both way counts are positive.
  explicit Tlb(const TlbGeometry& geo = TlbGeometry{});

  // Looks up `va` under `pcid` (global entries match any pcid).
  std::optional<TlbEntry> Lookup(uint16_t pcid, uint64_t va);

  // Lookup without counting or restamping: what Lookup would return. For
  // checks that must not perturb LRU order or stats (tlbcheck's CoW check
  // calls it on every checked run, and tests use it).
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

  struct Payload {
    uint64_t pfn = 0;
    uint64_t flags = 0;
  };

  // One page size's set-associative array, struct-of-arrays (see header
  // comment). Build() carves every column, Slots() entries each, out of one
  // allocation.
  struct Array {
    PageSize size = PageSize::k4K;
    uint32_t ways = 0;
    uint64_t set_mask = 0;
    std::unique_ptr<std::byte[]> storage;  // owns every column below; null until built
    uint64_t* tag = nullptr;               // vpn + 1; 0 = invalid
    uint64_t* stamp = nullptr;             // LRU stamp and birth mark
    Payload* payload = nullptr;
    uint16_t* pcid = nullptr;
    uint8_t* global = nullptr;
    uint8_t* fractured = nullptr;

    // Throws std::invalid_argument on a bad geometry (see Tlb's constructor).
    void Init(PageSize s, int sets, int way_count);
    void Build();
    // First slot of the set `vpn` maps to.
    size_t SetBase(uint64_t vpn) const { return static_cast<size_t>(vpn & set_mask) * ways; }
    TlbEntry EntryAt(size_t i) const;
    size_t Slots() const { return static_cast<size_t>(set_mask + 1) * ways; }
  };

  // Lazy state (see header comment): built by the first Insert.
  bool built() const { return arrays_[0].storage != nullptr; }
  void Build();

  Array& ArrayFor(PageSize s) { return arrays_[static_cast<size_t>(s)]; }

  // How many of arrays_ a lookup or flush of one address visits: the 2M
  // array only while a 2M entry may be live.
  size_t ArraysToScan() const { return may_hold_2m_ ? 2 : 1; }

  // Valid and born after every flush mark that applies to it.
  bool IsLive(const Array& a, size_t i) const {
    uint64_t stamp = a.stamp[i];
    if (a.tag[i] == 0 || stamp <= mark_all_) {
      return false;
    }
    if (a.global[i] != 0) {
      return true;
    }
    return stamp > mark_nonglobal_ && stamp > pcid_mark_[PcidIndex(a.pcid[i])];
  }

  // First live slot in [i, end) whose tag is `tag` and which `pcid` may use
  // (its own or a global entry); `end` if none.
  size_t NextMatch(const Array& a, uint16_t pcid, uint64_t tag, size_t i, size_t end) const {
    for (; i < end; ++i) {
      if (a.tag[i] == tag && (a.global[i] != 0 || a.pcid[i] == pcid) && IsLive(a, i)) {
        return i;
      }
    }
    return end;
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
  void NoteFracturedInsert(uint16_t pcid, bool global);
  void NoteFracturedDrop(uint16_t pcid, bool global);

  // Drops the live entries translating `va` that belong to `pcid` (or,
  // with match_globals, are global).
  void DropMatching(uint16_t pcid, uint64_t va, bool match_globals);

  std::array<Array, 2> arrays_;  // indexed by PageSize
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
  bool may_hold_2m_ = false;         // a 2M entry may be live (see header comment)
  bool fracture_degrade_ = true;
  TlbObserver* observer_ = nullptr;
  Stats stats_;
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
