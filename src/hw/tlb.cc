#include "src/hw/tlb.h"

#include <algorithm>

namespace tlbsim {

void Tlb::Build() {
  slots_4k_.resize(static_cast<size_t>(geo_.sets_4k) * geo_.ways_4k);
  slots_2m_.resize(static_cast<size_t>(geo_.sets_2m) * geo_.ways_2m);
  pcid_mark_.resize(kPcidSpace, 0);
  frac_pcid_.resize(kPcidSpace);
}

namespace {
uint64_t VpnOf(uint64_t va, PageSize s) { return va >> ShiftOf(s); }
}  // namespace

std::optional<TlbEntry> Tlb::Lookup(uint16_t pcid, uint64_t va) {
  // Fast path: same page, same PCID, nothing mutated since the arm. The full
  // scan would restamp exactly the armed slot (uniqueness was established at
  // arm time and no mutation can have added or killed a match since), so
  // short-circuit to it. Restamps keep the cache armed: they only raise
  // stamps, never move flush marks or change which slots match.
  if (fast_slot_ != nullptr && fast_gen_ == mut_gen_ && pcid == fast_pcid_ &&
      (va >> fast_shift_) == fast_vpn_) {
    ++stats_.lookups;
    ++stats_.hits;
    ++stats_.fastpath_hits;
    fast_slot_->stamp = ++clock_;
    return fast_slot_->entry;
  }
  ++stats_.lookups;
  auto r = Probe(pcid, va);
  if (r.has_value()) {
    ++stats_.hits;
    // Refresh LRU stamp. A live entry's new stamp is newer than every flush
    // mark by construction, so refreshing never resurrects anything.
    Slot* match = nullptr;
    int matches = 0;
    int match_shift = 0;
    for (PageSize s : {PageSize::k4K, PageSize::k2M}) {
      uint64_t vpn = VpnOf(va, s);
      int set = static_cast<int>(vpn % static_cast<uint64_t>(SetsFor(s)));
      auto& arr = ArrayFor(s);
      for (int w = 0; w < WaysFor(s); ++w) {
        Slot& slot = arr[static_cast<size_t>(set) * WaysFor(s) + w];
        if (IsLive(slot) && slot.entry.vpn == vpn && slot.entry.size == s &&
            (slot.entry.global || slot.entry.pcid == pcid)) {
          slot.stamp = ++clock_;
          match = &slot;
          ++matches;
          match_shift = ShiftOf(s);
        }
      }
    }
    // Arm only on a unique match: with two matches (e.g. a global and a
    // non-global entry, or a 4K entry under a 2M one) the scan restamps
    // both, which the one-slot fast hit cannot reproduce.
    if (matches == 1) {
      fast_slot_ = match;
      fast_vpn_ = va >> match_shift;
      fast_pcid_ = pcid;
      fast_shift_ = match_shift;
      fast_gen_ = mut_gen_;
    } else {
      fast_slot_ = nullptr;
    }
  } else {
    ++stats_.misses;
    fast_slot_ = nullptr;
  }
  return r;
}

std::optional<TlbEntry> Tlb::Probe(uint16_t pcid, uint64_t va) const {
  if (!built()) {
    return std::nullopt;
  }
  for (PageSize s : {PageSize::k4K, PageSize::k2M}) {
    uint64_t vpn = VpnOf(va, s);
    int set = static_cast<int>(vpn % static_cast<uint64_t>(SetsFor(s)));
    const auto& arr = ArrayFor(s);
    for (int w = 0; w < WaysFor(s); ++w) {
      const Slot& slot = arr[static_cast<size_t>(set) * WaysFor(s) + w];
      if (IsLive(slot) && slot.entry.vpn == vpn && slot.entry.size == s &&
          (slot.entry.global || slot.entry.pcid == pcid)) {
        return slot.entry;
      }
    }
  }
  return std::nullopt;
}

void Tlb::Insert(const TlbEntry& e) {
  if (!built()) {
    Build();
  }
  ++mut_gen_;  // disarm the fast path: this may evict or shadow the armed entry
  if (observer_ != nullptr) {
    observer_->OnTlbInsert(e);
  }
  ++stats_.inserts;
  auto& arr = ArrayFor(e.size);
  int ways = WaysFor(e.size);
  int set = static_cast<int>(e.vpn % static_cast<uint64_t>(SetsFor(e.size)));
  // Victim preference: a stale duplicate, else the first dead slot in way
  // order, else LRU among live slots. Epoch-dead slots count as dead here,
  // which keeps victim choice identical to the eager-invalidate scheme.
  Slot* victim = nullptr;
  bool victim_live = false;
  for (int w = 0; w < ways; ++w) {
    Slot& slot = arr[static_cast<size_t>(set) * ways + w];
    bool live = IsLive(slot);
    if (live && slot.entry.vpn == e.vpn && slot.entry.pcid == e.pcid &&
        slot.entry.size == e.size) {
      victim = &slot;  // overwrite stale duplicate
      victim_live = true;
      break;
    }
    if (!live) {
      if (victim == nullptr || victim_live) {
        victim = &slot;
        victim_live = false;
      }
    } else if (victim == nullptr || (victim_live && slot.stamp < victim->stamp)) {
      victim = &slot;
      victim_live = true;
    }
  }
  if (victim_live) {
    ++stats_.evictions;
    if (victim->entry.pcid != e.pcid) {
      ++stats_.cross_pcid_evictions;  // PCID-sharing pressure (paper §3.3)
    }
    if (victim->entry.fractured) {
      NoteFracturedDrop(victim->entry);
    }
  }
  victim->valid = true;
  victim->entry = e;
  victim->stamp = ++clock_;
  if (e.fractured) {
    NoteFracturedInsert(e);
  }
}

int Tlb::DropMatching(PageSize s, uint16_t pcid, uint64_t va, bool match_globals) {
  if (!built()) {
    return 0;
  }
  uint64_t vpn = VpnOf(va, s);
  int set = static_cast<int>(vpn % static_cast<uint64_t>(SetsFor(s)));
  auto& arr = ArrayFor(s);
  int ways = WaysFor(s);
  int dropped = 0;
  for (int w = 0; w < ways; ++w) {
    Slot& slot = arr[static_cast<size_t>(set) * ways + w];
    if (!IsLive(slot) || slot.entry.vpn != vpn || slot.entry.size != s) {
      continue;
    }
    bool pcid_match = slot.entry.pcid == pcid;
    bool global_match = match_globals && slot.entry.global;
    if (pcid_match || global_match) {
      if (slot.entry.fractured) {
        NoteFracturedDrop(slot.entry);
      }
      slot.valid = false;
      ++dropped;
    }
  }
  return dropped;
}

bool Tlb::InvlPg(uint16_t current_pcid, uint64_t va) {
  ++mut_gen_;
  ++stats_.selective_flushes;
  if (fractured_resident_ && fracture_degrade_) {
    ++stats_.fracture_forced_full;
    FlushAll(/*keep_globals=*/false);
    return true;
  }
  DropMatching(PageSize::k4K, current_pcid, va, /*match_globals=*/true);
  DropMatching(PageSize::k2M, current_pcid, va, /*match_globals=*/true);
  return false;
}

bool Tlb::InvPcidAddr(uint16_t pcid, uint64_t va) {
  ++mut_gen_;
  ++stats_.selective_flushes;
  if (fractured_resident_ && fracture_degrade_) {
    ++stats_.fracture_forced_full;
    FlushAll(/*keep_globals=*/false);
    return true;
  }
  DropMatching(PageSize::k4K, pcid, va, /*match_globals=*/false);
  DropMatching(PageSize::k2M, pcid, va, /*match_globals=*/false);
  return false;
}

void Tlb::DropTranslation(uint16_t pcid, uint64_t va) {
  ++mut_gen_;
  DropMatching(PageSize::k4K, pcid, va, /*match_globals=*/true);
  DropMatching(PageSize::k2M, pcid, va, /*match_globals=*/true);
}

void Tlb::FlushPcid(uint16_t pcid) {
  ++mut_gen_;
  ++stats_.full_flushes;
  if (built()) {  // unbuilt: no entries, and clock_ is still 0 (the mark's value)
    uint32_t& frac = FracCount(pcid);
    fractured_total_ -= frac;
    frac = 0;
    pcid_mark_[PcidIndex(pcid)] = clock_;
  }
  fractured_resident_ = fractured_total_ > 0;
}

void Tlb::FlushAll(bool keep_globals) {
  ++mut_gen_;
  ++stats_.full_flushes;
  if (keep_globals) {
    mark_nonglobal_ = clock_;
    fractured_total_ = frac_global_;
  } else {
    mark_all_ = clock_;
    fractured_total_ = 0;
    frac_global_ = 0;
  }
  ++frac_gen_;  // every per-PCID fractured count drops to zero, O(1)
  fractured_resident_ = fractured_total_ > 0;
}

void Tlb::NoteFracturedInsert(const TlbEntry& e) {
  if (e.global) {
    ++frac_global_;
  } else {
    ++FracCount(e.pcid);
  }
  ++fractured_total_;
  fractured_resident_ = true;
}

void Tlb::NoteFracturedDrop(const TlbEntry& e) {
  // Deliberately leaves fractured_resident_ alone: the flag is sticky until
  // the next flush, matching hardware-conservative degrade behavior.
  if (e.global) {
    --frac_global_;
  } else {
    --FracCount(e.pcid);
  }
  --fractured_total_;
}

size_t Tlb::Occupancy() const {
  size_t n = 0;
  for (const auto* arr : {&slots_4k_, &slots_2m_}) {
    for (const Slot& slot : *arr) {
      if (IsLive(slot)) {
        ++n;
      }
    }
  }
  return n;
}

std::vector<TlbEntry> Tlb::Entries() const {
  std::vector<TlbEntry> out;
  for (const auto* arr : {&slots_4k_, &slots_2m_}) {
    for (const Slot& slot : *arr) {
      if (IsLive(slot)) {
        out.push_back(slot.entry);
      }
    }
  }
  return out;
}

bool PageWalkCache::Lookup(uint16_t pcid, uint64_t va) {
  ++stats_.lookups;
  uint64_t region = va >> kHugeShift;
  for (Entry& e : entries_) {
    if (Live(e) && e.pcid == pcid && e.region == region) {
      e.stamp = ++clock_;
      ++stats_.hits;
      return true;
    }
  }
  return false;
}

void PageWalkCache::Insert(uint16_t pcid, uint64_t va) {
  uint64_t region = va >> kHugeShift;
  Entry* dead = nullptr;
  for (Entry& e : entries_) {
    if (Live(e) && e.pcid == pcid && e.region == region) {
      e.stamp = ++clock_;
      return;
    }
    if (!Live(e) && dead == nullptr) {
      dead = &e;
    }
  }
  if (dead != nullptr) {
    *dead = Entry{pcid, region, ++clock_};
    return;
  }
  if (entries_.size() < static_cast<size_t>(capacity_)) {
    entries_.push_back(Entry{pcid, region, ++clock_});
    return;
  }
  auto victim = std::min_element(entries_.begin(), entries_.end(),
                                 [](const Entry& a, const Entry& b) { return a.stamp < b.stamp; });
  *victim = Entry{pcid, region, ++clock_};
}

void PageWalkCache::FlushAll() {
  ++stats_.full_flushes;
  mark_ = clock_;  // O(1): everything born so far is dead
}

void PageWalkCache::FlushAddress(uint16_t pcid, uint64_t va) {
  uint64_t region = va >> kHugeShift;
  for (Entry& e : entries_) {
    if (Live(e) && e.pcid == pcid && e.region == region) {
      e.stamp = 0;
    }
  }
}

void PageWalkCache::FlushPcid(uint16_t pcid) {
  for (Entry& e : entries_) {
    if (Live(e) && e.pcid == pcid) {
      e.stamp = 0;
    }
  }
}

size_t PageWalkCache::size() const {
  size_t n = 0;
  for (const Entry& e : entries_) {
    if (Live(e)) {
      ++n;
    }
  }
  return n;
}

}  // namespace tlbsim
