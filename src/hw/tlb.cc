#include "src/hw/tlb.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace tlbsim {

namespace {

// Value-initializes `n` objects of T at `next` and advances `next` past them.
template <typename T>
T* Column(std::byte*& next, size_t n) {
  T* first = reinterpret_cast<T*>(next);
  next = reinterpret_cast<std::byte*>(std::uninitialized_value_construct_n(first, n));
  return first;
}

}  // namespace

void Tlb::Array::Init(PageSize s, int sets, int way_count) {
  // The set index is a mask: a set count that is not a power of two would
  // silently alias sets.
  if (sets <= 0 || (sets & (sets - 1)) != 0 || way_count < 1) {
    throw std::invalid_argument("Tlb: set counts must be powers of two, way counts positive");
  }
  size = s;
  set_mask = static_cast<uint64_t>(sets) - 1;
  ways = static_cast<uint32_t>(way_count);
}

void Tlb::Array::Build() {
  size_t slots = Slots();
  // One allocation, not one per column. Ops build and free whole Systems;
  // with a block per column, glibc trimmed ~470 KB off the heap as each
  // walk_sweep op freed its System, and the next op faulted it back in.
  // Columns go widest first, so each starts aligned.
  static_assert(alignof(Payload) <= alignof(uint64_t));
  storage = std::make_unique_for_overwrite<std::byte[]>(
      slots * (2 * sizeof(uint64_t) + sizeof(Payload) + sizeof(uint16_t) + 2 * sizeof(uint8_t)));
  std::byte* next = storage.get();
  tag = Column<uint64_t>(next, slots);
  stamp = Column<uint64_t>(next, slots);
  payload = Column<Payload>(next, slots);
  pcid = Column<uint16_t>(next, slots);
  global = Column<uint8_t>(next, slots);
  fractured = Column<uint8_t>(next, slots);
}

TlbEntry Tlb::Array::EntryAt(size_t i) const {
  TlbEntry e;
  e.vpn = tag[i] - 1;
  e.pcid = pcid[i];
  e.pfn = payload[i].pfn;
  e.flags = payload[i].flags;
  e.size = size;
  e.global = global[i] != 0;
  e.fractured = fractured[i] != 0;
  return e;
}

Tlb::Tlb(const TlbGeometry& geo) {
  ArrayFor(PageSize::k4K).Init(PageSize::k4K, geo.sets_4k, geo.ways_4k);
  ArrayFor(PageSize::k2M).Init(PageSize::k2M, geo.sets_2m, geo.ways_2m);
}

void Tlb::Build() {
  for (Array& a : arrays_) {
    a.Build();
  }
  pcid_mark_.resize(kPcidSpace, 0);
  frac_pcid_.resize(kPcidSpace);
}

std::optional<TlbEntry> Tlb::Lookup(uint16_t pcid, uint64_t va) {
  ++stats_.lookups;
  // One pass: the first match (4K before 2M, then way order) is the result,
  // and every match gets a fresh LRU stamp. A live entry's new stamp is
  // newer than every flush mark by construction, so this never resurrects
  // anything.
  std::optional<TlbEntry> hit;
  if (built()) {
    for (size_t k = 0; k < ArraysToScan(); ++k) {
      Array& a = arrays_[k];
      uint64_t vpn = va >> ShiftOf(a.size);
      size_t base = a.SetBase(vpn);
      size_t end = base + a.ways;
      for (size_t i = NextMatch(a, pcid, vpn + 1, base, end); i != end;
           i = NextMatch(a, pcid, vpn + 1, i + 1, end)) {
        if (!hit.has_value()) {
          hit = a.EntryAt(i);
        }
        a.stamp[i] = ++clock_;
      }
    }
  }
  if (hit.has_value()) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  return hit;
}

std::optional<TlbEntry> Tlb::Probe(uint16_t pcid, uint64_t va) const {
  if (!built()) {
    return std::nullopt;
  }
  for (size_t k = 0; k < ArraysToScan(); ++k) {
    const Array& a = arrays_[k];
    uint64_t vpn = va >> ShiftOf(a.size);
    size_t base = a.SetBase(vpn);
    size_t end = base + a.ways;
    size_t i = NextMatch(a, pcid, vpn + 1, base, end);
    if (i != end) {
      return a.EntryAt(i);
    }
  }
  return std::nullopt;
}

void Tlb::Insert(const TlbEntry& e) {
  if (!built()) {
    Build();
  }
  if (observer_ != nullptr) {
    observer_->OnTlbInsert(e);
  }
  ++stats_.inserts;
  if (e.size == PageSize::k2M) {
    may_hold_2m_ = true;
  }
  Array& a = ArrayFor(e.size);
  uint64_t tag = e.vpn + 1;
  size_t base = a.SetBase(e.vpn);
  size_t end = base + a.ways;
  // Victim preference: a stale duplicate, else the first dead slot in way
  // order, else LRU among live slots. Epoch-dead slots count as dead here,
  // which keeps victim choice identical to the eager-invalidate scheme.
  size_t victim = end;  // none yet
  bool victim_live = false;
  for (size_t i = base; i < end; ++i) {
    bool live = IsLive(a, i);
    if (live && a.tag[i] == tag && a.pcid[i] == e.pcid) {
      victim = i;  // overwrite stale duplicate
      victim_live = true;
      break;
    }
    if (!live) {
      if (victim == end || victim_live) {
        victim = i;
        victim_live = false;
      }
    } else if (victim == end || (victim_live && a.stamp[i] < a.stamp[victim])) {
      victim = i;
      victim_live = true;
    }
  }
  if (victim_live) {
    ++stats_.evictions;
    if (a.pcid[victim] != e.pcid) {
      ++stats_.cross_pcid_evictions;  // PCID-sharing pressure (paper §3.3)
    }
    if (a.fractured[victim] != 0) {
      NoteFracturedDrop(a.pcid[victim], a.global[victim] != 0);
    }
  }
  a.tag[victim] = tag;
  a.stamp[victim] = ++clock_;
  a.pcid[victim] = e.pcid;
  a.global[victim] = e.global ? 1 : 0;
  a.payload[victim] = Payload{e.pfn, e.flags};
  a.fractured[victim] = e.fractured ? 1 : 0;
  if (e.fractured) {
    NoteFracturedInsert(e.pcid, e.global);
  }
}

void Tlb::DropMatching(uint16_t pcid, uint64_t va, bool match_globals) {
  if (!built()) {
    return;
  }
  for (size_t k = 0; k < ArraysToScan(); ++k) {
    Array& a = arrays_[k];
    uint64_t vpn = va >> ShiftOf(a.size);
    uint64_t tag = vpn + 1;
    size_t base = a.SetBase(vpn);
    for (size_t i = base; i < base + a.ways; ++i) {
      if (a.tag[i] != tag || !IsLive(a, i)) {
        continue;
      }
      if (a.pcid[i] == pcid || (match_globals && a.global[i] != 0)) {
        if (a.fractured[i] != 0) {
          NoteFracturedDrop(a.pcid[i], a.global[i] != 0);
        }
        a.tag[i] = 0;
      }
    }
  }
}

bool Tlb::InvlPg(uint16_t current_pcid, uint64_t va) {
  ++stats_.selective_flushes;
  if (fractured_resident_ && fracture_degrade_) {
    ++stats_.fracture_forced_full;
    FlushAll(/*keep_globals=*/false);
    return true;
  }
  DropMatching(current_pcid, va, /*match_globals=*/true);
  return false;
}

bool Tlb::InvPcidAddr(uint16_t pcid, uint64_t va) {
  ++stats_.selective_flushes;
  if (fractured_resident_ && fracture_degrade_) {
    ++stats_.fracture_forced_full;
    FlushAll(/*keep_globals=*/false);
    return true;
  }
  DropMatching(pcid, va, /*match_globals=*/false);
  return false;
}

void Tlb::DropTranslation(uint16_t pcid, uint64_t va) {
  DropMatching(pcid, va, /*match_globals=*/true);
}

void Tlb::FlushPcid(uint16_t pcid) {
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
  ++stats_.full_flushes;
  if (keep_globals) {
    mark_nonglobal_ = clock_;
    fractured_total_ = frac_global_;
  } else {
    mark_all_ = clock_;
    fractured_total_ = 0;
    frac_global_ = 0;
    may_hold_2m_ = false;  // global 2M entries survive only a keep_globals flush
  }
  ++frac_gen_;  // every per-PCID fractured count drops to zero, O(1)
  fractured_resident_ = fractured_total_ > 0;
}

void Tlb::NoteFracturedInsert(uint16_t pcid, bool global) {
  if (global) {
    ++frac_global_;
  } else {
    ++FracCount(pcid);
  }
  ++fractured_total_;
  fractured_resident_ = true;
}

void Tlb::NoteFracturedDrop(uint16_t pcid, bool global) {
  // Deliberately leaves fractured_resident_ alone: the flag is sticky until
  // the next flush, matching hardware-conservative degrade behavior.
  if (global) {
    --frac_global_;
  } else {
    --FracCount(pcid);
  }
  --fractured_total_;
}

size_t Tlb::Occupancy() const {
  size_t n = 0;
  if (!built()) {
    return n;
  }
  for (const Array& a : arrays_) {
    for (size_t i = 0; i < a.Slots(); ++i) {
      if (IsLive(a, i)) {
        ++n;
      }
    }
  }
  return n;
}

std::vector<TlbEntry> Tlb::Entries() const {
  std::vector<TlbEntry> out;
  if (!built()) {
    return out;
  }
  for (const Array& a : arrays_) {
    for (size_t i = 0; i < a.Slots(); ++i) {
      if (IsLive(a, i)) {
        out.push_back(a.EntryAt(i));
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
