// Tlb: PCID tagging, global entries, INVLPG/INVPCID/CR3 semantics, LRU
// eviction, fracture-forced full flushes, stats.
#include "src/hw/tlb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "src/sim/rng.h"

namespace tlbsim {
namespace {

TlbEntry E(uint64_t va, uint16_t pcid, uint64_t pfn, bool global = false,
           PageSize size = PageSize::k4K, bool fractured = false) {
  TlbEntry e;
  e.vpn = va >> ShiftOf(size);
  e.pcid = pcid;
  e.pfn = pfn;
  e.flags = PteFlags::kPresent | PteFlags::kUser | (global ? PteFlags::kGlobal : 0);
  e.size = size;
  e.global = global;
  e.fractured = fractured;
  return e;
}

TEST(TlbTest, InsertThenLookupHits) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 0x42));
  auto r = tlb.Lookup(5, 0x1ABC);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pfn, 0x42u);
  EXPECT_EQ(tlb.stats().hits, 1u);
}

TEST(TlbTest, MissForDifferentPcid) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 0x42));
  EXPECT_FALSE(tlb.Lookup(6, 0x1000).has_value());
  EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(TlbTest, GlobalEntryMatchesAnyPcid) {
  Tlb tlb;
  tlb.Insert(E(0x2000, 5, 0x42, /*global=*/true));
  EXPECT_TRUE(tlb.Lookup(6, 0x2000).has_value());
  EXPECT_TRUE(tlb.Lookup(99, 0x2000).has_value());
}

TEST(TlbTest, TwoMbEntryCoversRegion) {
  Tlb tlb;
  tlb.Insert(E(0x40000000, 1, 0x200, false, PageSize::k2M));
  EXPECT_TRUE(tlb.Lookup(1, 0x40000000 + 0x1FFFFF).has_value());
  EXPECT_FALSE(tlb.Lookup(1, 0x40200000).has_value());
}

TEST(TlbTest, InvlpgDropsCurrentPcidAndGlobals) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 1));
  tlb.Insert(E(0x1000, 6, 2));
  tlb.Insert(E(0x1000, 7, 3, /*global=*/true));
  bool degraded = tlb.InvlPg(5, 0x1000);
  EXPECT_FALSE(degraded);
  EXPECT_FALSE(tlb.Probe(5, 0x1000).has_value());
  EXPECT_TRUE(tlb.Probe(6, 0x1000).has_value());   // other PCID survives
  EXPECT_FALSE(tlb.Probe(7, 0x1000).has_value());  // global dropped
}

TEST(TlbTest, InvPcidAddrDropsOnlyThatPcid) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 1));
  tlb.Insert(E(0x1000, 6, 2));
  tlb.Insert(E(0x3000, 7, 3, /*global=*/true));
  // INVPCID individual-address ignores globals of other PCIDs; our model
  // drops only the (pcid, va) pair.
  tlb.InvPcidAddr(6, 0x1000);
  EXPECT_TRUE(tlb.Probe(5, 0x1000).has_value());
  EXPECT_FALSE(tlb.Probe(6, 0x1000).has_value());
  EXPECT_TRUE(tlb.Probe(7, 0x3000).has_value());
}

TEST(TlbTest, FlushPcidKeepsGlobalsAndOtherPcids) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 1));
  tlb.Insert(E(0x2000, 5, 2, /*global=*/true));
  tlb.Insert(E(0x3000, 6, 3));
  tlb.FlushPcid(5);
  EXPECT_FALSE(tlb.Probe(5, 0x1000).has_value());
  EXPECT_TRUE(tlb.Probe(5, 0x2000).has_value());  // global kept
  EXPECT_TRUE(tlb.Probe(6, 0x3000).has_value());
}

TEST(TlbTest, FlushAllKeepGlobals) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 1));
  tlb.Insert(E(0x2000, 6, 2, /*global=*/true));
  tlb.FlushAll(/*keep_globals=*/true);
  EXPECT_FALSE(tlb.Probe(5, 0x1000).has_value());
  EXPECT_TRUE(tlb.Probe(6, 0x2000).has_value());
  tlb.FlushAll(/*keep_globals=*/false);
  EXPECT_FALSE(tlb.Probe(6, 0x2000).has_value());
  EXPECT_EQ(tlb.Occupancy(), 0u);
}

TEST(TlbTest, DropTranslationRemovesWithoutStats) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 1));
  uint64_t flushes_before = tlb.stats().selective_flushes;
  tlb.DropTranslation(5, 0x1000);
  EXPECT_FALSE(tlb.Probe(5, 0x1000).has_value());
  EXPECT_EQ(tlb.stats().selective_flushes, flushes_before);
}

TEST(TlbTest, InsertOverwritesStaleDuplicate) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 1));
  tlb.Insert(E(0x1000, 5, 2));
  auto r = tlb.Probe(5, 0x1000);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pfn, 2u);
  EXPECT_EQ(tlb.Occupancy(), 1u);
}

TEST(TlbTest, SetAssociativeEvictionLru) {
  TlbGeometry geo;
  geo.sets_4k = 1;
  geo.ways_4k = 2;
  Tlb tlb(geo);
  tlb.Insert(E(0x1000, 1, 1));
  tlb.Insert(E(0x2000, 1, 2));
  tlb.Lookup(1, 0x1000);            // touch to make 0x2000 the LRU victim
  tlb.Insert(E(0x3000, 1, 3));      // evicts 0x2000
  EXPECT_TRUE(tlb.Probe(1, 0x1000).has_value());
  EXPECT_FALSE(tlb.Probe(1, 0x2000).has_value());
  EXPECT_TRUE(tlb.Probe(1, 0x3000).has_value());
  EXPECT_EQ(tlb.stats().evictions, 1u);
}

TEST(TlbTest, FracturedEntryDegradesSelectiveFlushToFull) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 1, 1));
  tlb.Insert(E(0x5000, 1, 5, false, PageSize::k4K, /*fractured=*/true));
  EXPECT_TRUE(tlb.has_fractured());
  // Flushing an UNRELATED address still wipes the whole TLB (paper §7).
  bool degraded = tlb.InvlPg(1, 0x9000);
  EXPECT_TRUE(degraded);
  EXPECT_EQ(tlb.Occupancy(), 0u);
  EXPECT_EQ(tlb.stats().fracture_forced_full, 1u);
  EXPECT_FALSE(tlb.has_fractured());
}

TEST(TlbTest, FractureDegradeCanBeDisabled) {
  Tlb tlb;
  tlb.set_fracture_degrade_enabled(false);
  tlb.Insert(E(0x1000, 1, 1));
  tlb.Insert(E(0x5000, 1, 5, false, PageSize::k4K, /*fractured=*/true));
  bool degraded = tlb.InvlPg(1, 0x9000);
  EXPECT_FALSE(degraded);
  EXPECT_EQ(tlb.Occupancy(), 2u);
}

TEST(TlbTest, FullFlushClearsFractureFlag) {
  Tlb tlb;
  tlb.Insert(E(0x5000, 1, 5, false, PageSize::k4K, /*fractured=*/true));
  tlb.FlushAll(false);
  EXPECT_FALSE(tlb.has_fractured());
  tlb.Insert(E(0x1000, 1, 1));
  EXPECT_FALSE(tlb.InvlPg(1, 0x1000));  // selective again
}

TEST(TlbTest, EntriesEnumeration) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 1, 1));
  tlb.Insert(E(0x40000000, 2, 2, false, PageSize::k2M));
  auto all = tlb.Entries();
  EXPECT_EQ(all.size(), 2u);
}

TEST(TlbTest, StatsCounters) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 1, 1));
  tlb.Lookup(1, 0x1000);
  tlb.Lookup(1, 0x2000);
  tlb.InvlPg(1, 0x1000);
  tlb.FlushPcid(1);
  auto& s = tlb.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.selective_flushes, 1u);
  EXPECT_EQ(s.full_flushes, 1u);
  tlb.ResetStats();
  EXPECT_EQ(tlb.stats().lookups, 0u);
}

// Property: against a shadow map, a TLB lookup may MISS spuriously (capacity
// eviction is always legal) but must never HIT with a wrong value, must never
// hit something the shadow flushed, and a global entry must match any PCID.
// Epoch-flush edge cases: flushes are O(1) marks, and these pin down the
// places where marked-dead slots could be confused with live ones.

TEST(TlbEpochTest, InsertAfterFlushReusesDeadSlotsAndStaysLive) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 0x42));
  tlb.FlushAll(/*keep_globals=*/false);
  EXPECT_EQ(tlb.Occupancy(), 0u);
  // Same set, same tag: must be a fresh insert into a dead slot, not a
  // resurrecting duplicate-overwrite, and must be visible immediately.
  tlb.Insert(E(0x1000, 5, 0x43));
  EXPECT_EQ(tlb.Occupancy(), 1u);
  auto r = tlb.Lookup(5, 0x1000);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pfn, 0x43u);
  EXPECT_EQ(tlb.stats().evictions, 0u);  // dead victims are not evictions
}

TEST(TlbEpochTest, LookupRefreshCannotResurrectFlushedEntry) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 0x42));
  tlb.Insert(E(0x2000, 5, 0x43));
  tlb.FlushPcid(5);
  // Misses on flushed entries must not refresh their stamps back to life.
  EXPECT_FALSE(tlb.Lookup(5, 0x1000).has_value());
  EXPECT_FALSE(tlb.Lookup(5, 0x2000).has_value());
  EXPECT_EQ(tlb.Occupancy(), 0u);
}

TEST(TlbEpochTest, FlushPcidMarkOnlyKillsEntriesBornBefore) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 0x1));
  tlb.FlushPcid(5);
  tlb.Insert(E(0x1000, 5, 0x2));  // born after the mark
  auto r = tlb.Probe(5, 0x1000);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pfn, 0x2u);
  // A second flush of an unrelated PCID leaves the new entry alone.
  tlb.FlushPcid(9);
  EXPECT_TRUE(tlb.Probe(5, 0x1000).has_value());
}

TEST(TlbEpochTest, GlobalSurvivesNonGlobalFlushesButNotFullOne) {
  Tlb tlb;
  tlb.Insert(E(0x5000, 5, 0x7, /*global=*/true));
  tlb.FlushPcid(5);
  EXPECT_TRUE(tlb.Probe(5, 0x5000).has_value());
  tlb.FlushAll(/*keep_globals=*/true);
  EXPECT_TRUE(tlb.Probe(5, 0x5000).has_value());
  tlb.FlushAll(/*keep_globals=*/false);
  EXPECT_FALSE(tlb.Probe(5, 0x5000).has_value());
  EXPECT_EQ(tlb.Occupancy(), 0u);
}

TEST(TlbEpochTest, FracturedCountersTrackFlushesPerPcid) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 0x1, false, PageSize::k4K, /*fractured=*/true));
  tlb.Insert(E(0x2000, 9, 0x2, false, PageSize::k4K, /*fractured=*/true));
  EXPECT_TRUE(tlb.has_fractured());
  tlb.FlushPcid(5);  // one fractured entry left (pcid 9)
  EXPECT_TRUE(tlb.has_fractured());
  tlb.FlushPcid(9);
  EXPECT_FALSE(tlb.has_fractured());
  // Reinsert after the flushes: counters must have restarted cleanly.
  tlb.Insert(E(0x3000, 5, 0x3, false, PageSize::k4K, /*fractured=*/true));
  EXPECT_TRUE(tlb.has_fractured());
  tlb.FlushAll(/*keep_globals=*/false);
  EXPECT_FALSE(tlb.has_fractured());
}

TEST(TlbEpochTest, GlobalFracturedSurvivesKeepGlobalsFlush) {
  Tlb tlb;
  tlb.Insert(E(0x5000, 5, 0x7, /*global=*/true, PageSize::k4K, /*fractured=*/true));
  tlb.FlushAll(/*keep_globals=*/true);
  EXPECT_TRUE(tlb.has_fractured());  // the fractured entry is still resident
  tlb.FlushAll(/*keep_globals=*/false);
  EXPECT_FALSE(tlb.has_fractured());
}

TEST(TlbEpochTest, FracturedFlagStaysStickyAcrossEviction) {
  // Hardware-conservative semantics: evicting the only fractured entry does
  // not clear the resident flag — only a flush recomputes it.
  TlbGeometry tiny;
  tiny.sets_4k = 1;
  tiny.ways_4k = 2;
  tiny.sets_2m = 1;
  tiny.ways_2m = 1;
  Tlb tlb(tiny);
  tlb.Insert(E(0x1000, 5, 0x1, false, PageSize::k4K, /*fractured=*/true));
  tlb.Insert(E(0x2000, 5, 0x2));
  tlb.Insert(E(0x3000, 5, 0x3));  // evicts the fractured entry (LRU)
  EXPECT_TRUE(tlb.has_fractured());
  tlb.FlushAll(/*keep_globals=*/false);
  EXPECT_FALSE(tlb.has_fractured());  // flush recomputes from exact counters
}

TEST(PwcEpochTest, InsertAfterFlushAllReusesDeadEntries) {
  PageWalkCache pwc(4);
  pwc.Insert(5, 0x200000);
  pwc.Insert(5, 0x400000);
  pwc.FlushAll();
  EXPECT_EQ(pwc.size(), 0u);
  pwc.Insert(5, 0x600000);
  EXPECT_EQ(pwc.size(), 1u);
  EXPECT_TRUE(pwc.Lookup(5, 0x600000));
  EXPECT_FALSE(pwc.Lookup(5, 0x200000));  // dead entry must not hit
  // Capacity is not consumed by dead entries: all four regions fit.
  pwc.Insert(5, 0x800000);
  pwc.Insert(5, 0xA00000);
  pwc.Insert(5, 0xC00000);
  EXPECT_EQ(pwc.size(), 4u);
  EXPECT_TRUE(pwc.Lookup(5, 0x600000));
}

TEST(TlbPropertyTest, AgreesWithShadowModel) {
  Rng rng(77);
  Tlb tlb;
  struct Key {
    uint16_t pcid;
    uint64_t vpn;
    bool operator<(const Key& o) const {
      return pcid != o.pcid ? pcid < o.pcid : vpn < o.vpn;
    }
  };
  std::map<Key, TlbEntry> shadow;  // 4K entries only, non-global
  auto va_of = [](uint64_t vpn) { return vpn << kPageShift; };

  for (int step = 0; step < 20000; ++step) {
    uint16_t pcid = static_cast<uint16_t>(rng.UniformInt(1, 3));
    uint64_t vpn = static_cast<uint64_t>(rng.UniformInt(0, 511));
    switch (rng.UniformInt(0, 4)) {
      case 0: {
        TlbEntry e = E(va_of(vpn), pcid, rng.UniformU64() % (1 << 20));
        tlb.Insert(e);
        shadow[Key{pcid, vpn}] = e;
        break;
      }
      case 1:
        tlb.InvlPg(pcid, va_of(vpn));
        shadow.erase(Key{pcid, vpn});
        break;
      case 2:
        tlb.InvPcidAddr(pcid, va_of(vpn));
        shadow.erase(Key{pcid, vpn});
        break;
      case 3: {
        tlb.FlushPcid(pcid);
        for (auto it = shadow.begin(); it != shadow.end();) {
          it = it->first.pcid == pcid ? shadow.erase(it) : std::next(it);
        }
        break;
      }
      case 4: {
        auto hit = tlb.Probe(pcid, va_of(vpn));
        auto it = shadow.find(Key{pcid, vpn});
        if (hit.has_value()) {
          ASSERT_NE(it, shadow.end()) << "hit after flush, step " << step;
          EXPECT_EQ(hit->pfn, it->second.pfn) << "stale value, step " << step;
        }
        // A miss is always legal (eviction).
        break;
      }
    }
  }
  // Final sweep: every resident entry must be shadow-backed.
  for (const TlbEntry& e : tlb.Entries()) {
    auto it = shadow.find(Key{e.pcid, e.vpn});
    ASSERT_NE(it, shadow.end());
    EXPECT_EQ(e.pfn, it->second.pfn);
  }
}

TEST(TlbPropertyTest, OccupancyNeverExceedsCapacity) {
  TlbGeometry geo;
  geo.sets_4k = 4;
  geo.ways_4k = 2;
  geo.sets_2m = 1;
  geo.ways_2m = 2;
  Tlb tlb(geo);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    tlb.Insert(E(static_cast<uint64_t>(rng.UniformInt(0, 63)) << kPageShift,
                 static_cast<uint16_t>(rng.UniformInt(1, 4)), static_cast<uint64_t>(i)));
    EXPECT_LE(tlb.Occupancy(), 10u);  // 4*2 + 1*2
  }
}

// The slot arrays are built by the first Insert. Before that the TLB must
// count exactly what a built, empty TLB counts.
TEST(TlbLazyTest, NeverFilledTlbCountsLikeAnEmptyOne) {
  Tlb lazy;
  Tlb built;
  built.Insert(E(0x1000, 1, 0x10));
  built.FlushAll(/*keep_globals=*/false);  // built, and empty again
  built.ResetStats();
  for (Tlb* tlb : {&lazy, &built}) {
    EXPECT_FALSE(tlb->Lookup(1, 0x1000).has_value());
    EXPECT_FALSE(tlb->InvlPg(1, 0x1000));
    EXPECT_FALSE(tlb->InvPcidAddr(1, 0x1000));
    tlb->DropTranslation(1, 0x1000);
    tlb->FlushPcid(1);
    tlb->FlushAll(/*keep_globals=*/true);
    tlb->FlushAll(/*keep_globals=*/false);
    EXPECT_FALSE(tlb->has_fractured());
  }
  const Tlb::Stats& a = lazy.stats();
  const Tlb::Stats& b = built.stats();
  EXPECT_EQ(a.lookups, 1u);
  EXPECT_EQ(a.misses, 1u);
  EXPECT_EQ(a.selective_flushes, 2u);
  EXPECT_EQ(a.full_flushes, 3u);
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.selective_flushes, b.selective_flushes);
  EXPECT_EQ(a.full_flushes, b.full_flushes);
  EXPECT_EQ(a.fracture_forced_full, b.fracture_forced_full);
  EXPECT_EQ(lazy.Occupancy(), 0u);
  EXPECT_TRUE(lazy.Entries().empty());
  EXPECT_FALSE(lazy.Probe(1, 0x1000).has_value());
}

// Flushes before the first Insert leave no mark that could kill a later
// entry: the entry inserted afterwards is live.
TEST(TlbLazyTest, EntryInsertedAfterEarlyFlushesIsLive) {
  Tlb tlb;
  tlb.FlushPcid(7);
  tlb.FlushAll(/*keep_globals=*/true);
  tlb.FlushAll(/*keep_globals=*/false);
  tlb.Insert(E(0x5000, 7, 0x55));
  tlb.Insert(E(0x6000, 8, 0x66, /*global=*/true));
  EXPECT_EQ(tlb.Occupancy(), 2u);
  ASSERT_TRUE(tlb.Lookup(7, 0x5000).has_value());
  EXPECT_EQ(tlb.Lookup(7, 0x5000)->pfn, 0x55u);
  EXPECT_TRUE(tlb.Lookup(9, 0x6000).has_value());
  tlb.FlushPcid(7);  // and flushes still work once built
  EXPECT_FALSE(tlb.Lookup(7, 0x5000).has_value());
  EXPECT_EQ(tlb.Occupancy(), 1u);
}

TEST(TlbGeometryTest, RejectsSetCountThatIsNotAPowerOfTwo) {
  for (int sets : {0, 3, 6, 12, 100}) {
    TlbGeometry geo4k;
    geo4k.sets_4k = sets;
    EXPECT_THROW(Tlb{geo4k}, std::invalid_argument) << "sets_4k " << sets;
    TlbGeometry geo2m;
    geo2m.sets_2m = sets;
    EXPECT_THROW(Tlb{geo2m}, std::invalid_argument) << "sets_2m " << sets;
  }
  TlbGeometry no_ways;
  no_ways.ways_2m = 0;
  EXPECT_THROW(Tlb{no_ways}, std::invalid_argument);
  TlbGeometry one_set;
  one_set.sets_4k = 1;
  one_set.sets_2m = 1;
  EXPECT_NO_THROW(Tlb{one_set});
}

// Differential test against a reference TLB with the eager-invalidation
// scanning semantics that the epoch design documents as bit-identical:
// flushes clear valid bits by scanning every slot, sets are indexed by
// `vpn % sets`, and the fractured-resident flag is sticky (set on insert,
// recomputed by scanning only at flushes).
class ReferenceTlb {
 public:
  explicit ReferenceTlb(const TlbGeometry& geo)
      : arrays_{Array{geo.sets_4k, geo.ways_4k, {}}, Array{geo.sets_2m, geo.ways_2m, {}}} {
    for (Array& a : arrays_) {
      a.slots.resize(static_cast<size_t>(a.sets * a.ways));
    }
  }

  std::optional<TlbEntry> Lookup(uint16_t pcid, uint64_t va) {
    ++stats_.lookups;
    std::optional<TlbEntry> hit;
    for (PageSize s : {PageSize::k4K, PageSize::k2M}) {
      for (Slot* slot : SetOf(s, va >> ShiftOf(s))) {
        if (Matches(*slot, s, pcid, va)) {
          if (!hit.has_value()) {
            hit = slot->entry;
          }
          slot->stamp = ++clock_;
        }
      }
    }
    ++(hit.has_value() ? stats_.hits : stats_.misses);
    return hit;
  }

  std::optional<TlbEntry> Probe(uint16_t pcid, uint64_t va) {
    for (PageSize s : {PageSize::k4K, PageSize::k2M}) {
      for (Slot* slot : SetOf(s, va >> ShiftOf(s))) {
        if (Matches(*slot, s, pcid, va)) {
          return slot->entry;
        }
      }
    }
    return std::nullopt;
  }

  void Insert(const TlbEntry& e) {
    ++stats_.inserts;
    std::vector<Slot*> set = SetOf(e.size, e.vpn);
    // The stale duplicate, else the first invalid way, else the LRU way.
    auto victim = std::find_if(set.begin(), set.end(), [&e](const Slot* slot) {
      return slot->valid && slot->entry.vpn == e.vpn && slot->entry.pcid == e.pcid;
    });
    if (victim == set.end()) {
      victim = std::find_if(set.begin(), set.end(), [](const Slot* slot) { return !slot->valid; });
    }
    if (victim == set.end()) {
      victim = std::min_element(set.begin(), set.end(), [](const Slot* a, const Slot* b) {
        return a->stamp < b->stamp;
      });
    }
    Slot& slot = **victim;
    if (slot.valid) {
      ++stats_.evictions;
      if (slot.entry.pcid != e.pcid) {
        ++stats_.cross_pcid_evictions;
      }
    }
    slot = Slot{e, ++clock_, true};
    fractured_resident_ = fractured_resident_ || e.fractured;
  }

  bool InvlPg(uint16_t pcid, uint64_t va) { return SelectiveFlush(pcid, va, true); }
  bool InvPcidAddr(uint16_t pcid, uint64_t va) { return SelectiveFlush(pcid, va, false); }
  void DropTranslation(uint16_t pcid, uint64_t va) { Drop(pcid, va, true); }

  void FlushPcid(uint16_t pcid) {
    ++stats_.full_flushes;
    Invalidate([pcid](const TlbEntry& e) { return !e.global && e.pcid == pcid; });
  }

  void FlushAll(bool keep_globals) {
    ++stats_.full_flushes;
    Invalidate([keep_globals](const TlbEntry& e) { return !keep_globals || !e.global; });
  }

  void set_fracture_degrade_enabled(bool on) { degrade_ = on; }
  bool has_fractured() const { return fractured_resident_; }
  const Tlb::Stats& stats() const { return stats_; }

  std::vector<TlbEntry> Entries() const {
    std::vector<TlbEntry> out;
    for (const Array& a : arrays_) {
      for (const Slot& slot : a.slots) {
        if (slot.valid) {
          out.push_back(slot.entry);
        }
      }
    }
    return out;
  }

 private:
  struct Slot {
    TlbEntry entry;
    uint64_t stamp = 0;
    bool valid = false;
  };
  struct Array {
    int sets;
    int ways;
    std::vector<Slot> slots;
  };

  std::vector<Slot*> SetOf(PageSize s, uint64_t vpn) {
    Array& a = arrays_[static_cast<size_t>(s)];
    size_t base = static_cast<size_t>(vpn % static_cast<uint64_t>(a.sets) * a.ways);
    std::vector<Slot*> out;
    for (size_t w = 0; w < static_cast<size_t>(a.ways); ++w) {
      out.push_back(&a.slots[base + w]);
    }
    return out;
  }

  static bool Matches(const Slot& slot, PageSize s, uint16_t pcid, uint64_t va) {
    return slot.valid && slot.entry.vpn == va >> ShiftOf(s) &&
           (slot.entry.global || slot.entry.pcid == pcid);
  }

  bool SelectiveFlush(uint16_t pcid, uint64_t va, bool match_globals) {
    ++stats_.selective_flushes;
    if (fractured_resident_ && degrade_) {
      ++stats_.fracture_forced_full;
      FlushAll(/*keep_globals=*/false);
      return true;
    }
    Drop(pcid, va, match_globals);
    return false;
  }

  void Drop(uint16_t pcid, uint64_t va, bool match_globals) {
    for (PageSize s : {PageSize::k4K, PageSize::k2M}) {
      for (Slot* slot : SetOf(s, va >> ShiftOf(s))) {
        if (slot->valid && slot->entry.vpn == va >> ShiftOf(s) &&
            (slot->entry.pcid == pcid || (match_globals && slot->entry.global))) {
          slot->valid = false;
        }
      }
    }
  }

  template <typename Pred>
  void Invalidate(Pred dies) {
    fractured_resident_ = false;
    for (Array& a : arrays_) {
      for (Slot& slot : a.slots) {
        if (slot.valid && dies(slot.entry)) {
          slot.valid = false;
        }
        fractured_resident_ = fractured_resident_ || (slot.valid && slot.entry.fractured);
      }
    }
  }

  std::array<Array, 2> arrays_;  // indexed by PageSize
  uint64_t clock_ = 0;
  bool fractured_resident_ = false;
  bool degrade_ = true;
  Tlb::Stats stats_;
};

using EntryFields = std::tuple<uint64_t, int, uint64_t, uint64_t, int, bool, bool>;

std::optional<EntryFields> Fields(const std::optional<TlbEntry>& e) {
  if (!e.has_value()) {
    return std::nullopt;
  }
  return EntryFields{e->vpn, e->pcid, e->pfn, e->flags, static_cast<int>(e->size), e->global,
                     e->fractured};
}

std::vector<EntryFields> Fields(const std::vector<TlbEntry>& entries) {
  std::vector<EntryFields> out;
  for (const TlbEntry& e : entries) {
    out.push_back(*Fields(std::optional<TlbEntry>(e)));
  }
  return out;
}

std::array<uint64_t, 9> Fields(const Tlb::Stats& s) {
  return {s.lookups,          s.hits,         s.misses,
          s.inserts,          s.evictions,    s.cross_pcid_evictions,
          s.selective_flushes, s.full_flushes, s.fracture_forced_full};
}

// An address from a pool that crowds few sets with more keys than they have
// ways, in both arrays, and puts 4K pages inside the 2M regions.
uint64_t CollidingVa(Rng& rng, const TlbGeometry& geo) {
  uint64_t region = static_cast<uint64_t>(geo.sets_2m * rng.UniformInt(0, 2 * geo.ways_2m + 1) +
                                          rng.UniformInt(0, 1));
  uint64_t page =
      static_cast<uint64_t>(geo.sets_4k * rng.UniformInt(0, 3) + rng.UniformInt(0, 1)) % 512;
  return region << kHugeShift | page << kPageShift |
         static_cast<uint64_t>(rng.UniformInt(0, kPageSize4K - 1));
}

void RunDifferential(const TlbGeometry& geo, uint64_t seed, int steps) {
  Tlb tlb(geo);
  ReferenceTlb ref(geo);
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " step " << step);
    uint16_t pcid = static_cast<uint16_t>(rng.UniformInt(1, 4));
    uint64_t va = CollidingVa(rng, geo);
    int op = static_cast<int>(rng.UniformInt(0, 99));
    if (op < 30) {
      PageSize size = rng.Chance(0.25) ? PageSize::k2M : PageSize::k4K;
      TlbEntry e = E(va, pcid, rng.UniformU64() % (1 << 20), rng.Chance(0.2), size,
                     rng.Chance(0.05));
      tlb.Insert(e);
      ref.Insert(e);
    } else if (op < 55) {
      ASSERT_EQ(Fields(tlb.Lookup(pcid, va)), Fields(ref.Lookup(pcid, va)));
    } else if (op < 65) {
      ASSERT_EQ(Fields(tlb.Probe(pcid, va)), Fields(ref.Probe(pcid, va)));
    } else if (op < 73) {
      ASSERT_EQ(tlb.InvlPg(pcid, va), ref.InvlPg(pcid, va));
    } else if (op < 81) {
      ASSERT_EQ(tlb.InvPcidAddr(pcid, va), ref.InvPcidAddr(pcid, va));
    } else if (op < 86) {
      tlb.DropTranslation(pcid, va);
      ref.DropTranslation(pcid, va);
    } else if (op < 91) {
      tlb.FlushPcid(pcid);
      ref.FlushPcid(pcid);
    } else if (op < 94) {
      tlb.FlushAll(/*keep_globals=*/true);
      ref.FlushAll(/*keep_globals=*/true);
    } else if (op < 97) {
      tlb.FlushAll(/*keep_globals=*/false);
      ref.FlushAll(/*keep_globals=*/false);
    } else {
      bool on = rng.Chance(0.5);
      tlb.set_fracture_degrade_enabled(on);
      ref.set_fracture_degrade_enabled(on);
    }
    ASSERT_EQ(Fields(tlb.stats()), Fields(ref.stats()));
    ASSERT_EQ(tlb.has_fractured(), ref.has_fractured());
    if (step % 16 == 0) {
      std::vector<TlbEntry> entries = ref.Entries();
      ASSERT_EQ(Fields(tlb.Entries()), Fields(entries));
      ASSERT_EQ(tlb.Occupancy(), entries.size());
    }
  }
}

const TlbGeometry kDtlbGeometry{};
const TlbGeometry kItlbGeometry{16, 8, 2, 4};
const TlbGeometry kTinyGeometry{1, 2, 1, 1};

TEST(TlbDifferentialTest, DtlbMatchesReference) {
  for (uint64_t seed : {1, 2, 3}) {
    RunDifferential(kDtlbGeometry, seed, 20000);
  }
}

TEST(TlbDifferentialTest, ItlbMatchesReference) {
  for (uint64_t seed : {4, 5, 6}) {
    RunDifferential(kItlbGeometry, seed, 20000);
  }
}

TEST(TlbDifferentialTest, TinyMatchesReference) {
  for (uint64_t seed : {7, 8, 9}) {
    RunDifferential(kTinyGeometry, seed, 20000);
  }
}

}  // namespace
}  // namespace tlbsim
