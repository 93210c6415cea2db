// Tlb: PCID tagging, global entries, INVLPG/INVPCID/CR3 semantics, LRU
// eviction, fracture-forced full flushes, stats.
#include "src/hw/tlb.h"

#include <gtest/gtest.h>

#include <map>

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
  EXPECT_EQ(a.fastpath_hits, b.fastpath_hits);
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

}  // namespace
}  // namespace tlbsim
