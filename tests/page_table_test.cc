// PageTable: map/walk/unmap, huge pages, iteration, pruning; plus a
// randomized property test that Walk agrees with an independent shadow map.
#include "src/mm/page_table.h"

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sim/rng.h"

namespace tlbsim {
namespace {

constexpr uint64_t kBase = 0x500000000000ULL;

TEST(PteTest, FlagAccessors) {
  Pte p = Pte::Make(0x1234, PteFlags::kPresent | PteFlags::kWrite | PteFlags::kUser |
                                PteFlags::kDirty | PteFlags::kNx);
  EXPECT_TRUE(p.present());
  EXPECT_TRUE(p.writable());
  EXPECT_TRUE(p.user());
  EXPECT_TRUE(p.dirty());
  EXPECT_FALSE(p.executable());
  EXPECT_FALSE(p.global());
  EXPECT_EQ(p.pfn(), 0x1234u);
}

TEST(PteTest, WithFlagsSetAndClear) {
  Pte p = Pte::Make(7, PteFlags::kPresent | PteFlags::kWrite);
  Pte q = p.WithFlags(PteFlags::kCow, PteFlags::kWrite);
  EXPECT_TRUE(q.cow());
  EXPECT_FALSE(q.writable());
  EXPECT_EQ(q.pfn(), 7u);
}

TEST(PteTest, WithPfnPreservesFlags) {
  Pte p = Pte::Make(7, PteFlags::kPresent | PteFlags::kDirty);
  Pte q = p.WithPfn(42);
  EXPECT_EQ(q.pfn(), 42u);
  EXPECT_TRUE(q.dirty());
}

TEST(PteTest, PtIndexDecomposition) {
  // va = PML4[1], PDPT[2], PD[3], PT[4].
  uint64_t va = (1ULL << 39) | (2ULL << 30) | (3ULL << 21) | (4ULL << 12);
  EXPECT_EQ(PtIndex(va, 3), 1u);
  EXPECT_EQ(PtIndex(va, 2), 2u);
  EXPECT_EQ(PtIndex(va, 1), 3u);
  EXPECT_EQ(PtIndex(va, 0), 4u);
}

TEST(PageTableTest, UnmappedWalkNotPresent) {
  PageTable pt;
  auto r = pt.Walk(kBase);
  EXPECT_FALSE(r.present);
  EXPECT_EQ(r.levels_visited, 1);  // stopped at empty PML4 entry
}

TEST(PageTableTest, MapThenWalk4K) {
  PageTable pt;
  pt.Map(kBase, 0x99, PteFlags::kPresent | PteFlags::kUser | PteFlags::kWrite);
  auto r = pt.Walk(kBase);
  ASSERT_TRUE(r.present);
  EXPECT_EQ(r.pte.pfn(), 0x99u);
  EXPECT_EQ(r.size, PageSize::k4K);
  EXPECT_EQ(r.levels_visited, 4);
  // Offsets within the page resolve to the same leaf.
  EXPECT_TRUE(pt.Walk(kBase + 0xFFF).present);
  EXPECT_FALSE(pt.Walk(kBase + 0x1000).present);
}

TEST(PageTableTest, MapThenWalk2M) {
  PageTable pt;
  pt.Map(kBase, 0x200, PteFlags::kPresent | PteFlags::kUser, PageSize::k2M);
  auto r = pt.Walk(kBase + 0x12345);
  ASSERT_TRUE(r.present);
  EXPECT_EQ(r.size, PageSize::k2M);
  EXPECT_EQ(r.levels_visited, 3);  // PD-level leaf
  EXPECT_TRUE(r.pte.huge());
}

TEST(PageTableTest, SetPteReplacesLeaf) {
  PageTable pt;
  pt.Map(kBase, 1, PteFlags::kPresent | PteFlags::kWrite);
  Pte old = pt.SetPte(kBase, Pte::Make(2, PteFlags::kPresent));
  EXPECT_EQ(old.pfn(), 1u);
  EXPECT_EQ(pt.Walk(kBase).pte.pfn(), 2u);
  EXPECT_FALSE(pt.Walk(kBase).pte.writable());
}

TEST(PageTableTest, UnmapRemovesLeafOnly) {
  PageTable pt;
  pt.Map(kBase, 1, PteFlags::kPresent);
  pt.Map(kBase + kPageSize4K, 2, PteFlags::kPresent);
  Pte old = pt.Unmap(kBase);
  EXPECT_EQ(old.pfn(), 1u);
  EXPECT_FALSE(pt.Walk(kBase).present);
  EXPECT_TRUE(pt.Walk(kBase + kPageSize4K).present);
}

TEST(PageTableTest, UnmapUnmappedReturnsEmpty) {
  PageTable pt;
  EXPECT_FALSE(pt.Unmap(kBase).present());
}

TEST(PageTableTest, ForEachPresentRespectsRange) {
  PageTable pt;
  for (int i = 0; i < 8; ++i) {
    pt.Map(kBase + static_cast<uint64_t>(i) * kPageSize4K, static_cast<uint64_t>(i + 1),
           PteFlags::kPresent);
  }
  int count = 0;
  pt.ForEachPresent(kBase + 2 * kPageSize4K, kBase + 6 * kPageSize4K,
                    [&](uint64_t va, Pte pte, PageSize) {
                      EXPECT_GE(va, kBase + 2 * kPageSize4K);
                      EXPECT_LT(va, kBase + 6 * kPageSize4K);
                      EXPECT_EQ(pte.pfn(), (va - kBase) / kPageSize4K + 1);
                      ++count;
                    });
  EXPECT_EQ(count, 4);
}

TEST(PageTableTest, NodeCountGrowsAndPrunes) {
  PageTable pt;
  EXPECT_EQ(pt.node_count(), 1u);  // root
  pt.Map(kBase, 1, PteFlags::kPresent);
  EXPECT_EQ(pt.node_count(), 4u);  // root + PDPT + PD + PT
  pt.Unmap(kBase);
  bool freed = pt.PruneEmpty(0, ~0ULL);
  EXPECT_TRUE(freed);
  EXPECT_EQ(pt.node_count(), 1u);
}

TEST(PageTableTest, PruneKeepsPopulatedSiblings) {
  PageTable pt;
  pt.Map(kBase, 1, PteFlags::kPresent);
  pt.Map(kBase + (1ULL << 21), 2, PteFlags::kPresent);  // different PT
  pt.Unmap(kBase);
  pt.PruneEmpty(kBase, kBase + (1ULL << 21));
  EXPECT_TRUE(pt.Walk(kBase + (1ULL << 21)).present);
}

TEST(PageTableTest, PruneNothingReturnsFalse) {
  PageTable pt;
  pt.Map(kBase, 1, PteFlags::kPresent);
  EXPECT_FALSE(pt.PruneEmpty(kBase, kBase + kPageSize4K));
}

TEST(PageTableTest, RootIdsUnique) {
  PageTable a;
  PageTable b;
  EXPECT_NE(a.root_id(), b.root_id());
}

// Property: a random sequence of map/unmap/protect operations keeps Walk in
// agreement with a shadow std::map.
TEST(PageTablePropertyTest, AgreesWithShadowModel) {
  Rng rng(1234);
  PageTable pt;
  std::map<uint64_t, Pte> shadow;
  for (int step = 0; step < 5000; ++step) {
    uint64_t va = kBase + static_cast<uint64_t>(rng.UniformInt(0, 255)) * kPageSize4K;
    int op = static_cast<int>(rng.UniformInt(0, 2));
    if (op == 0) {
      uint64_t pfn = static_cast<uint64_t>(rng.UniformInt(1, 1 << 20));
      Pte pte = Pte::Make(pfn, PteFlags::kPresent | PteFlags::kUser);
      if (shadow.count(va)) {
        pt.SetPte(va, pte);
      } else {
        pt.Map(va, pfn, PteFlags::kPresent | PteFlags::kUser);
      }
      shadow[va] = pte;
    } else if (op == 1) {
      pt.Unmap(va);
      shadow.erase(va);
    } else {
      auto r = pt.Walk(va);
      auto it = shadow.find(va);
      if (it == shadow.end()) {
        EXPECT_FALSE(r.present) << std::hex << va;
      } else {
        ASSERT_TRUE(r.present) << std::hex << va;
        EXPECT_EQ(r.pte.raw(), it->second.raw());
      }
    }
  }
  // Final full sweep.
  size_t found = 0;
  pt.ForEachPresent(0, ~0ULL, [&](uint64_t va, Pte pte, PageSize) {
    auto it = shadow.find(va);
    ASSERT_NE(it, shadow.end());
    EXPECT_EQ(pte.raw(), it->second.raw());
    ++found;
  });
  EXPECT_EQ(found, shadow.size());
}

// Property: the flag-filtered leaf walk visits exactly the leaves that the
// present walk plus the same mask test visits, in the same ascending order,
// and those are the shadow model's leaves overlapping the range. Random 4K
// and 2M maps carry random flag bits; the ranges start and end mid-table
// and cross a page-directory boundary.
TEST(PageTablePropertyTest, FlagFilteredWalkMatchesFilteredPresentWalk) {
  constexpr uint64_t kFlagBits[] = {PteFlags::kWrite,    PteFlags::kUser,   PteFlags::kAccessed,
                                    PteFlags::kDirty,    PteFlags::kGlobal, PteFlags::kCow,
                                    PteFlags::kNx};
  constexpr int kRegions = 8;  // 2M regions; the middle one starts a new PD
  const uint64_t first = kBase + (1ULL << 30) - (kRegions / 2) * kPageSize2M;
  using Leaf = std::tuple<uint64_t, uint64_t, PageSize>;  // va, raw pte, size
  Rng rng(2024);
  auto random_flags = [&] {
    uint64_t flags = PteFlags::kPresent;
    for (uint64_t bit : kFlagBits) {
      flags |= rng.Chance(0.5) ? bit : 0;
    }
    return flags;
  };
  size_t matched = 0;
  for (int round = 0; round < 20; ++round) {
    PageTable pt;
    std::map<uint64_t, std::pair<Pte, PageSize>> shadow;
    for (int r = 0; r < kRegions; ++r) {
      uint64_t region = first + static_cast<uint64_t>(r) * kPageSize2M;
      uint64_t pfn = static_cast<uint64_t>(rng.UniformInt(1, 1 << 20));
      if (rng.Chance(0.25)) {
        pt.Map(region, pfn, random_flags(), PageSize::k2M);
        shadow[region] = {pt.Walk(region).pte, PageSize::k2M};
        continue;
      }
      for (int i = 0; i < 64; ++i) {
        uint64_t va = region + static_cast<uint64_t>(rng.UniformInt(0, 511)) * kPageSize4K;
        pt.Map(va, pfn + static_cast<uint64_t>(i), random_flags());
        shadow[va] = {pt.Walk(va).pte, PageSize::k4K};
      }
    }
    for (int q = 0; q < 50; ++q) {
      constexpr int64_t kPages = kRegions * 512;
      uint64_t lo = first + static_cast<uint64_t>(rng.UniformInt(0, kPages)) * kPageSize4K;
      uint64_t hi = lo + static_cast<uint64_t>(rng.UniformInt(0, kPages)) * kPageSize4K;
      uint64_t mask = PteFlags::kPresent;
      for (uint64_t bit : kFlagBits) {
        mask |= rng.Chance(0.3) ? bit : 0;
      }
      std::vector<Leaf> want;
      pt.ForEachPresent(lo, hi, [&](uint64_t va, Pte pte, PageSize size) {
        if ((pte.raw() & mask) == mask) {
          want.emplace_back(va, pte.raw(), size);
        }
      });
      std::vector<Leaf> got;
      pt.ForEachLeafWith(mask, lo, hi, [&](uint64_t va, Pte pte, PageSize size) {
        got.emplace_back(va, pte.raw(), size);
      });
      std::vector<Leaf> model;
      for (const auto& [va, leaf] : shadow) {
        bool overlaps = va < hi && va + BytesOf(leaf.second) > lo;
        if (overlaps && (leaf.first.raw() & mask) == mask) {
          model.emplace_back(va, leaf.first.raw(), leaf.second);
        }
      }
      ASSERT_EQ(got, want) << "round " << round << " query " << q;
      ASSERT_EQ(got, model) << "round " << round << " query " << q;
      matched += got.size();
    }
  }
  EXPECT_GT(matched, 1000u);  // the masks are not so strict that nothing matches
}

// Property: the dirty summaries stay exact under every kind of leaf store.
// Seeded random Map / SetPte / Unmap / PruneEmpty steps on 4K and 2M pages,
// with replication off and on; after every step msync's walk (present +
// write + dirty) equals a brute-force filter of the present walk, and
// CountDirty4K equals the number of dirty 4K leaves it counts.
TEST(PageTablePropertyTest, DirtySummaryTracksEveryLeafStore) {
  constexpr uint64_t kMsyncMask = PteFlags::kPresent | PteFlags::kWrite | PteFlags::kDirty;
  constexpr int kRegions = 6;  // 2M regions; the middle one starts a new PD
  const uint64_t first = kBase + (1ULL << 30) - (kRegions / 2) * kPageSize2M;
  constexpr uint64_t kSpan = kRegions * kPageSize2M;
  using Leaf = std::tuple<uint64_t, uint64_t, PageSize>;  // va, raw pte, size
  for (bool replicated : {false, true}) {
    PageTable pt;
    if (replicated) {
      pt.EnableReplication(2);
    }
    Rng rng(replicated ? 77 : 76);
    auto random_flags = [&] {
      uint64_t flags = PteFlags::kPresent;
      flags |= rng.Chance(0.6) ? PteFlags::kWrite : 0;
      flags |= rng.Chance(0.5) ? PteFlags::kDirty : 0;
      flags |= rng.Chance(0.5) ? PteFlags::kAccessed : 0;
      return flags;
    };
    // Regions 0 and 3 hold 2M pages, the others 4K pages.
    auto huge_region = [](int r) { return r % 3 == 0; };
    size_t dirty_seen = 0;
    for (int step = 0; step < 2000; ++step) {
      const int r = static_cast<int>(rng.UniformInt(0, kRegions - 1));
      const uint64_t region = first + static_cast<uint64_t>(r) * kPageSize2M;
      const uint64_t va =
          huge_region(r) ? region
                         : region + static_cast<uint64_t>(rng.UniformInt(0, 511)) * kPageSize4K;
      const PageSize size = huge_region(r) ? PageSize::k2M : PageSize::k4K;
      const bool mapped = pt.Walk(va).present;
      const int64_t op = rng.UniformInt(0, 99);
      if (!mapped || op < 30) {
        pt.Map(va, static_cast<uint64_t>(rng.UniformInt(1, 1 << 20)) << (huge_region(r) ? 9 : 0),
               random_flags(), size);
      } else if (op < 75) {
        // msync's clean, a write fault's dirtying, or a random flip.
        Pte old = pt.Walk(va).pte;
        uint64_t set = rng.Chance(0.5) ? PteFlags::kDirty | PteFlags::kWrite : 0;
        uint64_t clear = set == 0 ? PteFlags::kDirty | PteFlags::kWrite : 0;
        if (rng.Chance(0.3)) {
          set = rng.Chance(0.5) ? PteFlags::kDirty : 0;
          clear = set == 0 ? PteFlags::kDirty : 0;
        }
        pt.SetPte(va, old.WithFlags(set, clear));
      } else if (op < 95) {
        pt.Unmap(va);
      } else {
        pt.PruneEmpty(region, region + kPageSize2M);
      }
      const uint64_t lo = first + static_cast<uint64_t>(rng.UniformInt(0, kRegions * 512)) *
                                      kPageSize4K;
      const uint64_t hi = rng.Chance(0.5) ? first + kSpan
                                          : lo + static_cast<uint64_t>(rng.UniformInt(0, 1024)) *
                                                     kPageSize4K;
      for (auto [qlo, qhi] : {std::pair{first, first + kSpan}, std::pair{lo, hi}}) {
        std::vector<Leaf> want;
        uint64_t dirty_4k = 0;
        pt.ForEachPresent(qlo, qhi, [&](uint64_t leaf_va, Pte pte, PageSize leaf_size) {
          if ((pte.raw() & kMsyncMask) == kMsyncMask) {
            want.emplace_back(leaf_va, pte.raw(), leaf_size);
          }
          dirty_4k += leaf_size == PageSize::k4K && pte.dirty() ? 1 : 0;
        });
        std::vector<Leaf> got;
        pt.ForEachLeafWith(kMsyncMask, qlo, qhi, [&](uint64_t leaf_va, Pte pte, PageSize s) {
          got.emplace_back(leaf_va, pte.raw(), s);
        });
        ASSERT_EQ(got, want) << "replicated " << replicated << " step " << step;
        ASSERT_EQ(pt.CountDirty4K(qlo, qhi), dirty_4k)
            << "replicated " << replicated << " step " << step;
        dirty_seen += got.size();
      }
      uint64_t div_va = 0;
      int div_node = -1;
      if (step % 100 == 0) {
        ASSERT_FALSE(pt.FindReplicaDivergence(&div_va, &div_node)) << "step " << step;
      }
    }
    EXPECT_GT(dirty_seen, 10000u);  // the walks had dirty leaves to find
  }
}

// --- NUMA homing & Mitosis-style replication ---

TEST(PageTableNumaTest, FirstTouchHomesStructuresOnAllocNode) {
  PageTable pt;
  pt.set_alloc_node(1);
  pt.Map(kBase, 0x100, PteFlags::kPresent);
  // A walker on node 1 sees the interior levels as local (the root predates
  // set_alloc_node, so it stays on node 0).
  auto local = pt.Walk(kBase, 1);
  auto remote = pt.Walk(kBase, 0);
  EXPECT_TRUE(local.present);
  EXPECT_LT(local.remote_levels, remote.remote_levels);
  EXPECT_TRUE(remote.leaf_remote);
  EXPECT_FALSE(local.leaf_remote);
}

TEST(PageTableNumaTest, FlatWalkerCountsNoRemoteLevels) {
  PageTable pt;
  pt.set_alloc_node(1);
  pt.Map(kBase, 0x100, PteFlags::kPresent);
  auto r = pt.Walk(kBase, -1);  // NUMA-flat walker
  EXPECT_TRUE(r.present);
  EXPECT_EQ(r.remote_levels, 0);
  EXPECT_FALSE(r.leaf_remote);
}

TEST(PageTableReplicationTest, ReplicasStartAsExactCopies) {
  PageTable pt;
  pt.Map(kBase, 0x100, PteFlags::kPresent | PteFlags::kWrite);
  pt.Map(kBase + kPageSize4K, 0x101, PteFlags::kPresent);
  pt.EnableReplication(2);
  ASSERT_TRUE(pt.replicated());
  EXPECT_EQ(pt.replica_count(), 2);
  uint64_t va = 0;
  int node = -1;
  EXPECT_FALSE(pt.FindReplicaDivergence(&va, &node));
  // A node-1 walker now resolves through its local replica: zero remote
  // levels even though the primary lives on node 0.
  auto r = pt.Walk(kBase, 1);
  EXPECT_TRUE(r.present);
  EXPECT_EQ(r.remote_levels, 0);
  EXPECT_FALSE(r.leaf_remote);
  EXPECT_EQ(r.pte.pfn(), 0x100u);
}

TEST(PageTableReplicationTest, MutationsPropagateToReplicas) {
  PageTable pt;
  pt.Map(kBase, 0x100, PteFlags::kPresent | PteFlags::kWrite);
  pt.EnableReplication(3);
  EXPECT_EQ(pt.replica_count(), 3);

  pt.Map(kBase + kPageSize4K, 0x200, PteFlags::kPresent);            // post-enable Map
  pt.SetPte(kBase, Pte::Make(0x100, PteFlags::kPresent));            // protection change
  uint64_t va = 0;
  int node = -1;
  EXPECT_FALSE(pt.FindReplicaDivergence(&va, &node));

  for (int n = 0; n < 3; ++n) {
    auto r = pt.Walk(kBase + kPageSize4K, n);
    ASSERT_TRUE(r.present) << "node " << n;
    EXPECT_EQ(r.pte.pfn(), 0x200u);
    EXPECT_FALSE(pt.Walk(kBase, n).pte.writable());
  }

  pt.Unmap(kBase + kPageSize4K);
  EXPECT_FALSE(pt.FindReplicaDivergence(&va, &node));
  EXPECT_FALSE(pt.Walk(kBase + kPageSize4K, 2).present);
}

TEST(PageTableReplicationTest, ReplicaRootIdsAreDistinct) {
  PageTable pt(42);
  pt.EnableReplication(2);
  EXPECT_EQ(pt.replica_root_id(0), pt.root_id());
  EXPECT_NE(pt.replica_root_id(1), pt.root_id());
}

TEST(PageTableReplicationTest, SkipPropagationDiverges) {
  PageTable pt;
  pt.Map(kBase, 0x100, PteFlags::kPresent | PteFlags::kWrite);
  pt.EnableReplication(2);
  pt.set_skip_replica_propagation(true);
  pt.Unmap(kBase);  // primary drops the leaf; replica 1 keeps a stale copy
  uint64_t va = 0;
  int node = -1;
  ASSERT_TRUE(pt.FindReplicaDivergence(&va, &node));
  EXPECT_EQ(va, kBase);
  EXPECT_EQ(node, 1);
  // The stale replica still translates for node-1 walkers — exactly the
  // unsafe window the tlbcheck replica_divergence invariant flags.
  EXPECT_TRUE(pt.Walk(kBase, 1).present);
  EXPECT_FALSE(pt.Walk(kBase, 0).present);
}

TEST(PageTableReplicationTest, EnableIsIdempotentForSingleNode) {
  PageTable pt;
  pt.Map(kBase, 0x100, PteFlags::kPresent);
  pt.EnableReplication(1);
  EXPECT_FALSE(pt.replicated());
  EXPECT_EQ(pt.replica_count(), 0);
}

}  // namespace
}  // namespace tlbsim
