// FrameAllocator: alloc/free, refcounting, reuse.
#include "src/mm/phys.h"

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>
#include <utility>
#include <vector>

#include "src/sim/rng.h"

namespace tlbsim {
namespace {

TEST(FrameAllocatorTest, AllocReturnsDistinctFrames) {
  FrameAllocator fa;
  std::set<uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(seen.insert(fa.Alloc()).second);
  }
  EXPECT_EQ(fa.allocated_frames(), 100u);
}

TEST(FrameAllocatorTest, FreshFrameHasRefcountOne) {
  FrameAllocator fa;
  uint64_t pfn = fa.Alloc();
  EXPECT_EQ(fa.RefCount(pfn), 1u);
  EXPECT_TRUE(fa.IsAllocated(pfn));
}

TEST(FrameAllocatorTest, RefUnrefCycle) {
  FrameAllocator fa;
  uint64_t pfn = fa.Alloc();
  fa.Ref(pfn);
  fa.Ref(pfn);
  EXPECT_EQ(fa.RefCount(pfn), 3u);
  EXPECT_EQ(fa.Unref(pfn), 2u);
  EXPECT_EQ(fa.Unref(pfn), 1u);
  EXPECT_EQ(fa.Unref(pfn), 0u);
  EXPECT_FALSE(fa.IsAllocated(pfn));
}

TEST(FrameAllocatorTest, FreedFrameIsReused) {
  FrameAllocator fa;
  uint64_t pfn = fa.Alloc();
  fa.Unref(pfn);
  EXPECT_EQ(fa.Alloc(), pfn);
}

TEST(FrameAllocatorTest, HugeAllocationSpansFrames) {
  FrameAllocator fa;
  uint64_t a = fa.Alloc(512);  // 2MB worth of 4K frames
  uint64_t b = fa.Alloc();
  EXPECT_GE(b, a + 512);
  EXPECT_EQ(fa.allocated_frames(), 513u);
}

TEST(FrameAllocatorTest, HugeFreeListMatchesBySize) {
  FrameAllocator fa;
  uint64_t huge = fa.Alloc(512);
  fa.Unref(huge);
  uint64_t small = fa.Alloc(1);
  EXPECT_NE(small, huge);  // 512-frame block not split for a 1-frame request
  uint64_t huge2 = fa.Alloc(512);
  EXPECT_EQ(huge2, huge);
}

TEST(FrameAllocatorTest, RefCountOfUnknownIsZero) {
  FrameAllocator fa;
  EXPECT_EQ(fa.RefCount(0xdead), 0u);
  EXPECT_FALSE(fa.IsAllocated(0xdead));
}

TEST(FrameAllocatorTest, TotalAllocsMonotone) {
  FrameAllocator fa;
  fa.Alloc();
  uint64_t p = fa.Alloc();
  fa.Unref(p);
  fa.Alloc();
  EXPECT_EQ(fa.total_allocs(), 3u);
}

// Regression: interior pfns of a multi-frame allocation used to miss the
// refcount records entirely — Ref() grew a phantom record and Unref() read an uninitialized
// one (UB in Release builds). All of them must resolve to the head record.
TEST(FrameAllocatorTest, InteriorPfnResolvesToHeadRecord) {
  FrameAllocator fa;
  uint64_t head = fa.Alloc(512);
  EXPECT_TRUE(fa.IsAllocated(head + 7));
  EXPECT_TRUE(fa.IsAllocated(head + 511));
  EXPECT_FALSE(fa.IsAllocated(head + 512));
  EXPECT_EQ(fa.RefCount(head + 255), 1u);

  fa.Ref(head + 7);  // CoW share via an interior pfn
  EXPECT_EQ(fa.RefCount(head), 2u);
  EXPECT_EQ(fa.RefCount(head + 511), 2u);

  EXPECT_EQ(fa.Unref(head + 300), 1u);
  EXPECT_EQ(fa.Unref(head + 3), 0u);  // frees the whole allocation
  EXPECT_FALSE(fa.IsAllocated(head));
  EXPECT_FALSE(fa.IsAllocated(head + 511));
  EXPECT_EQ(fa.allocated_frames(), 0u);
}

TEST(FrameAllocatorTest, InteriorPfnOfFreedHugeBlockIsUnknown) {
  FrameAllocator fa;
  uint64_t head = fa.Alloc(512);
  uint64_t next = fa.Alloc();  // survives the huge free
  fa.Unref(head + 100);
  EXPECT_EQ(fa.RefCount(head + 100), 0u);
  EXPECT_TRUE(fa.IsAllocated(next));
}

// The O(1) free-index rewrite must keep the legacy reuse order bit-identical:
// the old linear scan took the lowest matching index and removed it by
// swapping the back entry in, so freeing a,b,c replays as a,c,b.
TEST(FrameAllocatorTest, ReuseOrderMatchesLegacyFreeList) {
  FrameAllocator fa;
  uint64_t a = fa.Alloc();
  uint64_t b = fa.Alloc();
  uint64_t c = fa.Alloc();
  fa.Unref(a);
  fa.Unref(b);
  fa.Unref(c);
  EXPECT_EQ(fa.Alloc(), a);  // [a,b,c]: lowest index
  EXPECT_EQ(fa.Alloc(), c);  // swap-with-back left [c,b]
  EXPECT_EQ(fa.Alloc(), b);
}

TEST(FrameAllocatorTest, MixedSizeChurnReusesExactBlocks) {
  FrameAllocator fa;
  uint64_t small1 = fa.Alloc();
  uint64_t huge = fa.Alloc(512);
  uint64_t small2 = fa.Alloc();
  fa.Unref(huge);
  fa.Unref(small1);
  fa.Unref(small2);
  EXPECT_EQ(fa.Alloc(512), huge);  // size-matched despite later small frees
  // Taking the huge block swapped small2 into index 0.
  EXPECT_EQ(fa.Alloc(), small2);
  EXPECT_EQ(fa.Alloc(), small1);
  EXPECT_EQ(fa.allocated_frames(), 514u);
}

TEST(FrameAllocatorTest, NumaNodesOwnDisjointRanges) {
  FrameAllocator fa;
  fa.ConfigureNuma(2, NumaPlacement::kLocal);
  EXPECT_EQ(fa.nodes(), 2);
  uint64_t on0 = fa.AllocOn(0);
  uint64_t on1 = fa.AllocOn(1);
  EXPECT_EQ(fa.NodeOf(on0), 0);
  EXPECT_EQ(fa.NodeOf(on1), 1);
  EXPECT_NE(fa.NodeOf(on0), fa.NodeOf(on1));
  EXPECT_EQ(fa.node_allocs(0), 1u);
  EXPECT_EQ(fa.node_allocs(1), 1u);
}

TEST(FrameAllocatorTest, LocalPlacementFollowsHint) {
  FrameAllocator fa;
  fa.ConfigureNuma(2, NumaPlacement::kLocal);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(fa.NodeOf(fa.AllocOn(1)), 1);
  }
  EXPECT_EQ(fa.node_allocs(1), 8u);
  EXPECT_EQ(fa.node_allocs(0), 0u);
}

TEST(FrameAllocatorTest, InterleavePlacementIgnoresHint) {
  FrameAllocator fa;
  fa.ConfigureNuma(2, NumaPlacement::kInterleave);
  // Round-robin regardless of the (constant) hint.
  EXPECT_EQ(fa.NodeOf(fa.AllocOn(0)), 0);
  EXPECT_EQ(fa.NodeOf(fa.AllocOn(0)), 1);
  EXPECT_EQ(fa.NodeOf(fa.AllocOn(0)), 0);
  EXPECT_EQ(fa.NodeOf(fa.AllocOn(0)), 1);
  EXPECT_EQ(fa.node_allocs(0), 2u);
  EXPECT_EQ(fa.node_allocs(1), 2u);
}

TEST(FrameAllocatorTest, NumaFreeListIsPerNode) {
  FrameAllocator fa;
  fa.ConfigureNuma(2, NumaPlacement::kLocal);
  uint64_t on1 = fa.AllocOn(1);
  fa.Unref(on1);
  // A node-0 request must not steal node 1's freed frame.
  uint64_t on0 = fa.AllocOn(0);
  EXPECT_EQ(fa.NodeOf(on0), 0);
  // The node-1 request reuses it.
  EXPECT_EQ(fa.AllocOn(1), on1);
}

TEST(FrameAllocatorTest, FlatDefaultKeepsLegacySequence) {
  FrameAllocator legacy;
  FrameAllocator flat;
  flat.ConfigureNuma(1, NumaPlacement::kLocal);  // idempotent no-op
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(flat.AllocOn(0), legacy.Alloc());
  }
  EXPECT_EQ(flat.NodeOf(flat.Alloc()), 0);
}

// More than 64 free entries: swap-with-back removal moves the last entry's
// bit from one bitset word into another, and reuse must still take the
// lowest free-list index.
TEST(FrameAllocatorTest, ReuseOrderAcrossBitsetWords) {
  FrameAllocator fa;
  std::vector<uint64_t> pfns;
  pfns.reserve(150);
  for (int i = 0; i < 150; ++i) {
    pfns.push_back(fa.Alloc());
  }
  for (uint64_t pfn : pfns) {
    fa.Unref(pfn);
  }
  // Free list [p0 .. p149]. Each take of index 0 swaps the back in:
  // p0, p149, p148, ... — the back entry crosses from word 2 to word 0.
  EXPECT_EQ(fa.Alloc(), pfns[0]);
  for (int i = 149; i >= 100; --i) {
    EXPECT_EQ(fa.Alloc(), pfns[static_cast<size_t>(i)]) << i;
  }
  // Free list [p99, p1 .. p98]. A re-freed frame lands at index 99 (word 1);
  // the next take of index 0 swaps it into word 0.
  fa.Unref(pfns[120]);
  EXPECT_EQ(fa.Alloc(), pfns[99]);
  EXPECT_EQ(fa.Alloc(), pfns[120]);
  EXPECT_EQ(fa.Alloc(), pfns[98]);
  EXPECT_EQ(fa.allocated_frames(), 53u);
}

TEST(FrameAllocatorTest, InteriorPfnOfReusedHugeBlock) {
  FrameAllocator fa;
  uint64_t head = fa.Alloc(512);
  fa.Unref(head);
  EXPECT_FALSE(fa.IsAllocated(head + 200));
  ASSERT_EQ(fa.Alloc(512), head);  // same block, same layout
  EXPECT_TRUE(fa.IsAllocated(head + 200));
  fa.Ref(head + 200);
  EXPECT_EQ(fa.RefCount(head + 511), 2u);
  EXPECT_EQ(fa.Unref(head + 1), 1u);
  EXPECT_EQ(fa.Unref(head + 511), 0u);
  EXPECT_FALSE(fa.IsAllocated(head));
  EXPECT_EQ(fa.allocated_frames(), 0u);
}

TEST(FrameAllocatorTest, TryAllocSpecificOnlyTakesFreeSingleFrames) {
  FrameAllocator fa;
  uint64_t held = fa.Alloc();
  uint64_t huge = fa.Alloc(512);
  uint64_t freed = fa.Alloc();
  fa.Unref(huge);
  fa.Unref(freed);
  EXPECT_FALSE(fa.TryAllocSpecific(held));        // allocated
  EXPECT_FALSE(fa.TryAllocSpecific(huge));        // free, but a 512-frame block
  EXPECT_FALSE(fa.TryAllocSpecific(huge + 7));    // interior of that block
  EXPECT_FALSE(fa.TryAllocSpecific(freed + 1));   // never carved
  EXPECT_FALSE(fa.TryAllocSpecific(0x10));        // below the reserved range
  EXPECT_EQ(fa.total_allocs(), 3u);
  EXPECT_TRUE(fa.TryAllocSpecific(freed));
  EXPECT_EQ(fa.RefCount(freed), 1u);
  EXPECT_FALSE(fa.TryAllocSpecific(freed));       // now allocated
  EXPECT_EQ(fa.Alloc(512), huge);  // the huge block is still on the free list
  EXPECT_EQ(fa.allocated_frames(), 514u);
  EXPECT_EQ(fa.total_allocs(), 5u);
}

// The allocator as it was before dense records: an ordered map of head
// records and a (node, size) -> ordered-set index of the free list. The
// differential test below replays random operation sequences against it.
class MapAllocator {
 public:
  static constexpr uint64_t kFirstPfn = 0x1000;
  static constexpr uint64_t kNodeSpan = 1ULL << 24;

  MapAllocator(int nodes, NumaPlacement placement)
      : next_(static_cast<size_t>(nodes)), placement_(placement) {
    for (int n = 0; n < nodes; ++n) {
      next_[static_cast<size_t>(n)] = Base(n);
    }
  }

  uint64_t AllocOn(int hint, uint64_t count) {
    int node = 0;
    if (nodes() > 1) {
      node = placement_ == NumaPlacement::kInterleave
                 ? static_cast<int>(interleave_++ % static_cast<uint64_t>(nodes()))
                 : hint;
    }
    auto it = index_.find({node, count});
    if (it != index_.end()) {
      uint64_t pfn = TakeAt(*it->second.begin());
      refs_.emplace(pfn, Rec{1, count});
      reused_.push_back(pfn);
      return pfn;
    }
    uint64_t pfn = next_[static_cast<size_t>(node)];
    next_[static_cast<size_t>(node)] += count;
    refs_.emplace(pfn, Rec{1, count});
    return pfn;
  }

  bool TryAllocSpecific(uint64_t pfn) {
    for (uint32_t i = 0; i < static_cast<uint32_t>(free_.size()); ++i) {
      if (free_[i].first == pfn && free_[i].second == 1) {
        TakeAt(i);
        refs_.emplace(pfn, Rec{1, 1});
        return true;
      }
    }
    return false;
  }

  void Ref(uint64_t pfn) { ++Find(pfn)->second.refs; }

  uint64_t Unref(uint64_t pfn) {
    auto it = Find(pfn);
    if (--it->second.refs > 0) {
      return it->second.refs;
    }
    uint32_t idx = static_cast<uint32_t>(free_.size());
    free_.emplace_back(it->first, it->second.count);
    index_[{NodeOf(it->first), it->second.count}].insert(idx);
    refs_.erase(it);
    return 0;
  }

  uint64_t RefCount(uint64_t pfn) const {
    auto it = refs_.upper_bound(pfn);
    if (it == refs_.begin()) {
      return 0;
    }
    --it;
    return pfn < it->first + it->second.count ? it->second.refs : 0;
  }

  uint64_t allocated_frames() const {
    uint64_t n = 0;
    for (const auto& [pfn, rec] : refs_) {
      n += rec.count;
    }
    return n;
  }

  std::vector<uint64_t> reused_;  // heads handed back out by the free list

 private:
  struct Rec {
    uint64_t refs;
    uint64_t count;
  };

  int nodes() const { return static_cast<int>(next_.size()); }
  uint64_t Base(int node) const {
    return nodes() == 1 ? kFirstPfn : kFirstPfn + static_cast<uint64_t>(node) * kNodeSpan;
  }
  int NodeOf(uint64_t pfn) const {
    return nodes() == 1 ? 0 : static_cast<int>((pfn - kFirstPfn) / kNodeSpan);
  }

  std::map<uint64_t, Rec>::iterator Find(uint64_t pfn) {
    auto it = refs_.upper_bound(pfn);
    EXPECT_NE(it, refs_.begin());
    --it;
    EXPECT_LT(pfn, it->first + it->second.count);
    return it;
  }

  uint64_t TakeAt(uint32_t idx) {
    auto [pfn, count] = free_[idx];
    auto erase = [this](uint32_t i, uint64_t p, uint64_t c) {
      auto it = index_.find({NodeOf(p), c});
      it->second.erase(i);
      if (it->second.empty()) {
        index_.erase(it);
      }
    };
    erase(idx, pfn, count);
    auto last = static_cast<uint32_t>(free_.size() - 1);
    if (idx != last) {
      auto [mpfn, mcount] = free_[last];
      erase(last, mpfn, mcount);
      free_[idx] = free_[last];
      index_[{NodeOf(mpfn), mcount}].insert(idx);
    }
    free_.pop_back();
    return pfn;
  }

  std::map<uint64_t, Rec> refs_;
  std::vector<std::pair<uint64_t, uint64_t>> free_;
  std::map<std::pair<int, uint64_t>, std::set<uint32_t>> index_;
  std::vector<uint64_t> next_;
  NumaPlacement placement_;
  uint64_t interleave_ = 0;
};

struct DiffCase {
  int nodes;
  NumaPlacement placement;
  uint64_t seed;
};

void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << c.nodes << " node(s), " << NumaPlacementName(c.placement) << ", seed " << c.seed;
}

class FrameAllocatorDiffTest : public ::testing::TestWithParam<DiffCase> {};

// Random Alloc/AllocOn/Ref/Unref/TryAllocSpecific sequences, sizes 1 and 512:
// the dense allocator must hand out the same pfns, fire the reuse observer on
// the same heads and agree on RefCount, IsAllocated and allocated_frames()
// after every step.
TEST_P(FrameAllocatorDiffTest, MatchesMapAllocator) {
  const DiffCase& c = GetParam();
  FrameAllocator fa;
  fa.ConfigureNuma(c.nodes, c.placement);
  std::vector<uint64_t> reused;
  fa.set_reuse_observer([&reused](uint64_t pfn) { reused.push_back(pfn); });
  MapAllocator ref(c.nodes, c.placement);
  Rng rng(c.seed);

  struct Block {
    uint64_t head;
    uint64_t count;
  };
  std::vector<Block> held;     // one entry per reference held
  std::vector<Block> carved;   // every block ever handed out (probe targets)
  auto pfn_in = [&rng](const Block& b) {
    return b.head + static_cast<uint64_t>(rng.UniformInt(0, static_cast<int64_t>(b.count) - 1));
  };
  auto expect_same_at = [&](uint64_t pfn, int step) {
    ASSERT_EQ(fa.RefCount(pfn), ref.RefCount(pfn)) << "pfn " << pfn << " step " << step;
    ASSERT_EQ(fa.IsAllocated(pfn), ref.RefCount(pfn) > 0) << "pfn " << pfn << " step " << step;
  };

  constexpr int kSteps = 4000;
  for (int step = 0; step < kSteps; ++step) {
    // Grow the live set early, drain it late: the free list passes through
    // hundreds of entries.
    double alloc_bias = step < kSteps / 2 ? 0.6 : 0.35;
    double r = rng.UniformReal(0.0, 1.0);
    uint64_t touched = 0;
    if (held.empty() || r < alloc_bias) {
      uint64_t count = rng.Chance(0.1) ? 512 : 1;
      int hint = static_cast<int>(rng.UniformInt(0, c.nodes - 1));
      uint64_t got = fa.AllocOn(hint, count);
      ASSERT_EQ(got, ref.AllocOn(hint, count)) << "step " << step;
      held.push_back({got, count});
      carved.push_back({got, count});
      touched = got + count - 1;
    } else if (r < alloc_bias + 0.1) {
      const Block b = held[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1))];
      touched = pfn_in(b);
      fa.Ref(touched);
      ref.Ref(touched);
      held.push_back(b);
    } else if (r < alloc_bias + 0.15) {
      // A freed, a live or a never-carved frame, head or interior.
      const Block& b = carved[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(carved.size()) - 1))];
      touched = rng.Chance(0.2) ? b.head + b.count + 4096 : pfn_in(b);
      bool got = fa.TryAllocSpecific(touched);
      ASSERT_EQ(got, ref.TryAllocSpecific(touched)) << "pfn " << touched << " step " << step;
      if (got) {
        held.push_back({touched, 1});
      }
    } else {
      size_t i = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1));
      touched = pfn_in(held[i]);
      ASSERT_EQ(fa.Unref(touched), ref.Unref(touched)) << "step " << step;
      held[i] = held.back();
      held.pop_back();
    }
    expect_same_at(touched, step);
    ASSERT_EQ(fa.allocated_frames(), ref.allocated_frames()) << "step " << step;
    if (step % 500 == 0 || step == kSteps - 1) {
      for (const Block& b : carved) {
        expect_same_at(b.head, step);
        expect_same_at(b.head + b.count - 1, step);
        expect_same_at(b.head + b.count, step);
      }
    }
  }
  EXPECT_EQ(reused, ref.reused_);
  EXPECT_GT(reused.size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(
    NodesAndPlacement, FrameAllocatorDiffTest,
    ::testing::Values(DiffCase{1, NumaPlacement::kLocal, 1}, DiffCase{1, NumaPlacement::kLocal, 2},
                      DiffCase{2, NumaPlacement::kLocal, 3}, DiffCase{2, NumaPlacement::kLocal, 4},
                      DiffCase{2, NumaPlacement::kInterleave, 5},
                      DiffCase{2, NumaPlacement::kInterleave, 6}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return std::to_string(info.param.nodes) + "node_" +
             NumaPlacementName(info.param.placement) + "_seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace tlbsim
