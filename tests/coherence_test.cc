// CoherenceModel: MESI-ish state transitions, cost classes, counters.
#include "src/cache/coherence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "src/sim/rng.h"

namespace tlbsim {
namespace {

class CoherenceTest : public ::testing::Test {
 protected:
  Topology topo_;
  CacheCosts costs_;
  CoherenceModel model_{topo_, costs_};
};

TEST_F(CoherenceTest, ColdMissFillsFromMemory) {
  LineId l = model_.AllocateLine("x");
  EXPECT_EQ(model_.Access(0, l, AccessType::kRead), costs_.memory_fill);
  EXPECT_EQ(model_.global_stats().memory_fills, 1u);
}

TEST_F(CoherenceTest, RepeatReadIsL1Hit) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kRead);
  EXPECT_EQ(model_.Access(0, l, AccessType::kRead), costs_.l1_hit);
}

TEST_F(CoherenceTest, OwnerWriteAfterFillIsHit) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kWrite);
  EXPECT_EQ(model_.Access(0, l, AccessType::kWrite), costs_.l1_hit);
}

TEST_F(CoherenceTest, CrossSocketReadTransfer) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kWrite);
  // CPU 28 is on socket 1.
  EXPECT_EQ(model_.Access(28, l, AccessType::kRead), costs_.cross_socket_transfer);
  EXPECT_EQ(model_.global_stats().cross_socket_transfers, 1u);
}

TEST_F(CoherenceTest, SameSocketReadTransfer) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kWrite);
  EXPECT_EQ(model_.Access(4, l, AccessType::kRead), costs_.same_socket_transfer);
}

TEST_F(CoherenceTest, SmtSiblingTransferIsCheapest) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kWrite);
  EXPECT_EQ(model_.Access(1, l, AccessType::kRead), costs_.smt_transfer);
}

TEST_F(CoherenceTest, ReadDowngradesOwnerThenBothHit) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kWrite);
  model_.Access(2, l, AccessType::kRead);
  // Both copies now shared: reads hit everywhere.
  EXPECT_EQ(model_.Access(0, l, AccessType::kRead), costs_.l1_hit);
  EXPECT_EQ(model_.Access(2, l, AccessType::kRead), costs_.l1_hit);
}

TEST_F(CoherenceTest, WriteInvalidatesSharers) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kRead);   // fill, cpu0 owner
  model_.Access(2, l, AccessType::kRead);   // shared 0,2
  model_.Access(28, l, AccessType::kRead);  // shared 0,2,28
  uint64_t inv_before = model_.global_stats().invalidations;
  model_.Access(0, l, AccessType::kWrite);  // must invalidate 2 and 28
  EXPECT_EQ(model_.global_stats().invalidations - inv_before, 2u);
  // After the write, reader 2 misses again.
  EXPECT_GT(model_.Access(2, l, AccessType::kRead), costs_.l1_hit);
}

TEST_F(CoherenceTest, AtomicRmwBehavesLikeWrite) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kRead);
  model_.Access(2, l, AccessType::kRead);
  uint64_t inv_before = model_.global_stats().invalidations;
  model_.Access(2, l, AccessType::kAtomicRmw);
  EXPECT_EQ(model_.global_stats().invalidations - inv_before, 1u);
  EXPECT_EQ(model_.Access(2, l, AccessType::kWrite), costs_.l1_hit);
}

TEST_F(CoherenceTest, UpgradeCostReflectsFarthestSharer) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kRead);
  model_.Access(28, l, AccessType::kRead);  // cross-socket sharer
  EXPECT_EQ(model_.Access(0, l, AccessType::kWrite), costs_.cross_socket_transfer);
}

TEST_F(CoherenceTest, PingPongCountsTransfersPerBounce) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kWrite);
  uint64_t t0 = model_.global_stats().transfers;
  for (int i = 0; i < 10; ++i) {
    model_.Access(28, l, AccessType::kWrite);
    model_.Access(0, l, AccessType::kWrite);
  }
  EXPECT_EQ(model_.global_stats().transfers - t0, 20u);
}

TEST_F(CoherenceTest, PerLineStatsTracked) {
  LineId a = model_.AllocateLine("a");
  LineId b = model_.AllocateLine("b");
  model_.Access(0, a, AccessType::kWrite);
  model_.Access(2, a, AccessType::kWrite);
  model_.Access(0, b, AccessType::kRead);
  auto sa = model_.StatsFor(a);
  auto sb = model_.StatsFor(b);
  EXPECT_EQ(sa.accesses, 2u);
  EXPECT_EQ(sa.transfers, 1u);
  EXPECT_EQ(sb.accesses, 1u);
  EXPECT_EQ(sb.transfers, 0u);
}

TEST_F(CoherenceTest, NamesRoundTrip) {
  LineId a = model_.AllocateLine("my.line");
  EXPECT_EQ(model_.NameOf(a), "my.line");
  EXPECT_EQ(model_.NameOf(CoherenceModel::LineOfAddress(0x1000)), "<data>");
}

// String names live out of line and composed names in pieces; thousands of
// allocations in between (several growths of both tables) must not disturb
// either kind.
TEST_F(CoherenceTest, NamesSurviveThousandsOfAllocations) {
  LineId first = model_.AllocateLine("first.string");
  LineId composed = model_.AllocateLine("cpu", 7, ".tlbstate");
  std::vector<LineId> strings;
  std::vector<LineId> cfds;
  for (uint64_t i = 0; i < 3000; ++i) {
    cfds.push_back(model_.AllocateLine("cpu", i % 56, ".cfd[", i, "]"));
    if (i % 100 == 0) {
      strings.push_back(model_.AllocateLine("string." + std::to_string(i)));
    }
  }
  LineId last = model_.AllocateLine("last.string");
  EXPECT_EQ(model_.NameOf(first), "first.string");
  EXPECT_EQ(model_.NameOf(composed), "cpu7.tlbstate");
  EXPECT_EQ(model_.NameOf(last), "last.string");
  EXPECT_EQ(last, first + 3000 + strings.size() + 2);
  for (size_t k = 0; k < strings.size(); ++k) {
    EXPECT_EQ(model_.NameOf(strings[k]), "string." + std::to_string(k * 100));
  }
  EXPECT_EQ(model_.NameOf(cfds[30]), "cpu30.cfd[30]");
  EXPECT_EQ(model_.NameOf(cfds[2999]), "cpu31.cfd[2999]");
}

TEST_F(CoherenceTest, LineOfAddressGroups64Bytes) {
  EXPECT_EQ(CoherenceModel::LineOfAddress(0x1000), CoherenceModel::LineOfAddress(0x103F));
  EXPECT_NE(CoherenceModel::LineOfAddress(0x1000), CoherenceModel::LineOfAddress(0x1040));
}

TEST_F(CoherenceTest, ResetStatsClearsGlobalAndPerLine) {
  LineId a = model_.AllocateLine("a");
  model_.Access(0, a, AccessType::kWrite);
  model_.ResetStats();
  EXPECT_EQ(model_.global_stats().accesses, 0u);
  EXPECT_EQ(model_.StatsFor(a).accesses, 0u);
}

TEST_F(CoherenceTest, EvictAllForcesMemoryFill) {
  LineId a = model_.AllocateLine("a");
  model_.Access(0, a, AccessType::kWrite);
  model_.EvictAll(a);
  EXPECT_EQ(model_.Access(0, a, AccessType::kRead), costs_.memory_fill);
}

// Degenerate topology: smt=1. NearestHolder can never report kSmtSibling, so
// a transfer from the adjacent cpu id is charged at the same-socket rate.
TEST(CoherenceDegenerateTest, NoSmtTransferFromAdjacentCpuIsSameSocket) {
  Topology topo{.sockets = 2, .cores_per_socket = 4, .smt = 1};
  CacheCosts costs;
  CoherenceModel model(topo, costs);
  LineId l = model.AllocateLine("x");
  model.Access(0, l, AccessType::kWrite);
  EXPECT_EQ(model.Access(1, l, AccessType::kRead), costs.same_socket_transfer);
  // Across the socket boundary (cpus_per_socket = 4) it's still cross-socket.
  model.Access(4, l, AccessType::kWrite);
  model.EvictAll(l);
  model.Access(4, l, AccessType::kWrite);
  EXPECT_EQ(model.Access(0, l, AccessType::kRead), costs.cross_socket_transfer);
}

// Degenerate topology: sockets=1. NearestHolder never reports kCrossSocket —
// the farthest any holder can be is the shared L3 — and upgrade costs are
// capped accordingly.
TEST(CoherenceDegenerateTest, SingleSocketNeverPaysCrossSocket) {
  Topology topo{.sockets = 1, .cores_per_socket = 4, .smt = 2};
  CacheCosts costs;
  CoherenceModel model(topo, costs);
  LineId l = model.AllocateLine("x");
  model.Access(0, l, AccessType::kWrite);
  EXPECT_EQ(model.Access(1, l, AccessType::kRead), costs.smt_transfer);
  EXPECT_EQ(model.Access(6, l, AccessType::kRead), costs.same_socket_transfer);
  // Upgrade with sharers spread over the whole (single-socket) machine.
  EXPECT_EQ(model.Access(0, l, AccessType::kWrite), costs.same_socket_transfer);
  EXPECT_EQ(model.global_stats().cross_socket_transfers, 0u);
}

// NearestHolder must pick the cheapest of several holders, also in the
// degenerate single-socket case where the candidates are sibling vs. L3.
TEST(CoherenceDegenerateTest, SingleSocketNearestOfManyHoldersIsSibling) {
  Topology topo{.sockets = 1, .cores_per_socket = 4, .smt = 2};
  CacheCosts costs;
  CoherenceModel model(topo, costs);
  LineId l = model.AllocateLine("x");
  model.Access(6, l, AccessType::kRead);  // far corner holds it first
  model.Access(1, l, AccessType::kRead);  // then cpu 0's smt sibling
  EXPECT_EQ(model.Access(0, l, AccessType::kRead), costs.smt_transfer);
}

// Single-cpu machine: every access after the fill is a hit; no transfer class
// is ever exercised.
TEST(CoherenceDegenerateTest, SingleCpuMachineOnlyFillsAndHits) {
  Topology topo{.sockets = 1, .cores_per_socket = 1, .smt = 1};
  CacheCosts costs;
  CoherenceModel model(topo, costs);
  LineId l = model.AllocateLine("x");
  EXPECT_EQ(model.Access(0, l, AccessType::kRead), costs.memory_fill);
  EXPECT_EQ(model.Access(0, l, AccessType::kWrite), costs.l1_hit);
  EXPECT_EQ(model.Access(0, l, AccessType::kAtomicRmw), costs.l1_hit);
  EXPECT_EQ(model.global_stats().transfers, 0u);
  EXPECT_EQ(model.global_stats().invalidations, 0u);
}

// Holder sets spanning several bitset words: on the 8-socket preset (28 cpus
// per socket) cpus 1, 63, 64, 127 and 200 sit in words 0, 0, 1, 1 and 3 and
// on sockets 0, 2, 2, 4 and 7.
class MultiWordHoldersTest : public ::testing::Test {
 protected:
  // A fresh line shared by `holders` (the first one filled it).
  LineId SharedBy(std::initializer_list<int> holders) {
    LineId l = model_.AllocateLine("x");
    for (int cpu : holders) {
      model_.Access(cpu, l, AccessType::kRead);
    }
    return l;
  }

  Topology topo_ = Topology::EightSocket();
  CacheCosts costs_;
  CoherenceModel model_{topo_, costs_};
};

TEST_F(MultiWordHoldersTest, NearestHolderAcrossWords) {
  EXPECT_EQ(model_.Access(0, SharedBy({1, 63, 64, 127, 200}), AccessType::kRead),
            costs_.smt_transfer);  // cpu 1's sibling
  EXPECT_EQ(model_.Access(65, SharedBy({1, 63, 64, 127, 200}), AccessType::kRead),
            costs_.smt_transfer);  // cpu 64's sibling, word 1
  EXPECT_EQ(model_.Access(66, SharedBy({1, 63, 64, 127, 200}), AccessType::kRead),
            costs_.same_socket_transfer);  // socket 2, no sibling holds it
  EXPECT_EQ(model_.Access(201, SharedBy({1, 63, 64, 127, 200}), AccessType::kRead),
            costs_.smt_transfer);  // cpu 200's sibling, word 3
  LineId l = SharedBy({1, 63, 64, 127, 200});
  uint64_t cross = model_.global_stats().cross_socket_transfers;
  EXPECT_EQ(model_.Access(30, l, AccessType::kRead),
            costs_.cross_socket_transfer);  // socket 1 holds nothing
  EXPECT_EQ(model_.global_stats().cross_socket_transfers - cross, 1u);
}

TEST_F(MultiWordHoldersTest, UpgradeCostIsFarthestOtherHolder) {
  uint64_t inv = model_.global_stats().invalidations;
  EXPECT_EQ(model_.Access(64, SharedBy({1, 63, 64, 127, 200}), AccessType::kWrite),
            costs_.cross_socket_transfer);
  EXPECT_EQ(model_.global_stats().invalidations - inv, 4u);

  inv = model_.global_stats().invalidations;
  EXPECT_EQ(model_.Access(63, SharedBy({63, 64}), AccessType::kWrite),
            costs_.same_socket_transfer);  // the other holder is across the word boundary
  EXPECT_EQ(model_.global_stats().invalidations - inv, 1u);

  inv = model_.global_stats().invalidations;
  EXPECT_EQ(model_.Access(127, SharedBy({127, 126}), AccessType::kWrite), costs_.smt_transfer);
  EXPECT_EQ(model_.global_stats().invalidations - inv, 1u);

  inv = model_.global_stats().invalidations;
  EXPECT_EQ(model_.Access(127, SharedBy({127, 128}), AccessType::kWrite),
            costs_.same_socket_transfer);  // 128 opens word 2
  EXPECT_EQ(model_.global_stats().invalidations - inv, 1u);
}

TEST_F(MultiWordHoldersTest, WriteByNonHolderInvalidatesEveryCopy) {
  LineId l = SharedBy({1, 63, 64, 127, 200});
  uint64_t inv = model_.global_stats().invalidations;
  // cpu 100 (socket 3) reaches the nearest holder across the interconnect.
  EXPECT_EQ(model_.Access(100, l, AccessType::kAtomicRmw), costs_.cross_socket_transfer);
  EXPECT_EQ(model_.global_stats().invalidations - inv, 5u);
  EXPECT_EQ(model_.StatsFor(l).invalidations, 5u);
  EXPECT_EQ(model_.StatsFor(l).accesses, 6u);
  // Exclusive now: the writer hits, a former holder misses.
  EXPECT_EQ(model_.Access(100, l, AccessType::kWrite), costs_.l1_hit);
  EXPECT_EQ(model_.Access(200, l, AccessType::kRead), costs_.cross_socket_transfer);
}

// Reference directory: the sharer-list model the bitset directory replaced,
// kept here as the oracle for the differential test below.
class SharerListModel {
 public:
  SharerListModel(const Topology& topo, const CacheCosts& costs) : topo_(topo), costs_(costs) {}

  Cycles Access(int cpu, LineId line, AccessType type) {
    Entry& e = lines_[line];
    ++e.stats.accesses;
    ++global_.accesses;
    bool is_write = type != AccessType::kRead;
    bool cpu_is_owner = e.owner == cpu;
    bool cpu_is_sharer = std::find(e.sharers.begin(), e.sharers.end(), cpu) != e.sharers.end();
    if (!e.valid) {
      e.valid = true;
      e.owner = cpu;
      e.sharers.clear();
      ++global_.memory_fills;
      return costs_.memory_fill;
    }
    if (!is_write) {
      if (cpu_is_owner || cpu_is_sharer) {
        ++e.stats.hits;
        ++global_.hits;
        return costs_.l1_hit;
      }
      Topology::Distance d = Nearest(cpu, e);
      ++e.stats.transfers;
      ++global_.transfers;
      if (d == Topology::Distance::kCrossSocket) {
        ++e.stats.cross_socket_transfers;
        ++global_.cross_socket_transfers;
      }
      if (e.owner >= 0) {
        e.sharers.push_back(e.owner);
        e.owner = -1;
      }
      e.sharers.push_back(cpu);
      return Cost(d);
    }
    if (cpu_is_owner && e.sharers.empty()) {
      ++e.stats.hits;
      ++global_.hits;
      return costs_.l1_hit;
    }
    Topology::Distance farthest = Topology::Distance::kSelf;
    uint64_t invalidated = 0;
    auto consider = [&](int holder) {
      if (holder == cpu) {
        return;
      }
      ++invalidated;
      Topology::Distance d = topo_.Between(cpu, holder);
      if (static_cast<int>(d) > static_cast<int>(farthest)) {
        farthest = d;
      }
    };
    if (e.owner >= 0) {
      consider(e.owner);
    }
    for (int sh : e.sharers) {
      consider(sh);
    }
    Cycles cost = cpu_is_owner || cpu_is_sharer ? Cost(farthest) : Cost(Nearest(cpu, e));
    if (invalidated > 0) {
      ++e.stats.transfers;
      ++global_.transfers;
      if (farthest == Topology::Distance::kCrossSocket) {
        ++e.stats.cross_socket_transfers;
        ++global_.cross_socket_transfers;
      }
    } else {
      ++e.stats.hits;
      ++global_.hits;
    }
    e.stats.invalidations += invalidated;
    global_.invalidations += invalidated;
    e.owner = cpu;
    e.sharers.clear();
    return cost;
  }

  void EvictAll(LineId line) { lines_.erase(line); }
  const CoherenceModel::GlobalStats& global_stats() const { return global_; }
  CoherenceModel::LineStats StatsFor(LineId line) const {
    auto it = lines_.find(line);
    return it == lines_.end() ? CoherenceModel::LineStats{} : it->second.stats;
  }

 private:
  struct Entry {
    int owner = -1;
    std::vector<int> sharers;
    bool valid = false;
    CoherenceModel::LineStats stats;
  };

  Topology::Distance Nearest(int cpu, const Entry& e) const {
    Topology::Distance best = Topology::Distance::kCrossSocket;
    bool found = false;
    auto consider = [&](int holder) {
      Topology::Distance d = topo_.Between(cpu, holder);
      if (!found || static_cast<int>(d) < static_cast<int>(best)) {
        best = d;
        found = true;
      }
    };
    if (e.owner >= 0) {
      consider(e.owner);
    }
    for (int sh : e.sharers) {
      consider(sh);
    }
    return best;
  }

  Cycles Cost(Topology::Distance d) const {
    switch (d) {
      case Topology::Distance::kSelf:
        return costs_.l1_hit;
      case Topology::Distance::kSmtSibling:
        return costs_.smt_transfer;
      case Topology::Distance::kSameSocket:
        return costs_.same_socket_transfer;
      case Topology::Distance::kCrossSocket:
        return costs_.cross_socket_transfer;
    }
    return costs_.memory_fill;
  }

  Topology topo_;
  CacheCosts costs_;
  std::map<LineId, Entry> lines_;
  CoherenceModel::GlobalStats global_;
};

// Seeded random (cpu, line, type) sequences — with occasional evictions —
// must cost, count and attribute exactly what the sharer-list model does.
// `data_lines` address-derived lines join 24 named ones; thousands of them
// grow the data-line table several times over.
void ExpectMatchesSharerList(const Topology& topo, uint64_t seed, uint64_t data_lines = 8,
                             int steps = 20000) {
  CacheCosts costs;
  CoherenceModel model(topo, costs);
  SharerListModel ref(topo, costs);
  std::vector<LineId> lines;
  for (int i = 0; i < 24; ++i) {
    lines.push_back(model.AllocateLine("line", static_cast<uint64_t>(i), ""));
  }
  for (uint64_t pa = 0; pa < data_lines; ++pa) {
    // Page-aligned lines, then runs of adjacent lines within pages.
    uint64_t addr = pa < 8 ? pa << 12 : ((pa / 16) << 12) + ((pa % 16) << 6) + (1ULL << 30);
    lines.push_back(CoherenceModel::LineOfAddress(addr));
  }
  Rng rng(seed);
  auto below = [&rng](uint64_t n) { return rng.UniformU64() % n; };
  // Cpus drawn from a small pool per run, so lines gather several holders.
  std::vector<int> pool;
  for (int i = 0; i < 12; ++i) {
    pool.push_back(static_cast<int>(below(static_cast<uint64_t>(topo.num_cpus()))));
  }
  for (int step = 0; step < steps; ++step) {
    LineId line = lines[below(lines.size())];
    int cpu = pool[below(pool.size())];
    uint64_t r = below(100);
    if (r == 0) {
      model.EvictAll(line);
      ref.EvictAll(line);
      continue;
    }
    AccessType type = r < 60 ? AccessType::kRead
                             : (r < 90 ? AccessType::kWrite : AccessType::kAtomicRmw);
    ASSERT_EQ(model.Access(cpu, line, type), ref.Access(cpu, line, type))
        << "step " << step << " cpu " << cpu << " line " << line;
  }
  CoherenceModel::GlobalStats g = model.global_stats();
  CoherenceModel::GlobalStats want = ref.global_stats();
  EXPECT_EQ(g.accesses, want.accesses);
  EXPECT_EQ(g.hits, want.hits);
  EXPECT_EQ(g.transfers, want.transfers);
  EXPECT_EQ(g.cross_socket_transfers, want.cross_socket_transfers);
  EXPECT_EQ(g.invalidations, want.invalidations);
  EXPECT_EQ(g.memory_fills, want.memory_fills);
  for (LineId line : lines) {
    CoherenceModel::LineStats s = model.StatsFor(line);
    CoherenceModel::LineStats w = ref.StatsFor(line);
    EXPECT_EQ(s.accesses, w.accesses) << line;
    EXPECT_EQ(s.hits, w.hits) << line;
    EXPECT_EQ(s.transfers, w.transfers) << line;
    EXPECT_EQ(s.cross_socket_transfers, w.cross_socket_transfers) << line;
    EXPECT_EQ(s.invalidations, w.invalidations) << line;
  }
}

TEST(CoherenceDifferentialTest, DefaultTopologyMatchesSharerList) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ExpectMatchesSharerList(Topology{}, seed);
  }
}

TEST(CoherenceDifferentialTest, EightSocketMatchesSharerList) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ExpectMatchesSharerList(Topology::EightSocket(), seed);
  }
}

// 6,000 data lines take the data-line table from 64 slots to 16,384 (eight
// growths); ~10 accesses a line, and ~1% of steps evict a line that later
// steps touch again.
TEST(CoherenceDifferentialTest, ThousandsOfDataLinesMatchSharerList) {
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    ExpectMatchesSharerList(Topology{}, seed, /*data_lines=*/6000, /*steps=*/60000);
  }
}

}  // namespace
}  // namespace tlbsim
