// Rng: determinism, ranges, jitter bounds, fork independence; the in-tree
// MT19937-64 against std::mt19937_64.
#include "src/sim/rng.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <type_traits>

namespace tlbsim {
namespace {

static_assert(std::is_same_v<Mt19937_64::result_type, std::mt19937_64::result_type>);
static_assert(Mt19937_64::min() == std::mt19937_64::min());
static_assert(Mt19937_64::max() == std::mt19937_64::max());

constexpr uint64_t kEquivalenceSeeds[] = {0, 1, 42, ~0ULL};

TEST(Mt19937_64Test, RawDrawsEqualStdEngine) {
  for (uint64_t seed : kEquivalenceSeeds) {
    Mt19937_64 mine(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 1'000'000; ++i) {
      ASSERT_EQ(mine(), ref()) << "seed " << seed << " draw " << i;
    }
  }
}

// Rng::Fork seeds each child from one parent draw; ten generations deep,
// every stream matches the same chain built on std::mt19937_64.
TEST(Mt19937_64Test, ForkChainEqualsStdEngine) {
  for (uint64_t seed : kEquivalenceSeeds) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int gen = 0; gen < 10; ++gen) {
      for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(rng.UniformU64(), ref()) << "seed " << seed << " generation " << gen;
      }
      rng = rng.Fork();
      ref = std::mt19937_64(ref() ^ 0x9e3779b97f4a7c15ULL);
    }
  }
}

// The standard distributions draw the same values from either engine, so
// every simulated quantity drawn through Rng is unchanged.
TEST(Mt19937_64Test, DistributionsEqualStdEngine) {
  for (uint64_t seed : kEquivalenceSeeds) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 100'000; ++i) {
      const int64_t hi = 1 + i % 977;
      ASSERT_EQ(rng.UniformInt(-3, hi), std::uniform_int_distribution<int64_t>(-3, hi)(ref));
      ASSERT_EQ(rng.UniformInt(INT64_MIN, INT64_MAX),
                std::uniform_int_distribution<int64_t>(INT64_MIN, INT64_MAX)(ref));
      ASSERT_EQ(rng.UniformReal(0.25, 8.0),
                std::uniform_real_distribution<double>(0.25, 8.0)(ref));
      const double f = std::uniform_real_distribution<double>(0.9, 1.1)(ref);
      ASSERT_EQ(rng.Jitter(1000 + i, 0.1), static_cast<Cycles>(static_cast<double>(1000 + i) * f));
    }
  }
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformU64(), b.UniformU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformU64() == b.UniformU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.UniformInt(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng r(7);
  EXPECT_EQ(r.UniformInt(5, 5), 5);
}

TEST(RngTest, JitterWithinFraction) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    Cycles v = r.Jitter(1000, 0.05);
    EXPECT_GE(v, 949);   // floor(1000*0.95) with rounding slack
    EXPECT_LE(v, 1050);
  }
}

TEST(RngTest, JitterZeroFracIsIdentity) {
  Rng r(11);
  EXPECT_EQ(r.Jitter(1234, 0.0), 1234);
  EXPECT_EQ(r.Jitter(0, 0.5), 0);
}

TEST(RngTest, JitterNeverNegative) {
  Rng r(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(r.Jitter(1, 0.99), 0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng r(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.Chance(0.0));
    EXPECT_TRUE(r.Chance(1.0));
  }
}

TEST(RngTest, ChanceRoughlyCalibrated) {
  Rng r(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += r.Chance(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits, 3000, 200);
}

TEST(RngTest, ForkedStreamsAreIndependentButDeterministic) {
  Rng a(42);
  Rng b(42);
  Rng fa = a.Fork();
  Rng fb = b.Fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(fa.UniformU64(), fb.UniformU64());
  }
  // Parent and fork produce different streams.
  Rng p(42);
  Rng f = p.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (p.UniformU64() == f.UniformU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

}  // namespace
}  // namespace tlbsim
