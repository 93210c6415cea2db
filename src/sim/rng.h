// Deterministic random number utilities for the simulation.
//
// Every experiment derives all randomness from one seed so runs are exactly
// reproducible; the paper's 5-run mean/stddev methodology maps to 5 seeds.
#ifndef TLBSIM_SRC_SIM_RNG_H_
#define TLBSIM_SRC_SIM_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>

#include "src/sim/time.h"

namespace tlbsim {

// MT19937-64, bit-identical to std::mt19937_64: same seeding, refill,
// tempering, result_type, min and max, so the standard distributions draw
// the same values from it. The refill selects the twist constant with a
// mask instead of libstdc++'s data-dependent branch, which mispredicts on
// about half of the state words.
class Mt19937_64 {
 public:
  using result_type = std::mt19937_64::result_type;

  explicit Mt19937_64(result_type seed) {
    x_[0] = seed;
    for (size_t i = 1; i < kN; ++i) {
      x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  result_type operator()() {
    if (p_ >= kN) {
      Refill();
    }
    result_type z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr size_t kN = 312;
  static constexpr size_t kM = 156;
  static constexpr result_type kMatrixA = 0xB5026F5AA96619E9ULL;
  static constexpr result_type kUpper = ~result_type{0} << 31;

  // Word k's successor: `far` (the word kM ahead, mod kN) xor the twisted
  // concatenation of word k's upper bits and word k+1's lower bits.
  static result_type Twist(result_type far, result_type cur, result_type next) {
    result_type y = (cur & kUpper) | (next & ~kUpper);
    return far ^ (y >> 1) ^ (-(y & 1) & kMatrixA);
  }

  // Regenerates all kN state words. Out of line (rng.cc), as libstdc++'s
  // refill is: inlined, it would be copied into every draw's call site.
  void Refill();

  std::array<result_type, kN> x_;
  size_t p_ = kN;
};

class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}

  // Uniform integer in [lo, hi].
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(gen_);
  }

  uint64_t UniformU64() { return gen_(); }

  double UniformReal(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(gen_);
  }

  // Multiplies `base` by a uniform factor in [1-frac, 1+frac]; models the
  // cycle-level jitter of real hardware (frequency ramps, bus arbitration).
  Cycles Jitter(Cycles base, double frac) {
    if (frac <= 0.0 || base == 0) {
      return base;
    }
    double f = UniformReal(1.0 - frac, 1.0 + frac);
    auto v = static_cast<Cycles>(static_cast<double>(base) * f);
    return v < 0 ? 0 : v;
  }

  // Bernoulli draw.
  bool Chance(double p) { return UniformReal(0.0, 1.0) < p; }

  // Derives an independent child stream (e.g. one per simulated CPU).
  Rng Fork() { return Rng(gen_() ^ 0x9e3779b97f4a7c15ULL); }

 private:
  Mt19937_64 gen_;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_SIM_RNG_H_
