// CpuBits: a set of simulated CPUs, one bit each, over kMaxCpus bits.
//
// The one CPU-set type in the tree: the coherence directory's line holders
// and the kernel's mm_cpumask are both CpuBits. Iteration visits set bits in
// ascending cpu order, which fixes shootdown target order and therefore every
// downstream event sequence.
#ifndef TLBSIM_SRC_CACHE_CPU_BITS_H_
#define TLBSIM_SRC_CACHE_CPU_BITS_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace tlbsim {

// Number of set bits in `x`. Without -mpopcnt (the default build) gcc turns
// __builtin_popcountll into a call to libgcc's __popcountdi2; the SWAR count
// stays inline and branch-free.
inline int PopCount64(uint64_t x) {
#ifdef __POPCNT__
  return __builtin_popcountll(x);
#else
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
#endif
}

// Upper bound on simulated CPUs (sizes CPU sets). 256 covers the
// 8-socket/224-cpu preset.
inline constexpr int kMaxCpus = 256;

struct CpuBits {
  static constexpr int kWords = kMaxCpus / 64;
  std::array<uint64_t, kWords> w{};

  void set(size_t cpu) {
    assert(cpu < static_cast<size_t>(kMaxCpus));
    w[cpu >> 6] |= 1ULL << (cpu & 63);
  }
  void reset(size_t cpu) {
    assert(cpu < static_cast<size_t>(kMaxCpus));
    w[cpu >> 6] &= ~(1ULL << (cpu & 63));
  }
  bool test(size_t cpu) const {
    assert(cpu < static_cast<size_t>(kMaxCpus));
    return (w[cpu >> 6] >> (cpu & 63)) & 1;
  }

  size_t count() const {
    size_t n = 0;
    for (uint64_t word : w) {
      n += static_cast<size_t>(PopCount64(word));
    }
    return n;
  }

  // Calls fn(cpu) for every set bit in ascending cpu order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (int i = 0; i < kWords; ++i) {
      for (uint64_t bits = w[static_cast<size_t>(i)]; bits != 0; bits &= bits - 1) {
        fn(i * 64 + __builtin_ctzll(bits));
      }
    }
  }
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_CACHE_CPU_BITS_H_
