// SocketMask: mm_cpumask partitioned into per-socket words.
//
// The flat std::bitset cpumask had two scaling problems on the big-machine
// presets (224 cpus):
//   - target computation scanned every cpu id (O(num_cpus) per shootdown,
//     even for a 2-thread process);
//   - all sockets' bits shared the same words, so per-socket protocol shards
//     could not touch the mask concurrently without racing.
// SocketMask gives each socket its own 64-bit word plus a summary bitmap of
// non-empty sockets. set()/reset() touch exactly one socket word (the
// "sharded-or on send / sharded-and-clear on ack" layout: two shards
// operating on mms homed on different sockets write disjoint memory), and
// iteration walks only non-empty words with ctz, so the cost of computing
// shootdown targets follows the process's footprint, not the machine size.
//
// The shape (cpus per socket) is fixed at construction. The default shape
// (64) degrades to plain word-sharding, which is semantically identical for
// every operation — only OnlySocket() needs the kernel to install the real
// topology shape (Kernel::CreateProcess does).
#ifndef TLBSIM_SRC_KERNEL_CPUMASK_H_
#define TLBSIM_SRC_KERNEL_CPUMASK_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>

namespace tlbsim {

// Upper bound on simulated CPUs (sizes mm_cpumask and the checker's vector
// clocks). 256 covers the 8-socket/224-cpu big-machine preset; cpumask walks
// iterate only non-empty socket words, so small topologies pay nothing.
inline constexpr int kMaxCpus = 256;

// A list of at most kMaxCpus cpu ids with inline storage: shootdown target
// lists live in the initiator's coroutine frame instead of a fresh heap
// vector per shootdown.
class CpuList {
 public:
  void push_back(int cpu) {
    assert(size_ < static_cast<size_t>(kMaxCpus));
    ids_[size_++] = cpu;
  }
  void clear() { size_ = 0; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int front() const { return ids_[0]; }
  const int* begin() const { return ids_; }
  const int* end() const { return ids_ + size_; }
  operator std::span<const int>() const { return {ids_, size_}; }  // NOLINT(google-explicit-constructor)

 private:
  int ids_[kMaxCpus] = {};
  size_t size_ = 0;
};

class SocketMask {
 public:
  // Sockets with more than 64 logical cpus would need multi-word slices; the
  // paper-shaped presets top out at 28.
  static constexpr int kMaxWords = 16;

  explicit SocketMask(int cpus_per_socket = 64)
      : cpus_per_socket_(cpus_per_socket) {
    assert(cpus_per_socket >= 1 && cpus_per_socket <= 64);
  }

  int cpus_per_socket() const { return cpus_per_socket_; }

  // tlblint: shard-local — or-in runs inside the owning mm's shard window
  void set(size_t cpu) {
    size_t w = cpu / static_cast<size_t>(cpus_per_socket_);
    assert(w < kMaxWords);
    words_[w] |= 1ULL << (cpu % static_cast<size_t>(cpus_per_socket_));
    summary_ |= 1u << w;
  }

  // tlblint: shard-local — and-clear runs inside the acking cpu's shard window
  void reset(size_t cpu) {
    size_t w = cpu / static_cast<size_t>(cpus_per_socket_);
    assert(w < kMaxWords);
    words_[w] &= ~(1ULL << (cpu % static_cast<size_t>(cpus_per_socket_)));
    if (words_[w] == 0) {
      summary_ &= ~(1u << w);
    }
  }

  // tlblint: shard-local
  bool test(size_t cpu) const {
    size_t w = cpu / static_cast<size_t>(cpus_per_socket_);
    assert(w < kMaxWords);
    return (words_[w] >> (cpu % static_cast<size_t>(cpus_per_socket_))) & 1;
  }

  // tlblint: shard-local
  size_t count() const {
    size_t n = 0;
    for (uint32_t s = summary_; s != 0; s &= s - 1) {
      n += static_cast<size_t>(__builtin_popcountll(words_[__builtin_ctz(s)]));
    }
    return n;
  }

  bool any() const { return summary_ != 0; }    // tlblint: shard-local
  bool none() const { return summary_ == 0; }   // tlblint: shard-local

  // The socket word holding `cpu`'s bit (observability / tests).
  uint64_t SocketWord(int socket) const {  // tlblint: setup — tests/snapshots only
    assert(socket >= 0 && socket < kMaxWords);
    return words_[socket];
  }

  // If every set bit lives in one socket word, that socket; else -1 (also -1
  // when empty). Meaningful as a *socket* only under the kernel-installed
  // topology shape; protocol sharding keys off this to decide whether a
  // shootdown is socket-confined.
  // tlblint: shard-local — sharding decision made by the initiating window
  int OnlySocket() const {
    if (summary_ == 0 || (summary_ & (summary_ - 1)) != 0) {
      return -1;
    }
    return __builtin_ctz(summary_);
  }

  // Calls fn(cpu) for every set bit in ascending cpu order — the same order
  // the flat scan produced, so target lists (and therefore every downstream
  // event sequence) are unchanged.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {  // tlblint: shard-local
    for (uint32_t s = summary_; s != 0; s &= s - 1) {
      int w = __builtin_ctz(s);
      uint64_t bits = words_[w];
      int base = w * cpus_per_socket_;
      while (bits != 0) {
        fn(base + __builtin_ctzll(bits));
        bits &= bits - 1;
      }
    }
  }

 private:
  uint64_t words_[kMaxWords] = {};  // tlblint: banked(socket)
  uint32_t summary_ = 0;            // tlblint: banked(socket) bit per non-empty socket word
  int cpus_per_socket_;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_KERNEL_CPUMASK_H_
