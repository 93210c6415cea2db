// FramePool: size-bucketed free lists for coroutine frames.
//
// Every simulated kernel function is a Co<> coroutine, so a single syscall
// allocates and frees a handful of frames; under a shootdown storm that is
// millions of round trips through the global allocator. Frames cluster into
// a few dozen distinct sizes per build, so recycling freed frames by size
// bucket turns steady-state frame allocation into a pointer pop.
//
// Buckets are kGranule-wide up to kMaxBucketed bytes; larger frames (rare:
// only coroutines with huge local state) fall through to the global
// allocator. Pools are thread_local — the simulator is single-threaded, and
// this keeps the pool lock-free without assuming it. Pooled memory is
// retained for the life of the thread and freed when the thread exits (sweep
// worker threads come and go; their buckets would otherwise leak).
#ifndef TLBSIM_SRC_SIM_FRAME_POOL_H_
#define TLBSIM_SRC_SIM_FRAME_POOL_H_

#include <cstddef>
#include <cstdint>
#include <new>

namespace tlbsim {

class FramePool {
 public:
  struct Stats {
    uint64_t pool_hits;        // allocations served from a free list
    uint64_t pool_misses;      // bucketed allocations that hit the heap
    uint64_t fallback_allocs;  // frames too large for any bucket
  };

  static void* Alloc(std::size_t n) {
    std::size_t b = Bucket(n);
    if (b >= kBuckets) {
      ++stats_.fallback_allocs;
      return ::operator new(n);
    }
    if (Node* node = buckets_[b]) {
      buckets_[b] = node->next;
      ++stats_.pool_hits;
      return node;
    }
    ++stats_.pool_misses;
    // Every pooled frame starts as a miss, so the first miss is where a
    // thread arms its exit-time release (once: block-scope thread_local).
    static thread_local ThreadExit release_at_exit;
    (void)release_at_exit;
    return ::operator new((b + 1) * kGranule);
  }

  static void Free(void* p, std::size_t n) noexcept {
    std::size_t b = Bucket(n);
    if (b >= kBuckets) {
      ::operator delete(p, n);
      return;
    }
    Node* node = static_cast<Node*>(p);
    node->next = buckets_[b];
    buckets_[b] = node;
  }

  static const Stats& stats() { return stats_; }

 private:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kMaxBucketed = 4096;
  static constexpr std::size_t kBuckets = kMaxBucketed / kGranule;

  struct Node {
    Node* next;
  };

  // Frees the exiting thread's pooled frames.
  struct ThreadExit {
    ThreadExit() = default;
    ThreadExit(const ThreadExit&) = delete;
    ThreadExit& operator=(const ThreadExit&) = delete;
    ~ThreadExit() {
      for (std::size_t b = 0; b < kBuckets; ++b) {
        while (Node* node = buckets_[b]) {
          buckets_[b] = node->next;
          ::operator delete(node, (b + 1) * kGranule);
        }
      }
    }
  };

  static std::size_t Bucket(std::size_t n) {
    return n == 0 ? 0 : (n + kGranule - 1) / kGranule - 1;
  }

  static inline thread_local Node* buckets_[kBuckets] = {};
  static inline thread_local Stats stats_{};
};

// Base class injecting pooled frame allocation into a coroutine promise:
// the compiler looks up operator new/delete on the promise type and uses
// them for the whole frame.
struct PooledFrame {
  static void* operator new(std::size_t n) { return FramePool::Alloc(n); }
  static void operator delete(void* p, std::size_t n) noexcept { FramePool::Free(p, n); }
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_SIM_FRAME_POOL_H_
