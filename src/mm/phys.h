// Physical frame allocator with reference counting (for CoW sharing).
//
// Frames carry no data; the simulator only needs identity + refcounts.
//
// Every frame the bump pointer has carved has a dense record, indexed by its
// offset in its node's pfn range. A block's head record holds the refcount
// and the frame count; each interior record holds its distance back to the
// head, so Ref/Unref/RefCount/IsAllocated resolve interior pfns of a
// multi-frame (huge-page) block in O(1). A block keeps its layout once
// carved: the free list only hands it back out at its own (node, size).
//
// NUMA (src/mm/numa.h): after ConfigureNuma(n > 1), each node owns a disjoint
// pfn range and AllocOn places allocations per the configured policy. The
// default single-node setup hands out exactly the legacy pfn sequence.
#ifndef TLBSIM_SRC_MM_PHYS_H_
#define TLBSIM_SRC_MM_PHYS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/mm/numa.h"

namespace tlbsim {

class FrameAllocator {
 public:
  // `first_pfn` reserves a low range (e.g. for "kernel image" frames).
  explicit FrameAllocator(uint64_t first_pfn = 0x1000) : first_pfn_(first_pfn) {
    node_next_.push_back(first_pfn);
    frames_.emplace_back();
  }

  // Splits the pfn space into per-node ranges. Must be called before the
  // first allocation (typically by the kernel at construction, from
  // MachineConfig::numa). Idempotent for the default single-node setup.
  void ConfigureNuma(int nodes, NumaPlacement placement);

  // Allocates one frame with refcount 1 on node 0. `count` contiguous frames
  // for huge pages (returns the first pfn; all share the head's refcount).
  uint64_t Alloc(uint64_t count = 1) { return AllocOn(0, count); }

  // Node-aware allocation: `node_hint` is the requesting CPU's node; the
  // placement policy decides the actual node (kInterleave ignores the hint).
  uint64_t AllocOn(int node_hint, uint64_t count = 1);

  // Claims one specific free single-frame allocation (Optimization #7: the
  // fault path asks for the exact frame a reuse record promises, the
  // per-CPU-cache affinity real allocators give such refaults). Returns
  // false when `pfn` is not free as a single frame; on success the frame is
  // allocated with refcount 1. Never fires the reuse observer — the caller
  // IS the reuse consult.
  bool TryAllocSpecific(uint64_t pfn);

  // Increments the sharing count (fork/CoW). Interior pfns of a multi-frame
  // allocation resolve to the head record.
  void Ref(uint64_t pfn);

  // Drops a reference; frees the whole allocation when it reaches zero.
  // Returns the refcount after the drop.
  uint64_t Unref(uint64_t pfn);

  uint64_t RefCount(uint64_t pfn) const;
  bool IsAllocated(uint64_t pfn) const { return RefCount(pfn) > 0; }

  // Memory node holding `pfn` (0 when NUMA-flat).
  int NodeOf(uint64_t pfn) const;

  // Reuse hook (Optimization #7): invoked with the head pfn whenever a
  // previously-freed allocation is handed out again from the free list.
  // Fresh bump-pointer frames never fire it — only recycled ones can carry
  // stale TLB state. Unset (the default) costs nothing on the alloc path.
  void set_reuse_observer(std::function<void(uint64_t)> cb) { reuse_observer_ = std::move(cb); }

  int nodes() const { return static_cast<int>(node_next_.size()); }
  uint64_t allocated_frames() const { return allocated_frames_; }
  uint64_t total_allocs() const { return total_allocs_; }
  uint64_t node_allocs(int node) const { return node_allocs_.at(static_cast<size_t>(node)); }

 private:
  // One carved frame. Only a block's head (back == 0) uses the other fields.
  struct Frame {
    uint32_t back = 0;      // distance to the block's head frame
    uint32_t count = 0;     // frames in the block
    uint32_t refs = 0;      // 0 while the block is free
    uint32_t free_idx = 0;  // the free block's index in free_
  };

  // The free_ indices of every free block of one (node, size), one bit each.
  struct FreeBucket {
    int node;
    uint64_t count;
    std::vector<uint64_t> words;
    size_t first_word = 0;  // no bit is set below this word
    uint32_t live = 0;      // bits set

    void Set(uint32_t i);
    void Clear(uint32_t i);
    uint32_t Lowest();  // precondition: live > 0
  };

  // Per-node pfn span. Generous: the simulator allocates thousands of
  // frames, not millions.
  static constexpr uint64_t kNodeSpan = 1ULL << 24;

  uint64_t NodeBase(int node) const {
    return nodes() == 1 ? first_pfn_ : first_pfn_ + static_cast<uint64_t>(node) * kNodeSpan;
  }

  // Record of `pfn`, or null if no block was ever carved over it.
  const Frame* FrameAt(uint64_t pfn) const;
  Frame* FrameAt(uint64_t pfn) {
    return const_cast<Frame*>(static_cast<const FrameAllocator*>(this)->FrameAt(pfn));
  }
  // Head record of the allocated block covering `pfn`, or null.
  Frame* Resolve(uint64_t pfn);

  FreeBucket& BucketFor(int node, uint64_t count);

  // Free-list maintenance. `free_` keeps the legacy vector (push_back on
  // free, swap-with-back removal) so reuse order is bit-identical to the old
  // linear scan; the buckets index it by (node, count) and each free head
  // records its own index, so Alloc and TryAllocSpecific are O(1).
  void PushFree(uint64_t pfn, Frame& head);
  void TakeFreeAt(uint32_t idx);

  std::vector<std::vector<Frame>> frames_;  // per node, by pfn - NodeBase
  std::function<void(uint64_t)> reuse_observer_;
  std::vector<std::pair<uint64_t, uint64_t>> free_;  // (pfn, count) free list
  std::vector<FreeBucket> buckets_;
  uint64_t first_pfn_;
  std::vector<uint64_t> node_next_;    // bump pointer per node
  std::vector<uint64_t> node_allocs_{0};
  NumaPlacement placement_ = NumaPlacement::kLocal;
  uint64_t interleave_next_ = 0;  // deterministic round-robin cursor
  uint64_t total_allocs_ = 0;
  uint64_t allocated_frames_ = 0;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_MM_PHYS_H_
