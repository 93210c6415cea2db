#include "src/mm/phys.h"

#include <cassert>
#include <cstddef>

namespace tlbsim {

void FrameAllocator::FreeBucket::Set(uint32_t i) {
  size_t w = i >> 6;
  if (w >= words.size()) {
    words.resize(w + 1, 0);
  }
  words[w] |= 1ULL << (i & 63);
  if (w < first_word) {
    first_word = w;
  }
  ++live;
}

void FrameAllocator::FreeBucket::Clear(uint32_t i) {
  assert((words[i >> 6] >> (i & 63)) & 1);
  words[i >> 6] &= ~(1ULL << (i & 63));
  --live;
}

uint32_t FrameAllocator::FreeBucket::Lowest() {
  assert(live > 0);
  while (words[first_word] == 0) {
    ++first_word;
  }
  return static_cast<uint32_t>(first_word * 64 + __builtin_ctzll(words[first_word]));
}

void FrameAllocator::ConfigureNuma(int nodes, NumaPlacement placement) {
  assert(nodes >= 1);
  assert(total_allocs_ == 0 && "ConfigureNuma after first allocation");
  placement_ = placement;
  node_next_.assign(static_cast<size_t>(nodes), 0);
  node_allocs_.assign(static_cast<size_t>(nodes), 0);
  frames_.assign(static_cast<size_t>(nodes), {});
  for (int n = 0; n < nodes; ++n) {
    node_next_[static_cast<size_t>(n)] = NodeBase(n);
  }
}

const FrameAllocator::Frame* FrameAllocator::FrameAt(uint64_t pfn) const {
  int node = NodeOf(pfn);
  uint64_t base = NodeBase(node);
  const std::vector<Frame>& recs = frames_[static_cast<size_t>(node)];
  if (pfn < base || pfn - base >= recs.size()) {
    return nullptr;
  }
  return &recs[pfn - base];
}

FrameAllocator::Frame* FrameAllocator::Resolve(uint64_t pfn) {
  Frame* f = FrameAt(pfn);
  if (f == nullptr) {
    return nullptr;
  }
  f -= f->back;
  return f->refs > 0 ? f : nullptr;
}

FrameAllocator::FreeBucket& FrameAllocator::BucketFor(int node, uint64_t count) {
  for (FreeBucket& b : buckets_) {
    if (b.node == node && b.count == count) {
      return b;
    }
  }
  buckets_.push_back(FreeBucket{node, count, {}, 0, 0});
  return buckets_.back();
}

void FrameAllocator::PushFree(uint64_t pfn, Frame& head) {
  auto idx = static_cast<uint32_t>(free_.size());
  free_.emplace_back(pfn, head.count);
  head.free_idx = idx;
  BucketFor(NodeOf(pfn), head.count).Set(idx);
}

void FrameAllocator::TakeFreeAt(uint32_t idx) {
  // Both entries below are free, so their buckets exist: no lookup here adds
  // a bucket.
  auto [pfn, count] = free_[idx];
  BucketFor(NodeOf(pfn), count).Clear(idx);
  auto last = static_cast<uint32_t>(free_.size() - 1);
  if (idx != last) {
    // Legacy swap-with-back removal: the moved entry's index changes.
    auto [mpfn, mcount] = free_[last];
    FreeBucket& moved = BucketFor(NodeOf(mpfn), mcount);
    moved.Clear(last);
    moved.Set(idx);
    free_[idx] = free_[last];
    FrameAt(mpfn)->free_idx = idx;
  }
  free_.pop_back();
}

uint64_t FrameAllocator::AllocOn(int node_hint, uint64_t count) {
  assert(count >= 1 && count <= UINT32_MAX);
  ++total_allocs_;
  int node = 0;
  if (nodes() > 1) {
    switch (placement_) {
      case NumaPlacement::kLocal:
      case NumaPlacement::kFirstTouch:
        node = node_hint;
        break;
      case NumaPlacement::kInterleave:
        node = static_cast<int>(interleave_next_++ % static_cast<uint64_t>(nodes()));
        break;
    }
    assert(node >= 0 && node < nodes());
  }
  ++node_allocs_[static_cast<size_t>(node)];
  allocated_frames_ += count;
  // Lowest free-list index with a matching (node, count) — the entry the old
  // linear scan would have found first.
  FreeBucket& bucket = BucketFor(node, count);
  if (bucket.live > 0) {
    uint32_t idx = bucket.Lowest();
    uint64_t pfn = free_[idx].first;
    TakeFreeAt(idx);
    FrameAt(pfn)->refs = 1;
    if (reuse_observer_) {
      reuse_observer_(pfn);
    }
    return pfn;
  }
  // Carve a fresh block at the bump pointer.
  uint64_t pfn = node_next_[static_cast<size_t>(node)];
  node_next_[static_cast<size_t>(node)] += count;
  assert(nodes() == 1 || node_next_[static_cast<size_t>(node)] <= NodeBase(node) + kNodeSpan);
  std::vector<Frame>& recs = frames_[static_cast<size_t>(node)];
  size_t head = recs.size();  // == pfn - NodeBase(node)
  recs.resize(head + count);
  recs[head].count = static_cast<uint32_t>(count);
  recs[head].refs = 1;
  for (uint64_t i = 1; i < count; ++i) {
    recs[head + i].back = static_cast<uint32_t>(i);
  }
  return pfn;
}

bool FrameAllocator::TryAllocSpecific(uint64_t pfn) {
  Frame* f = FrameAt(pfn);
  if (f == nullptr || f->back != 0 || f->count != 1 || f->refs != 0) {
    return false;  // never carved, interior, multi-frame or allocated
  }
  ++total_allocs_;
  ++node_allocs_[static_cast<size_t>(NodeOf(pfn))];
  ++allocated_frames_;
  TakeFreeAt(f->free_idx);
  f->refs = 1;
  return true;
}

void FrameAllocator::Ref(uint64_t pfn) {
  Frame* head = Resolve(pfn);
  assert(head != nullptr && "Ref of unallocated frame");
  if (head == nullptr) {
    return;  // Release-mode: reject instead of reviving a free block
  }
  ++head->refs;
}

uint64_t FrameAllocator::Unref(uint64_t pfn) {
  Frame* head = Resolve(pfn);
  assert(head != nullptr && "Unref of unallocated frame");
  if (head == nullptr) {
    return 0;
  }
  if (--head->refs > 0) {
    return head->refs;
  }
  allocated_frames_ -= head->count;
  PushFree(pfn - FrameAt(pfn)->back, *head);
  return 0;
}

uint64_t FrameAllocator::RefCount(uint64_t pfn) const {
  const Frame* f = FrameAt(pfn);
  return f == nullptr ? 0 : (f - f->back)->refs;
}

int FrameAllocator::NodeOf(uint64_t pfn) const {
  if (nodes() == 1 || pfn < first_pfn_) {
    return 0;
  }
  auto node = static_cast<int>((pfn - first_pfn_) / kNodeSpan);
  return node < nodes() ? node : nodes() - 1;
}

}  // namespace tlbsim
