#include "src/sim/engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace tlbsim {

Engine::EventId Engine::Schedule(Cycles at, InlineFn fn) {
  uint32_t slot = AllocSlot();
  FnAt(slot) = std::move(fn);
  return Enqueue(at, slot);
}

uint32_t Engine::AllocSlot() {
  uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = pool_size_++;
    if ((slot & (kChunkSize - 1)) == 0) {
      chunks_.push_back(std::make_unique<InlineFn[]>(kChunkSize));
      // The heap, the free list and the lane are bounded by the pool size
      // (every pending event owns a slot; every free-list entry is a slot), so
      // reserving here makes their push_backs allocation-free between pool
      // growths — the steady state performs no allocation at all.
      heap_.reserve(pool_size_ + kChunkSize);
      free_.reserve(pool_size_ + kChunkSize);
      GrowLane(pool_size_ + kChunkSize);  // the lane too (engine.h)
    }
    pos_.push_back(-1);
    gen_.push_back(0);
  }
  assert(slot <= kSlotMask && "too many concurrent events");
  return slot;
}

Engine::EventId Engine::Enqueue(Cycles at, uint32_t slot) {
  assert(at >= now_ && "scheduling into the past");
  if (at == now_) {
    const uint32_t mask = static_cast<uint32_t>(lane_.size()) - 1;
    assert(lane_tail_ - lane_head_ <= mask && "lane ring full");
    lane_[lane_tail_++ & mask] = slot;
    pos_[slot] = kInLane;
    ++lane_live_;
  } else {
    assert(next_seq_ < (uint64_t{1} << (64 - kSlotBits)) && "seq overflow");
    heap_.push_back(HeapItem{at, (next_seq_++ << kSlotBits) | slot});
    SiftUp(heap_.size() - 1);
  }
  return MakeId(gen_[slot], slot);
}

void Engine::GrowLane(size_t min_capacity) {
  if (lane_.size() >= min_capacity) {
    return;
  }
  std::vector<uint32_t> ring(std::bit_ceil(min_capacity));
  const uint32_t mask = static_cast<uint32_t>(lane_.size()) - 1;
  const uint32_t n = lane_tail_ - lane_head_;
  for (uint32_t i = 0; i < n; ++i) {
    ring[i] = lane_[(lane_head_ + i) & mask];
  }
  lane_ = std::move(ring);
  lane_head_ = 0;
  lane_tail_ = n;
}

void Engine::Cancel(EventId id) {
  if (id == kInvalidEvent) {
    return;
  }
  uint32_t slot = static_cast<uint32_t>(id) - 1;
  uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (slot >= pool_size_) {
    return;
  }
  if (gen_[slot] != gen) {
    return;  // already fired or already cancelled
  }
  const int32_t pos = pos_[slot];
  if (pos >= 0) {
    RemoveAt(static_cast<size_t>(pos));
    return;
  }
  if (pos != kInLane) {
    return;  // mid-fire: the callback cancelled its own event
  }
  // Drop the callback and invalidate the id now; the slot stays in the ring
  // and is recycled when the lane head passes it.
  FnAt(slot).Reset();
  pos_[slot] = -1;
  ++gen_[slot];
  if (--lane_live_ == 0) {
    const uint32_t mask = static_cast<uint32_t>(lane_.size()) - 1;
    for (; lane_head_ != lane_tail_; ++lane_head_) {
      free_.push_back(lane_[lane_head_ & mask]);
    }
  }
}

void Engine::Spawn(Cycles at, SimTask task) {
  auto handle = task.Release();
  // Root tasks may be spawned after the engine has already run (test
  // harnesses spawn successive programs at t=0); start them no earlier
  // than now rather than tripping the causality assert in Schedule.
  Schedule(std::max(at, now()), [handle] { handle.resume(); });
}

void Engine::SiftUp(size_t i) {
  HeapItem item = heap_[i];
  while (i > 0) {
    size_t parent = (i - 1) / 4;
    if (!Before(item, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    pos_[SlotOf(heap_[i])] = static_cast<int32_t>(i);
    i = parent;
  }
  heap_[i] = item;
  pos_[SlotOf(item)] = static_cast<int32_t>(i);
}

void Engine::SiftDown(size_t i) {
  HeapItem* h = heap_.data();
  int32_t* pos = pos_.data();
  const size_t n = heap_.size();
  HeapItem item = h[i];
  const unsigned __int128 item_key = KeyOf(item);
  for (;;) {
    size_t first = 4 * i + 1;
    if (first >= n) {
      break;
    }
    // Branchless min-of-children: ternary selects compile to cmovs, which
    // matters because child ordering is unpredictable (see KeyOf).
    size_t best = first;
    unsigned __int128 best_key = KeyOf(h[first]);
    size_t last = std::min(first + 4, n);
    for (size_t c = first + 1; c < last; ++c) {
      unsigned __int128 k = KeyOf(h[c]);
      bool lt = k < best_key;
      best = lt ? c : best;
      best_key = lt ? k : best_key;
    }
    if (best_key >= item_key) {
      break;
    }
    h[i] = h[best];
    pos[SlotOf(h[i])] = static_cast<int32_t>(i);
    i = best;
  }
  h[i] = item;
  pos[SlotOf(item)] = static_cast<int32_t>(i);
}

void Engine::FreeSlot(uint32_t slot) {
  FnAt(slot).Reset();
  pos_[slot] = -1;
  ++gen_[slot];  // invalidate any EventId still referring to this slot
  free_.push_back(slot);
}

void Engine::RemoveAt(size_t i) {
  FreeSlot(SlotOf(heap_[i]));
  HeapItem last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) {
    return;
  }
  heap_[i] = last;
  pos_[SlotOf(last)] = static_cast<int32_t>(i);
  SiftUp(i);
  SiftDown(static_cast<size_t>(pos_[SlotOf(last)]));
}

uint32_t Engine::PopHeap() {
  uint32_t slot = SlotOf(heap_[0]);
  now_ = heap_[0].at;
  // pos == -1 makes a self-Cancel during the callback a no-op (the event is
  // no longer pending).
  pos_[slot] = -1;
  HeapItem last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    pos_[SlotOf(last)] = 0;
    SiftDown(0);
  }
  return slot;
}

uint32_t Engine::PopLane() {
  const uint32_t mask = static_cast<uint32_t>(lane_.size()) - 1;
  for (;;) {
    uint32_t slot = lane_[lane_head_++ & mask];
    if (pos_[slot] == kInLane) {
      pos_[slot] = -1;
      --lane_live_;
      return slot;
    }
    free_.push_back(slot);  // cancelled while queued
  }
}

void Engine::Step() {
  // Heap events due now were scheduled before the clock got here, so they
  // precede the lane; the lane drains before the heap moves the clock.
  bool from_lane = lane_live_ != 0 && (heap_.empty() || heap_[0].at != now_);
  uint32_t slot = from_lane ? PopLane() : PopHeap();
  ++events_processed_;
  // The slot is freed only after the callback: it runs in place from its
  // stable chunk storage, so the slot must not be handed out to events it
  // schedules.
  FnAt(slot)();
  FreeSlot(slot);
}

Cycles Engine::Run() {
  while (!empty()) {
    Step();
  }
  return now_;
}

bool Engine::RunUntil(Cycles deadline) {
  while (!empty() && NextAt() <= deadline) {
    Step();
  }
  if (empty()) {
    return true;
  }
  now_ = std::max(now_, deadline);
  return false;
}

}  // namespace tlbsim
