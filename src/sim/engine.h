// Discrete-event simulation engine: one serial global timeline.
//
// The engine owns an event queue ordered by virtual time (Cycles) with FIFO
// tie-breaking for determinism. Simulated CPUs keep *local* clocks that may
// run ahead of the engine clock within one uninterrupted computation (e.g.
// accounting cacheline-access costs without yielding); every cross-entity
// interaction is mediated by an event scheduled at the acting CPU's local
// time, which is always >= the engine clock, so causality holds.
//
// Hot-path design (the simulator's throughput ceiling lives here):
//   - Callbacks are InlineFn, not std::function: small captures are stored
//     inline in the event node, so Schedule() performs no heap allocation.
//   - Event nodes live in a slab pool with a free list; EventIds encode
//     (slot, generation), so a stale id — cancelled late, or belonging to an
//     event that already fired — simply fails the generation check. There is
//     no side table of cancelled ids to probe or leak.
//   - The queue is an *indexed* 4-ary heap: each node remembers its heap
//     position, so Cancel() removes the entry in O(log n) directly instead of
//     lazily skipping it at pop time. Heap entries carry (at, seq) inline, so
//     sift comparisons never chase into the pool.
//   - Events scheduled for the current cycle (delay 0: IRQ-task starts,
//     delivery kicks, wake-ups) bypass the heap through a FIFO *lane*. A heap
//     event due at now() was necessarily scheduled before the clock reached
//     now(), so it precedes every lane event in (at, seq) order: the lane
//     runs after the heap's events due this cycle and drains before the
//     clock moves. The firing order is exactly the heap-only engine's.
//
// One simulation runs on one host thread. Host parallelism lives above the
// engine, in the sweep executor (src/exec/sweep.h), which runs independent
// simulations side by side.
#ifndef TLBSIM_SRC_SIM_ENGINE_H_
#define TLBSIM_SRC_SIM_ENGINE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/inline_fn.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace tlbsim {

class Engine {
 public:
  using EventId = uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Schedules `fn` to run at virtual time `at` (>= now()).
  EventId Schedule(Cycles at, InlineFn fn);

  // Hot-path overload for callables: constructs the callback directly in its
  // pool slot (no InlineFn temporary, no buffer relocation).
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFn>>>
  EventId Schedule(Cycles at, F&& f) {
    uint32_t slot = AllocSlot();
    FnAt(slot).Emplace(std::forward<F>(f));
    return Enqueue(at, slot);
  }

  // Convenience: schedule relative to now().
  EventId ScheduleAfter(Cycles delay, InlineFn fn) {
    return Schedule(now() + delay, std::move(fn));
  }

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFn>>>
  EventId ScheduleAfter(Cycles delay, F&& f) {
    return Schedule(now() + delay, std::forward<F>(f));
  }

  // Cancels a pending event (O(log n) in the heap, O(1) in the lane).
  // Cancelling kInvalidEvent, an already-fired id, or an already-cancelled id
  // is a no-op.
  void Cancel(EventId id);

  // Starts a detached root task at time `at`.
  void Spawn(Cycles at, SimTask task);

  // Runs events until the queue is empty. Returns the final virtual time.
  Cycles Run();

  // Runs events with time <= `deadline` (inclusive: an event scheduled
  // exactly at `deadline` fires), then advances the clock to `deadline`
  // unless the queue drained or the deadline is already past: the clock
  // never moves backwards. Returns true if the queue drained.
  bool RunUntil(Cycles deadline);

  Cycles now() const { return now_; }

  uint64_t events_processed() const { return events_processed_; }

  // True when no live events remain. O(1): cancelled heap events are removed
  // eagerly and the lane counts its live entries.
  bool empty() const { return size() == 0; }

  // Number of pending events.
  size_t size() const { return heap_.size() + lane_live_; }

 private:
  // Heap entry, 16 bytes: the ordering key inline (no pool chase during
  // sifts) plus the owning pool slot packed into the low bits of the
  // tie-break word. seq is monotone and unique, so the slot bits never
  // influence ordering; 2^40 events and 2^24 concurrent events are both far
  // beyond any simulation this engine drives (asserted in Enqueue).
  struct HeapItem {
    Cycles at;
    uint64_t seq_slot;  // seq << kSlotBits | slot
  };
  static constexpr int kSlotBits = 24;
  static constexpr uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr uint32_t kChunkShift = 6;  // 64 callables (~3.5KB) per chunk
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;

  // Packed (at, seq) ordering key. A single 128-bit compare lets the sift
  // loops select the min child with conditional moves instead of
  // data-dependent branches — event keys are effectively random, so branchy
  // comparisons mispredict ~50% and dominated the pop path. `at` is
  // non-negative (engine invariant), so the unsigned cast preserves order.
  static unsigned __int128 KeyOf(const HeapItem& x) {
    return (static_cast<unsigned __int128>(static_cast<uint64_t>(x.at)) << 64) | x.seq_slot;
  }
  static bool Before(const HeapItem& a, const HeapItem& b) { return KeyOf(a) < KeyOf(b); }
  static uint32_t SlotOf(const HeapItem& x) {
    return static_cast<uint32_t>(x.seq_slot) & kSlotMask;
  }
  // EventId layout: [gen:32][slot+1:32]; 0 is never a valid id.
  static EventId MakeId(uint32_t gen, uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | (static_cast<EventId>(slot) + 1);
  }

  InlineFn& FnAt(uint32_t slot) { return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)]; }

  // Slot allocation and heap insertion, shared by the Schedule overloads.
  // The callable is filled into FnAt(slot) between the two calls.
  uint32_t AllocSlot();
  EventId Enqueue(Cycles at, uint32_t slot);

  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void FreeSlot(uint32_t slot);
  void RemoveAt(size_t i);

  // Time of the next event. Precondition: !empty(). A live lane entry is
  // due now, and so is any heap event that precedes it.
  Cycles NextAt() const { return lane_live_ != 0 ? now_ : heap_[0].at; }
  // Unlink the next event of the heap (advancing the clock to it) or of the
  // lane, returning its slot, which stays allocated while the callback runs.
  uint32_t PopHeap();
  uint32_t PopLane();
  // Resizes the lane ring to a power of two >= `min_capacity`, keeping its
  // entries in order.
  void GrowLane(size_t min_capacity);

  // Pops and runs the next event. Precondition: !empty().
  void Step();

  // pos_ marker for a slot queued in the lane.
  static constexpr int32_t kInLane = -2;

  std::vector<HeapItem> heap_;  // 4-ary min-heap by (at, seq)
  // Same-cycle lane: a ring of slots in FIFO order, indexed by free-running
  // head/tail counters masked by the (power-of-two) ring size. A cancelled
  // entry stays in the ring, its slot withheld from free_ until the head
  // passes it, so each ring entry holds a distinct slot and the ring never
  // needs more room than the pool has slots.
  std::vector<uint32_t> lane_;
  uint32_t lane_head_ = 0;
  uint32_t lane_tail_ = 0;
  uint32_t lane_live_ = 0;  // entries not cancelled
  // Callbacks, slot-indexed, in fixed-size chunks: addresses are stable
  // across pool growth, so Step() runs a callback directly from its slot (no
  // copy out) even if the callback schedules new events. The sift-path
  // bookkeeping lives in flat dense arrays instead, keeping heap maintenance
  // free of chunk chasing:
  std::vector<std::unique_ptr<InlineFn[]>> chunks_;
  std::vector<int32_t> pos_;   // slot -> heap index; kInLane; -1: free, fired or cancelled
  std::vector<uint32_t> gen_;  // slot -> generation; stale ids fail this
  uint32_t pool_size_ = 0;     // slots handed out so far
  std::vector<uint32_t> free_;  // recycled pool slots (LIFO)
  Cycles now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_SIM_ENGINE_H_
