// Discrete-event simulation engine: a serial global timeline plus optional
// per-socket event-heap shards synchronized by conservative lookahead.
//
// The engine owns event queues ordered by virtual time (Cycles) with FIFO
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
//
// Sharded mode (ConfigureSharding): queue 0 is the *serial* timeline — every
// plain Schedule() from outside a shard window lands there, exactly as in the
// unsharded engine — and queues 1..S are per-socket shards fed through
// ScheduleOnCpu(). Shards advance in lockstep *windows*: with T the earliest
// pending event anywhere and L the lookahead (the cheapest cross-socket
// interaction in the cost model), every queue may run its events with
// `at < T + L` concurrently on host threads, because no message sent during
// the window can demand delivery before T + L. Cross-shard schedules travel
// through per-(src,dst) SPSC mailboxes drained at the window barrier in fixed
// (dst, src, FIFO) order with receiver-assigned sequence numbers — so results
// are bit-identical for any shard/thread count, provided senders respect the
// lookahead contract: a cross-shard ScheduleOnCpu must target
// `at >= now() + lookahead()`. Contract violators are not wrong, just
// conservative: delivery is clamped forward to the receiver's clock and
// counted in ParallelStats::clamped_deliveries.
//
// Protocol sharding (MachineConfig::shard_protocol): the shootdown protocol
// itself — kernel entry, mm_cpumask scan, coherence directory, APIC delivery
// and ack — can also run on shard queues, provided every protocol-state
// object it touches is confined to one socket. The supporting state is
// banked per socket (SocketMask cpumask words, CoherenceModel banks, per-
// socket stats/histograms in the shootdown backends), so a storm whose mms
// and pages never cross sockets executes the entire IPI send -> remote flush
// -> ack chain inside one shard window with zero cross-shard traffic. Mixed
// workloads keep working: anything non-confined pays cross-shard mailbox
// hops, still bit-identical at any --sim-threads. See docs/ARCHITECTURE.md
// "Sharded protocol state".
#ifndef TLBSIM_SRC_SIM_ENGINE_H_
#define TLBSIM_SRC_SIM_ENGINE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/base/thread_annotations.h"
#include "src/sim/inline_fn.h"
#include "src/sim/mailbox.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace tlbsim {

// Ownership token for one event queue's window: the right to run, mutate
// and read that queue's event state. Zero runtime cost. Exactly one host
// thread holds a given queue's token at any instant — either the thread
// RunWindow() assigned the queue to (the ThreadPool::Drain barrier is the
// hand-off edge), or the coordinator, which owns every queue outside
// parallel phases. Engine functions that touch per-queue state carry
// REQUIRES(q.cap); contexts whose ownership comes from a barrier rather
// than a call chain re-establish it with AssertHeld() plus a comment naming
// the barrier. See docs/CHECKING.md § Static analysis.
class CAPABILITY("engine queue window") WindowCap {
 public:
  void Acquire() const ACQUIRE(this) {}
  void Release() const RELEASE(this) {}
  void AssertHeld() const ASSERT_CAPABILITY(this) {}
};

class Engine {
 public:
  using EventId = uint64_t;
  static constexpr EventId kInvalidEvent = 0;
  // Queue count ceiling (serial queue + shards): bounded by the 7-bit queue
  // fields in EventIds and the uint64 window bookkeeping.
  static constexpr int kMaxQueues = 64;

  // Host-execution hook for parallel windows. Implemented by an adapter over
  // src/exec/thread_pool (see EngineExecutor there); defined as an interface
  // here so the sim layer does not depend on exec. Submit() enqueues a task
  // for any worker; Drain() blocks until all submitted tasks finished and is
  // the window barrier (it must establish happens-before between the tasks
  // and the caller).
  class Executor {
   public:
    virtual ~Executor() = default;
    virtual void Submit(InlineFn task) = 0;
    virtual void Drain() = 0;
  };

  // Sharding layout, fixed before any event is scheduled.
  struct ShardPlan {
    int shards = 1;                  // event shards (<=1: stay unsharded)
    std::vector<int> shard_of_cpu;   // cpu -> shard in [0, shards)
    Cycles lookahead = 1;            // conservative window width, >= 1
    Executor* executor = nullptr;    // borrowed; null runs windows inline
  };

  struct ParallelStats {
    uint64_t windows = 0;               // barrier rounds executed
    uint64_t shard_windows = 0;         // per-shard window activations
    uint64_t parallel_events = 0;       // events fired in shard queues
    uint64_t cross_shard_messages = 0;  // schedules that crossed shards
    uint64_t cross_shard_cancels = 0;   // cancels that crossed shards
    uint64_t horizon_stalls = 0;        // non-empty shard couldn't enter a window
    uint64_t clamped_deliveries = 0;    // contract-violating sends delayed
    uint64_t mailbox_overflows = 0;     // messages that spilled past the ring
    uint64_t mailbox_high_water = 0;    // peak ring occupancy across mailboxes
  };

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Splits the engine into `plan.shards` per-socket queues plus the serial
  // queue. Must be called while the engine is quiescent (no pending events);
  // a serial setup phase may already have run — shards inherit the serial
  // clock. A plan with shards <= 1 leaves the engine in the unsharded
  // (legacy) shape.
  void ConfigureSharding(ShardPlan plan);

  bool sharded() const { return queues_.size() > 1; }
  int num_shards() const { return static_cast<int>(queues_.size()) - 1; }
  Cycles lookahead() const { return lookahead_; }

  // Aggregated sharding counters. Call between runs (quiescent engine).
  ParallelStats parallel_stats() const;

  // Schedules `fn` to run at virtual time `at` (>= now()) on the *current*
  // timeline: the serial queue from outside the engine or from serial
  // events, the owning shard from inside a shard event.
  EventId Schedule(Cycles at, InlineFn fn);

  // Hot-path overload for callables: constructs the callback directly in its
  // pool slot (no InlineFn temporary, no buffer relocation).
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFn>>>
  EventId Schedule(Cycles at, F&& f) {
    Queue& q = CurrentQueue();
    // The current timeline's window belongs to this thread: RunWindow's tls
    // hand-off inside windows, coordinator ownership outside them.
    q.cap.AssertHeld();
    uint32_t slot = AllocSlot(q);
    FnAt(q, slot).Emplace(std::forward<F>(f));
    return Enqueue(q, at, slot);
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

  // Schedules `fn` on the event shard that owns `cpu` (the serial queue when
  // unsharded). From a different shard this is a cross-shard send: exact
  // when `at >= now() + lookahead()`, conservatively delayed otherwise.
  EventId ScheduleOnCpu(int cpu, Cycles at, InlineFn fn);

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFn>>>
  EventId ScheduleOnCpu(int cpu, Cycles at, F&& f) {
    Queue& dst = QueueForCpu(cpu);
    Queue& cur = CurrentQueue();
    // The current timeline's window belongs to this thread (tls hand-off in
    // RunWindow; the coordinator owns queue 0 outside parallel phases).
    cur.cap.AssertHeld();
    if (&dst == &cur || !in_parallel_phase_) {
      // Direct insert (same timeline, or coordinator context with every
      // other thread parked). A foreign queue's clock may already sit past
      // `at` — possible only for lookahead-contract violators — so clamp
      // forward rather than scheduling into its past.
      // Outside a parallel phase the coordinator owns every queue's window.
      dst.cap.AssertHeld();
      if (&dst != &cur && at < dst.now) {
        at = dst.now;
        ++dst.clamped;
      }
      uint32_t slot = AllocSlot(dst);
      FnAt(dst, slot).Emplace(std::forward<F>(f));
      return Enqueue(dst, at, slot);
    }
    return MailSchedule(cur, dst, at, InlineFn(std::forward<F>(f)));
  }

  // Cancels a pending event in O(log n). Cancelling kInvalidEvent, an
  // already-fired id, or an already-cancelled id is a no-op. Cross-shard
  // cancels ride the mailboxes and take effect at the next window barrier;
  // like sends, they are exact under the lookahead contract (the victim
  // fires >= lookahead past the canceller's clock) and best-effort — the
  // legacy "already fired" no-op — otherwise.
  void Cancel(EventId id);

  // Starts a detached root task at time `at` on the current timeline.
  void Spawn(Cycles at, SimTask task);

  // Runs events until every queue is empty. Returns the final virtual time
  // (the maximum queue clock; the serial clock when unsharded).
  Cycles Run();

  // Runs events with time <= `deadline` (inclusive: an event scheduled
  // exactly at `deadline` fires). Returns true if all queues drained.
  bool RunUntil(Cycles deadline);

  // The current timeline's clock: the serial clock from outside the engine,
  // the running queue's clock from inside an event.
  Cycles now() const {
    const Queue* q = tls_queue_;
    if (q == nullptr) {
      q = main_queue_;
    }
    // Reading one's own window's clock (tls hand-off in RunWindow), or the
    // serial clock from the coordinator, which owns it outside windows.
    q->cap.AssertHeld();
    return q->now;
  }

  uint64_t events_processed() const;

  // True when no live events remain anywhere. Cancelled events are removed
  // eagerly and mailboxes are empty between runs, so this is O(#queues).
  bool empty() const;

  // Number of pending events across all queues.
  size_t size() const;

 private:
  // Heap entry, 16 bytes: the ordering key inline (no pool chase during
  // sifts) plus the owning pool slot packed into the low bits of the
  // tie-break word. seq is monotone and unique per queue, so the slot bits
  // never influence ordering; 2^40 events and 2^24 concurrent events are
  // both far beyond any simulation this engine drives (asserted in Enqueue).
  struct HeapItem {
    Cycles at;
    uint64_t seq_slot;  // seq << kSlotBits | slot
  };
  static constexpr int kSlotBits = 24;
  static constexpr uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr uint32_t kChunkShift = 6;  // 64 callables (~3.5KB) per chunk
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;

  // EventId layouts. Direct ids are handed out by Enqueue:
  //   [gen:32][queue:7][slot+1:25]
  // (queue 0 makes this bit-compatible with the pre-sharding encoding).
  // Mailed ids are handed out by MailSchedule for cross-shard sends, before
  // the receiver has assigned a slot:
  //   [1:1][src queue:7][dst queue:7][pair seq:49]
  static constexpr int kQueueBits = 7;
  static constexpr int kDirectSlotBits = kSlotBits + 1;  // slot+1 field width
  static constexpr EventId kMailedBit = EventId{1} << 63;
  static constexpr uint64_t kPairSeqBits = 49;
  static constexpr uint64_t kQueueMask = (uint64_t{1} << kQueueBits) - 1;
  static constexpr uint64_t kPairSeqMask = (uint64_t{1} << kPairSeqBits) - 1;

  // Cross-shard message: a schedule (fn set) or a cancel (cancel_id set).
  struct CrossMsg {
    Cycles at = 0;
    uint64_t seq = 0;          // per-(src,dst) FIFO sequence, 1-based
    EventId cancel_id = 0;     // nonzero: cancel this id instead of scheduling
    InlineFn fn;
  };

  // One event queue: the serial timeline (index 0) or a shard. Everything a
  // window touches is confined here, so shard windows share no mutable
  // engine state with each other — and every mutable member below is
  // GUARDED_BY(cap), so clang rejects new code that reaches into a queue
  // without owning its window.
  struct Queue {
    WindowCap cap;               // the window ownership token (zero-size)
    int index = 0;               // fixed at ConfigureSharding; never racy
    std::vector<HeapItem> heap GUARDED_BY(cap);  // 4-ary min-heap by (at, seq)
    // Callbacks, slot-indexed, in fixed-size chunks: addresses are stable
    // across pool growth, so Step() runs a callback directly from its slot
    // (no copy out) even if the callback schedules new events. The sift-path
    // bookkeeping lives in flat dense arrays instead, keeping heap
    // maintenance free of chunk chasing:
    std::vector<std::unique_ptr<InlineFn[]>> chunks GUARDED_BY(cap);
    std::vector<int32_t> pos GUARDED_BY(cap);    // slot -> heap index; -1: free or fired
    std::vector<uint32_t> gen GUARDED_BY(cap);   // slot -> generation; stale ids fail this
    uint32_t pool_size GUARDED_BY(cap) = 0;      // slots handed out so far
    std::vector<uint32_t> free GUARDED_BY(cap);  // recycled pool slots (LIFO)
    Cycles now GUARDED_BY(cap) = 0;
    uint64_t next_seq GUARDED_BY(cap) = 1;
    uint64_t events_processed GUARDED_BY(cap) = 0;

    // --- cross-shard bookkeeping (sharded mode only) ---
    // Set on every queue by ConfigureSharding; keeps the unsharded hot path
    // free of mailed-id maintenance.
    bool track_mailed = false;
    // Producer side: per-destination pair sequence counters and counters.
    std::vector<uint64_t> next_pair_seq GUARDED_BY(cap);  // dst queue -> next seq (1-based)
    uint64_t cross_msgs GUARDED_BY(cap) = 0;
    uint64_t cross_cancels GUARDED_BY(cap) = 0;
    // Consumer side, all touched only under the window barrier:
    std::vector<uint64_t> mailed_tag GUARDED_BY(cap);     // slot -> mailed id (0: none)
    std::unordered_map<uint64_t, EventId> mailed GUARDED_BY(cap);  // mailed id -> direct id
    std::unordered_set<uint64_t> pending_cancels GUARDED_BY(cap);  // cancels that beat their victim
    std::vector<uint64_t> drained_seq GUARDED_BY(cap);    // src queue -> highest seq drained
    uint64_t clamped GUARDED_BY(cap) = 0;                 // contract-violating sends delayed
    // Dynamic window limit support: virtual time of this queue's first
    // cross-shard send in the current window (kNever: none yet).
    Cycles window_first_send GUARDED_BY(cap) = kNever;
  };

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
  static EventId MakeId(uint32_t gen, int queue, uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) |
           (static_cast<EventId>(queue) << kDirectSlotBits) |
           (static_cast<EventId>(slot) + 1);
  }
  static EventId MakeMailedId(int src, int dst, uint64_t seq) {
    return kMailedBit | (static_cast<EventId>(src) << (kQueueBits + kPairSeqBits)) |
           (static_cast<EventId>(dst) << kPairSeqBits) | seq;
  }

  static InlineFn& FnAt(Queue& q, uint32_t slot) REQUIRES(q.cap) {
    return q.chunks[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  static Cycles SatAdd(Cycles a, Cycles b) { return a > kNever - b ? kNever : a + b; }

  Queue& CurrentQueue() {
    Queue* q = tls_queue_;
    return q != nullptr ? *q : *main_queue_;
  }
  Queue& QueueForCpu(int cpu) {
    if (queues_.size() == 1) {
      return *main_queue_;
    }
    assert(cpu >= 0 && static_cast<size_t>(cpu) < queue_of_cpu_.size());
    return *queues_[queue_of_cpu_[static_cast<size_t>(cpu)]];
  }
  SpscMailbox<CrossMsg>& MailboxFor(int src, int dst) {
    return *mail_[static_cast<size_t>(src) * queues_.size() + static_cast<size_t>(dst)];
  }

  // Slot allocation and heap insertion, shared by the Schedule overloads.
  // The callable is filled into FnAt(q, slot) between the two calls.
  static uint32_t AllocSlot(Queue& q) REQUIRES(q.cap);
  EventId Enqueue(Queue& q, Cycles at, uint32_t slot) REQUIRES(q.cap);

  // Producer side of a cross-shard send/cancel (runs on src's host thread).
  EventId MailSchedule(Queue& src, Queue& dst, Cycles at, InlineFn fn) REQUIRES(src.cap);
  void MailCancel(Queue& src, Queue& dst, EventId victim) REQUIRES(src.cap);

  static void SiftUp(Queue& q, size_t i) REQUIRES(q.cap);
  static void SiftDown(Queue& q, size_t i) REQUIRES(q.cap);
  static void FreeSlot(Queue& q, uint32_t slot) REQUIRES(q.cap);
  void RemoveAt(Queue& q, size_t i) REQUIRES(q.cap);
  void CancelLocal(Queue& q, EventId id) REQUIRES(q.cap);

  // Pops and runs the next event. Precondition: q.heap non-empty.
  void Step(Queue& q) REQUIRES(q.cap);

  // Runs q's events with `at < bound`, shrinking the bound to
  // first_cross_send + lookahead so replies can never land in q's past.
  void RunWindow(Queue& q, Cycles bound);

  // Window loop: runs until every *shard* queue is empty (true) or every
  // pending event anywhere lies beyond `deadline` (false). The serial queue
  // participates in windows but may be left non-empty on a true return; the
  // caller's serial fast loop takes over.
  bool RunParallelPhase(Cycles deadline);

  // Barrier-side message application (coordinator thread only).
  void DrainMailboxes();
  void ApplyCrossSchedule(Queue& dst, int src, CrossMsg msg) REQUIRES(dst.cap);
  void ApplyCancel(Queue& dst, EventId victim) REQUIRES(dst.cap);

  std::vector<std::unique_ptr<Queue>> queues_;  // [0]: serial; [1..]: shards
  Queue* main_queue_ = nullptr;                 // == queues_[0].get()
  std::vector<uint8_t> queue_of_cpu_;           // cpu -> queue index (sharded)
  std::vector<std::unique_ptr<SpscMailbox<CrossMsg>>> mail_;  // src * nq + dst
  Executor* executor_ = nullptr;
  Cycles lookahead_ = 1;
  // Events pending in shard queues, maintained while the coordinator is the
  // only running thread and recomputed at each window barrier; the serial
  // fast loop polls it to know when a parallel phase is due.
  size_t parallel_pending_ = 0;
  bool in_parallel_phase_ = false;
  uint64_t stat_windows_ = 0;
  uint64_t stat_shard_windows_ = 0;
  uint64_t stat_horizon_stalls_ = 0;

  // The queue whose window is executing on this host thread (null outside
  // windows). Static: at most one engine runs a window on a given thread at
  // a time, and RunWindow saves/restores for safety.
  // constinit + inline: every translation unit sees the constant
  // initializer and reads the slot directly, without the TLS wrapper call an
  // out-of-line definition needs.
  static constinit inline thread_local Queue* tls_queue_ = nullptr;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_SIM_ENGINE_H_
