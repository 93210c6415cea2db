#include "src/sim/engine.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tlbsim {

Engine::Engine() {
  auto q = std::make_unique<Queue>();
  q->index = 0;
  main_queue_ = q.get();
  queues_.push_back(std::move(q));
}

void Engine::ConfigureSharding(ShardPlan plan) {
  // Single-threaded setup: no windows have run, so the caller's thread is
  // the coordinator and owns every queue it is about to create.
  main_queue_->cap.AssertHeld();
  // Quiescent, not necessarily fresh: a setup phase may have run serially
  // (and advanced the clock) as long as no event is pending when the queues
  // split — new shards inherit the serial clock so causality holds.
  assert(queues_.size() == 1 && main_queue_->heap.empty() &&
         "sharding must be configured on a quiescent engine");
  lookahead_ = std::max<Cycles>(1, plan.lookahead);
  if (plan.shards <= 1) {
    return;  // unsharded: ScheduleOnCpu degenerates to Schedule
  }
  const int nq = plan.shards + 1;
  assert(nq <= kMaxQueues && "too many shards for the id encoding");
  executor_ = plan.executor;
  queues_.reserve(static_cast<size_t>(nq));
  for (int i = 1; i < nq; ++i) {
    auto q = std::make_unique<Queue>();
    q->cap.AssertHeld();  // freshly built, visible only to this thread
    q->index = i;
    q->now = main_queue_->now;
    queues_.push_back(std::move(q));
  }
  for (auto& qp : queues_) {
    qp->cap.AssertHeld();  // still single-threaded setup
    qp->track_mailed = true;
    qp->next_pair_seq.assign(static_cast<size_t>(nq), 1);
    qp->drained_seq.assign(static_cast<size_t>(nq), 0);
  }
  queue_of_cpu_.resize(plan.shard_of_cpu.size());
  for (size_t c = 0; c < plan.shard_of_cpu.size(); ++c) {
    assert(plan.shard_of_cpu[c] >= 0 && plan.shard_of_cpu[c] < plan.shards);
    queue_of_cpu_[c] = static_cast<uint8_t>(plan.shard_of_cpu[c] + 1);
  }
  mail_.reserve(static_cast<size_t>(nq) * static_cast<size_t>(nq));
  for (int i = 0; i < nq * nq; ++i) {
    mail_.push_back(std::make_unique<SpscMailbox<CrossMsg>>());
  }
}

Engine::EventId Engine::Schedule(Cycles at, InlineFn fn) {
  Queue& q = CurrentQueue();
  // The current timeline's window belongs to this thread: RunWindow's tls
  // hand-off inside windows, coordinator ownership outside them.
  q.cap.AssertHeld();
  uint32_t slot = AllocSlot(q);
  FnAt(q, slot) = std::move(fn);
  return Enqueue(q, at, slot);
}

Engine::EventId Engine::ScheduleOnCpu(int cpu, Cycles at, InlineFn fn) {
  Queue& dst = QueueForCpu(cpu);
  Queue& cur = CurrentQueue();
  // Window ownership as in Schedule(); see the template overload.
  cur.cap.AssertHeld();
  if (&dst == &cur || !in_parallel_phase_) {
    // Outside a parallel phase the coordinator owns every queue's window.
    dst.cap.AssertHeld();
    if (&dst != &cur && at < dst.now) {
      at = dst.now;  // lookahead-contract violator: clamp, never time-travel
      ++dst.clamped;
    }
    uint32_t slot = AllocSlot(dst);
    FnAt(dst, slot) = std::move(fn);
    return Enqueue(dst, at, slot);
  }
  return MailSchedule(cur, dst, at, std::move(fn));
}

uint32_t Engine::AllocSlot(Queue& q) {
  uint32_t slot;
  if (!q.free.empty()) {
    slot = q.free.back();
    q.free.pop_back();
  } else {
    slot = q.pool_size++;
    if ((slot & (kChunkSize - 1)) == 0) {
      q.chunks.push_back(std::make_unique<InlineFn[]>(kChunkSize));
      // Both the heap and the free list are bounded by the pool size (every
      // pending event owns a slot; every free-list entry is a slot), so
      // reserving here makes their push_backs allocation-free between pool
      // growths — the steady state performs no allocation at all.
      q.heap.reserve(q.pool_size + kChunkSize);
      q.free.reserve(q.pool_size + kChunkSize);
    }
    q.pos.push_back(-1);
    q.gen.push_back(0);
    if (q.track_mailed) {
      q.mailed_tag.push_back(0);
    }
  }
  assert(slot <= kSlotMask && "too many concurrent events");
  return slot;
}

Engine::EventId Engine::Enqueue(Queue& q, Cycles at, uint32_t slot) {
  assert(at >= q.now && "scheduling into the past");
  assert(q.next_seq < (uint64_t{1} << (64 - kSlotBits)) && "seq overflow");
  q.heap.push_back(HeapItem{at, (q.next_seq++ << kSlotBits) | slot});
  SiftUp(q, q.heap.size() - 1);
  if (q.index != 0 && !in_parallel_phase_) {
    ++parallel_pending_;
  }
  return MakeId(q.gen[slot], q.index, slot);
}

Engine::EventId Engine::MailSchedule(Queue& src, Queue& dst, Cycles at, InlineFn fn) {
  assert(at >= src.now && "scheduling into the past");
  uint64_t seq = src.next_pair_seq[static_cast<size_t>(dst.index)]++;
  assert(seq <= kPairSeqMask && "cross-shard pair seq overflow");
  ++src.cross_msgs;
  if (src.window_first_send == kNever) {
    src.window_first_send = src.now;  // shrinks this window's dynamic limit
  }
  CrossMsg m;
  m.at = at;
  m.seq = seq;
  m.fn = std::move(fn);
  SpscMailbox<CrossMsg>& mb = MailboxFor(src.index, dst.index);
  // The window barrier hands every mailbox out of src to the host thread
  // running src's window (this one — the caller holds src.cap).
  mb.producer_side().AssertHeld();
  mb.Push(std::move(m));
  return MakeMailedId(src.index, dst.index, seq);
}

void Engine::MailCancel(Queue& src, Queue& dst, EventId victim) {
  ++src.cross_cancels;
  CrossMsg m;
  m.cancel_id = victim;
  SpscMailbox<CrossMsg>& mb = MailboxFor(src.index, dst.index);
  // Producer end owned by src's window thread, as in MailSchedule.
  mb.producer_side().AssertHeld();
  mb.Push(std::move(m));
}

void Engine::Cancel(EventId id) {
  if (id == kInvalidEvent) {
    return;
  }
  if ((id & kMailedBit) != 0) {
    int dst = static_cast<int>((id >> kPairSeqBits) & kQueueMask);
    if (static_cast<size_t>(dst) >= queues_.size()) {
      return;
    }
    Queue& qd = *queues_[static_cast<size_t>(dst)];
    Queue& cur = CurrentQueue();
    // Window ownership as in Schedule(); the caller's timeline is ours.
    cur.cap.AssertHeld();
    if (!in_parallel_phase_ || &qd == &cur) {
      // Same timeline, or coordinator context owning every queue.
      qd.cap.AssertHeld();
      ApplyCancel(qd, id);
    } else {
      MailCancel(cur, qd, id);
    }
    return;
  }
  int qi = static_cast<int>((id >> kDirectSlotBits) & kQueueMask);
  if (static_cast<size_t>(qi) >= queues_.size()) {
    return;
  }
  Queue& q = *queues_[static_cast<size_t>(qi)];
  Queue& cur = CurrentQueue();
  // Window ownership as in Schedule(); the caller's timeline is ours.
  cur.cap.AssertHeld();
  if (!in_parallel_phase_ || &q == &cur) {
    // Same timeline, or coordinator context owning every queue.
    q.cap.AssertHeld();
    CancelLocal(q, id);
  } else {
    MailCancel(cur, q, id);
  }
}

void Engine::CancelLocal(Queue& q, EventId id) {
  uint32_t slot = (static_cast<uint32_t>(id) & ((1u << kDirectSlotBits) - 1)) - 1;
  uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (slot >= q.pool_size) {
    return;
  }
  if (q.gen[slot] != gen || q.pos[slot] < 0) {
    return;  // already fired or already cancelled
  }
  RemoveAt(q, static_cast<size_t>(q.pos[slot]));
}

void Engine::Spawn(Cycles at, SimTask task) {
  auto handle = task.Release();
  // Root tasks may be spawned after the engine has already run (test
  // harnesses spawn successive programs at t=0); start them no earlier
  // than now rather than tripping the causality assert in Schedule.
  Schedule(std::max(at, now()), [handle] { handle.resume(); });
}

void Engine::SiftUp(Queue& q, size_t i) {
  HeapItem item = q.heap[i];
  while (i > 0) {
    size_t parent = (i - 1) / 4;
    if (!Before(item, q.heap[parent])) {
      break;
    }
    q.heap[i] = q.heap[parent];
    q.pos[SlotOf(q.heap[i])] = static_cast<int32_t>(i);
    i = parent;
  }
  q.heap[i] = item;
  q.pos[SlotOf(item)] = static_cast<int32_t>(i);
}

void Engine::SiftDown(Queue& q, size_t i) {
  HeapItem* h = q.heap.data();
  int32_t* pos = q.pos.data();
  const size_t n = q.heap.size();
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

void Engine::FreeSlot(Queue& q, uint32_t slot) {
  FnAt(q, slot) = InlineFn();
  q.pos[slot] = -1;
  ++q.gen[slot];  // invalidate any EventId still referring to this slot
  if (q.track_mailed && q.mailed_tag[slot] != 0) {
    q.mailed.erase(q.mailed_tag[slot]);
    q.mailed_tag[slot] = 0;
  }
  q.free.push_back(slot);
}

void Engine::RemoveAt(Queue& q, size_t i) {
  FreeSlot(q, SlotOf(q.heap[i]));
  HeapItem last = q.heap.back();
  q.heap.pop_back();
  if (q.index != 0 && !in_parallel_phase_) {
    --parallel_pending_;
  }
  if (i == q.heap.size()) {
    return;
  }
  q.heap[i] = last;
  q.pos[SlotOf(last)] = static_cast<int32_t>(i);
  SiftUp(q, i);
  SiftDown(q, static_cast<size_t>(q.pos[SlotOf(last)]));
}

void Engine::Step(Queue& q) {
  uint32_t slot = SlotOf(q.heap[0]);
  q.now = q.heap[0].at;
  ++q.events_processed;
  // Unlink from the heap but do NOT free the slot yet: the callback runs in
  // place from its stable chunk storage, so the slot must not be handed out
  // to events it schedules. pos == -1 makes a self-Cancel during the
  // callback a no-op (the event is no longer pending).
  q.pos[slot] = -1;
  HeapItem last = q.heap.back();
  q.heap.pop_back();
  if (!q.heap.empty()) {
    q.heap[0] = last;
    q.pos[SlotOf(last)] = 0;
    SiftDown(q, 0);
  }
  FnAt(q, slot)();
  FreeSlot(q, slot);
}

void Engine::RunWindow(Queue& q, Cycles bound) {
  Queue* prev = tls_queue_;
  tls_queue_ = &q;
  // Barrier-transferred ownership: between the Submit that scheduled this
  // call and the executor Drain that follows it, this host thread is the
  // only one touching q (RunParallelPhase hands each queue to exactly one
  // task per round; inline callers are the coordinator itself).
  q.cap.Acquire();
  q.window_first_send = kNever;
  // The dynamic limit: once this queue performs a cross-shard send at
  // virtual time f, it must not run past f + lookahead — a contract-
  // respecting reply to that send lands at >= f + lookahead, and running
  // further would put the reply in our past. Windows bounded by
  // T + lookahead never trip this (f >= T); it only bites in extended
  // single-queue windows, which is exactly what makes those safe.
  Cycles limit = bound;
  while (!q.heap.empty() && q.heap[0].at < limit) {
    Step(q);
    if (q.window_first_send != kNever) {
      Cycles dyn = SatAdd(q.window_first_send, lookahead_);
      if (dyn < limit) {
        limit = dyn;
      }
    }
  }
  q.cap.Release();
  tls_queue_ = prev;
}

bool Engine::RunParallelPhase(Cycles deadline) {
  assert(sharded());
  assert(!in_parallel_phase_);
  in_parallel_phase_ = true;
  const size_t nq = queues_.size();
  for (;;) {
    // Window base T = earliest event anywhere; m2 = second-earliest head,
    // used to widen single-queue windows.
    Cycles m1 = kNever;
    Cycles m2 = kNever;
    for (const auto& qp : queues_) {
      // Between barriers every worker is parked in the executor, so the
      // coordinator owns every queue's window.
      qp->cap.AssertHeld();
      if (qp->heap.empty()) {
        continue;
      }
      Cycles h = qp->heap[0].at;
      if (h < m1) {
        m2 = m1;
        m1 = h;
      } else if (h < m2) {
        m2 = h;
      }
    }
    if (m1 == kNever || m1 > deadline) {
      break;  // drained, or nothing left at or before the deadline
    }
    Cycles bound = SatAdd(m1, lookahead_);
    if (m2 >= bound) {
      // Only one queue can run before anyone else's head: let it advance
      // all the way to the next head (its RunWindow dynamic limit keeps
      // cross-shard sends safe). m2 == kNever runs the queue to empty.
      bound = m2;
    }
    if (deadline != kNever) {
      bound = std::min(bound, SatAdd(deadline, 1));
    }
    int shard_jobs = 0;
    for (size_t i = 1; i < nq; ++i) {
      Queue& q = *queues_[i];
      // Safe pre-submit read: q's own window task has not been handed out
      // yet this round, and other queues' windows never touch q (cross-
      // shard traffic rides the mailboxes).
      q.cap.AssertHeld();
      if (q.heap.empty()) {
        continue;
      }
      if (q.heap[0].at >= bound) {
        ++stat_horizon_stalls_;  // has work, blocked on neighbors' horizon
        continue;
      }
      ++stat_shard_windows_;
      ++shard_jobs;
      if (executor_ != nullptr) {
        Queue* qp = &q;
        executor_->Submit(InlineFn([this, qp, bound] { RunWindow(*qp, bound); }));
      } else {
        RunWindow(q, bound);
      }
    }
    Queue& q0 = *main_queue_;
    q0.cap.AssertHeld();  // q0's window only ever runs on the coordinator
    if (!q0.heap.empty() && q0.heap[0].at < bound) {
      RunWindow(q0, bound);  // the coordinator participates
    }
    if (executor_ != nullptr && shard_jobs > 0) {
      executor_->Drain();  // the window barrier
    }
    ++stat_windows_;
    DrainMailboxes();
    size_t pending = 0;
    for (size_t i = 1; i < nq; ++i) {
      queues_[i]->cap.AssertHeld();  // post-Drain: coordinator owns all
      pending += queues_[i]->heap.size();
    }
    parallel_pending_ = pending;
    if (pending == 0) {
      in_parallel_phase_ = false;
      return true;  // shards drained; the serial fast loop takes over
    }
  }
  size_t pending = 0;
  for (size_t i = 1; i < nq; ++i) {
    queues_[i]->cap.AssertHeld();  // post-Drain: coordinator owns all
    pending += queues_[i]->heap.size();
  }
  parallel_pending_ = pending;
  in_parallel_phase_ = false;
  return pending == 0;
}

void Engine::DrainMailboxes() {
  const size_t nq = queues_.size();
  for (size_t dst = 0; dst < nq; ++dst) {
    Queue& qd = *queues_[dst];
    // Runs only at the window barrier (after executor Drain): the
    // coordinator owns every queue and both ends of every mailbox.
    qd.cap.AssertHeld();
    bool any = false;
    for (size_t src = 0; src < nq; ++src) {
      if (src == dst) {
        continue;
      }
      SpscMailbox<CrossMsg>& mb = MailboxFor(static_cast<int>(src), static_cast<int>(dst));
      mb.producer_side().AssertHeld();  // producers parked at the barrier
      mb.consumer_side().AssertHeld();  // draining is the coordinator's job
      mb.Drain([&](CrossMsg m) {
        qd.cap.AssertHeld();  // lambda body runs inline under the barrier
        any = true;
        if (m.cancel_id != kInvalidEvent) {
          ApplyCancel(qd, m.cancel_id);
        } else {
          ApplyCrossSchedule(qd, static_cast<int>(src), std::move(m));
        }
      });
    }
    if (any && !qd.pending_cancels.empty()) {
      // Drop pending cancels whose victim has already arrived (and so fired
      // or been cancelled): the drained watermark covers their seq. The
      // erase-if predicate is per-element, so iteration order is
      // unobservable.
      auto it = qd.pending_cancels.begin();
      while (it != qd.pending_cancels.end()) {  // det-ok: order-independent erase-if
        uint64_t vseq = *it & kPairSeqMask;
        int vsrc = static_cast<int>((*it >> (kQueueBits + kPairSeqBits)) & kQueueMask);
        if (vseq <= qd.drained_seq[static_cast<size_t>(vsrc)]) {
          it = qd.pending_cancels.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
}

void Engine::ApplyCrossSchedule(Queue& dst, int src, CrossMsg msg) {
  dst.drained_seq[static_cast<size_t>(src)] = msg.seq;
  EventId mailed_id = MakeMailedId(src, dst.index, msg.seq);
  auto pc = dst.pending_cancels.find(mailed_id);
  if (pc != dst.pending_cancels.end()) {
    dst.pending_cancels.erase(pc);
    return;  // cancelled in flight: never materializes
  }
  Cycles at = msg.at;
  if (at < dst.now) {
    at = dst.now;  // lookahead-contract violator (see ScheduleOnCpu)
    ++dst.clamped;
  }
  uint32_t slot = AllocSlot(dst);
  FnAt(dst, slot) = std::move(msg.fn);
  EventId direct = Enqueue(dst, at, slot);
  dst.mailed_tag[slot] = mailed_id;
  dst.mailed.emplace(mailed_id, direct);
}

void Engine::ApplyCancel(Queue& dst, EventId victim) {
  if ((victim & kMailedBit) != 0) {
    assert(static_cast<int>((victim >> kPairSeqBits) & kQueueMask) == dst.index);
    auto it = dst.mailed.find(victim);
    if (it != dst.mailed.end()) {
      CancelLocal(dst, it->second);  // FreeSlot clears the mailed entries
      return;
    }
    uint64_t vseq = victim & kPairSeqMask;
    int vsrc = static_cast<int>((victim >> (kQueueBits + kPairSeqBits)) & kQueueMask);
    if (vseq > dst.drained_seq[static_cast<size_t>(vsrc)]) {
      dst.pending_cancels.insert(victim);  // cancel beat its victim's arrival
    }
    // else: victim already arrived and fired/cancelled — late-cancel no-op.
    return;
  }
  CancelLocal(dst, victim);
}

Cycles Engine::Run() {
  Queue& q0 = *main_queue_;
  // Outside parallel phases the calling thread is the only one running the
  // engine, so it owns every queue's window.
  q0.cap.AssertHeld();
  if (!sharded()) {
    while (!q0.heap.empty()) {
      Step(q0);
    }
    return q0.now;
  }
  for (;;) {
    while (parallel_pending_ == 0 && !q0.heap.empty()) {
      Step(q0);
    }
    if (parallel_pending_ == 0) {
      break;
    }
    RunParallelPhase(kNever);
  }
  Cycles end = q0.now;
  for (const auto& qp : queues_) {
    qp->cap.AssertHeld();  // quiescent engine: coordinator owns all
    end = std::max(end, qp->now);
  }
  return end;
}

bool Engine::RunUntil(Cycles deadline) {
  Queue& q0 = *main_queue_;
  // Outside parallel phases the calling thread is the only one running the
  // engine, so it owns every queue's window.
  q0.cap.AssertHeld();
  if (!sharded()) {
    while (!q0.heap.empty() && q0.heap[0].at <= deadline) {
      Step(q0);
    }
    if (q0.heap.empty()) {
      return true;
    }
    q0.now = deadline;
    return false;
  }
  for (;;) {
    while (parallel_pending_ == 0 && !q0.heap.empty() && q0.heap[0].at <= deadline) {
      Step(q0);
    }
    if (parallel_pending_ == 0) {
      break;
    }
    if (!RunParallelPhase(deadline)) {
      break;  // everything left lies beyond the deadline
    }
  }
  if (empty()) {
    return true;
  }
  for (const auto& qp : queues_) {
    qp->cap.AssertHeld();  // between phases: coordinator owns all
    qp->now = std::max(qp->now, deadline);
  }
  return false;
}

uint64_t Engine::events_processed() const {
  uint64_t total = 0;
  for (const auto& qp : queues_) {
    qp->cap.AssertHeld();  // called between runs: coordinator owns all
    total += qp->events_processed;
  }
  return total;
}

bool Engine::empty() const {
  for (const auto& qp : queues_) {
    qp->cap.AssertHeld();  // called between phases: coordinator owns all
    if (!qp->heap.empty()) {
      return false;
    }
  }
  return true;
}

size_t Engine::size() const {
  size_t n = 0;
  for (const auto& qp : queues_) {
    qp->cap.AssertHeld();  // called between phases: coordinator owns all
    n += qp->heap.size();
  }
  return n;
}

Engine::ParallelStats Engine::parallel_stats() const {
  ParallelStats s;
  s.windows = stat_windows_;
  s.shard_windows = stat_shard_windows_;
  s.horizon_stalls = stat_horizon_stalls_;
  for (size_t i = 0; i < queues_.size(); ++i) {
    const Queue& q = *queues_[i];
    q.cap.AssertHeld();  // called between runs: coordinator owns all
    if (i != 0) {
      s.parallel_events += q.events_processed;
    }
    s.cross_shard_messages += q.cross_msgs;
    s.cross_shard_cancels += q.cross_cancels;
    s.clamped_deliveries += q.clamped;
  }
  for (const auto& mb : mail_) {
    mb->producer_side().AssertHeld();  // quiescent engine: no producer active
    s.mailbox_overflows += mb->overflowed();
    s.mailbox_high_water = std::max<uint64_t>(s.mailbox_high_water, mb->high_water());
  }
  return s;
}

}  // namespace tlbsim
