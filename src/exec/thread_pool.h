// Host-side work-stealing thread pool for fanning out independent
// simulation runs.
//
// Simulations themselves are single-threaded by design (one Engine, local
// clocks, deterministic event ordering); what parallelizes is the *sweep*
// above them — placements x optimization levels x seeds, each run owning its
// Machine/Kernel/MetricsRegistry and sharing no mutable state. This pool is
// the substrate: per-worker deques with stealing, so uneven job lengths
// (a 16-thread sysbench run vs a 1-thread one) rebalance without a central
// bottleneck.
//
// Deadlock avoidance: any thread that must wait for pool work to finish can
// call RunOneTask() in its wait loop ("help-while-waiting"). A job that
// submits sub-jobs and blocks on them therefore never wedges the pool, even
// at one worker — the waiter drains the queue itself. SweepRunner
// (src/exec/sweep.h) builds its ordered fan-out/fan-in on exactly this.
//
// Tasks are InlineFn (src/sim/inline_fn.h): submitting a small capture
// allocates nothing beyond deque bookkeeping, and the pool reuses the same
// move-only callable type as the simulation engine.
#ifndef TLBSIM_SRC_EXEC_THREAD_POOL_H_
#define TLBSIM_SRC_EXEC_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"
#include "src/sim/inline_fn.h"

namespace tlbsim {

class ThreadPool {
 public:
  // max(1, std::thread::hardware_concurrency()) — the --threads default.
  static int DefaultThreadCount();

  // Spawns `workers` worker threads (0 is valid: every task then runs via
  // RunOneTask() from whichever thread waits — the --threads 1 shape, where
  // the submitting thread executes everything itself).
  explicit ThreadPool(int workers);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Blocks until every submitted task has finished, then joins the workers.
  ~ThreadPool();

  int workers() const { return static_cast<int>(threads_.size()); }

  // Enqueues a task. Safe from any thread, including from inside a running
  // task (nested submission).
  void Submit(InlineFn task);

  // Runs one queued task on the calling thread if any is available; returns
  // false when every deque is empty. Waiters call this in a loop so pending
  // work always makes progress on the waiting thread itself.
  bool RunOneTask();

  // Count of tasks submitted but not yet finished (running included).
  size_t pending() const;

  // Blocks until pending() == 0, helping with queued tasks while waiting.
  // Tasks submitted while draining (nested submission) are drained too.
  void Drain();

 private:
  // One deque per worker slot plus one overflow slot for external submitters
  // (index workers()). The owner pops the front of its own deque; everyone
  // else steals from the back. Every slot — the overflow queue included —
  // follows the same statically-checked discipline: `tasks` is only touched
  // under `mu`.
  struct Queue {
    mutable Mutex mu;
    std::deque<InlineFn> tasks GUARDED_BY(mu);
  };

  void WorkerLoop(int self);
  bool PopTask(int self, InlineFn* out);
  void RunTask(InlineFn task);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> threads_;

  mutable Mutex mu_;            // guards the counters + stop_ below
  CondVar work_ready_;          // workers sleep here when idle
  CondVar all_done_;            // ~ThreadPool/Drain wait here
  size_t unfinished_ GUARDED_BY(mu_) = 0;  // submitted, not yet completed
  size_t queued_ GUARDED_BY(mu_) = 0;      // sitting in a deque right now
  size_t next_submit_ GUARDED_BY(mu_) = 0; // round-robin cursor for Submit()
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_EXEC_THREAD_POOL_H_
