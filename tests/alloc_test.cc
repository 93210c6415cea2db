// Allocation regression gates. A replacement global operator new counts
// allocations (this test is its own binary for that reason).
//
// - Engine events: a storm of self-rescheduling events must allocate nothing
//   at all in steady state.
// - Coroutine frames: awaited Co<> chains under a SimTask must allocate
//   nothing at all in steady state (frames recycle through FramePool).
// - Shootdown path: the benchmark's fsync_storm op (sysbench fdatasync, PTI,
//   16 threads) must not allocate per simulated event, on either flush
//   backend.
// - Page faults: the benchmark's walk_sweep op (2-node NUMA walks, page-table
//   replication off and on) must not allocate per page fault.
// - System set-up: building a System must allocate O(cpus), not O(cpus^2).
//
// The per-event and per-fault gates run the op at N and at 2N and divide the
// difference in allocations by the difference in events (or faults): System
// set-up is the same in both runs and cancels. What remains is allowed to be
// small, not zero: first-touch page frames, coherence directory entries of
// newly touched data lines and per-syscall scratch vectors grow with the run.
#include <gtest/gtest.h>

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/core/system.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/workloads/numa_walk.h"
#include "src/workloads/sysbench.h"

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tlbsim {
namespace {

constexpr uint64_t kPlainEvents = 200000;
constexpr uint64_t kCoroRounds = 20000;
constexpr int kWrites = 160;  // N, the op's own; the second point runs 2N
constexpr double kMaxAllocsPerEvent = 0.05;
constexpr int kStormIterations = 80;  // walk_sweep's own madvise rounds
constexpr double kMaxAllocsPerFault = 0.5;
// A 4-socket System may allocate at most this multiple of a 2-socket one:
// linear in the CPU count gives 2x plus fixed costs, quadratic gives 4x.
constexpr double kMaxSetupGrowth = 2.5;

struct Point {
  uint64_t allocs = 0;
  uint64_t work = 0;  // events or page faults
};

uint64_t CounterOf(const Json& metrics, const char* name) {
  return metrics.Find("counters")->Find(name)->AsUint();
}

// 64 independent chains of self-rescheduling events: the Schedule/Step loop
// with a small capture that every Execute, IPI and flag wakeup comes down to.
// Each chain first hops a few times at delay 0, as IRQ-task starts and
// delivery kicks do, and cancels a same-cycle decoy on each hop, so the
// engine's same-cycle lane and its cancelled entries are counted too.
TEST(AllocTest, PlainEngineEventsAllocateNothing) {
  Engine e;
  uint64_t remaining = kPlainEvents;
  constexpr int kChains = 64;
  auto arm = [&](auto&& self, int chain, int hops) -> void {
    if (remaining == 0) {
      return;
    }
    --remaining;
    if (hops > 0) {
      e.Cancel(e.ScheduleAfter(0, [] {}));
      e.ScheduleAfter(0, [&, chain, hops] { self(self, chain, hops - 1); });
      return;
    }
    e.ScheduleAfter(static_cast<Cycles>(1 + chain % 7),
                    [&, chain] { self(self, chain, chain % 4); });
  };
  for (int i = 0; i < kChains; ++i) {
    arm(arm, i, i % 4);
  }
  // The first events grow the slot pool, free list, heap and lane to their
  // steady footprint; count only after that.
  e.RunUntil(1024);
  uint64_t before_events = e.events_processed();
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  e.Run();
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  uint64_t events = e.events_processed() - before_events;
  EXPECT_GT(events, kPlainEvents / 2);
  EXPECT_EQ(allocs, 0u) << allocs << " allocations over " << events << " events";
}

Co<uint64_t> Leaf(uint64_t x) { co_return x * 2654435761u; }

Co<uint64_t> Branch(uint64_t x) {
  uint64_t a = co_await Leaf(x);
  uint64_t b = co_await Leaf(x + 1);
  co_return a ^ b;
}

// Suspends and resumes through a zero-delay event, so a long chain of
// coroutines that never suspend does not grow the native stack without
// bound (symmetric transfers are not tail calls at -O0).
struct EngineYield {
  Engine* e;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    e->ScheduleAfter(0, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

// Root tasks awaiting Branch -> Leaf chains: the "kernel code calling kernel
// code" shape. A warm-up storm fills FramePool's buckets first.
TEST(AllocTest, CoroutineFramesAllocateNothing) {
  Engine e;
  uint64_t sink = 0;
  uint64_t frames = 0;
  auto storm = [&](uint64_t n) -> SimTask {
    for (uint64_t i = 0; i < n; ++i) {
      sink ^= co_await Branch(i);
      frames += 3;  // one Branch + two Leaf frames per iteration
      if ((i & 255) == 255) {
        co_await EngineYield{&e};
      }
    }
  };
  e.Spawn(0, storm(kCoroRounds / 8));
  e.Run();
  frames = 0;
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  e.Spawn(e.now(), storm(kCoroRounds));
  e.Run();
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(frames, 3 * kCoroRounds);
  EXPECT_EQ(allocs, 0u) << allocs << " allocations over " << frames << " frames (sink " << sink
                        << ")";
}

// One fsync_storm op (baseline + optimized run) at `writes` per thread.
Point RunFsyncOp(FlushBackendKind backend, int writes) {
  Point p;
  for (bool optimized : {false, true}) {
    SysbenchConfig cfg;
    cfg.pti = true;
    cfg.threads = 16;
    cfg.backend = backend;
    cfg.writes_per_thread = writes;
    if (optimized) {
      cfg.opts = OptimizationSet::Cumulative(4);
      cfg.opts.userspace_batching = true;
    }
    uint64_t before = g_allocs.load(std::memory_order_relaxed);
    SysbenchResult r = RunSysbench(cfg);
    p.allocs += g_allocs.load(std::memory_order_relaxed) - before;
    p.work += CounterOf(r.metrics, "engine.events_processed");
  }
  return p;
}

// One walk_sweep op (replication off, then on) at `storm` madvise rounds.
Point RunWalkOp(int storm) {
  Point p;
  for (bool replicate : {false, true}) {
    NumaWalkConfig cfg;
    cfg.numa_nodes = 2;
    cfg.opts.pt_replication = replicate;
    cfg.storm_iterations = storm;
    uint64_t before = g_allocs.load(std::memory_order_relaxed);
    NumaWalkResult r = RunNumaWalk(cfg);
    p.allocs += g_allocs.load(std::memory_order_relaxed) - before;
    p.work += CounterOf(r.metrics, "kernel.page_faults");
  }
  return p;
}

// Allocations per unit of work between two points of the same op.
double Marginal(const Point& n, const Point& n2) {
  EXPECT_GT(n2.work, n.work);
  return static_cast<double>(n2.allocs > n.allocs ? n2.allocs - n.allocs : 0) /
         static_cast<double>(n2.work - n.work);
}

void ExpectAllocationFree(FlushBackendKind backend) {
  RunFsyncOp(backend, kWrites);  // warm the coroutine frame pool
  Point n = RunFsyncOp(backend, kWrites);
  Point n2 = RunFsyncOp(backend, 2 * kWrites);
  EXPECT_LE(Marginal(n, n2), kMaxAllocsPerEvent)
      << n.allocs << " allocations over " << n.work << " events at N, " << n2.allocs
      << " over " << n2.work << " at 2N";
}

TEST(AllocTest, FsyncStormIpiBackend) { ExpectAllocationFree(FlushBackendKind::kIpi); }

TEST(AllocTest, FsyncStormQueueBackend) { ExpectAllocationFree(FlushBackendKind::kQueue); }

// Each storm round re-faults the whole working set: the frame allocator and
// the page-table path must recycle, not allocate, per fault.
TEST(AllocTest, WalkSweepPageFaults) {
  RunWalkOp(kStormIterations);  // warm the coroutine frame pool
  Point n = RunWalkOp(kStormIterations);
  Point n2 = RunWalkOp(2 * kStormIterations);
  EXPECT_LE(Marginal(n, n2), kMaxAllocsPerFault)
      << n.allocs << " allocations over " << n.work << " page faults at N, " << n2.allocs
      << " over " << n2.work << " at 2N";
}

// Allocations made constructing and destroying one System on `topo`.
uint64_t SystemSetupAllocs(const Topology& topo) {
  SystemConfig cfg;
  cfg.machine.topo = topo;
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  { System sys(cfg); }
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(AllocTest, SystemSetupIsLinearInCpus) {
  SystemSetupAllocs(Topology{});  // warm function-local statics
  uint64_t two = SystemSetupAllocs(Topology{});
  uint64_t four = SystemSetupAllocs(Topology::FourSocket());
  EXPECT_LE(static_cast<double>(four), kMaxSetupGrowth * static_cast<double>(two))
      << four << " allocations for 112 cpus vs " << two << " for 56";
}

}  // namespace
}  // namespace tlbsim
