// Allocation regression gates. A replacement global operator new counts
// allocations (this test is its own binary for that reason).
//
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
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/core/system.h"
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
