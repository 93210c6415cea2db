// Allocation regression gate for the shootdown path: the benchmark's
// fsync_storm op (sysbench fdatasync, PTI, 16 threads) must not allocate per
// simulated event, on either flush backend.
//
// A replacement global operator new counts allocations (this test is its own
// binary for that reason). Each measurement runs the op's two configurations
// — baseline and Cumulative(4) + batching — at N and at 2N writes per thread
// and divides the difference in allocations by the difference in simulated
// events: System set-up is the same in both runs and cancels. What remains
// is allowed to be small, not zero: first-touch page frames, coherence
// directory entries of newly touched data lines and per-syscall scratch
// vectors grow with the run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

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

struct Point {
  uint64_t allocs = 0;
  uint64_t events = 0;
};

uint64_t EventsOf(const SysbenchResult& r) {
  return r.metrics.Find("counters")->Find("engine.events_processed")->AsUint();
}

// One fsync_storm op (baseline + optimized run) at `writes` per thread.
Point RunOp(FlushBackendKind backend, int writes) {
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
    p.events += EventsOf(r);
  }
  return p;
}

void ExpectAllocationFree(FlushBackendKind backend) {
  RunOp(backend, kWrites);  // warm the coroutine frame pool
  Point n = RunOp(backend, kWrites);
  Point n2 = RunOp(backend, 2 * kWrites);
  ASSERT_GT(n2.events, n.events);
  double per_event = static_cast<double>(n2.allocs > n.allocs ? n2.allocs - n.allocs : 0) /
                     static_cast<double>(n2.events - n.events);
  EXPECT_LE(per_event, kMaxAllocsPerEvent)
      << n.allocs << " allocations over " << n.events << " events at N, " << n2.allocs
      << " over " << n2.events << " at 2N";
}

TEST(AllocTest, FsyncStormIpiBackend) { ExpectAllocationFree(FlushBackendKind::kIpi); }

TEST(AllocTest, FsyncStormQueueBackend) { ExpectAllocationFree(FlushBackendKind::kQueue); }

}  // namespace
}  // namespace tlbsim
