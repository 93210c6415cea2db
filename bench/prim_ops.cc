// google-benchmark microbenchmarks of the simulator primitives: TLB lookup /
// insert, page walks, coherence accesses, engine event throughput, and a full
// end-to-end shootdown simulation per iteration.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/core/system.h"
#include "src/mm/phys.h"
#include "src/hw/machine.h"
#include "src/hw/mmu.h"
#include "src/workloads/microbench.h"

namespace tlbsim {
namespace {

void BM_TlbLookupHit(benchmark::State& state) {
  Tlb tlb;
  TlbEntry e;
  e.vpn = 0x1234;
  e.pcid = 1;
  e.pfn = 7;
  e.flags = PteFlags::kPresent;
  tlb.Insert(e);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.Lookup(1, 0x1234ULL << kPageShift));
  }
}
BENCHMARK(BM_TlbLookupHit);

void BM_TlbInsertEvict(benchmark::State& state) {
  Tlb tlb;
  uint64_t vpn = 0;
  for (auto _ : state) {
    TlbEntry e;
    e.vpn = vpn++;
    e.pcid = 1;
    e.pfn = vpn;
    e.flags = PteFlags::kPresent;
    tlb.Insert(e);
  }
}
BENCHMARK(BM_TlbInsertEvict);

void BM_PageWalk(benchmark::State& state) {
  PageTable pt;
  constexpr uint64_t kVa = 0x500000000000ULL;
  for (int i = 0; i < 512; ++i) {
    pt.Map(kVa + static_cast<uint64_t>(i) * kPageSize4K, static_cast<uint64_t>(i + 1),
           PteFlags::kPresent | PteFlags::kUser);
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pt.Walk(kVa + (i++ % 512) * kPageSize4K));
  }
}
BENCHMARK(BM_PageWalk);

void BM_FrameAllocChurn(benchmark::State& state) {
  // Steady-state alloc/free churn with a deep free list. The old allocator
  // scanned the free list linearly per Alloc (O(n) with n = live free
  // entries); the per-(node, size) bitset index finds the lowest matching
  // entry without a scan. The range arg is the standing free-list depth.
  FrameAllocator fa;
  std::vector<uint64_t> standing;
  const int depth = static_cast<int>(state.range(0));
  standing.reserve(static_cast<size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    standing.push_back(fa.Alloc());
  }
  for (uint64_t pfn : standing) {
    fa.Unref(pfn);  // deep free list of 1-frame blocks
  }
  uint64_t huge = fa.Alloc(512);
  fa.Unref(huge);  // plus one huge block the churn must skip past
  for (auto _ : state) {
    uint64_t pfn = fa.Alloc(512);
    fa.Unref(pfn);
    benchmark::DoNotOptimize(pfn);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameAllocChurn)->Arg(16)->Arg(1024)->Arg(65536);

void BM_CoherencePingPong(benchmark::State& state) {
  Topology topo;
  CacheCosts costs;
  CoherenceModel model(topo, costs);
  LineId line = model.AllocateLine("pingpong");
  int cpu = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Access(cpu, line, AccessType::kWrite));
    cpu = cpu == 0 ? 30 : 0;
  }
}
BENCHMARK(BM_CoherencePingPong);

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Engine e;
    for (int i = 0; i < 1000; ++i) {
      e.Schedule(i, [] {});
    }
    e.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineEventThroughput);

void BM_FullShootdownSimulation(benchmark::State& state) {
  // Wall-clock cost of simulating one complete madvise microbenchmark run
  // (50 shootdowns, cross-socket, all optimizations).
  for (auto _ : state) {
    MicroConfig cfg;
    cfg.pti = true;
    cfg.opts = OptimizationSet::All();
    cfg.pages = 10;
    cfg.placement = Placement::kOtherSocket;
    cfg.iterations = 50;
    cfg.seed = 1;
    MicroResult r = RunMadviseMicrobench(cfg);
    benchmark::DoNotOptimize(r.initiator.mean());
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_FullShootdownSimulation);

}  // namespace
}  // namespace tlbsim

BENCHMARK_MAIN();
