#include "perfbench/probes.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "src/cache/coherence.h"
#include "src/core/snapshot.h"
#include "src/core/system.h"
#include "src/hw/tlb.h"
#include "src/mm/page_table.h"
#include "src/mm/phys.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRepeats = 5;               // per probe; the median is reported
constexpr uint64_t kCallsPerRepeat = 100000;
constexpr int kSystemRepeats = 10;        // System constructions (and snapshots)
constexpr uint64_t kBaseVa = 0x7f0000000000ULL;
// Flush-protocol lines per busy CPU (TLB state, call-single queue, flush
// info, call-function data): the hot set the coherence directory serves.
constexpr size_t kLinesPerCpu = 8;

// Keeps probe results observable so the timed loops are not optimized away.
volatile uint64_t g_sink = 0;

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// Runs `once` (which returns ns per unit of work) kRepeats times, each inside
// a span, and returns the median.
template <typename F>
double Probe(SpanRecorder* spans, const char* layer, const char* name, int64_t op, F once) {
  tlbsim::Samples v;
  for (int r = 0; r < kRepeats; ++r) {
    SpanRecorder::Scope span(spans, layer, name, op);
    v.Add(once());
  }
  return v.Percentile(50);
}

// One self-rescheduling event chain per busy CPU (each simulated CPU keeps
// one pending wakeup); the chains share one event budget, so the heap stays
// that deep until the budget runs out.
double EngineNsPerEvent(const Shape& shape, uint64_t seed) {
  struct Chain {
    tlbsim::Engine* engine;
    uint64_t* budget;
    SplitMix rng;
    void Fire() {
      if (*budget == 0) {
        return;
      }
      --*budget;
      engine->ScheduleAfter(static_cast<tlbsim::Cycles>(1 + rng.Below(500)), [this] { Fire(); });
    }
  };
  tlbsim::Engine engine;
  uint64_t budget = kCallsPerRepeat;
  std::vector<Chain> chains;
  chains.reserve(shape.cpus.size());
  for (size_t i = 0; i < shape.cpus.size(); ++i) {
    chains.push_back(Chain{&engine, &budget, SplitMix(seed + i)});
  }
  for (Chain& c : chains) {
    c.Fire();
  }
  Clock::time_point t0 = Clock::now();
  engine.Run();
  double ns = NsSince(t0);
  return ns / static_cast<double>(std::max<uint64_t>(engine.events_processed(), 1));
}

tlbsim::TlbEntry EntryFor(int page) {
  tlbsim::TlbEntry e;
  e.vpn = (kBaseVa >> tlbsim::kPageShift) + static_cast<uint64_t>(page);
  e.pcid = 1;
  e.pfn = 0x1000 + static_cast<uint64_t>(page);
  e.flags = tlbsim::PteFlags::kPresent | tlbsim::PteFlags::kUser;
  return e;
}

uint64_t VaOf(int page) { return kBaseVa + static_cast<uint64_t>(page) * tlbsim::kPageSize4K; }

double CoherenceNsPerAccess(const Shape& shape, uint64_t seed) {
  tlbsim::CoherenceModel model(tlbsim::Topology{}, tlbsim::CacheCosts{});
  std::vector<tlbsim::LineId> lines;
  for (size_t i = 0; i < kLinesPerCpu * shape.cpus.size(); ++i) {
    lines.push_back(model.AllocateLine("perfbench.line", i, ""));
  }
  struct Access {
    int cpu;
    tlbsim::LineId line;
    tlbsim::AccessType type;
  };
  SplitMix rng(seed);
  std::vector<Access> accesses;
  accesses.reserve(kCallsPerRepeat);
  for (uint64_t i = 0; i < kCallsPerRepeat; ++i) {
    uint64_t r = rng.Next();
    accesses.push_back(Access{shape.cpus[r % shape.cpus.size()], lines[(r >> 16) % lines.size()],
                              (r >> 40) % 4 == 0 ? tlbsim::AccessType::kWrite
                                                 : tlbsim::AccessType::kRead});
  }
  Clock::time_point t0 = Clock::now();
  tlbsim::Cycles sum = 0;
  for (const Access& a : accesses) {
    sum += model.Access(a.cpu, a.line, a.type);
  }
  double ns = NsSince(t0);
  g_sink = g_sink + static_cast<uint64_t>(sum);
  return ns / static_cast<double>(accesses.size());
}

// kCallsPerRepeat addresses of random working-set pages.
std::vector<uint64_t> RandomVas(const Shape& shape, uint64_t seed) {
  SplitMix rng(seed);
  auto pages = static_cast<uint64_t>(shape.working_set_pages);
  std::vector<uint64_t> vas;
  vas.reserve(kCallsPerRepeat);
  for (uint64_t i = 0; i < kCallsPerRepeat; ++i) {
    vas.push_back(VaOf(static_cast<int>(rng.Below(pages))));
  }
  return vas;
}

// Lookups at random working-set pages; a working set beyond the TLB's reach
// makes some of them miss, as in the workload.
double TlbNsPerLookup(const Shape& shape, uint64_t seed) {
  tlbsim::Tlb tlb;
  for (int p = 0; p < shape.working_set_pages; ++p) {
    tlb.Insert(EntryFor(p));
  }
  std::vector<uint64_t> vas = RandomVas(shape, seed);
  Clock::time_point t0 = Clock::now();
  uint64_t hits = 0;
  for (uint64_t va : vas) {
    hits += tlb.Lookup(1, va).has_value() ? 1 : 0;
  }
  double ns = NsSince(t0);
  g_sink = g_sink + hits;
  return ns / static_cast<double>(vas.size());
}

// INVLPG of resident pages: refill (untimed), then flush each page once.
double TlbNsPerFlush(const Shape& shape) {
  tlbsim::Tlb tlb;
  tlbsim::TlbGeometry geo;
  int resident = std::min(shape.working_set_pages, geo.sets_4k * geo.ways_4k);
  double ns = 0;
  uint64_t flushes = 0;
  while (flushes < kCallsPerRepeat) {
    for (int p = 0; p < resident; ++p) {
      tlb.Insert(EntryFor(p));
    }
    Clock::time_point t0 = Clock::now();
    for (int p = 0; p < resident; ++p) {
      tlb.InvlPg(1, VaOf(p));
    }
    ns += NsSince(t0);
    flushes += static_cast<uint64_t>(resident);
  }
  g_sink = g_sink + tlb.stats().selective_flushes;
  return ns / static_cast<double>(flushes);
}

std::unique_ptr<tlbsim::PageTable> MappedTable(const Shape& shape) {
  auto pt = std::make_unique<tlbsim::PageTable>(1);
  for (int p = 0; p < shape.working_set_pages; ++p) {
    pt->Map(VaOf(p), 0x1000 + static_cast<uint64_t>(p),
            tlbsim::PteFlags::kPresent | tlbsim::PteFlags::kWrite | tlbsim::PteFlags::kUser);
  }
  return pt;
}

double WalkNs(const Shape& shape, uint64_t seed) {
  std::unique_ptr<tlbsim::PageTable> pt = MappedTable(shape);
  int walker_node = shape.numa ? 1 : -1;  // walk_sweep's remote walker
  std::vector<uint64_t> vas = RandomVas(shape, seed);
  Clock::time_point t0 = Clock::now();
  uint64_t levels = 0;
  for (uint64_t va : vas) {
    levels += static_cast<uint64_t>(pt->Walk(va, walker_node).levels_visited);
  }
  double ns = NsSince(t0);
  g_sink = g_sink + levels;
  return ns / static_cast<double>(vas.size());
}

double PresentPteNs(const Shape& shape) {
  std::unique_ptr<tlbsim::PageTable> pt = MappedTable(shape);
  uint64_t hi = VaOf(shape.working_set_pages);
  uint64_t visited = 0;
  Clock::time_point t0 = Clock::now();
  while (visited < kCallsPerRepeat) {
    pt->ForEachPresent(kBaseVa, hi,
                       [&visited](uint64_t, tlbsim::Pte, tlbsim::PageSize) { ++visited; });
  }
  double ns = NsSince(t0);
  g_sink = g_sink + visited;
  return ns / static_cast<double>(visited);
}

// Allocates the working set's frames and frees them again, in rounds.
double FrameAllocNs(const Shape& shape) {
  tlbsim::FrameAllocator frames;
  if (shape.numa) {
    frames.ConfigureNuma(2, tlbsim::NumaPlacement::kLocal);
  }
  std::vector<uint64_t> pfns(static_cast<size_t>(shape.working_set_pages));
  uint64_t allocs = 0;
  Clock::time_point t0 = Clock::now();
  while (allocs < kCallsPerRepeat) {
    for (uint64_t& pfn : pfns) {
      pfn = frames.AllocOn(0);
    }
    for (uint64_t pfn : pfns) {
      frames.Unref(pfn);
    }
    allocs += pfns.size();
  }
  double ns = NsSince(t0);
  g_sink = g_sink + frames.total_allocs();
  return ns / static_cast<double>(allocs);
}

}  // namespace

ProbeResults RunProbes(Workload w, uint64_t seed, SpanRecorder* spans, int64_t op) {
  Shape shape = WorkloadShape(w);
  ProbeResults r;
  r.sim_ns_per_event = Probe(spans, "sim", "probe_event", op,
                             [&] { return EngineNsPerEvent(shape, seed); });
  r.cache_ns_per_access = Probe(spans, "cache", "probe_access", op,
                                [&] { return CoherenceNsPerAccess(shape, seed); });
  r.tlb_ns_per_lookup = Probe(spans, "hw", "probe_tlb_lookup", op,
                              [&] { return TlbNsPerLookup(shape, seed); });
  r.tlb_ns_per_flush = Probe(spans, "hw", "probe_tlb_flush", op,
                             [&] { return TlbNsPerFlush(shape); });
  r.mm_ns_per_walk = Probe(spans, "mm", "probe_walk", op, [&] { return WalkNs(shape, seed); });
  r.mm_ns_per_present_pte = Probe(spans, "mm", "probe_present_pte", op,
                                  [&] { return PresentPteNs(shape); });
  r.mm_ns_per_frame_alloc = Probe(spans, "mm", "probe_frame_alloc", op,
                                  [&] { return FrameAllocNs(shape); });

  // An op builds one System per run, baseline then optimized; alternate.
  tlbsim::Samples construct_ms;
  tlbsim::Samples snapshot_ms;
  for (int i = 0; i < kSystemRepeats; ++i) {
    tlbsim::SystemConfig cfg = WorkloadSystemConfig(w, i % 2 == 1, seed);
    std::unique_ptr<tlbsim::System> sys;
    {
      SpanRecorder::Scope span(spans, "core", "System", op);
      Clock::time_point t0 = Clock::now();
      sys = std::make_unique<tlbsim::System>(cfg);
      construct_ms.Add(NsSince(t0) / 1e6);
    }
    {
      SpanRecorder::Scope span(spans, "core", "SystemMetricsJson", op);
      Clock::time_point t0 = Clock::now();
      tlbsim::Json snapshot = tlbsim::SystemMetricsJson(*sys);
      snapshot_ms.Add(NsSince(t0) / 1e6);
      g_sink = g_sink + snapshot.size();
    }
  }
  r.system_construct_ms = construct_ms.Percentile(50);
  r.snapshot_ms = snapshot_ms.Percentile(50);
  return r;
}

}  // namespace perfbench
