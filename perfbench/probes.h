// Layer probes: time calls into one layer's public functions at the input
// sizes a workload gives them (busy CPUs, lines, working-set pages, pending
// events). Probes run with warm host caches, so a probe's cost times the
// op's count of the same work is a lower bound on that layer's share.
#ifndef TLBSIM_PERFBENCH_PROBES_H_
#define TLBSIM_PERFBENCH_PROBES_H_

#include <cstdint>

#include "perfbench/ops.h"
#include "perfbench/spans.h"

namespace perfbench {

// Medians over a few repetitions of each probe.
struct ProbeResults {
  double sim_ns_per_event = 0;      // Engine: schedule + fire one event
  double cache_ns_per_access = 0;   // CoherenceModel::Access
  double tlb_ns_per_lookup = 0;     // Tlb::Lookup over the working set
  double tlb_ns_per_flush = 0;      // Tlb::InvlPg of a resident page
  double mm_ns_per_walk = 0;        // PageTable::Walk
  double mm_ns_per_present_pte = 0; // PageTable::ForEachPresent, per leaf visited
  double mm_ns_per_frame_alloc = 0; // FrameAllocator alloc + free
  double system_construct_ms = 0;   // System construction, workload config
  double snapshot_ms = 0;           // SystemMetricsJson on that System
};

// Every probe call is wrapped in a span tagged with `op`.
ProbeResults RunProbes(Workload w, uint64_t seed, SpanRecorder* spans, int64_t op);

}  // namespace perfbench

#endif  // TLBSIM_PERFBENCH_PROBES_H_
