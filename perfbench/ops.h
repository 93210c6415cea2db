// The benchmark's unit of work and its workloads.
//
// One operation (op) is one figure cell of the paper: a baseline simulation
// run plus an optimized run of the same seed, i.e. the work behind one
// speedup number. Each op returns a digest of both runs' simulated results
// and metrics snapshots, plus the snapshot counters the per-layer metrics
// are derived from.
#ifndef TLBSIM_PERFBENCH_OPS_H_
#define TLBSIM_PERFBENCH_OPS_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/spans.h"
#include "src/core/system.h"

namespace perfbench {

// SplitMix64, the benchmark's seed expander (op seeds, probe inputs).
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

enum class Workload {
  kFsyncStorm,  // RunSysbench, safe mode, 16 threads, IPI backend (Fig. 10)
  kMmapServe,   // RunApache, safe mode, 8 cores, queue backend (Fig. 11)
  kWalkSweep,   // RunNumaWalk, 2 nodes, replication off vs on
};

const char* WorkloadName(Workload w);
bool ParseWorkload(std::string_view name, Workload* out);

// Snapshot counters an op keeps, summed over its two runs. Per-CPU counters
// contribute their total. Names absent from a snapshot read as 0.
enum Key : size_t {
  kEvents,
  kVirtualCycles,
  kCoherenceAccesses,
  kCoherenceTransfers,
  kCoherenceCrossSocket,
  kTlbLookups,
  kTlbHits,
  kTlbMisses,
  kTlbFastpathHits,
  kTlbSelectiveFlushes,
  kTlbFullFlushes,
  kPwcLookups,
  kPwcHits,
  kIpisSent,
  kRemoteWalks,
  kSyscalls,
  kPageFaults,
  kFlushRequests,
  kIpiShootdowns,
  kBatchShootdowns,
  kResponderSelective,
  kResponderFull,
  kEarlyAcks,
  kLateAcks,
  kQueueShootdowns,
  kQueueIpiResends,
  kQueueDrains,
  kQueueDrainedEntries,
  kQueueDrainFull,
  kQueueFlushAllFallbacks,
  kNumKeys,
};
using Counts = std::array<uint64_t, kNumKeys>;

Counts& operator+=(Counts& a, const Counts& b);

struct OpResult {
  bool ok = false;    // no exception, and the runs did the work they exist for
  std::string error;  // why !ok
  uint64_t digest = 0;
  Counts counts{};
};

// Runs one op. Never throws: exceptions become !ok. Each of its two runs is
// recorded as a span tagged `op` (a null or disabled recorder records none).
OpResult RunOp(Workload w, uint64_t op_seed, SpanRecorder* spans = nullptr, int64_t op = -1);

// The SystemConfig the workload's library entry point builds for one run.
tlbsim::SystemConfig WorkloadSystemConfig(Workload w, bool optimized, uint64_t seed);

// Input sizes the layer probes take from a workload.
struct Shape {
  std::vector<int> cpus;  // CPUs running simulated threads
  int working_set_pages = 1;
  bool numa = false;      // walks go through the 2-node, node-aware path
};
Shape WorkloadShape(Workload w);

}  // namespace perfbench

#endif  // TLBSIM_PERFBENCH_OPS_H_
