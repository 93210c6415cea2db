// The §5.1 microbenchmark: mmap an anonymous mapping, touch pages, then
// madvise(MADV_DONTNEED) — measuring initiator syscall cycles and responder
// interruption cycles while busy-wait threads act as the shootdown targets
// (Figures 5-8, Table 3 and the bench/ablations storms).
#ifndef TLBSIM_SRC_WORKLOADS_MICROBENCH_H_
#define TLBSIM_SRC_WORKLOADS_MICROBENCH_H_

#include <cstdint>
#include <vector>

#include "src/core/system.h"
#include "src/sim/json.h"
#include "src/sim/stats.h"

namespace tlbsim {

// The figures' three responder placements relative to the initiator (cpu 0).
enum class Placement {
  kSameCore,     // responder on the initiator's SMT sibling
  kSameSocket,   // another core, same socket
  kOtherSocket,  // across the interconnect
};

const char* PlacementName(Placement p);

// The cpu a placement puts the responder on (default 2x14x2 topology).
int PlacementCpu(Placement p);

struct MicroConfig {
  SystemConfig system;  // pti, opts and flush threshold, seed, costs, backend
  int pages = 1;        // PTEs flushed per madvise
  // Cpus each running one busy-wait thread of the initiator's process.
  std::vector<int> responders = {PlacementCpu(Placement::kOtherSocket)};
  int iterations = 1000;  // madvise calls (scaled down from the paper's 100k)
  // x2APIC cluster multicast; off sends one unicast IPI per target (§2.3.2).
  bool ipi_multicast = true;
};

struct MicroResult {
  RunningStat initiator;  // cycles per madvise syscall
  double responder_cycles_per_op = 0.0;  // IRQ cycles, mean over responders
  uint64_t shootdowns = 0;
  uint64_t early_acks = 0;
  Json metrics;  // full registry snapshot of the run (src/core/snapshot.h)
};

// One complete simulation run.
MicroResult RunMadviseMicrobench(const MicroConfig& config);

// CoW microbenchmark (§5.1 / Figure 9): writes to a private memory-mapped
// file; measures visible cycles of the write (page fault included).
struct CowConfig {
  SystemConfig system;
  int pages = 64;     // CoW events per round
  int rounds = 5;
};

struct CowResult {
  RunningStat write_cycles;  // per CoW write event
  uint64_t cow_faults = 0;
  uint64_t flushes_avoided = 0;
  Json metrics;
};

CowResult RunCowMicrobench(const CowConfig& config);

}  // namespace tlbsim

#endif  // TLBSIM_SRC_WORKLOADS_MICROBENCH_H_
