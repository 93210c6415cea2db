// The §5.1 microbenchmark: mmap an anonymous mapping, touch pages, then
// madvise(MADV_DONTNEED) — measuring initiator syscall cycles and responder
// interruption cycles while a busy-wait thread acts as the shootdown target
// (Figures 5-8, Table 3).
#ifndef TLBSIM_SRC_WORKLOADS_MICROBENCH_H_
#define TLBSIM_SRC_WORKLOADS_MICROBENCH_H_

#include <cstdint>

#include "src/core/system.h"
#include "src/sim/json.h"
#include "src/sim/stats.h"

namespace tlbsim {

enum class Placement {
  kSameCore,     // responder on the initiator's SMT sibling
  kSameSocket,   // another core, same socket
  kOtherSocket,  // across the interconnect
};

const char* PlacementName(Placement p);

struct MicroConfig {
  bool pti = true;  // "safe" mode
  OptimizationSet opts;
  int pages = 1;  // PTEs flushed per madvise
  Placement placement = Placement::kOtherSocket;
  int iterations = 1000;  // madvise calls (scaled down from the paper's 100k)
  uint64_t seed = 1;
  FlushBackendKind backend = FlushBackendKind::kIpi;
};

struct MicroResult {
  RunningStat initiator;  // cycles per madvise syscall
  double responder_cycles_per_op = 0.0;
  uint64_t shootdowns = 0;
  uint64_t early_acks = 0;
  Json metrics;  // full registry snapshot of the run (src/core/snapshot.h)
};

// One complete simulation run.
MicroResult RunMadviseMicrobench(const MicroConfig& config);

// CoW microbenchmark (§5.1 / Figure 9): writes to a private memory-mapped
// file; measures visible cycles of the write (page fault included).
struct CowConfig {
  bool pti = true;
  OptimizationSet opts;
  int pages = 64;     // CoW events per round
  int rounds = 5;
  uint64_t seed = 1;
  FlushBackendKind backend = FlushBackendKind::kIpi;
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
