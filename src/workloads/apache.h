// Apache mpm_event-like workload (§5.3 / Figure 11).
//
// Worker threads of one process serve requests; each request maps the served
// file (<= 3 pages, like the paper's <12KB pages), reads it, "sends" it, and
// unmaps it — the mmap/munmap per request is what makes Apache's mpm_event a
// shootdown generator. A wrk-like closed-loop generator caps aggregate
// throughput (the paper's 150k req/s offered load; plateau ~110k req/s).
#ifndef TLBSIM_SRC_WORKLOADS_APACHE_H_
#define TLBSIM_SRC_WORKLOADS_APACHE_H_

#include <cstdint>

#include "src/core/system.h"
#include "src/sim/json.h"

namespace tlbsim {

struct ApacheConfig {
  bool pti = true;
  OptimizationSet opts;
  int server_cores = 1;        // taskset width, single socket (cpus 0..n-1)
  int requests_per_core = 60;
  int file_pages = 3;
  // Application work outside the mm path per request (accept/parse/send).
  Cycles app_cycles = 60000;
  // Generator capacity: wrk with 10 threads saturates the server at roughly
  // 11 cores' worth of throughput (the paper's ~110k req/s plateau, which
  // clips the optimized configurations' speedup at 11 cores).
  double generator_cap_per_mcycle = 92.0;
  uint64_t seed = 1;
  FlushBackendKind backend = FlushBackendKind::kIpi;
};

struct ApacheResult {
  double requests_per_mcycle = 0.0;  // after the generator cap
  double raw_requests_per_mcycle = 0.0;
  uint64_t shootdowns = 0;
  Json metrics;  // full registry snapshot of the run (src/core/snapshot.h)
};

ApacheResult RunApache(const ApacheConfig& config);

}  // namespace tlbsim

#endif  // TLBSIM_SRC_WORKLOADS_APACHE_H_
