// Machine: aggregates the hardware substrate — engine, coherence model,
// per-CPU SimCpus, and the APIC — configured from one MachineConfig.
#ifndef TLBSIM_SRC_HW_MACHINE_H_
#define TLBSIM_SRC_HW_MACHINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cache/coherence.h"
#include "src/cache/topology.h"
#include "src/hw/apic.h"
#include "src/hw/cost_model.h"
#include "src/hw/cpu.h"
#include "src/mm/numa.h"
#include "src/sim/engine.h"
#include "src/sim/metrics.h"
#include "src/sim/rng.h"
#include "src/sim/trace.h"

namespace tlbsim {

struct MachineConfig {
  Topology topo;           // default: 2 sockets x 14 cores x 2 SMT
  CostModel costs;
  // NUMA memory model; default is flat (nodes == 1), which reproduces the
  // pre-NUMA timings exactly. Experiments set numa.nodes = topo.sockets.
  NumaConfig numa;
  uint64_t seed = 1;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config = MachineConfig{});
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  Engine& engine() { return engine_; }
  CoherenceModel& coherence() { return coherence_; }
  Apic& apic() { return apic_; }
  Trace& trace() { return trace_; }
  // The simulation-wide observability registry: live protocol metrics land
  // here as the run executes; CollectMachineMetrics() (src/core/snapshot.h)
  // adds snapshot gauges of every layer's Stats struct.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  const Topology& topo() const { return config_.topo; }
  const CostModel& costs() const { return config_.costs; }
  const MachineConfig& config() const { return config_; }

  int num_cpus() const { return static_cast<int>(cpus_.size()); }
  SimCpu& cpu(int id) { return *cpus_.at(static_cast<size_t>(id)); }

 private:
  MachineConfig config_;
  Engine engine_;
  Trace trace_;
  MetricsRegistry metrics_;  // before coherence/apic/cpus: they hold handles
  CoherenceModel coherence_;
  Apic apic_;
  std::vector<std::unique_ptr<SimCpu>> cpus_;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_HW_MACHINE_H_
