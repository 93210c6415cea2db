#include "src/hw/machine.h"

namespace tlbsim {

Machine::Machine(const MachineConfig& config)
    : config_(config),
      metrics_(config_.topo.num_cpus()),
      coherence_(config_.topo, config_.costs.cache),
      apic_(&engine_, config_.topo, &config_.costs) {
  apic_.set_metrics(&metrics_);
  Rng root(config_.seed);
  std::vector<SimCpu*> raw;
  raw.reserve(static_cast<size_t>(config_.topo.num_cpus()));
  for (int i = 0; i < config_.topo.num_cpus(); ++i) {
    // CPUs learn their memory node only on NUMA machines; -1 keeps every
    // remote-access charge (and NUMA metric) off on the flat default.
    int node = config_.numa.enabled()
                   ? config_.topo.NodeOfCpu(i) % config_.numa.nodes
                   : -1;
    cpus_.push_back(std::make_unique<SimCpu>(i, &engine_, &coherence_, &config_.costs, root.Fork(),
                                             &trace_, &metrics_, node));
    raw.push_back(cpus_.back().get());
  }
  apic_.set_cpus(std::move(raw));
}

}  // namespace tlbsim
