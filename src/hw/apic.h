// x2APIC model: IPI send/delivery with cluster-mode multicast.
//
// In x2APIC cluster mode CPUs are grouped in clusters of up to 16 logical
// CPUs; one ICR write can target any subset of ONE cluster (paper §2.2,
// [18,19]). Delivery latency depends on topological distance and carries
// jitter. The `use_multicast` switch enables the ablation from paper §2.3.2:
// systems evaluated without multicast IPIs (RadixVM, LATR) see far higher
// shootdown initiation costs.
#ifndef TLBSIM_SRC_HW_APIC_H_
#define TLBSIM_SRC_HW_APIC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/cache/topology.h"
#include "src/hw/cost_model.h"
#include "src/hw/cpu.h"
#include "src/sim/engine.h"

namespace tlbsim {

class Apic {
 public:
  static constexpr int kClusterSize = 16;

  Apic(Engine* engine, const Topology& topo, const CostModel* costs)
      : engine_(engine), topo_(topo), costs_(costs) {}

  void set_cpus(std::vector<SimCpu*> cpus) { cpus_ = std::move(cpus); }
  void set_use_multicast(bool on) { use_multicast_ = on; }

  // Publishes a live wire-latency histogram ("apic.ipi_wire_cycles") into the
  // registry; the handle is cached so Deliver() stays off the map.
  void set_metrics(MetricsRegistry* m) {
    wire_hist_ = m != nullptr ? &m->histogram("apic.ipi_wire_cycles") : nullptr;
  }

  // Sends `vector` to every CPU in `targets`. The sender pays one ICR write
  // per addressed cluster (or per target when multicast is disabled) inline
  // on its local clock; deliveries are scheduled per-target with wire latency.
  void SendIpi(SimCpu& sender, std::span<const int> targets, int vector);

  // Sends an NMI to a single CPU.
  void SendNmi(SimCpu& sender, int target);

  struct Stats {
    uint64_t ipis_sent = 0;       // per-target deliveries
    uint64_t icr_writes = 0;      // sender-side ICR MSR writes
    uint64_t multicast_messages = 0;
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

 private:
  Cycles WireLatency(int from, int to) const;
  void Deliver(SimCpu& sender, int target, int vector);
  Engine* engine_;
  Topology topo_;
  const CostModel* costs_;
  std::vector<SimCpu*> cpus_;
  bool use_multicast_ = true;
  Stats stats_;
  Histogram* wire_hist_ = nullptr;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_HW_APIC_H_
