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
    metrics_ = m;
    wire_hist_ = m != nullptr ? &m->histogram("apic.ipi_wire_cycles") : nullptr;
  }

  // Protocol sharding: banks the send-side counters (and, when a registry is
  // attached, the wire histogram — "apic.ipi_wire_cycles.socket<k>") by the
  // sender's socket so concurrent shard windows never share a counter word
  // and histogram reservoirs fill in a deterministic per-socket order.
  // banks <= 1 keeps the legacy flat shape and metric names.
  void ConfigureBanks(int banks, int cpus_per_bank);

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
  // Summed over banks (one bank — the legacy flat counters — by default).
  Stats stats() const;
  void ResetStats() {  // tlblint: setup — between runs, engine quiescent
    for (Stats& b : banks_) {
      b = Stats{};
    }
  }

  // Protocol sharding: route each delivery onto the target CPU's event shard
  // (ScheduleOnCpu) instead of the sender's current timeline. Off by default:
  // the serial-protocol sharded mode relies on deliveries landing on the
  // sender's timeline (the serial queue) exactly as the legacy engine did.
  void set_shard_delivery(bool on) { shard_delivery_ = on; }

 private:
  Cycles WireLatency(int from, int to) const;
  void Deliver(SimCpu& sender, int target, int vector);
  // tlblint: shard-local — resolves into the sending cpu's own bank
  Stats& BankFor(int cpu) {
    if (banks_.size() == 1) return banks_[0];
    size_t b = static_cast<size_t>(cpu) / static_cast<size_t>(cpus_per_bank_);
    return banks_[b < banks_.size() ? b : banks_.size() - 1];
  }
  // tlblint: shard-local — resolves into the sending cpu's own bank
  Histogram* WireHistFor(int cpu) {
    if (wire_hists_.empty()) return wire_hist_;
    size_t b = static_cast<size_t>(cpu) / static_cast<size_t>(cpus_per_bank_);
    return wire_hists_[b < wire_hists_.size() ? b : wire_hists_.size() - 1];
  }

  Engine* engine_;
  Topology topo_;
  const CostModel* costs_;
  std::vector<SimCpu*> cpus_;
  bool use_multicast_ = true;
  bool shard_delivery_ = false;
  std::vector<Stats> banks_{1};         // tlblint: banked(socket)
  int cpus_per_bank_ = 1 << 30;
  MetricsRegistry* metrics_ = nullptr;
  Histogram* wire_hist_ = nullptr;
  std::vector<Histogram*> wire_hists_;  // tlblint: banked(socket) per-socket, shard mode only
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_HW_APIC_H_
