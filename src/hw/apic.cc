#include "src/hw/apic.h"

#include <climits>

namespace tlbsim {

Cycles Apic::WireLatency(int from, int to) const {
  switch (topo_.Between(from, to)) {
    case Topology::Distance::kSelf:
    case Topology::Distance::kSmtSibling:
      return costs_->ipi_wire_smt;
    case Topology::Distance::kSameSocket:
      return costs_->ipi_wire_same_socket;
    case Topology::Distance::kCrossSocket:
      return costs_->ipi_wire_cross_socket;
  }
  return costs_->ipi_wire_cross_socket;
}

void Apic::Deliver(SimCpu& sender, int target, int vector) {
  Cycles wire = sender.rng().Jitter(WireLatency(sender.id(), target), costs_->jitter_frac);
  Cycles arrival = sender.now() + wire;
  SimCpu* cpu = cpus_.at(static_cast<size_t>(target));
  engine_->Schedule(arrival, [cpu, vector] { cpu->RaiseIrq(vector); });
  ++stats_.ipis_sent;
  if (wire_hist_ != nullptr) {
    wire_hist_->Record(static_cast<double>(wire));
  }
}

void Apic::SendIpi(SimCpu& sender, std::span<const int> targets, int vector) {
  if (targets.empty()) {
    return;
  }
  if (!use_multicast_) {
    for (int t : targets) {
      sender.AdvanceInline(sender.rng().Jitter(costs_->ipi_icr_write, costs_->jitter_frac));
      ++stats_.icr_writes;
      Deliver(sender, t, vector);
    }
    return;
  }
  // Cluster-mode multicast: one ICR write per addressed cluster, clusters in
  // ascending order, each cluster's members in `targets` order. Each round
  // scans the targets for the next cluster, so a multicast allocates nothing
  // (target lists are short; there is a round per cluster).
  int cluster = -1;
  while (true) {
    int next = INT_MAX;
    for (int t : targets) {
      int c = t / kClusterSize;
      if (c > cluster && c < next) {
        next = c;
      }
    }
    if (next == INT_MAX) {
      break;
    }
    cluster = next;
    sender.AdvanceInline(sender.rng().Jitter(costs_->ipi_icr_write, costs_->jitter_frac));
    ++stats_.icr_writes;
    ++stats_.multicast_messages;
    for (int t : targets) {
      if (t / kClusterSize == cluster) {
        Deliver(sender, t, vector);
      }
    }
  }
}

void Apic::SendNmi(SimCpu& sender, int target) {
  sender.AdvanceInline(sender.rng().Jitter(costs_->ipi_icr_write, costs_->jitter_frac));
  ++stats_.icr_writes;
  Deliver(sender, target, kNmiVector);
}

}  // namespace tlbsim
