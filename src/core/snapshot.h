// Snapshot collection: publishes every layer's accumulated Stats struct into
// a MetricsRegistry as named counters.
//
// The per-component Stats structs (Tlb::Stats, Apic::Stats, ...) stay the
// source of truth — tests and figures read them directly. This collector is
// the bridge to the observability subsystem: it copies their current values
// into registry counters via Counter::Set(), so re-collection is idempotent
// and a registry serialized after CollectSystemMetrics() contains the live
// metrics (histograms, per-CPU counters bumped during the run) AND a gauge
// view of every layer.
//
// Naming convention: "<layer>.<field>", e.g. "shootdown.early_acks",
// "tlb.misses" (per-CPU), "coherence.transfers", "apic.ipis_sent".
#ifndef TLBSIM_SRC_CORE_SNAPSHOT_H_
#define TLBSIM_SRC_CORE_SNAPSHOT_H_

#include "src/core/system.h"
#include "src/hw/machine.h"
#include "src/kernel/kernel.h"
#include "src/sim/json.h"
#include "src/sim/metrics.h"

namespace tlbsim {

// Hardware layers: per-CPU TLB/ITLB/PWC stats, CPU interrupt stats,
// coherence, APIC, and the engine's event count — into machine.metrics().
void CollectMachineMetrics(Machine& machine);

// Kernel::Stats as "kernel.*" counters, into the machine's registry.
void CollectKernelMetrics(Kernel& kernel);

// Both of the above plus the system's flush protocol's own counters
// ("shootdown.*" for the paper's engine, "queue.*" for the queue; see
// TlbFlushBackend::PublishMetrics); returns the machine's registry.
MetricsRegistry& CollectSystemMetrics(System& system);

// Collects and serializes in one step — what bench reports embed.
Json SystemMetricsJson(System& system);

}  // namespace tlbsim

#endif  // TLBSIM_SRC_CORE_SNAPSHOT_H_
