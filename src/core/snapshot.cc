#include "src/core/snapshot.h"

namespace tlbsim {

namespace {

void SetTlbStats(MetricsRegistry& m, const char* prefix, int cpu, const Tlb::Stats& s) {
  std::string p(prefix);
  m.percpu(p + ".lookups").Set(cpu, s.lookups);
  m.percpu(p + ".hits").Set(cpu, s.hits);
  m.percpu(p + ".misses").Set(cpu, s.misses);
  m.percpu(p + ".inserts").Set(cpu, s.inserts);
  m.percpu(p + ".evictions").Set(cpu, s.evictions);
  m.percpu(p + ".cross_pcid_evictions").Set(cpu, s.cross_pcid_evictions);
  m.percpu(p + ".selective_flushes").Set(cpu, s.selective_flushes);
  m.percpu(p + ".full_flushes").Set(cpu, s.full_flushes);
  m.percpu(p + ".fracture_forced_full").Set(cpu, s.fracture_forced_full);
}

}  // namespace

void CollectMachineMetrics(Machine& machine) {
  MetricsRegistry& m = machine.metrics();
  for (int i = 0; i < machine.num_cpus(); ++i) {
    SimCpu& cpu = machine.cpu(i);
    SetTlbStats(m, "tlb", i, cpu.tlb().stats());
    SetTlbStats(m, "itlb", i, cpu.itlb().stats());
    const PageWalkCache::Stats& pwc = cpu.pwc().stats();
    m.percpu("pwc.lookups").Set(i, pwc.lookups);
    m.percpu("pwc.hits").Set(i, pwc.hits);
    m.percpu("pwc.full_flushes").Set(i, pwc.full_flushes);
    const SimCpu::Stats& cs = cpu.stats();
    m.percpu("cpu.irqs_handled").Set(i, cs.irqs_handled);
    m.percpu("cpu.nmis_handled").Set(i, cs.nmis_handled);
    m.percpu("cpu.ipis_received").Set(i, cs.ipis_received);
    m.percpu("cpu.cycles_in_irq").Set(i, static_cast<uint64_t>(cs.cycles_in_irq));
  }
  const CoherenceModel::GlobalStats& co = machine.coherence().global_stats();
  m.counter("coherence.accesses").Set(co.accesses);
  m.counter("coherence.hits").Set(co.hits);
  m.counter("coherence.transfers").Set(co.transfers);
  m.counter("coherence.cross_socket_transfers").Set(co.cross_socket_transfers);
  m.counter("coherence.invalidations").Set(co.invalidations);
  m.counter("coherence.memory_fills").Set(co.memory_fills);
  const Apic::Stats& ap = machine.apic().stats();
  m.counter("apic.ipis_sent").Set(ap.ipis_sent);
  m.counter("apic.icr_writes").Set(ap.icr_writes);
  m.counter("apic.multicast_messages").Set(ap.multicast_messages);
  m.counter("engine.events_processed").Set(machine.engine().events_processed());
  m.counter("engine.virtual_cycles").Set(static_cast<uint64_t>(machine.engine().now()));
  if (machine.config().numa.enabled()) {
    // Gauge view of the live per-CPU NUMA counters, so bench gates can probe
    // them under "counters" by dotted name. Guarded: registering these on a
    // flat machine would serialize them and break report byte-identity.
    m.counter("numa.remote_walks").Set(m.percpu("numa.remote_walks").total());
    m.counter("numa.remote_walk_cycles").Set(m.percpu("numa.remote_walk_cycles").total());
    m.counter("numa.remote_dram_accesses").Set(m.percpu("numa.remote_dram_accesses").total());
  }
}

void CollectKernelMetrics(Kernel& kernel) {
  MetricsRegistry& m = kernel.machine().metrics();
  const Kernel::Stats& s = kernel.stats();
  m.counter("kernel.syscalls").Set(s.syscalls);
  m.counter("kernel.page_faults").Set(s.page_faults);
  m.counter("kernel.cow_faults").Set(s.cow_faults);
  m.counter("kernel.demand_faults").Set(s.demand_faults);
  m.counter("kernel.flush_requests").Set(s.flush_requests);
  m.counter("kernel.context_switches").Set(s.context_switches);
  m.counter("kernel.lazy_entries").Set(s.lazy_entries);
  m.counter("kernel.compat_iret_full_flushes").Set(s.compat_iret_full_flushes);
  if (kernel.config().opts.reuse_elision) {
    // Optimization #7 counters. Guarded like the numa gauges:
    // a report produced with the flag off must never see these names, so the
    // existing figure/table documents stay byte-identical.
    m.counter("kernel.reuse_elided_flushes").Set(s.reuse_elided_flushes);
    m.counter("kernel.reuse_elided_pages").Set(s.reuse_elided_pages);
    m.counter("kernel.reuse_benign_closes").Set(s.reuse_benign_closes);
    m.counter("kernel.reuse_forced_flushes").Set(s.reuse_forced_flushes);
    m.counter("kernel.reuse_evictions").Set(s.reuse_evictions);
    m.counter("kernel.reuse_frame_handoffs").Set(s.reuse_frame_handoffs);
  }
}

MetricsRegistry& CollectSystemMetrics(System& system) {
  CollectMachineMetrics(system.machine());
  CollectKernelMetrics(system.kernel());
  system.backend().PublishMetrics(system.machine().metrics());
  return system.machine().metrics();
}

Json SystemMetricsJson(System& system) { return CollectSystemMetrics(system).ToJson(); }

}  // namespace tlbsim
