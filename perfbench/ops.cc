#include "perfbench/ops.h"

#include <cstring>
#include <exception>

#include "src/workloads/apache.h"
#include "src/workloads/numa_walk.h"
#include "src/workloads/sysbench.h"

namespace perfbench {

using tlbsim::Json;

namespace {

constexpr std::array<const char*, kNumKeys> kKeyNames = {
    "engine.events_processed",
    "engine.virtual_cycles",
    "coherence.accesses",
    "coherence.transfers",
    "coherence.cross_socket_transfers",
    "tlb.lookups",
    "tlb.hits",
    "tlb.misses",
    "tlb.fastpath_hits",
    "tlb.selective_flushes",
    "tlb.full_flushes",
    "pwc.lookups",
    "pwc.hits",
    "apic.ipis_sent",
    "numa.remote_walks",
    "kernel.syscalls",
    "kernel.page_faults",
    "kernel.flush_requests",
    "shootdown.shootdowns",
    "shootdown.batch_shootdowns",
    "shootdown.responder_selective",
    "shootdown.responder_full",
    "shootdown.early_acks",
    "shootdown.late_acks",
    "queue.shootdowns",
    "queue.ipi_resends",
    "queue.drains",
    "queue.drained_entries",
    "queue.drain_full",
    "queue.flush_all_fallbacks",
};

// The snapshot names the digest covers: every counter src/core/snapshot.cc
// publishes for these workloads. A fixed list rather than the whole document,
// so that a later change which only adds names to the snapshot (new layer
// counters, phase histograms) keeps the committed golden digests valid,
// while any change to what the simulation computes still breaks them.
constexpr const char* kDigestNames[] = {
    // per-CPU hardware counters (total and every CPU's value)
    "tlb.lookups", "tlb.hits", "tlb.misses", "tlb.inserts", "tlb.evictions",
    "tlb.cross_pcid_evictions", "tlb.selective_flushes", "tlb.full_flushes",
    "tlb.fracture_forced_full", "tlb.fastpath_hits", "itlb.lookups", "itlb.hits", "itlb.misses",
    "itlb.inserts", "itlb.evictions", "itlb.selective_flushes", "itlb.full_flushes",
    "pwc.lookups", "pwc.hits", "pwc.full_flushes", "cpu.irqs_handled", "cpu.nmis_handled",
    "cpu.ipis_received", "cpu.cycles_in_irq",
    // machine-wide counters
    "coherence.accesses", "coherence.hits", "coherence.transfers",
    "coherence.cross_socket_transfers", "coherence.invalidations", "coherence.memory_fills",
    "apic.ipis_sent", "apic.icr_writes", "apic.multicast_messages", "engine.events_processed",
    "engine.virtual_cycles", "numa.remote_walks", "numa.remote_walk_cycles",
    "numa.remote_dram_accesses",
    // kernel and flush protocols
    "kernel.syscalls", "kernel.page_faults", "kernel.cow_faults", "kernel.demand_faults",
    "kernel.flush_requests", "kernel.context_switches", "kernel.lazy_entries",
    "kernel.compat_iret_full_flushes", "shootdown.flush_requests", "shootdown.shootdowns",
    "shootdown.local_only", "shootdown.full_local_flushes", "shootdown.invlpg_issued",
    "shootdown.invpcid_issued", "shootdown.early_acks", "shootdown.late_acks",
    "shootdown.deferred_selective", "shootdown.in_context_invlpg", "shootdown.in_context_full",
    "shootdown.batched_absorbed", "shootdown.batch_shootdowns", "shootdown.batched_ipi_skipped",
    "shootdown.responder_skipped_gen", "shootdown.responder_selective", "shootdown.responder_full",
    "shootdown.responder_full_storm", "shootdown.lazy_skipped", "queue.flush_requests",
    "queue.shootdowns", "queue.enqueued", "queue.max_ring_occupancy", "queue.ring_overflows",
    "queue.flush_all_fallbacks", "queue.ipi_sends", "queue.ipi_coalesced", "queue.ipi_resends",
    "queue.acks", "queue.ack_timeouts", "queue.spin_polls", "queue.spin_cycles", "queue.drains",
    "queue.drained_entries", "queue.drain_skipped_mm", "queue.drain_skipped_gen",
    "queue.drain_flush_all", "queue.drain_full", "queue.drain_full_storm",
    "queue.invlpg_issued", "queue.invpcid_issued",
};

// FNV-1a, 64-bit.
class Digest {
 public:
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// A counter's value, or a per-CPU counter's total; 0 when absent.
uint64_t SnapshotValue(const Json& metrics, std::string_view name) {
  if (const Json* counters = metrics.Find("counters")) {
    if (const Json* v = counters->Find(name)) {
      return v->AsUint();
    }
  }
  if (const Json* percpu = metrics.Find("per_cpu")) {
    if (const Json* v = percpu->Find(name)) {
      if (const Json* total = v->Find("total")) {
        return total->AsUint();
      }
    }
  }
  return 0;
}

void DigestSnapshot(const Json& metrics, Digest* d) {
  const Json* percpu = metrics.Find("per_cpu");
  for (const char* name : kDigestNames) {
    d->Str(name);
    d->U64(SnapshotValue(metrics, name));
    const Json* entry = percpu != nullptr ? percpu->Find(name) : nullptr;
    const Json* by_cpu = entry != nullptr ? entry->Find("by_cpu") : nullptr;
    if (by_cpu != nullptr) {
      for (const auto& [cpu, v] : by_cpu->members()) {
        d->Str(cpu);
        d->U64(v.AsUint());
      }
    }
  }
}

void AddCounts(const Json& metrics, Counts* c) {
  for (size_t k = 0; k < kNumKeys; ++k) {
    (*c)[k] += SnapshotValue(metrics, kKeyNames[k]);
  }
}

void DigestStat(const tlbsim::RunningStat& s, Digest* d) {
  d->U64(s.count());
  d->F64(s.mean());
  d->F64(s.min());
  d->F64(s.max());
}

tlbsim::SysbenchConfig SysbenchFor(bool optimized, uint64_t seed) {
  tlbsim::SysbenchConfig cfg;
  cfg.pti = true;
  cfg.threads = 16;
  cfg.backend = tlbsim::FlushBackendKind::kIpi;
  cfg.seed = seed;
  if (optimized) {
    cfg.opts = tlbsim::OptimizationSet::Cumulative(4);
    cfg.opts.userspace_batching = true;
  }
  return cfg;
}

tlbsim::ApacheConfig ApacheFor(bool optimized, uint64_t seed) {
  tlbsim::ApacheConfig cfg;
  cfg.pti = true;
  cfg.server_cores = 8;
  cfg.backend = tlbsim::FlushBackendKind::kQueue;
  cfg.seed = seed;
  if (optimized) {
    cfg.opts = tlbsim::OptimizationSet::All();  // all six, batching included
  }
  return cfg;
}

tlbsim::NumaWalkConfig NumaWalkFor(bool optimized, uint64_t seed) {
  tlbsim::NumaWalkConfig cfg;
  cfg.numa_nodes = 2;
  cfg.opts.pt_replication = optimized;
  cfg.seed = seed;
  return cfg;
}

// One simulation run: folds its results into the digest and counts. Returns
// the quantity the run must not leave at zero (shootdowns, or walks).
uint64_t RunOnce(Workload w, bool optimized, uint64_t seed, Digest* d, Counts* c) {
  d->U64(optimized ? 1 : 0);
  switch (w) {
    case Workload::kFsyncStorm: {
      tlbsim::SysbenchResult r = tlbsim::RunSysbench(SysbenchFor(optimized, seed));
      d->F64(r.writes_per_mcycle);
      d->U64(static_cast<uint64_t>(r.total_cycles));
      d->U64(r.shootdowns);
      d->U64(r.responder_full_storm);
      d->U64(r.skipped_gen);
      DigestSnapshot(r.metrics, d);
      AddCounts(r.metrics, c);
      return r.shootdowns;
    }
    case Workload::kMmapServe: {
      tlbsim::ApacheResult r = tlbsim::RunApache(ApacheFor(optimized, seed));
      d->F64(r.requests_per_mcycle);
      d->F64(r.raw_requests_per_mcycle);
      d->U64(r.shootdowns);
      DigestSnapshot(r.metrics, d);
      AddCounts(r.metrics, c);
      return r.shootdowns;
    }
    case Workload::kWalkSweep: {
      tlbsim::NumaWalkResult r = tlbsim::RunNumaWalk(NumaWalkFor(optimized, seed));
      DigestStat(r.local_walk, d);
      DigestStat(r.remote_walk, d);
      DigestStat(r.storm_initiator, d);
      d->U64(r.remote_walks);
      d->U64(r.remote_walk_cycles);
      d->U64(r.remote_dram_accesses);
      d->U64(r.shootdowns);
      DigestSnapshot(r.metrics, d);
      AddCounts(r.metrics, c);
      return r.local_walk.count() + r.remote_walk.count();
    }
  }
  return 0;
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kFsyncStorm:
      return "fsync_storm";
    case Workload::kMmapServe:
      return "mmap_serve";
    case Workload::kWalkSweep:
      return "walk_sweep";
  }
  return "unknown";
}

bool ParseWorkload(std::string_view name, Workload* out) {
  for (Workload w : {Workload::kFsyncStorm, Workload::kMmapServe, Workload::kWalkSweep}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

Counts& operator+=(Counts& a, const Counts& b) {
  for (size_t k = 0; k < kNumKeys; ++k) {
    a[k] += b[k];
  }
  return a;
}

OpResult RunOp(Workload w, uint64_t op_seed, SpanRecorder* spans, int64_t op) {
  OpResult out;
  Digest d;
  d.Str(WorkloadName(w));
  d.U64(op_seed);
  try {
    for (bool optimized : {false, true}) {
      SpanRecorder::Scope span(spans, "workloads", optimized ? "optimized_run" : "baseline_run",
                               op);
      if (RunOnce(w, optimized, op_seed, &d, &out.counts) == 0) {
        out.error = std::string(optimized ? "optimized" : "baseline") +
                    (w == Workload::kWalkSweep ? " run made no walks" : " run made no shootdowns");
        return out;
      }
    }
  } catch (const std::exception& e) {
    out.error = std::string("exception: ") + e.what();
    return out;
  } catch (...) {
    out.error = "unknown exception";
    return out;
  }
  out.ok = true;
  out.digest = d.value();
  return out;
}

tlbsim::SystemConfig WorkloadSystemConfig(Workload w, bool optimized, uint64_t seed) {
  // Mirrors the System set-up in src/workloads/{sysbench,apache,numa_walk}.cc.
  tlbsim::SystemConfig sys;
  sys.machine.seed = seed;
  switch (w) {
    case Workload::kFsyncStorm: {
      tlbsim::SysbenchConfig c = SysbenchFor(optimized, seed);
      sys.kernel.pti = c.pti;
      sys.kernel.opts = c.opts;
      sys.backend = c.backend;
      break;
    }
    case Workload::kMmapServe: {
      tlbsim::ApacheConfig c = ApacheFor(optimized, seed);
      sys.kernel.pti = c.pti;
      sys.kernel.opts = c.opts;
      sys.backend = c.backend;
      break;
    }
    case Workload::kWalkSweep: {
      tlbsim::NumaWalkConfig c = NumaWalkFor(optimized, seed);
      sys.kernel.pti = c.pti;
      sys.kernel.opts = c.opts;
      sys.machine.numa.nodes = c.numa_nodes;
      sys.machine.numa.placement = c.placement;
      break;
    }
  }
  return sys;
}

Shape WorkloadShape(Workload w) {
  Shape s;
  switch (w) {
    case Workload::kFsyncStorm:
      for (int cpu = 0; cpu < 16; ++cpu) {
        s.cpus.push_back(cpu);
      }
      s.working_set_pages = 4096;  // the fdatasync'ed file
      break;
    case Workload::kMmapServe:
      for (int cpu = 0; cpu < 8; ++cpu) {
        s.cpus.push_back(cpu);
      }
      s.working_set_pages = 3 * 8;  // one 3-page mapping per server core
      break;
    case Workload::kWalkSweep:
      s.cpus = {0, 4, 30};  // home thread, local walker, remote walker
      s.working_set_pages = 48;
      s.numa = true;
      break;
  }
  return s;
}

}  // namespace perfbench
