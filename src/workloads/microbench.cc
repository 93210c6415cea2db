#include "src/workloads/microbench.h"

#include "src/core/snapshot.h"

namespace tlbsim {

const char* PlacementName(Placement p) {
  switch (p) {
    case Placement::kSameCore:
      return "same-core";
    case Placement::kSameSocket:
      return "same-socket";
    case Placement::kOtherSocket:
      return "other-socket";
  }
  return "?";
}

int PlacementCpu(Placement p) {
  switch (p) {
    case Placement::kSameCore:
      return 1;  // SMT sibling of cpu 0
    case Placement::kSameSocket:
      return 4;
    case Placement::kOtherSocket:
      return 30;
  }
  return 30;
}

namespace {

SimTask ResponderLoop(SimCpu& cpu, const bool* stop) {
  while (!*stop) {
    co_await cpu.Execute(500);
  }
}

SimTask InitiatorProgram(System& sys, Thread& t, const MicroConfig& cfg, MicroResult* out,
                         bool* stop) {
  Kernel& k = sys.kernel();
  SimCpu& cpu = sys.machine().cpu(t.cpu);
  uint64_t bytes = static_cast<uint64_t>(cfg.pages) * kPageSize4K;
  uint64_t addr = co_await k.SysMmap(t, bytes, true, false);
  for (int it = 0; it < cfg.iterations; ++it) {
    // Touch to allocate (not measured).
    for (int i = 0; i < cfg.pages; ++i) {
      co_await k.UserAccess(t, addr + static_cast<uint64_t>(i) * kPageSize4K, true);
    }
    Cycles t0 = cpu.now();
    co_await k.SysMadviseDontneed(t, addr, bytes);
    out->initiator.Add(static_cast<double>(cpu.now() - t0));
  }
  *stop = true;
}

}  // namespace

MicroResult RunMadviseMicrobench(const MicroConfig& cfg) {
  System sys(cfg.system);
  sys.machine().apic().set_use_multicast(cfg.ipi_multicast);

  Process* p = sys.kernel().CreateProcess();
  Thread* initiator = sys.kernel().CreateThread(p, 0);
  MicroResult out;
  bool stop = false;
  for (int rcpu : cfg.responders) {
    sys.kernel().CreateThread(p, rcpu);
    SimCpu& responder = sys.machine().cpu(rcpu);
    responder.Spawn(ResponderLoop(responder, &stop));
  }
  sys.machine().cpu(0).Spawn(InitiatorProgram(sys, *initiator, cfg, &out, &stop));
  sys.machine().engine().Run();

  Cycles irq_cycles = 0;
  for (int rcpu : cfg.responders) {
    irq_cycles += sys.machine().cpu(rcpu).stats().cycles_in_irq;
  }
  out.responder_cycles_per_op = static_cast<double>(irq_cycles) /
                                static_cast<double>(cfg.responders.size()) / cfg.iterations;
  TlbFlushBackend::FlushStats flush = sys.backend().flush_stats();
  out.shootdowns = flush.shootdowns;
  out.early_acks = flush.early_acks;
  out.metrics = SystemMetricsJson(sys);
  return out;
}

namespace {

SimTask CowProgram(System& sys, Thread& t, const CowConfig& cfg, CowResult* out) {
  Kernel& k = sys.kernel();
  SimCpu& cpu = sys.machine().cpu(t.cpu);
  File* f = k.CreateFile(static_cast<uint64_t>(cfg.pages) * kPageSize4K);
  uint64_t bytes = static_cast<uint64_t>(cfg.pages) * kPageSize4K;
  for (int r = 0; r < cfg.rounds; ++r) {
    uint64_t addr = co_await k.SysMmap(t, bytes, true, /*shared=*/false, f);
    // Read-touch everything: maps the file pages read-only with the CoW bit.
    for (int i = 0; i < cfg.pages; ++i) {
      co_await k.UserAccess(t, addr + static_cast<uint64_t>(i) * kPageSize4K, false);
    }
    // Measured: the first write to each page breaks CoW.
    for (int i = 0; i < cfg.pages; ++i) {
      Cycles t0 = cpu.now();
      co_await k.UserAccess(t, addr + static_cast<uint64_t>(i) * kPageSize4K, true);
      out->write_cycles.Add(static_cast<double>(cpu.now() - t0));
    }
    co_await k.SysMunmap(t, addr, bytes);
  }
}

}  // namespace

CowResult RunCowMicrobench(const CowConfig& cfg) {
  System sys(cfg.system);

  Process* p = sys.kernel().CreateProcess();
  Thread* t = sys.kernel().CreateThread(p, 0);
  CowResult out;
  sys.machine().cpu(0).Spawn(CowProgram(sys, *t, cfg, &out));
  sys.machine().engine().Run();
  out.cow_faults = sys.kernel().stats().cow_faults;
  out.flushes_avoided = sys.backend().flush_stats().cow_flush_avoided;
  out.metrics = SystemMetricsJson(sys);
  return out;
}

}  // namespace tlbsim
