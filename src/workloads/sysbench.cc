#include "src/workloads/sysbench.h"

#include <algorithm>

#include "src/core/snapshot.h"

namespace tlbsim {

namespace {

struct Shared {
  uint64_t addr = 0;
  uint64_t bytes = 0;
  int done_threads = 0;
};

SimTask WorkerProgram(System& sys, Thread& t, const SysbenchConfig& cfg, Shared* sh,
                      uint64_t seed) {
  Kernel& k = sys.kernel();
  SimCpu& cpu = sys.machine().cpu(t.cpu);
  Rng rng(seed);
  for (int op = 0; op < cfg.writes_per_thread; ++op) {
    co_await cpu.Execute(rng.Jitter(cfg.db_work_cycles, 0.05));
    uint64_t page = static_cast<uint64_t>(rng.UniformInt(0, cfg.file_pages - 1));
    co_await k.UserAccess(t, sh->addr + page * kPageSize4K, true);
    if ((op + 1) % cfg.sync_interval == 0) {
      co_await k.SysMsyncClean(t, sh->addr, sh->bytes);
    }
  }
  ++sh->done_threads;
}

}  // namespace

SysbenchResult RunSysbench(const SysbenchConfig& cfg) {
  SystemConfig sys_cfg;
  sys_cfg.kernel.pti = cfg.pti;
  sys_cfg.kernel.opts = cfg.opts;
  sys_cfg.machine.seed = cfg.seed;
  sys_cfg.backend = cfg.backend;
  System sys(sys_cfg);

  Process* p = sys.kernel().CreateProcess();
  std::vector<Thread*> threads;
  for (int i = 0; i < cfg.threads; ++i) {
    threads.push_back(sys.kernel().CreateThread(p, i));  // socket 0: cpus 0..27
  }
  File* f = sys.kernel().CreateFile(static_cast<uint64_t>(cfg.file_pages) * kPageSize4K);

  Shared sh;
  sh.bytes = static_cast<uint64_t>(cfg.file_pages) * kPageSize4K;

  // One thread maps the file; all share the mapping (one mm).
  Rng seeder(cfg.seed);
  SimTask setup = [](System& s, Thread& t0, File* file, Shared* shared,
                     const SysbenchConfig& c, std::vector<Thread*> ts,
                     Rng sdr) -> SimTask {
    shared->addr =
        co_await s.kernel().SysMmap(t0, shared->bytes, true, /*shared=*/true, file);
    for (Thread* t : ts) {
      s.machine().cpu(t->cpu).Spawn(WorkerProgram(s, *t, c, shared, sdr.UniformU64()));
    }
  }(sys, *threads[0], f, &sh, cfg, threads, seeder.Fork());
  sys.machine().cpu(0).Spawn(std::move(setup));
  sys.machine().engine().Run();

  SysbenchResult out;
  Cycles end = 0;
  for (int i = 0; i < cfg.threads; ++i) {
    end = std::max(end, sys.machine().cpu(i).now());
  }
  out.total_cycles = end;
  double total_writes = static_cast<double>(cfg.threads) * cfg.writes_per_thread;
  out.writes_per_mcycle = total_writes / (static_cast<double>(end) / 1e6);
  TlbFlushBackend::FlushStats flush = sys.backend().flush_stats();
  out.shootdowns = flush.shootdowns;
  out.responder_full_storm = flush.storm_full_flushes;
  out.skipped_gen = flush.skipped_gen;
  out.metrics = SystemMetricsJson(sys);
  return out;
}

}  // namespace tlbsim
