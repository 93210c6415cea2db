#include "src/workloads/churn.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/snapshot.h"

namespace tlbsim {

namespace {

SimTask ArenaWorker(System& sys, Thread& t, const ChurnConfig& cfg, uint64_t seed) {
  Kernel& k = sys.kernel();
  SimCpu& cpu = sys.machine().cpu(t.cpu);
  Rng rng(seed);
  uint64_t arena_bytes = static_cast<uint64_t>(cfg.arena_pages) * kPageSize4K;
  uint64_t arena = co_await k.SysMmap(t, arena_bytes, /*writable=*/true, /*shared=*/false);
  for (int it = 0; it < cfg.iters; ++it) {
    co_await cpu.Execute(rng.Jitter(cfg.work_cycles, 0.05));
    for (int pg = 0; pg < cfg.arena_pages; ++pg) {
      co_await k.UserAccess(t, arena + static_cast<uint64_t>(pg) * kPageSize4K, true);
    }
    co_await k.SysMadviseDontneed(t, arena, arena_bytes);
    if (cfg.scratch_interval > 0 && (it + 1) % cfg.scratch_interval == 0) {
      // Scratch round: a short-lived mapping whose frames outlive it on the
      // free list, recycling into other allocations (hand-off closes).
      uint64_t scratch_bytes = static_cast<uint64_t>(cfg.scratch_pages) * kPageSize4K;
      uint64_t scratch =
          co_await k.SysMmap(t, scratch_bytes, /*writable=*/true, /*shared=*/false);
      for (int pg = 0; pg < cfg.scratch_pages; ++pg) {
        co_await k.UserAccess(t, scratch + static_cast<uint64_t>(pg) * kPageSize4K, true);
      }
      co_await k.SysMunmap(t, scratch, scratch_bytes);
    }
  }
  // Final retouch so the last DONTNEED round's records close inside the run.
  for (int pg = 0; pg < cfg.arena_pages; ++pg) {
    co_await k.UserAccess(t, arena + static_cast<uint64_t>(pg) * kPageSize4K, true);
  }
}

struct PagecacheShared {
  uint64_t addr = 0;
  uint64_t bytes = 0;
};

SimTask PagecacheWorker(System& sys, Thread& t, const ChurnConfig& cfg, PagecacheShared* sh,
                        int index, uint64_t seed) {
  Kernel& k = sys.kernel();
  SimCpu& cpu = sys.machine().cpu(t.cpu);
  Rng rng(seed);
  uint64_t window_bytes = static_cast<uint64_t>(cfg.window_pages) * kPageSize4K;
  uint64_t window = sh->addr + static_cast<uint64_t>(index) * window_bytes;
  for (int it = 0; it < cfg.iters; ++it) {
    co_await cpu.Execute(rng.Jitter(cfg.work_cycles, 0.05));
    // Dirty a few random pages of the window, then reclaim it wholesale: the
    // refault below pulls the same frames straight back from the page cache.
    for (int touch = 0; touch < cfg.window_pages / 2; ++touch) {
      uint64_t page = static_cast<uint64_t>(rng.UniformInt(0, cfg.window_pages - 1));
      co_await k.UserAccess(t, window + page * kPageSize4K, true);
    }
    co_await k.SysMadviseDontneed(t, window, window_bytes);
    for (int pg = 0; pg < cfg.window_pages; ++pg) {
      co_await k.UserAccess(t, window + static_cast<uint64_t>(pg) * kPageSize4K, false);
    }
    if (cfg.clean_interval > 0 && (it + 1) % cfg.clean_interval == 0) {
      co_await k.SysMsyncClean(t, sh->addr, sh->bytes);
    }
  }
}

ChurnResult Collect(System& sys, const ChurnConfig& cfg) {
  ChurnResult out;
  Cycles end = 0;
  for (int i = 0; i < cfg.threads; ++i) {
    end = std::max(end, sys.machine().cpu(i).now());
  }
  out.total_cycles = end;
  double rounds = static_cast<double>(cfg.threads) * cfg.iters;
  out.rounds_per_mcycle = rounds / (static_cast<double>(end) / 1e6);
  const Kernel::Stats ks = sys.kernel().stats();
  out.flush_requests = ks.flush_requests;
  out.elided_flushes = ks.reuse_elided_flushes;
  out.elided_pages = ks.reuse_elided_pages;
  out.benign_closes = ks.reuse_benign_closes;
  out.forced_flushes = ks.reuse_forced_flushes;
  out.evictions = ks.reuse_evictions;
  out.frame_handoffs = ks.reuse_frame_handoffs;
  out.shootdowns = sys.backend().flush_stats().shootdowns;
  out.metrics = SystemMetricsJson(sys);
  return out;
}

SystemConfig MakeSystemConfig(const ChurnConfig& cfg) {
  SystemConfig sys_cfg;
  sys_cfg.kernel.pti = cfg.pti;
  sys_cfg.kernel.opts = cfg.opts;
  sys_cfg.machine.seed = cfg.seed;
  sys_cfg.backend = cfg.backend;
  return sys_cfg;
}

}  // namespace

ChurnResult RunChurnArena(const ChurnConfig& cfg) {
  System sys(MakeSystemConfig(cfg));
  // One process per CPU pair (threads 2i, 2i+1 on socket 0): the mm spans two
  // CPUs so every zap is a real shootdown, while each mm's reuse table only
  // carries its own pair's churn.
  Rng seeder(cfg.seed);
  for (int i = 0; i < cfg.threads; i += 2) {
    Process* p = sys.kernel().CreateProcess();
    for (int j = i; j < std::min(i + 2, cfg.threads); ++j) {
      Thread* t = sys.kernel().CreateThread(p, j);  // socket 0: cpus 0..27
      sys.machine().cpu(t->cpu).Spawn(ArenaWorker(sys, *t, cfg, seeder.UniformU64()));
    }
  }
  sys.machine().engine().Run();
  return Collect(sys, cfg);
}

ChurnResult RunChurnPagecache(const ChurnConfig& cfg) {
  System sys(MakeSystemConfig(cfg));
  uint64_t window_bytes = static_cast<uint64_t>(cfg.window_pages) * kPageSize4K;
  uint64_t file_bytes = window_bytes * static_cast<uint64_t>(cfg.threads);
  File* f = sys.kernel().CreateFile(file_bytes);

  // One process per CPU pair, each mapping its own slice of the shared file
  // (the page cache — the File's frames — is what every process churns).
  Rng seeder(cfg.seed);
  std::vector<std::unique_ptr<PagecacheShared>> shares;
  for (int i = 0; i < cfg.threads; i += 2) {
    Process* p = sys.kernel().CreateProcess();
    std::vector<Thread*> pair;
    for (int j = i; j < std::min(i + 2, cfg.threads); ++j) {
      pair.push_back(sys.kernel().CreateThread(p, j));
    }
    shares.push_back(std::make_unique<PagecacheShared>());
    PagecacheShared* sh = shares.back().get();
    sh->bytes = window_bytes * static_cast<uint64_t>(pair.size());
    uint64_t file_offset = window_bytes * static_cast<uint64_t>(i);
    SimTask setup = [](System& s, Thread& t0, File* file, uint64_t off, PagecacheShared* shared,
                       const ChurnConfig& c, std::vector<Thread*> ts, Rng sdr) -> SimTask {
      shared->addr = co_await s.kernel().SysMmap(t0, shared->bytes, /*writable=*/true,
                                                 /*shared=*/true, file, off);
      for (size_t w = 0; w < ts.size(); ++w) {
        s.machine().cpu(ts[w]->cpu).Spawn(
            PagecacheWorker(s, *ts[w], c, shared, static_cast<int>(w), sdr.UniformU64()));
      }
    }(sys, *pair[0], f, file_offset, sh, cfg, pair, seeder.Fork());
    sys.machine().cpu(pair[0]->cpu).Spawn(std::move(setup));
  }
  sys.machine().engine().Run();
  return Collect(sys, cfg);
}

}  // namespace tlbsim
