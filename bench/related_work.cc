// Related-work comparison (paper §2.3): the baseline Linux 5.2.8 protocol,
// the paper's optimized protocol, FreeBSD's globally-serialized protocol, a
// LATR-like lazy protocol and the charmos-style queue on the same madvise
// microbenchmark, plus a multi-initiator stress that exposes FreeBSD's
// smp_ipi_mtx serialization and LATR's asynchrony.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "bench/report.h"
#include "src/core/system.h"
#include "src/exec/sweep.h"
#include "src/workloads/microbench.h"

namespace tlbsim {
namespace {

struct Design {
  const char* name;
  FlushBackendKind backend;
  OptimizationSet opts;  // read by the IPI engine only
};

const Design kDesigns[] = {
    {"Linux 5.2.8 baseline", FlushBackendKind::kIpi, OptimizationSet::None()},
    {"This paper (all four)", FlushBackendKind::kIpi, OptimizationSet::AllGeneral()},
    {"FreeBSD (smp_ipi_mtx)", FlushBackendKind::kFreeBsd, OptimizationSet::None()},
    {"LATR-like (lazy)", FlushBackendKind::kLatr, OptimizationSet::None()},
    {"Queue (charmos rings)", FlushBackendKind::kQueue, OptimizationSet::None()},
};

// Four concurrent initiators hammering one mm: FreeBSD serializes on the
// global mutex, Linux overlaps, LATR never waits.
double RunConcurrent(const SystemConfig& config) {
  System sys(config);
  Kernel& kernel = sys.kernel();
  Process* p = kernel.CreateProcess();
  Cycles end = 0;
  for (int cpu : {0, 2, 4, 6}) {
    Thread* t = kernel.CreateThread(p, cpu);
    sys.machine().cpu(cpu).Spawn([](Kernel& k, SimCpu& c, Thread& th, Cycles* e) -> SimTask {
      uint64_t a = co_await k.SysMmap(th, 8 * kPageSize4K, true, false);
      for (int r = 0; r < 50; ++r) {
        for (int j = 0; j < 8; ++j) {
          co_await k.UserAccess(th, a + static_cast<uint64_t>(j) * kPageSize4K, true);
        }
        co_await k.SysMadviseDontneed(th, a, 8 * kPageSize4K);
      }
      *e = std::max(*e, c.now());
    }(kernel, sys.machine().cpu(cpu), *t, &end));
  }
  sys.machine().engine().Run();
  return 4.0 * 50.0 / (static_cast<double>(end) / 1e6);  // madvise ops per Mcycle
}

// Both experiments for one (design, mode) table row.
struct DesignResult {
  MicroResult micro;  // one initiator (cpu 0), one cross-socket responder (cpu 30)
  double concurrent_ops_per_mcycle = 0.0;
};

}  // namespace
}  // namespace tlbsim

int main(int argc, char** argv) {
  using namespace tlbsim;
  BenchReport report("related_work", argc, argv);

  // One job per (mode, design) row, in print order.
  std::vector<std::function<DesignResult()>> jobs;
  for (bool pti : {true, false}) {
    for (const Design& d : kDesigns) {
      MicroConfig cfg;
      cfg.system.kernel.pti = pti;
      cfg.system.kernel.opts = d.opts;
      cfg.system.backend = d.backend;
      cfg.pages = 10;
      cfg.responders = {PlacementCpu(Placement::kOtherSocket)};
      cfg.iterations = 200;
      jobs.emplace_back([cfg] {
        return DesignResult{RunMadviseMicrobench(cfg), RunConcurrent(cfg.system)};
      });
    }
  }
  SweepRunner runner(report.threads());
  std::vector<DesignResult> results = runner.Run(std::move(jobs));

  size_t next = 0;
  for (bool pti : {true, false}) {
    std::printf("# Related-work comparison (%s mode), 10-PTE cross-socket madvise\n",
                pti ? "safe" : "unsafe");
    std::printf("%-24s %12s %12s %8s %18s\n", "design", "initiator", "responder", "IPIs",
                "4-initiator ops/Mc");
    for (const Design& d : kDesigns) {
      DesignResult& r = results[next++];
      MicroResult& m = r.micro;
      uint64_t ipis = BenchReport::Counter(m.metrics, "apic.ipis_sent");
      std::printf("%-24s %10.0f c %10.0f c %8llu %18.2f\n", d.name, m.initiator.mean(),
                  m.responder_cycles_per_op, static_cast<unsigned long long>(ipis),
                  r.concurrent_ops_per_mcycle);
      Json row = Json::Object();
      row["design"] = d.name;
      row["mode"] = pti ? "safe" : "unsafe";
      row["initiator_cycles"] = m.initiator.mean();
      row["responder_cycles"] = m.responder_cycles_per_op;
      row["ipis"] = ipis;
      row["concurrent_ops_per_mcycle"] = r.concurrent_ops_per_mcycle;
      report.AddRow(std::move(row));
      report.Set("metrics", std::move(m.metrics));  // last design's snapshot
    }
    std::printf(
        "# note: LATR's initiator latency omits the correctness cost the paper\n"
        "# documents (changed munmap semantics; see tests/alternatives_test.cc).\n\n");
  }
  report.SetHost(runner);
  return report.Finish(0);
}
