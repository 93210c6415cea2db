// Regenerates Figure 4: the cachelines contended during a TLB shootdown,
// split (baseline Linux) vs consolidated layout — counting coherence
// transfers per shootdown on each named kernel line.
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/report.h"
#include "src/core/snapshot.h"
#include "src/core/system.h"
#include "src/exec/sweep.h"

namespace tlbsim {
namespace {

SimTask Responder(SimCpu& cpu, const bool* stop) {
  while (!*stop) {
    co_await cpu.Execute(400);
  }
}

SimTask Initiator(System& sys, Thread& t, int rounds, bool* stop) {
  Kernel& k = sys.kernel();
  uint64_t addr = co_await k.SysMmap(t, 4 * kPageSize4K, true, false);
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < 4; ++i) {
      co_await k.UserAccess(t, addr + static_cast<uint64_t>(i) * kPageSize4K, true);
    }
    if (r == 1) {
      sys.machine().coherence().ResetStats();  // skip warmup
    }
    co_await k.SysMadviseDontneed(t, addr, 4 * kPageSize4K);
  }
  *stop = true;
}

// Everything one layout's run produces, returned by value so the simulation
// itself can execute on a sweep worker while main prints in order.
struct LineStat {
  std::string what;
  double transfers_per_shootdown = 0.0;
  uint64_t invalidations = 0;
};

struct LayoutResult {
  std::vector<LineStat> lines;
  double total_transfers_per_shootdown = 0.0;
  double cross_socket_transfers_per_shootdown = 0.0;
  Json metrics;
};

LayoutResult RunLayout(bool consolidated) {
  constexpr int kRounds = 101;  // 1 warmup + 100 measured
  OptimizationSet opts;
  opts.cacheline_consolidation = consolidated;
  SystemConfig cfg;
  cfg.kernel.pti = true;
  cfg.kernel.opts = opts;
  cfg.machine.costs.jitter_frac = 0.0;
  System sys(cfg);
  Process* p = sys.kernel().CreateProcess();
  Thread* ti = sys.kernel().CreateThread(p, 0);
  sys.kernel().CreateThread(p, 30);
  bool stop = false;
  sys.machine().cpu(30).Spawn(Responder(sys.machine().cpu(30), &stop));
  sys.machine().cpu(0).Spawn(Initiator(sys, *ti, kRounds, &stop));
  sys.machine().engine().Run();

  CoherenceModel& coh = sys.machine().coherence();
  PerCpu& init_pc = sys.kernel().percpu(0);
  PerCpu& resp_pc = sys.kernel().percpu(30);
  struct NamedLine {
    const char* what;
    LineId line;
  };
  const NamedLine lines[] = {
      {"responder cpu_tlbstate (lazy flag in split layout)", resp_pc.tlbstate_line},
      {"responder call-single-queue head", resp_pc.csq_line},
      {"CFD initiator->responder", init_pc.cfd(30).line},
      {"initiator stack flush_tlb_info", init_pc.stack_info_line},
      {"mm->context.tlb_gen", p->mm->gen_line},
  };
  double measured = 100.0;
  LayoutResult out;
  for (const NamedLine& nl : lines) {
    auto s = coh.StatsFor(nl.line);
    LineStat ls;
    ls.what = nl.what;
    ls.transfers_per_shootdown = static_cast<double>(s.transfers) / measured;
    ls.invalidations = s.invalidations;
    out.total_transfers_per_shootdown += ls.transfers_per_shootdown;
    out.lines.push_back(std::move(ls));
  }
  out.cross_socket_transfers_per_shootdown =
      static_cast<double>(coh.global_stats().cross_socket_transfers) / measured;
  out.metrics = SystemMetricsJson(sys);
  return out;
}

void Report(bool consolidated, const LayoutResult& r, BenchReport* report) {
  std::printf("== %s layout ==\n", consolidated ? "Consolidated (Fig 4b)" : "Split (Fig 4a)");
  Json row = Json::Object();
  row["layout"] = consolidated ? "consolidated" : "split";
  Json& line_rows = row["lines"];
  line_rows = Json::Object();
  for (const LineStat& ls : r.lines) {
    std::printf("  %-52s %6.2f transfers/shootdown (%llu invalidations)\n", ls.what.c_str(),
                ls.transfers_per_shootdown, static_cast<unsigned long long>(ls.invalidations));
    Json lj = Json::Object();
    lj["transfers_per_shootdown"] = ls.transfers_per_shootdown;
    lj["invalidations"] = ls.invalidations;
    line_rows[ls.what] = std::move(lj);
  }
  std::printf("  %-52s %6.2f transfers/shootdown\n", "TOTAL contended kernel lines",
              r.total_transfers_per_shootdown);
  std::printf("  global cross-socket transfers/shootdown: %.2f\n\n",
              r.cross_socket_transfers_per_shootdown);
  row["total_transfers_per_shootdown"] = r.total_transfers_per_shootdown;
  row["cross_socket_transfers_per_shootdown"] = r.cross_socket_transfers_per_shootdown;
  report->AddRow(std::move(row));
}

}  // namespace
}  // namespace tlbsim

int main(int argc, char** argv) {
  using namespace tlbsim;
  BenchReport report("fig4_cacheline_consolidation", argc, argv);
  std::printf("# Figure 4: cacheline contention during shootdowns (100 x 4-PTE madvise,\n");
  std::printf("# initiator cpu0, responder cpu30 cross-socket, safe mode).\n\n");

  std::vector<std::function<LayoutResult()>> jobs;
  jobs.emplace_back([] { return RunLayout(false); });
  jobs.emplace_back([] { return RunLayout(true); });
  SweepRunner runner(report.threads());
  std::vector<LayoutResult> results = runner.Run(std::move(jobs));

  Report(false, results[0], &report);
  Report(true, results[1], &report);
  // Same key Snapshot() used: the consolidated run's registry, last writer.
  report.Set("metrics", std::move(results[1].metrics));
  report.SetHost(runner);
  return report.Finish(0);
}
