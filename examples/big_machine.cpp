// Big-machine lab: the 8-socket / 224-cpu preset on the serial engine.
//
// One initiator on socket 0 madvises 8 pages of a process that also runs on
// one cpu of every other socket, so a single shootdown reaches all 7 remote
// sockets. Background "traffic" events on every cpu overlap the shootdown.
// The scenario runs twice and the two runs must replay identically
// (madvise cycles, IPIs, traffic events, events processed, end time).
//
//   $ ./build/examples/big_machine
#include <cstdio>
#include <vector>

#include "src/core/system.h"

using namespace tlbsim;

namespace {

SimTask Responder(SimCpu& cpu, const bool* stop) {
  while (!*stop) {
    co_await cpu.Execute(500);
  }
}

SimTask Initiator(System& sys, Thread& t, bool* stop, Cycles* madvise_cycles) {
  Kernel& kernel = sys.kernel();
  SimCpu& cpu = sys.machine().cpu(t.cpu);
  uint64_t addr = co_await kernel.SysMmap(t, 8 * kPageSize4K, /*writable=*/true,
                                          /*shared=*/false);
  for (int i = 0; i < 8; ++i) {
    co_await kernel.UserAccess(t, addr + static_cast<uint64_t>(i) * kPageSize4K,
                               /*write=*/true);
  }
  Cycles t0 = cpu.now();
  co_await kernel.SysMadviseDontneed(t, addr, 8 * kPageSize4K);
  *madvise_cycles = cpu.now() - t0;
  *stop = true;
}

struct RunResult {
  Cycles madvise_cycles = 0;
  uint64_t ipis_sent = 0;
  uint64_t traffic_events = 0;
  uint64_t events_processed = 0;
  Cycles end_time = 0;

  bool operator==(const RunResult&) const = default;
};

RunResult RunOnce() {
  SystemConfig cfg;
  cfg.machine.topo = Topology::EightSocket();
  cfg.kernel.pti = true;
  cfg.kernel.opts = OptimizationSet::AllGeneral();
  System sys(cfg);
  Machine& m = sys.machine();
  const Topology& topo = m.config().topo;

  // Background traffic: 64 events per cpu, each touching only its own cpu's
  // counter, spread over ~60k cycles so they overlap the shootdown.
  std::vector<uint64_t> traffic(static_cast<size_t>(topo.num_cpus()), 0);
  for (int cpu = 0; cpu < topo.num_cpus(); ++cpu) {
    for (int k = 0; k < 64; ++k) {
      uint64_t* slot = &traffic[static_cast<size_t>(cpu)];
      m.engine().Schedule(1 + static_cast<Cycles>(k) * 977, [slot] { ++*slot; });
    }
  }

  // One responder on every remote socket; the initiator madvises 8 pages,
  // shooting down all 7 of them at once.
  Process* proc = sys.kernel().CreateProcess();
  Thread* initiator = sys.kernel().CreateThread(proc, /*cpu=*/0);
  bool stop = false;
  for (int s = 1; s < topo.sockets; ++s) {
    int cpu = s * topo.cpus_per_socket();
    sys.kernel().CreateThread(proc, cpu);
    m.cpu(cpu).Spawn(Responder(m.cpu(cpu), &stop));
  }
  Cycles madvise_cycles = 0;
  m.cpu(0).Spawn(Initiator(sys, *initiator, &stop, &madvise_cycles));

  RunResult r;
  r.end_time = m.engine().Run();
  r.madvise_cycles = madvise_cycles;
  r.ipis_sent = m.apic().stats().ipis_sent;
  for (uint64_t t : traffic) {
    r.traffic_events += t;
  }
  r.events_processed = m.engine().events_processed();
  return r;
}

void Print(const char* label, const RunResult& r) {
  std::printf("%s: madvise %lld cycles, %llu IPIs, %llu traffic events, %llu events, end %lld\n",
              label, static_cast<long long>(r.madvise_cycles),
              static_cast<unsigned long long>(r.ipis_sent),
              static_cast<unsigned long long>(r.traffic_events),
              static_cast<unsigned long long>(r.events_processed),
              static_cast<long long>(r.end_time));
}

}  // namespace

int main(int argc, char** /*argv*/) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: big_machine\n");
    return 2;
  }
  std::printf("big_machine: 8 sockets, 224 cpus, shootdown to 7 remote sockets\n\n");

  RunResult first = RunOnce();
  RunResult replay = RunOnce();
  Print("run    ", first);
  Print("replay ", replay);

  if (!(first == replay)) {
    std::printf("\nFAIL: the replay diverged from the first run\n");
    return 1;
  }
  if (first.ipis_sent == 0) {
    std::printf("\nFAIL: the madvise sent no IPIs\n");
    return 1;
  }
  std::printf("\nOK: two runs replay identically\n");
  return 0;
}
