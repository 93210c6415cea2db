// Machine topology: sockets x physical cores x SMT threads.
//
// Default matches the paper's testbed: a Dell R630 with 2 Intel Xeon
// E5-2660v4 sockets, 14 physical cores each, 2 SMT threads per core
// (56 logical CPUs). CPU ids are socket-major, thread-minor:
//   cpu = socket * (cores_per_socket * smt) + core * smt + thread.
#ifndef TLBSIM_SRC_CACHE_TOPOLOGY_H_
#define TLBSIM_SRC_CACHE_TOPOLOGY_H_

#include <cassert>

namespace tlbsim {

struct Topology {
  int sockets = 2;
  int cores_per_socket = 14;
  int smt = 2;

  // Big-machine presets (run serially, like every topology): the same
  // per-socket core/SMT shape as the paper's testbed, scaled to 4 and 8
  // sockets (112 and 224 logical CPUs) — the glueless 4S and node-controller
  // 8S configurations Xeon E5/E7 platforms actually shipped.
  static Topology FourSocket() { return Topology{4, 14, 2}; }
  static Topology EightSocket() { return Topology{8, 14, 2}; }

  int num_cpus() const { return sockets * cores_per_socket * smt; }
  int cpus_per_socket() const { return cores_per_socket * smt; }

  int SocketOf(int cpu) const {
    assert(cpu >= 0 && cpu < num_cpus());
    return cpu / cpus_per_socket();
  }

  // --- memory nodes (NUMA) ---
  // One memory node per socket: local DRAM behind each socket's memory
  // controllers. The NUMA layer (src/mm/numa.h) keys placement and
  // remote-access charges off these.
  int num_nodes() const { return sockets; }
  int NodeOfCpu(int cpu) const { return SocketOf(cpu); }

  // Global physical-core index (SMT siblings share one).
  int PhysCoreOf(int cpu) const {
    assert(cpu >= 0 && cpu < num_cpus());
    return cpu / smt;
  }

  bool AreSmtSiblings(int a, int b) const { return a != b && PhysCoreOf(a) == PhysCoreOf(b); }

  enum class Distance {
    kSelf,         // same logical CPU
    kSmtSibling,   // same physical core, shares L1/L2
    kSameSocket,   // same socket, shares L3
    kCrossSocket,  // across the interconnect
  };

  Distance Between(int a, int b) const {
    if (a == b) {
      return Distance::kSelf;
    }
    if (PhysCoreOf(a) == PhysCoreOf(b)) {
      return Distance::kSmtSibling;
    }
    if (SocketOf(a) == SocketOf(b)) {
      return Distance::kSameSocket;
    }
    return Distance::kCrossSocket;
  }
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_CACHE_TOPOLOGY_H_
