// Host-speed reference for the timed metrics.
//
// The benchmark runs on shared hosts whose speed drifts by 1.5-2x over
// minutes: other tenants share the cores, caches and memory, so the process
// keeps its CPU (CPU time = wall time) and still runs slower. A Calibrator
// does a fixed amount of work shaped like the simulator's hot loops: a hashed
// directory of cache lines, an ordered map of address ranges and an
// open-addressed table, all on memory it owns. Timing it next to every op
// gives the host's speed at that moment, and main.cc states each op's time at
// a fixed reference speed: op time x kReferenceMs / calibration time.
//
// The calibration calls no simulator code and allocates nothing from the
// global heap while it is timed, so a change to the simulator (or to how it
// allocates) moves op times and never the reference.
#ifndef TLBSIM_PERFBENCH_CALIB_H_
#define TLBSIM_PERFBENCH_CALIB_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class Calibrator {
 public:
  // The calibration's time on a quiet host: the median Run() on a 4-vCPU
  // Xeon (Sapphire Rapids) KVM guest. Only the scale of the reported times
  // depends on it.
  static constexpr double kReferenceMs = 4.5;

  // Builds the inputs and runs the work once, untimed.
  Calibrator();

  // Runs the fixed work once; returns its host milliseconds.
  double Run();

 private:
  std::vector<std::byte> arena_;  // backs the node containers
  std::vector<uint64_t> table_;
  uint64_t sink_ = 0;  // keeps the work observable
};

}  // namespace perfbench

#endif  // TLBSIM_PERFBENCH_CALIB_H_
