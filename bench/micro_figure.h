// Shared driver for Figures 5-8: runs the madvise microbenchmark across
// placements and cumulative optimization levels, 5 seeds each, and prints
// paper-style rows, plus one queue-backend baseline row per placement.
#ifndef TLBSIM_BENCH_MICRO_FIGURE_H_
#define TLBSIM_BENCH_MICRO_FIGURE_H_

namespace tlbsim {

// `bench_name` names the target (and the BENCH_<name>.json emitted under
// --json); `figure_name` is the paper figure for the printed header. `pti`
// selects safe (true) vs unsafe mode; `pages` the PTEs per flush. argv is
// scanned for --json (see bench/report.h). Returns 0 on success (sanity
// checks passed).
int RunMicroFigure(const char* bench_name, const char* figure_name, bool pti, int pages, int argc,
                   char** argv);

}  // namespace tlbsim

#endif  // TLBSIM_BENCH_MICRO_FIGURE_H_
