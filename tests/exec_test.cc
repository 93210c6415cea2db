// Tests for the host-side sweep executor (src/exec): SweepRunner ordering,
// exception and concurrency semantics, and the contract the converted
// benches rely on — results independent of the host thread count.
#include <chrono>
#include <functional>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/sweep.h"
#include "src/workloads/microbench.h"

namespace tlbsim {
namespace {

TEST(SweepRunnerTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(SweepRunner::DefaultThreadCount(), 1);
}

TEST(SweepRunnerTest, ReturnsResultsInSubmissionOrder) {
  // Later jobs sleep less, so under 4 threads they *finish* out of order;
  // Run() must still hand results back in submission order.
  const int n = 24;
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < n; ++i) {
    jobs.emplace_back([i] {
      std::this_thread::sleep_for(std::chrono::microseconds(200 * (n - i)));
      return i;
    });
  }
  SweepRunner runner(4);
  std::vector<int> results = runner.Run(std::move(jobs));
  ASSERT_EQ(results.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)], i);
  }
  EXPECT_EQ(runner.stats().jobs, static_cast<uint64_t>(n));
  EXPECT_GT(runner.stats().job_seconds, 0.0);
}

TEST(SweepRunnerTest, SequentialAndParallelAgree) {
  auto make_jobs = [] {
    std::vector<std::function<uint64_t()>> jobs;
    for (uint64_t i = 0; i < 16; ++i) {
      jobs.emplace_back([i] { return i * i + 7; });
    }
    return jobs;
  };
  SweepRunner seq(1);
  SweepRunner par(4);
  EXPECT_EQ(seq.Run(make_jobs()), par.Run(make_jobs()));
}

TEST(SweepRunnerTest, RethrowsLowestIndexException) {
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.emplace_back([i]() -> int {
      if (i == 2 || i == 5) {
        throw std::runtime_error("job " + std::to_string(i));
      }
      return i;
    });
  }
  SweepRunner runner(4);
  try {
    runner.Run(std::move(jobs));
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 2");
  }
}

// Four jobs on four threads must all be in flight at once: each one arrives
// at a shared latch and then waits for the other three. A fan-out that runs
// the jobs one at a time lets the first three waits time out, so the test
// fails after ~30 s instead of hanging.
TEST(SweepRunnerTest, RunsJobsConcurrently) {
  constexpr int kJobs = 4;
  std::latch all_started(kJobs);
  std::vector<std::function<bool()>> jobs;
  for (int i = 0; i < kJobs; ++i) {
    jobs.emplace_back([&all_started] {
      all_started.count_down();
      auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!all_started.try_wait()) {
        if (std::chrono::steady_clock::now() > deadline) {
          return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return true;
    });
  }
  SweepRunner runner(kJobs);
  EXPECT_EQ(runner.Run(std::move(jobs)), std::vector<bool>(kJobs, true));
}

TEST(SweepRunnerTest, HostJsonReportsAccumulatedStats) {
  SweepRunner runner(2);
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.emplace_back([i] { return i; });
  }
  (void)runner.Run(std::move(jobs));
  Json host = runner.HostJson();
  EXPECT_EQ(host["threads"].AsInt(), 2);
  EXPECT_EQ(host["jobs"].AsInt(), 6);
}

// The bench contract: a sweep of real simulation jobs produces identical
// results — including the full metrics-registry snapshot — regardless of
// how many host threads execute it.
TEST(SweepRunnerTest, SimulationSweepIsThreadCountInvariant) {
  auto make_jobs = [] {
    std::vector<std::function<MicroResult()>> jobs;
    int i = 0;
    for (Placement place : {Placement::kSameSocket, Placement::kOtherSocket}) {
      for (int run = 0; run < 2; ++run, ++i) {
        MicroConfig cfg;
        cfg.system.kernel.opts = OptimizationSet::AllGeneral();
        cfg.system.machine.seed = 100 + static_cast<uint64_t>(run);
        cfg.responders = {PlacementCpu(place)};
        cfg.iterations = 20;
        jobs.emplace_back([cfg] { return RunMadviseMicrobench(cfg); });
      }
    }
    return jobs;
  };
  SweepRunner seq(1);
  SweepRunner par(4);
  std::vector<MicroResult> a = seq.Run(make_jobs());
  std::vector<MicroResult> b = par.Run(make_jobs());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].initiator.mean(), b[i].initiator.mean()) << "job " << i;
    EXPECT_DOUBLE_EQ(a[i].responder_cycles_per_op, b[i].responder_cycles_per_op) << "job " << i;
    EXPECT_EQ(a[i].shootdowns, b[i].shootdowns) << "job " << i;
    EXPECT_EQ(a[i].metrics.Dump(), b[i].metrics.Dump()) << "job " << i;
  }
}

}  // namespace
}  // namespace tlbsim
