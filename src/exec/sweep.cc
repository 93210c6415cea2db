#include "src/exec/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

namespace tlbsim {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

int SweepRunner::DefaultThreadCount() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

SweepRunner::SweepRunner(int threads) { stats_.threads = std::max(threads, 1); }

void SweepRunner::FanOut(size_t n, const std::function<void(size_t)>& run) {
  std::vector<double> job_seconds(n);
  std::atomic<size_t> next{0};
  auto claim = [&] {
    for (size_t i = next++; i < n; i = next++) {
      Clock::time_point j0 = Clock::now();
      run(i);
      job_seconds[i] = Seconds(j0, Clock::now());
    }
  };
  Clock::time_point t0 = Clock::now();
  {
    // The caller is one of the min(threads, n) workers.
    const size_t workers = std::min(static_cast<size_t>(stats_.threads), n);
    std::vector<std::jthread> helpers;
    for (size_t h = 1; h < workers; ++h) {
      helpers.emplace_back(claim);
    }
    claim();
  }  // ~jthread joins every helper: each slot is written before it is read
  stats_.jobs += n;
  stats_.wall_seconds += Seconds(t0, Clock::now());
  for (double s : job_seconds) {
    stats_.job_seconds += s;
  }
}

Json SweepRunner::HostJson() const {
  Json h = Json::Object();
  h["threads"] = stats_.threads;
  h["jobs"] = stats_.jobs;
  h["wall_seconds"] = stats_.wall_seconds;
  h["job_seconds"] = stats_.job_seconds;
  h["parallel_speedup"] = stats_.speedup();
  return h;
}

}  // namespace tlbsim
