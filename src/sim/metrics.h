// tlbsim::metrics — the simulation-wide observability subsystem.
//
// A MetricsRegistry is a named collection of counters, per-CPU counters and
// histograms that the hot layers (shootdown protocol, APIC, MMU, coherence,
// kernel) publish into. Two properties are load-bearing:
//
//   Determinism. All values derive from virtual simulation state (virtual
//   Cycles, event counts), never host time. Two identical seeded runs
//   produce identical registries, and Json serialization is insertion/name-
//   ordered — so BENCH_*.json snapshots are byte-identical across runs,
//   which is what lets CI diff them.
//
//   Low overhead. Handles returned by the registry are stable for the
//   registry's lifetime (node-based map), so hot paths look a metric up once
//   and bump a plain integer afterwards. Histograms keep exact moments
//   (Welford) for every sample but cap the percentile reservoir at
//   kMaxSamples values (decimated by arrival stride, deterministic; see
//   Histogram) to bound memory.
//
// Scoped timers measure *virtual* cycles: they capture a clock functor at
// construction and record the delta at destruction, which in a coroutine
// frame is exactly the co_return point — so one ScopedCycleTimer at the top
// of a protocol coroutine times the whole operation across suspensions.
#ifndef TLBSIM_SRC_SIM_METRICS_H_
#define TLBSIM_SRC_SIM_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/json.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace tlbsim {

// Monotonic named counter. Set() exists for snapshot-style publication of
// externally accumulated stats (idempotent re-collection).
class Counter {
 public:
  void Inc(uint64_t delta = 1) { value_ += delta; }
  void Set(uint64_t value) { value_ = value; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

// A counter sharded by CPU id. Grows on demand so registries built before
// the machine size is known still work.
class PerCpuCounter {
 public:
  explicit PerCpuCounter(int num_cpus = 0) : values_(static_cast<size_t>(num_cpus), 0) {}

  void Inc(int cpu, uint64_t delta = 1) {
    Grow(cpu);
    values_[static_cast<size_t>(cpu)] += delta;
  }
  void Set(int cpu, uint64_t value) {
    Grow(cpu);
    values_[static_cast<size_t>(cpu)] = value;
  }
  uint64_t of(int cpu) const {
    return cpu >= 0 && static_cast<size_t>(cpu) < values_.size()
               ? values_[static_cast<size_t>(cpu)]
               : 0;
  }
  uint64_t total() const {
    uint64_t t = 0;
    for (uint64_t v : values_) {
      t += v;
    }
    return t;
  }
  int num_cpus() const { return static_cast<int>(values_.size()); }
  void Reset() { values_.assign(values_.size(), 0); }

 private:
  void Grow(int cpu) {
    if (static_cast<size_t>(cpu) >= values_.size()) {
      values_.resize(static_cast<size_t>(cpu) + 1, 0);
    }
  }
  std::vector<uint64_t> values_;
};

// Histogram over doubles (typically virtual cycles): exact count/mean/stddev/
// min/max via RunningStat for every sample; percentiles from a deterministic
// decimating reservoir.
//
// The reservoir keeps every stride-th arrival. When it fills, it discards
// every other retained sample and doubles the stride, so the kept set always
// spans the whole stream (systematic sampling) instead of just its first
// kMaxSamples observations — a first-N reservoir silently biases percentiles
// on long runs (CI now rejects reports with dropped_samples > 0, see
// scripts/check_bench_json.py). Decimation is purely arrival-indexed, hence
// byte-identical across reruns and thread counts. Samples are dropped (and
// counted) only past the stride ceiling, ~2^32 recordings.
class Histogram {
 public:
  static constexpr size_t kMaxSamples = 4096;
  static constexpr uint64_t kMaxStride = 1ULL << 20;

  void Record(double x) {
    stat_.Add(x);
    uint64_t idx = arrivals_++;
    if ((idx & (stride_ - 1)) != 0) {  // stride_ is a power of two
      return;
    }
    if (reservoir_.size() >= kMaxSamples) {
      if (stride_ >= kMaxStride) {
        ++dropped_;
        return;
      }
      // Keep arrivals = 0 (mod 2*stride): the even reservoir positions.
      size_t keep = 0;
      for (size_t i = 0; i < reservoir_.size(); i += 2) {
        reservoir_[keep++] = reservoir_[i];
      }
      reservoir_.resize(keep);
      stride_ *= 2;
      if ((idx & (stride_ - 1)) != 0) {
        return;
      }
    }
    reservoir_.push_back(x);
  }

  uint64_t count() const { return stat_.count(); }
  double mean() const { return stat_.mean(); }
  double stddev() const { return stat_.stddev(); }
  double min() const { return stat_.min(); }
  double max() const { return stat_.max(); }
  double sum() const { return stat_.sum(); }
  double Percentile(double p) const;
  // Samples recorded but unrepresented in the percentile reservoir. Stays 0
  // until the stride ceiling; any positive value means biased percentiles.
  uint64_t dropped_samples() const { return dropped_; }
  uint64_t percentile_stride() const { return stride_; }
  size_t percentile_samples() const { return reservoir_.size(); }

  Json ToJson() const;
  void Reset() {
    stat_.Reset();
    reservoir_.clear();
    arrivals_ = 0;
    stride_ = 1;
    dropped_ = 0;
  }

 private:
  std::vector<double> SortedReservoir() const;

  RunningStat stat_;
  std::vector<double> reservoir_;  // arrivals = 0 (mod stride_), in order
  uint64_t arrivals_ = 0;
  uint64_t stride_ = 1;
  uint64_t dropped_ = 0;
};

// Records `now() - start` into a histogram when destroyed. The clock must be
// a virtual one (e.g. the owning SimCpu's local time), never host time.
//
// The clock is captured as a plain function pointer plus a context pointer —
// not std::function, whose capture can hit the allocator. Timers sit at the
// top of protocol coroutines on the hot path; constructing one must cost two
// stores and a clock read, nothing more.
class ScopedCycleTimer {
 public:
  // `clock` is any object with a `Cycles now() const` method (SimCpu, or a
  // test fixture); it must outlive the timer. Null disables the timer.
  template <typename C>
  ScopedCycleTimer(Histogram* hist, const C* clock)
      : hist_(hist),
        clock_(clock),
        now_(clock == nullptr
                 ? nullptr
                 : +[](const void* c) { return static_cast<const C*>(c)->now(); }),
        start_(clock == nullptr ? 0 : clock->now()) {}
  ScopedCycleTimer(const ScopedCycleTimer&) = delete;
  ScopedCycleTimer& operator=(const ScopedCycleTimer&) = delete;
  ~ScopedCycleTimer() {
    if (hist_ != nullptr && now_ != nullptr) {
      hist_->Record(static_cast<double>(now_(clock_) - start_));
    }
  }

 private:
  Histogram* hist_;
  const void* clock_;
  Cycles (*now_)(const void*);
  Cycles start_;
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(int num_cpus = 0) : num_cpus_(num_cpus) {}

  // Handles are created on first use and remain valid (and at a stable
  // address) for the registry's lifetime.
  Counter& counter(std::string_view name);
  PerCpuCounter& percpu(std::string_view name);
  Histogram& histogram(std::string_view name);

  int num_cpus() const { return num_cpus_; }

  // Serializes every registered metric, name-sorted (std::map order):
  //   {"counters": {..}, "per_cpu": {name: {"total": t, "by_cpu": {..}}},
  //    "histograms": {name: {count, mean, stddev, min, max, p50, p90, p99}}}
  // by_cpu lists only CPUs with nonzero values to keep documents compact.
  Json ToJson() const;

  // Zeroes all registered metrics (registrations and handles survive).
  void Reset();

 private:
  int num_cpus_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, PerCpuCounter, std::less<>> percpus_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_SIM_METRICS_H_
