#include "src/sim/metrics.h"

#include <algorithm>

namespace tlbsim {

namespace {

// The p-th percentile of ascending `sorted` (0 when empty), interpolated
// linearly between the two nearest ranks.
double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  auto lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

std::vector<double> Histogram::SortedReservoir() const {
  // Copy-and-sort keeps Record()'s arrival order intact (decimation depends
  // on it); the reservoir is at most kMaxSamples doubles.
  std::vector<double> sorted(reservoir_);
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

double Histogram::Percentile(double p) const {
  return PercentileOfSorted(SortedReservoir(), p);
}

Json Histogram::ToJson() const {
  Json h = Json::Object();
  h["count"] = count();
  h["mean"] = mean();
  h["stddev"] = stddev();
  h["min"] = min();
  h["max"] = max();
  h["sum"] = sum();
  // One sort serves all three percentiles.
  std::vector<double> sorted = SortedReservoir();
  h["p50"] = PercentileOfSorted(sorted, 50);
  h["p90"] = PercentileOfSorted(sorted, 90);
  h["p99"] = PercentileOfSorted(sorted, 99);
  if (stride_ > 1) {
    // Percentiles above come from every stride-th observation; moments
    // (count/mean/stddev/min/max/sum) remain exact.
    h["percentile_samples"] = static_cast<uint64_t>(reservoir_.size());
    h["percentile_stride"] = stride_;
  }
  if (dropped_ > 0) {
    // Only reachable past the stride ceiling: percentiles no longer cover
    // the stream's tail. check_bench_json.py fails reports carrying this.
    h["dropped_samples"] = dropped_;
  }
  return h;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter()).first;
  }
  return it->second;
}

PerCpuCounter& MetricsRegistry::percpu(std::string_view name) {
  auto it = percpus_.find(name);
  if (it == percpus_.end()) {
    it = percpus_.emplace(std::string(name), PerCpuCounter(num_cpus_)).first;
  }
  return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram()).first;
  }
  return it->second;
}

Json MetricsRegistry::ToJson() const {
  Json root = Json::Object();
  Json& counters = root["counters"];
  counters = Json::Object();
  for (const auto& [name, c] : counters_) {
    counters[name] = c.value();
  }
  Json& percpu = root["per_cpu"];
  percpu = Json::Object();
  for (const auto& [name, pc] : percpus_) {
    Json entry = Json::Object();
    entry["total"] = pc.total();
    Json by_cpu = Json::Object();
    for (int cpu = 0; cpu < pc.num_cpus(); ++cpu) {
      if (pc.of(cpu) != 0) {
        by_cpu[std::to_string(cpu)] = pc.of(cpu);
      }
    }
    entry["by_cpu"] = std::move(by_cpu);
    percpu[name] = std::move(entry);
  }
  Json& histograms = root["histograms"];
  histograms = Json::Object();
  for (const auto& [name, h] : histograms_) {
    histograms[name] = h.ToJson();
  }
  return root;
}

void MetricsRegistry::Reset() {
  for (auto& [name, c] : counters_) {
    c.Reset();
  }
  for (auto& [name, pc] : percpus_) {
    pc.Reset();
  }
  for (auto& [name, h] : histograms_) {
    h.Reset();
  }
}

}  // namespace tlbsim
