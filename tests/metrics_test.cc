// Tests for the metrics registry and JSON pipeline: deterministic snapshots
// across identical seeded runs, histogram percentiles, string escaping and
// pretty-printing, scoped virtual-cycle timers, registry handle stability.
#include "src/sim/metrics.h"

#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "src/sim/json.h"
#include "src/workloads/microbench.h"

namespace tlbsim {
namespace {

TEST(JsonTest, ScalarsDump) {
  EXPECT_EQ(Json().Dump(), "null");
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(false).Dump(), "false");
  EXPECT_EQ(Json(int64_t{-7}).Dump(), "-7");
  EXPECT_EQ(Json(uint64_t{18446744073709551615ULL}).Dump(), "18446744073709551615");
  EXPECT_EQ(Json(1.5).Dump(), "1.5");
  EXPECT_EQ(Json("hi").Dump(), "\"hi\"");
}

TEST(JsonTest, ObjectKeysKeepInsertionOrder) {
  Json doc = Json::Object();
  doc["zebra"] = 1;
  doc["apple"] = 2;
  doc["mango"] = 3;
  EXPECT_EQ(doc.Dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
}

TEST(JsonTest, EscapingDump) {
  const std::string nasty =
      "quote\" backslash\\ newline\n tab\t cr\r bs\b ff\f ctrl\x01 unicode\xc3\xa9";
  Json doc = Json::Object();
  doc["k\"ey"] = nasty;
  // Quote, backslash and control bytes are escaped; UTF-8 passes through.
  EXPECT_EQ(doc.Dump(), R"({"k\"ey":"quote\" backslash\\ newline\n tab\t cr\r bs\b ff\f )"
                        R"(ctrl\u0001 unicode)" "\xc3\xa9" R"("})");
}

TEST(JsonTest, NestedDump) {
  Json doc = Json::Object();
  doc["list"] = Json::Array();
  doc["list"].Append(1);
  doc["list"].Append("two");
  doc["list"].Append(Json());
  doc["nested"]["deep"] = 2.25;
  doc["empty_list"] = Json::Array();
  doc["empty_object"] = Json::Object();
  EXPECT_EQ(doc.Dump(),
            R"({"list":[1,"two",null],"nested":{"deep":2.25},"empty_list":[],"empty_object":{}})");
  EXPECT_EQ(doc.Dump(2), R"({
  "list": [
    1,
    "two",
    null
  ],
  "nested": {
    "deep": 2.25
  },
  "empty_list": [],
  "empty_object": {}
})");
}

TEST(MetricsTest, CounterBasics) {
  MetricsRegistry reg(4);
  Counter& c = reg.counter("x");
  c.Inc();
  c.Inc(9);
  EXPECT_EQ(c.value(), 10u);
  // Same name returns the same handle at the same address.
  EXPECT_EQ(&reg.counter("x"), &c);
  c.Set(3);
  EXPECT_EQ(reg.counter("x").value(), 3u);
}

TEST(MetricsTest, PerCpuCounterTotalsAndGrowth) {
  PerCpuCounter pc(2);
  pc.Inc(0, 5);
  pc.Inc(1);
  pc.Inc(7, 2);  // grows on demand
  EXPECT_EQ(pc.of(0), 5u);
  EXPECT_EQ(pc.of(7), 2u);
  EXPECT_EQ(pc.of(3), 0u);
  EXPECT_EQ(pc.total(), 8u);
  EXPECT_EQ(pc.num_cpus(), 8);
}

TEST(MetricsTest, HistogramMomentsAndPercentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Record(static_cast<double>(i));
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.Percentile(50), 50.0, 1.0);
  EXPECT_NEAR(h.Percentile(90), 90.0, 1.0);
  EXPECT_NEAR(h.Percentile(99), 99.0, 1.0);

  Json j = h.ToJson();
  EXPECT_EQ(j.Find("count")->AsUint(), 100u);
  EXPECT_DOUBLE_EQ(j.Find("mean")->AsDouble(), 50.5);
  ASSERT_NE(j.Find("p90"), nullptr);
}

TEST(MetricsTest, HistogramReservoirDecimatesWithoutBias) {
  Histogram h;
  // 8x the reservoir capacity of strictly increasing values: a first-N
  // reservoir would report p50 from the stream's first eighth; the
  // decimating reservoir must track the full range.
  const size_t n = 8 * Histogram::kMaxSamples;
  for (size_t i = 0; i < n; ++i) {
    h.Record(static_cast<double>(i));
  }
  EXPECT_EQ(h.count(), n);
  EXPECT_EQ(h.dropped_samples(), 0u);  // decimated, not dropped
  EXPECT_GT(h.percentile_stride(), 1u);
  EXPECT_LE(h.percentile_samples(), Histogram::kMaxSamples);
  EXPECT_NEAR(h.Percentile(50), static_cast<double>(n) / 2, static_cast<double>(n) * 0.01);
  EXPECT_NEAR(h.Percentile(99), static_cast<double>(n) * 0.99, static_cast<double>(n) * 0.01);
  // Moments still see every sample.
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(n) * (static_cast<double>(n) - 1) / 2);
  // The JSON form discloses the decimation but carries no dropped_samples
  // (the CI gate rejects reports with any).
  Json j = h.ToJson();
  ASSERT_NE(j.Find("percentile_stride"), nullptr);
  EXPECT_EQ(j.Find("dropped_samples"), nullptr);
}

TEST(MetricsTest, HistogramDecimationIsArrivalDeterministic) {
  Histogram a;
  Histogram b;
  for (size_t i = 0; i < 3 * Histogram::kMaxSamples; ++i) {
    double x = static_cast<double>((i * 2654435761u) % 100000);
    a.Record(x);
    b.Record(x);
  }
  EXPECT_EQ(a.ToJson().Dump(), b.ToJson().Dump());
}

TEST(MetricsTest, ScopedCycleTimerRecordsVirtualDelta) {
  struct FakeClock {
    Cycles t = 0;
    Cycles now() const { return t; }
  };
  Histogram h;
  FakeClock clock{100};
  {
    ScopedCycleTimer t(&h, &clock);
    clock.t = 350;
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 250.0);
  {
    // Null-safe: no histogram, no clock.
    ScopedCycleTimer t(nullptr, static_cast<const FakeClock*>(nullptr));
  }
  EXPECT_EQ(h.count(), 1u);
}

TEST(MetricsTest, RegistryToJsonShapeAndReset) {
  MetricsRegistry reg(4);
  reg.counter("b.second").Inc(2);
  reg.counter("a.first").Inc(1);
  reg.percpu("cpu.work").Inc(3, 7);
  reg.histogram("lat").Record(4.0);

  Json j = reg.ToJson();
  // Name-sorted sections regardless of registration order.
  const Json* counters = j.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->members().size(), 2u);
  EXPECT_EQ(counters->members()[0].first, "a.first");
  EXPECT_EQ(counters->members()[1].first, "b.second");

  const Json* percpu = j.Find("per_cpu");
  ASSERT_NE(percpu, nullptr);
  const Json* work = percpu->Find("cpu.work");
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->Find("total")->AsUint(), 7u);
  // by_cpu lists only nonzero CPUs.
  EXPECT_EQ(work->Find("by_cpu")->members().size(), 1u);
  EXPECT_EQ(work->Find("by_cpu")->members()[0].first, "3");

  ASSERT_NE(j.Find("histograms"), nullptr);
  ASSERT_NE(j.Find("histograms")->Find("lat"), nullptr);

  reg.Reset();
  EXPECT_EQ(reg.counter("a.first").value(), 0u);
  EXPECT_EQ(reg.percpu("cpu.work").total(), 0u);
  EXPECT_EQ(reg.histogram("lat").count(), 0u);
}

// The acceptance property behind BENCH_*.json diffing: two identical seeded
// simulation runs serialize to byte-identical metric documents.
TEST(MetricsTest, IdenticalSeededRunsProduceByteIdenticalJson) {
  auto run = [] {
    MicroConfig cfg;
    cfg.system.kernel.opts = OptimizationSet::AllGeneral();
    cfg.system.machine.seed = 1234;
    cfg.pages = 2;
    cfg.iterations = 30;
    return RunMadviseMicrobench(cfg).metrics.Dump(2);
  };
  std::string first = run();
  std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// A different seed must actually change the registry — otherwise the
// determinism test above would pass vacuously.
TEST(MetricsTest, DifferentSeedsProduceDifferentJson) {
  auto run = [](uint64_t seed) {
    MicroConfig cfg;
    cfg.system.kernel.opts = OptimizationSet::AllGeneral();
    cfg.system.machine.seed = seed;
    cfg.pages = 2;
    cfg.iterations = 30;
    return RunMadviseMicrobench(cfg).metrics.Dump(2);
  };
  EXPECT_NE(run(1), run(2));
}

}  // namespace
}  // namespace tlbsim
