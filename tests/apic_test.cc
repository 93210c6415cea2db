// Apic: delivery latency by distance, cluster multicast ICR accounting,
// unicast ablation, NMI.
#include "src/hw/apic.h"

#include <gtest/gtest.h>

#include "src/hw/machine.h"

namespace tlbsim {
namespace {

MachineConfig QuietConfig() {
  MachineConfig cfg;
  cfg.costs.jitter_frac = 0.0;
  return cfg;
}

SimTask Go(std::function<Co<void>()> body) { return [](std::function<Co<void>()> b) -> SimTask {
    co_await b();
  }(std::move(body)); }

class ApicTest : public ::testing::Test {
 protected:
  void Deliver(int from, std::vector<int> targets, Cycles* arrival, int watch) {
    machine_ = std::make_unique<Machine>(QuietConfig());
    Machine& m = *machine_;
    m.cpu(watch).RegisterIrqHandler(kCallFunctionVector, [arrival](SimCpu& c) -> Co<void> {
      *arrival = c.now();
      co_return;
    });
    // The watched target idles in an interruptible loop.
    m.cpu(watch).Spawn(Go([&m, watch]() -> Co<void> {
      for (int i = 0; i < 100; ++i) {
        co_await m.cpu(watch).Execute(1000);
      }
    }));
    m.cpu(from).Spawn(Go([&m, from, targets]() -> Co<void> {
      m.apic().SendIpi(m.cpu(from), targets, kCallFunctionVector);
      co_return;
    }));
    m.engine().Run();
  }

  std::unique_ptr<Machine> machine_;
};

TEST_F(ApicTest, SmtSiblingFastest) {
  Cycles a_smt = 0;
  Deliver(0, {1}, &a_smt, 1);
  Cycles a_socket = 0;
  Deliver(0, {4}, &a_socket, 4);
  Cycles a_cross = 0;
  Deliver(0, {30}, &a_cross, 30);
  EXPECT_LT(a_smt, a_socket);
  EXPECT_LT(a_socket, a_cross);
}

TEST_F(ApicTest, WireLatencyMatchesCostModel) {
  Cycles arrival = 0;
  Deliver(0, {30}, &arrival, 30);
  Machine& m = *machine_;
  // sender pays icr write before wire latency; handler entry adds dispatch.
  Cycles expect =
      m.costs().ipi_icr_write + m.costs().ipi_wire_cross_socket + m.costs().irq_entry_user;
  EXPECT_EQ(arrival, expect);
}

TEST(ApicStatsTest, MulticastGroupsByCluster) {
  Machine m(QuietConfig());
  // Targets 0..15 are cluster 0, 16..31 cluster 1, 32.. cluster 2.
  m.cpu(40).Spawn([](Machine& mm) -> SimTask {
    mm.apic().SendIpi(mm.cpu(40), std::vector<int>{1, 2, 3, 17, 18, 33}, kCallFunctionVector);
    co_return;
  }(m));
  m.engine().Run();
  EXPECT_EQ(m.apic().stats().icr_writes, 3u);       // 3 clusters touched
  EXPECT_EQ(m.apic().stats().multicast_messages, 3u);
  EXPECT_EQ(m.apic().stats().ipis_sent, 6u);
}

// Grouping does not depend on the targets arriving sorted by cluster.
TEST(ApicStatsTest, MulticastGroupsUnsortedTargets) {
  Machine m(QuietConfig());
  m.cpu(40).Spawn([](Machine& mm) -> SimTask {
    mm.apic().SendIpi(mm.cpu(40), std::vector<int>{33, 1, 17, 2, 18, 3}, kCallFunctionVector);
    co_return;
  }(m));
  m.engine().Run();
  EXPECT_EQ(m.apic().stats().icr_writes, 3u);
  EXPECT_EQ(m.apic().stats().ipis_sent, 6u);
}

TEST(ApicStatsTest, UnicastAblationPaysPerTarget) {
  Machine m(QuietConfig());
  m.apic().set_use_multicast(false);
  Cycles sender_time = 0;
  m.cpu(0).Spawn([](Machine& mm, Cycles* out) -> SimTask {
    mm.apic().SendIpi(mm.cpu(0), std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}, kCallFunctionVector);
    *out = mm.cpu(0).now();
    co_return;
  }(m, &sender_time));
  m.engine().Run();
  EXPECT_EQ(m.apic().stats().icr_writes, 8u);
  EXPECT_EQ(sender_time, 8 * m.costs().ipi_icr_write);
}

TEST(ApicStatsTest, MulticastSenderCostIndependentOfClusterPopulation) {
  Machine m(QuietConfig());
  Cycles sender_time = 0;
  m.cpu(0).Spawn([](Machine& mm, Cycles* out) -> SimTask {
    mm.apic().SendIpi(mm.cpu(0), std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}, kCallFunctionVector);
    *out = mm.cpu(0).now();
    co_return;
  }(m, &sender_time));
  m.engine().Run();
  EXPECT_EQ(sender_time, m.costs().ipi_icr_write);  // one cluster, one write
}

TEST(ApicStatsTest, EmptyTargetsNoop) {
  Machine m(QuietConfig());
  m.cpu(0).Spawn([](Machine& mm) -> SimTask {
    mm.apic().SendIpi(mm.cpu(0), {}, kCallFunctionVector);
    co_return;
  }(m));
  m.engine().Run();
  EXPECT_EQ(m.apic().stats().ipis_sent, 0u);
  EXPECT_EQ(m.cpu(0).now(), 0);
}

TEST(ApicStatsTest, NmiDelivered) {
  Machine m(QuietConfig());
  bool nmi = false;
  m.cpu(5).RegisterIrqHandler(kNmiVector, [&](SimCpu&) -> Co<void> {
    nmi = true;
    co_return;
  });
  m.cpu(5).Spawn([](Machine& mm) -> SimTask {
    co_await mm.cpu(5).Execute(100000);
  }(m));
  m.cpu(0).Spawn([](Machine& mm) -> SimTask {
    mm.apic().SendNmi(mm.cpu(0), 5);
    co_return;
  }(m));
  m.engine().Run();
  EXPECT_TRUE(nmi);
}

}  // namespace
}  // namespace tlbsim
