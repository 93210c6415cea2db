// Topology: cpu numbering, socket/core mapping, distance classification.
#include "src/cache/topology.h"

#include <gtest/gtest.h>

#include <array>

namespace tlbsim {
namespace {

TEST(TopologyTest, DefaultMatchesPaperTestbed) {
  Topology t;
  EXPECT_EQ(t.sockets, 2);
  EXPECT_EQ(t.cores_per_socket, 14);
  EXPECT_EQ(t.smt, 2);
  EXPECT_EQ(t.num_cpus(), 56);
  EXPECT_EQ(t.cpus_per_socket(), 28);
}

TEST(TopologyTest, SocketOfBoundaries) {
  Topology t;
  EXPECT_EQ(t.SocketOf(0), 0);
  EXPECT_EQ(t.SocketOf(27), 0);
  EXPECT_EQ(t.SocketOf(28), 1);
  EXPECT_EQ(t.SocketOf(55), 1);
}

TEST(TopologyTest, SmtSiblingsShareAPhysCore) {
  Topology t;
  EXPECT_EQ(t.PhysCoreOf(0), t.PhysCoreOf(1));
  EXPECT_NE(t.PhysCoreOf(1), t.PhysCoreOf(2));
  EXPECT_TRUE(t.AreSmtSiblings(0, 1));
  EXPECT_FALSE(t.AreSmtSiblings(0, 0));
  EXPECT_FALSE(t.AreSmtSiblings(0, 2));
}

TEST(TopologyTest, DistanceClassification) {
  Topology t;
  EXPECT_EQ(t.Between(3, 3), Topology::Distance::kSelf);
  EXPECT_EQ(t.Between(0, 1), Topology::Distance::kSmtSibling);
  EXPECT_EQ(t.Between(0, 2), Topology::Distance::kSameSocket);
  EXPECT_EQ(t.Between(0, 28), Topology::Distance::kCrossSocket);
  EXPECT_EQ(t.Between(28, 29), Topology::Distance::kSmtSibling);
}

TEST(TopologyTest, DistanceIsSymmetric) {
  Topology t;
  for (int a : {0, 1, 2, 27, 28, 55}) {
    for (int b : {0, 1, 2, 27, 28, 55}) {
      EXPECT_EQ(t.Between(a, b), t.Between(b, a)) << a << "," << b;
    }
  }
}

TEST(TopologyTest, SingleSocketNoSmt) {
  Topology t{.sockets = 1, .cores_per_socket = 4, .smt = 1};
  EXPECT_EQ(t.num_cpus(), 4);
  EXPECT_FALSE(t.AreSmtSiblings(0, 1));
  EXPECT_EQ(t.Between(0, 3), Topology::Distance::kSameSocket);
}

// Degenerate: smt=1 means adjacent cpu ids are distinct physical cores, so
// kSmtSibling must never be produced — the next rung is kSameSocket.
TEST(TopologyTest, NoSmtNeverClassifiesSiblings) {
  Topology t{.sockets = 2, .cores_per_socket = 4, .smt = 1};
  EXPECT_EQ(t.num_cpus(), 8);
  for (int a = 0; a < t.num_cpus(); ++a) {
    for (int b = 0; b < t.num_cpus(); ++b) {
      EXPECT_NE(t.Between(a, b), Topology::Distance::kSmtSibling) << a << "," << b;
    }
  }
  EXPECT_EQ(t.Between(0, 1), Topology::Distance::kSameSocket);
  EXPECT_EQ(t.Between(0, 4), Topology::Distance::kCrossSocket);
}

// Degenerate: sockets=1 means no interconnect — kCrossSocket is unreachable
// and every non-self, non-sibling pair shares the single L3.
TEST(TopologyTest, SingleSocketNeverCrossesSockets) {
  Topology t{.sockets = 1, .cores_per_socket = 4, .smt = 2};
  EXPECT_EQ(t.num_cpus(), 8);
  for (int a = 0; a < t.num_cpus(); ++a) {
    for (int b = 0; b < t.num_cpus(); ++b) {
      EXPECT_NE(t.Between(a, b), Topology::Distance::kCrossSocket) << a << "," << b;
    }
  }
  EXPECT_EQ(t.Between(0, 1), Topology::Distance::kSmtSibling);
  EXPECT_EQ(t.Between(0, 7), Topology::Distance::kSameSocket);
}

// Smallest legal machine: one cpu total. Only kSelf is reachable.
TEST(TopologyTest, SingleCpuMachine) {
  Topology t{.sockets = 1, .cores_per_socket = 1, .smt = 1};
  EXPECT_EQ(t.num_cpus(), 1);
  EXPECT_EQ(t.Between(0, 0), Topology::Distance::kSelf);
  EXPECT_FALSE(t.AreSmtSiblings(0, 0));
  EXPECT_EQ(t.num_nodes(), 1);
  EXPECT_EQ(t.NodeOfCpu(0), 0);
}

TEST(TopologyTest, MemoryNodesTrackSockets) {
  Topology t;  // paper testbed: 2 sockets
  EXPECT_EQ(t.num_nodes(), 2);
  EXPECT_EQ(t.NodeOfCpu(0), 0);
  EXPECT_EQ(t.NodeOfCpu(27), 0);
  EXPECT_EQ(t.NodeOfCpu(28), 1);
  EXPECT_EQ(t.NodeOfCpu(55), 1);
  Topology single{.sockets = 1, .cores_per_socket = 4, .smt = 1};
  EXPECT_EQ(single.num_nodes(), 1);
  EXPECT_EQ(single.NodeOfCpu(3), 0);
}

// Big-machine presets: same per-socket shape as the paper testbed, scaled to
// 4 and 8 sockets.
TEST(TopologyTest, FourSocketPreset) {
  Topology t = Topology::FourSocket();
  EXPECT_EQ(t.sockets, 4);
  EXPECT_EQ(t.num_cpus(), 112);
  EXPECT_EQ(t.cpus_per_socket(), 28);
  EXPECT_EQ(t.num_nodes(), 4);
  EXPECT_EQ(t.SocketOf(0), 0);
  EXPECT_EQ(t.SocketOf(27), 0);
  EXPECT_EQ(t.SocketOf(28), 1);
  EXPECT_EQ(t.SocketOf(111), 3);
  EXPECT_EQ(t.NodeOfCpu(84), 3);
  EXPECT_EQ(t.Between(0, 111), Topology::Distance::kCrossSocket);
  EXPECT_EQ(t.Between(84, 110), Topology::Distance::kSameSocket);
  EXPECT_EQ(t.Between(110, 111), Topology::Distance::kSmtSibling);
}

TEST(TopologyTest, EightSocketPreset) {
  Topology t = Topology::EightSocket();
  EXPECT_EQ(t.sockets, 8);
  EXPECT_EQ(t.num_cpus(), 224);
  EXPECT_EQ(t.cpus_per_socket(), 28);
  EXPECT_EQ(t.num_nodes(), 8);
  // Socket/node mapping holds at 200+ cpus.
  EXPECT_EQ(t.SocketOf(195), 6);
  EXPECT_EQ(t.SocketOf(196), 7);
  EXPECT_EQ(t.SocketOf(223), 7);
  EXPECT_EQ(t.NodeOfCpu(223), 7);
  EXPECT_EQ(t.Between(0, 223), Topology::Distance::kCrossSocket);
  EXPECT_EQ(t.Between(196, 223), Topology::Distance::kSameSocket);
  EXPECT_EQ(t.Between(222, 223), Topology::Distance::kSmtSibling);
  EXPECT_EQ(t.Between(195, 196), Topology::Distance::kCrossSocket);
  // Every cpu maps to a valid socket and the per-socket population is even.
  std::array<int, 8> pop{};
  for (int cpu = 0; cpu < t.num_cpus(); ++cpu) {
    int s = t.SocketOf(cpu);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 8);
    ++pop[static_cast<size_t>(s)];
    EXPECT_EQ(t.NodeOfCpu(cpu), s);
  }
  for (int s = 0; s < 8; ++s) {
    EXPECT_EQ(pop[static_cast<size_t>(s)], 28) << "socket " << s;
  }
}

}  // namespace
}  // namespace tlbsim
