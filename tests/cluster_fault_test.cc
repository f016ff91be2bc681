// Unit tests for the cluster's one network fault, the partition window
// (symmetric cuts, heal, declared start times, the trace it hashes), the
// separation of the drop counters, and the flow stamps written at post time.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/fnv.h"
#include "src/sim/cluster.h"
#include "src/sim/trace.h"

namespace ctsim {
namespace {

class ProbeNode : public Node {
 public:
  ProbeNode(Cluster* cluster, std::string id) : Node(cluster, std::move(id)) {
    Handle("ping", [this](const Message&) { ++pings_; });
  }

  int pings_ = 0;
};

TEST(ClusterFaults, FlowStampsAreWrittenAtPostTime) {
  // A post outside any delivery is a DAG root, and flow ids are never
  // reused.
  Cluster cluster;
  auto* a = cluster.AddNode<ProbeNode>("a:1");
  auto* b = cluster.AddNode<ProbeNode>("b:1");
  cluster.StartAll();

  struct Delivered {
    uint64_t flow;
    uint64_t parent;
  };
  std::vector<Delivered> deliveries;
  cluster.SetFlowHook([&](uint64_t flow_id, uint64_t parent_flow, const Message&) {
    deliveries.push_back({flow_id, parent_flow});
  });
  const int kMessages = 20;
  for (int i = 0; i < kMessages; ++i) {
    a->Send("b:1", "ping");
  }
  cluster.loop().RunToCompletion();
  EXPECT_EQ(b->pings_, kMessages);
  ASSERT_EQ(deliveries.size(), static_cast<size_t>(kMessages));
  std::vector<uint64_t> seen_ids;
  for (const Delivered& delivery : deliveries) {
    EXPECT_EQ(delivery.parent, 0u);  // posted outside any delivery: DAG roots
    seen_ids.push_back(delivery.flow);
  }
  std::sort(seen_ids.begin(), seen_ids.end());
  EXPECT_EQ(std::unique(seen_ids.begin(), seen_ids.end()), seen_ids.end());
}

TEST(ClusterFaults, PartitionDropsCountSeparatelyFromDeadNodeDrops) {
  Cluster cluster;
  auto* a = cluster.AddNode<ProbeNode>("a:1");
  auto* b = cluster.AddNode<ProbeNode>("b:1");
  auto* c = cluster.AddNode<ProbeNode>("c:1");
  cluster.StartAll();
  cluster.Partition({"b:1"}, 0, 100);
  a->Send("b:1", "ping");  // partition drop
  a->Send("c:1", "ping");  // not cut: only b is partitioned off
  cluster.Crash("c:1");
  a->Send("c:1", "ping");  // dead-node drop
  cluster.loop().RunToCompletion();
  EXPECT_EQ(b->pings_, 0);
  EXPECT_EQ(c->pings_, 0);
  EXPECT_EQ(cluster.plan_dropped_messages(), 1u);
  EXPECT_EQ(cluster.dropped_messages(), 2u);  // the pre-crash send also dies in flight
}

TEST(ClusterFaults, PartitionHealRoundTrip) {
  Cluster cluster;
  auto* a = cluster.AddNode<ProbeNode>("a:1");
  auto* b = cluster.AddNode<ProbeNode>("b:1");
  auto* c = cluster.AddNode<ProbeNode>("c:1");
  cluster.StartAll();
  cluster.Partition({"b:1"}, cluster.loop().Now(), cluster.loop().Now() + 100);
  EXPECT_TRUE(cluster.LinkCut("a:1", "b:1"));
  EXPECT_TRUE(cluster.LinkCut("b:1", "a:1"));  // cuts are symmetric
  EXPECT_FALSE(cluster.LinkCut("a:1", "c:1"));
  a->Send("b:1", "ping");                      // dropped: inside the window
  b->Send("a:1", "ping");                      // dropped: other direction
  a->Send("c:1", "ping");                      // unaffected link
  cluster.loop().Schedule(200, [&] {
    EXPECT_FALSE(cluster.LinkCut("a:1", "b:1"));  // healed
    a->Send("b:1", "ping");
  });
  cluster.loop().RunToCompletion();
  EXPECT_EQ(b->pings_, 1);  // only the post-heal send
  EXPECT_EQ(a->pings_, 0);
  EXPECT_EQ(c->pings_, 1);
  EXPECT_EQ(cluster.plan_dropped_messages(), 2u);
  EXPECT_EQ(cluster.dropped_messages(), 0u);
}

TEST(ClusterFaults, PartitionWindowAppliesAtTheDeclaredTimes) {
  Cluster cluster;
  auto* a = cluster.AddNode<ProbeNode>("a:1");
  auto* b = cluster.AddNode<ProbeNode>("b:1");
  cluster.StartAll();
  TraceRecorder recorder;
  cluster.set_trace_recorder(&recorder);
  cluster.Partition({"b:1"}, /*start_ms=*/50, /*heal_ms=*/150);
  a->Send("b:1", "ping");                            // before the cut
  cluster.loop().Schedule(100, [&] { a->Send("b:1", "ping"); });  // inside
  cluster.loop().Schedule(150, [&] { a->Send("b:1", "ping"); });  // heal is exclusive
  cluster.loop().RunToCompletion();
  EXPECT_EQ(b->pings_, 2);
  EXPECT_EQ(cluster.plan_dropped_messages(), 1u);
  // The whole trace: the window is recorded once, when it is installed, and
  // the send inside it is dropped.
  ctcommon::Fnv1a expected;
  expected.Add(
      "0 partition 50..150 b:1\n"
      "1 deliver a:1>b:1 ping\n"
      "100 drop.partition a:1>b:1 ping\n"
      "151 deliver a:1>b:1 ping\n");
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.hash(), expected.value());
}

}  // namespace
}  // namespace ctsim
