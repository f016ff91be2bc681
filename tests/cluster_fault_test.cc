// Unit tests for the cluster's one network fault, the partition window
// (symmetric cuts, heal, declared start times, the trace it hashes), the
// separation of the drop counters, and causal flows: the stamps written at
// post time, a reply chained to the delivery it answers, and timers as roots.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/fnv.h"
#include "src/sim/cluster.h"
#include "src/sim/flow.h"
#include "src/sim/trace.h"

namespace ctsim {
namespace {

class ProbeNode : public Node {
 public:
  ProbeNode(Cluster* cluster, std::string id) : Node(cluster, std::move(id)) {
    Handle("ping", [this](const Message&) { ++pings_; });
    Handle("pong", [this](const Message&) { ++pongs_; });
  }

  int pings_ = 0;
  int pongs_ = 0;
};

// Answers each ping with a pong after waiting inside its handler (a nested
// RunFor, as the pre-read trigger's wait does), so other events run while
// the ping's delivery is still being handled.
class EchoNode : public ProbeNode {
 public:
  EchoNode(Cluster* cluster, std::string id) : ProbeNode(cluster, std::move(id)) {
    Handle("ping", [this](const Message& message) {
      ++pings_;
      this->cluster().loop().RunFor(10);
      Send(message.from, "pong");
    });
  }
};

TEST(ClusterFaults, FlowStampsAreWrittenAtPostTime) {
  // A post outside any delivery is a DAG root, and flow ids are never
  // reused.
  Cluster cluster;
  auto* a = cluster.AddNode<ProbeNode>("a:1");
  auto* b = cluster.AddNode<ProbeNode>("b:1");
  cluster.StartAll();

  FlowRecorder flows;
  cluster.set_flow_recorder(&flows);
  const int kMessages = 20;
  for (int i = 0; i < kMessages; ++i) {
    a->Send("b:1", "ping");
  }
  cluster.loop().RunToCompletion();
  EXPECT_EQ(b->pings_, kMessages);
  ASSERT_EQ(flows.records().size(), static_cast<size_t>(kMessages));
  std::vector<uint64_t> seen_ids;
  for (const FlowRecord& record : flows.records()) {
    EXPECT_EQ(record.parent, 0u);  // posted outside any delivery: DAG roots
    seen_ids.push_back(record.id);
  }
  std::sort(seen_ids.begin(), seen_ids.end());
  EXPECT_EQ(std::unique(seen_ids.begin(), seen_ids.end()), seen_ids.end());
}

TEST(ClusterFaults, RepliesChainToTheirCauseAndTimersInsideAHandlerAreRoots) {
  // A delivery is the parent of what its handler sends, even after the
  // handler's nested RunFor delivered other messages (the stamp is restored
  // after each nested delivery). A timer that fires inside that RunFor sends
  // a root, not a child of the delivery on the call stack (FlowRootScope).
  Cluster cluster;
  auto* a = cluster.AddNode<ProbeNode>("a:1");
  cluster.AddNode<EchoNode>("b:1");
  auto* c = cluster.AddNode<ProbeNode>("c:1");
  cluster.StartAll();

  FlowRecorder flows;
  cluster.set_flow_recorder(&flows);
  a->Send("b:1", "ping");                        // delivered at 1; b replies at 11
  c->After(5, [c] { c->Send("a:1", "ping"); });  // fires at 5, inside b's wait
  cluster.loop().RunToCompletion();
  EXPECT_EQ(a->pings_, 1);
  EXPECT_EQ(a->pongs_, 1);
  EXPECT_EQ(flows.messages(), cluster.delivered_messages());
  ASSERT_EQ(flows.records().size(), 3u);

  const FlowRecord& ping = flows.records()[0];
  EXPECT_EQ(flows.method_name(ping.method), "ping");
  EXPECT_EQ(ping.sim_ms, 1u);
  EXPECT_EQ(ping.parent, 0u);

  const FlowRecord& timer_ping = flows.records()[1];
  EXPECT_EQ(flows.method_name(timer_ping.method), "ping");
  EXPECT_EQ(timer_ping.sim_ms, 6u);
  EXPECT_EQ(timer_ping.parent, 0u);

  const FlowRecord& pong = flows.records()[2];
  EXPECT_EQ(flows.method_name(pong.method), "pong");
  EXPECT_EQ(pong.sim_ms, 12u);
  EXPECT_EQ(pong.parent, ping.id);

  EXPECT_EQ(flows.roots(), 2u);
  EXPECT_EQ(flows.max_depth(), 2u);
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

TEST(ClusterFaults, TimerAndDeadDropLinesHashAsTheirText) {
  // The two hot kinds the partition window test does not spell out: a node
  // timer firing and a message dropped at a dead destination. Their symbols
  // and kinds are folded, not fed byte by byte, to the same hash.
  Cluster cluster;
  auto* a = cluster.AddNode<ProbeNode>("a:1");
  cluster.AddNode<ProbeNode>("b:1");
  cluster.StartAll();
  TraceRecorder recorder;
  cluster.set_trace_recorder(&recorder);
  cluster.Crash("b:1");
  a->After(5, [&] { a->Send("b:1", "ping"); });
  cluster.loop().RunToCompletion();
  EXPECT_EQ(cluster.dropped_messages(), 1u);
  ctcommon::Fnv1a expected;
  expected.Add(
      "0 crash b:1\n"
      "5 timer a:1\n"
      "6 drop.dead a:1>b:1 ping\n");
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.hash(), expected.value());
}

}  // namespace
}  // namespace ctsim
