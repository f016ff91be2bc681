// Unit tests for the cluster's network-fault semantics: link-fault draws
// (drop/delay/duplicate/reorder), partition directives, the separation of
// the drop counters, and the trace record/replay primitives they feed.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/sim/cluster.h"
#include "src/sim/fault_plan.h"
#include "src/sim/trace.h"

namespace ctsim {
namespace {

class ProbeNode : public Node {
 public:
  ProbeNode(Cluster* cluster, std::string id) : Node(cluster, std::move(id)) {
    Handle("ping", [this](const Message&) {
      ++pings_;
      arrival_times_.push_back(this->cluster().loop().Now());
    });
  }

  int pings_ = 0;
  std::vector<Time> arrival_times_;
};

TEST(ClusterFaults, DuplicationDeliversTwiceToLiveNode) {
  Cluster cluster(7);
  auto* a = cluster.AddNode<ProbeNode>("a:1");
  auto* b = cluster.AddNode<ProbeNode>("b:1");
  cluster.StartAll();
  FaultPlan plan;
  plan.default_link.duplicate_probability = 1.0;
  cluster.InstallFaultPlan(plan);
  a->Send("b:1", "ping");
  cluster.loop().RunToCompletion();
  EXPECT_EQ(b->pings_, 2);
  EXPECT_EQ(cluster.duplicated_messages(), 1u);
  EXPECT_EQ(cluster.plan_dropped_messages(), 0u);
  EXPECT_EQ(cluster.dropped_messages(), 0u);
}

TEST(ClusterFaults, DuplicationNeverResurrectsMessageToDeadNode) {
  Cluster cluster(7);
  auto* a = cluster.AddNode<ProbeNode>("a:1");
  auto* b = cluster.AddNode<ProbeNode>("b:1");
  cluster.StartAll();
  FaultPlan plan;
  plan.default_link.duplicate_probability = 1.0;
  plan.default_link.extra_delay_ms = 5;
  cluster.InstallFaultPlan(plan);
  a->Send("b:1", "ping");
  cluster.Crash("b:1");  // dies before either copy arrives
  cluster.loop().RunToCompletion();
  EXPECT_EQ(b->pings_, 0);
  // Both the original and the duplicate count as dead-node drops — dying
  // before delivery beats any fault-plan scheduling.
  EXPECT_EQ(cluster.duplicated_messages(), 1u);
  EXPECT_EQ(cluster.dropped_messages(), 2u);
  EXPECT_EQ(cluster.plan_dropped_messages(), 0u);
}

TEST(ClusterFaults, ReorderingRespectsTheDeclaredBound) {
  Cluster cluster(7);
  auto* a = cluster.AddNode<ProbeNode>("a:1");
  auto* b = cluster.AddNode<ProbeNode>("b:1");
  cluster.StartAll();
  FaultPlan plan;
  plan.default_link.reorder_window_ms = 10;
  cluster.InstallFaultPlan(plan);
  const int kMessages = 50;
  for (int i = 0; i < kMessages; ++i) {
    a->Send("b:1", "ping");
  }
  cluster.loop().RunToCompletion();
  EXPECT_EQ(b->pings_, kMessages);
  // Every delivery lands inside [latency, latency + bound]; a bound of 10
  // with 50 draws virtually guarantees at least one actual displacement.
  for (Time at : b->arrival_times_) {
    EXPECT_GE(at, cluster.latency_ms());
    EXPECT_LE(at, cluster.latency_ms() + 10);
  }
  EXPECT_GT(*std::max_element(b->arrival_times_.begin(), b->arrival_times_.end()),
            cluster.latency_ms());
}

TEST(ClusterFaults, FlowStampsSurviveDuplicationAndReordering) {
  // Flow stamps are written at post time, before any fault draw, so a
  // duplicated message's copy inherits the originating span and a reordered
  // delivery keeps it — the flow DAG stays exact under an active FaultPlan.
  Cluster cluster(7);
  auto* a = cluster.AddNode<ProbeNode>("a:1");
  auto* b = cluster.AddNode<ProbeNode>("b:1");
  cluster.StartAll();
  FaultPlan plan;
  plan.default_link.duplicate_probability = 1.0;
  plan.default_link.reorder_window_ms = 10;
  cluster.InstallFaultPlan(plan);

  struct Delivered {
    uint64_t flow;
    uint64_t parent;
    uint64_t origin;
  };
  std::vector<Delivered> deliveries;
  cluster.SetFlowHooks(
      [] { return uint64_t{42}; },
      [&](uint64_t flow_id, uint64_t parent_flow, uint64_t origin_span, const Message&) {
        deliveries.push_back({flow_id, parent_flow, origin_span});
      });
  const int kMessages = 20;
  for (int i = 0; i < kMessages; ++i) {
    a->Send("b:1", "ping");
  }
  cluster.loop().RunToCompletion();
  EXPECT_EQ(b->pings_, 2 * kMessages);  // every message duplicated
  ASSERT_EQ(deliveries.size(), static_cast<size_t>(2 * kMessages));
  std::vector<uint64_t> seen_ids;
  for (const Delivered& delivery : deliveries) {
    EXPECT_EQ(delivery.origin, 42u);  // both copies carry the post-time span
    EXPECT_EQ(delivery.parent, 0u);   // posted outside any delivery: DAG roots
    seen_ids.push_back(delivery.flow);
  }
  std::sort(seen_ids.begin(), seen_ids.end());
  EXPECT_EQ(std::unique(seen_ids.begin(), seen_ids.end()), seen_ids.end());
}

TEST(ClusterFaults, LinkDropsCountSeparatelyFromDeadNodeDrops) {
  Cluster cluster(7);
  auto* a = cluster.AddNode<ProbeNode>("a:1");
  auto* b = cluster.AddNode<ProbeNode>("b:1");
  auto* c = cluster.AddNode<ProbeNode>("c:1");
  cluster.StartAll();
  FaultPlan plan;
  plan.links[{"a:1", "b:1"}] = {/*drop_probability=*/1.0};
  cluster.InstallFaultPlan(plan);
  a->Send("b:1", "ping");  // plan-induced drop
  a->Send("c:1", "ping");  // delivered: only the a->b link is faulty
  cluster.Crash("c:1");
  a->Send("c:1", "ping");  // dead-node drop
  cluster.loop().RunToCompletion();
  EXPECT_EQ(b->pings_, 0);
  EXPECT_EQ(c->pings_, 0);
  EXPECT_EQ(cluster.plan_dropped_messages(), 1u);
  EXPECT_EQ(cluster.dropped_messages(), 2u);  // the pre-crash send also dies in flight
}

TEST(ClusterFaults, PartitionHealRoundTrip) {
  Cluster cluster(7);
  auto* a = cluster.AddNode<ProbeNode>("a:1");
  auto* b = cluster.AddNode<ProbeNode>("b:1");
  auto* c = cluster.AddNode<ProbeNode>("c:1");
  cluster.StartAll();
  cluster.PartitionNodes({"b:1"}, 100);
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

TEST(ClusterFaults, OneWayPartitionCutsOnlyOutboundTraffic) {
  Cluster cluster(7);
  auto* a = cluster.AddNode<ProbeNode>("a:1");
  auto* b = cluster.AddNode<ProbeNode>("b:1");
  cluster.StartAll();
  FaultPlan plan;
  PartitionDirective half_open;
  half_open.start_ms = 0;
  half_open.heal_ms = 100;
  half_open.group = {"b:1"};
  half_open.one_way = true;
  plan.partitions.push_back(half_open);
  cluster.InstallFaultPlan(plan);
  EXPECT_TRUE(cluster.LinkCut("b:1", "a:1"));   // outbound from the group: cut
  EXPECT_FALSE(cluster.LinkCut("a:1", "b:1"));  // inbound still flows
  b->Send("a:1", "ping");  // dropped: b can hear but not answer
  a->Send("b:1", "ping");  // delivered
  cluster.loop().Schedule(150, [&] { b->Send("a:1", "ping"); });  // healed
  cluster.loop().RunToCompletion();
  EXPECT_EQ(a->pings_, 1);
  EXPECT_EQ(b->pings_, 1);
  EXPECT_EQ(cluster.plan_dropped_messages(), 1u);
}

TEST(ClusterFaults, TimerSkewStretchesOnlyTheSkewedNodesClock) {
  Cluster cluster(7);
  auto* a = cluster.AddNode<ProbeNode>("a:1");
  auto* b = cluster.AddNode<ProbeNode>("b:1");
  cluster.StartAll();
  FaultPlan plan;
  plan.timer_skew_permille["b:1"] = 2000;  // b's clock runs at half speed
  cluster.InstallFaultPlan(plan);
  std::vector<Time> a_fired, b_fired;
  a->After(100, [&] { a_fired.push_back(cluster.loop().Now()); });
  b->After(100, [&] { b_fired.push_back(cluster.loop().Now()); });
  cluster.loop().RunToCompletion();
  ASSERT_EQ(a_fired.size(), 1u);
  ASSERT_EQ(b_fired.size(), 1u);
  EXPECT_EQ(a_fired[0], 100u);  // honest clock: fires on time
  EXPECT_EQ(b_fired[0], 200u);  // skewed: the same request lands twice as late
}

TEST(ClusterFaults, TimerSkewCompoundsAcrossEveryRearms) {
  Cluster cluster(7);
  auto* a = cluster.AddNode<ProbeNode>("a:1");
  auto* b = cluster.AddNode<ProbeNode>("b:1");
  cluster.StartAll();
  FaultPlan plan;
  plan.timer_skew_permille["b:1"] = 2000;
  cluster.InstallFaultPlan(plan);
  std::vector<Time> a_ticks, b_ticks;
  a->Every(50, [&] { a_ticks.push_back(cluster.loop().Now()); });
  b->Every(50, [&] { b_ticks.push_back(cluster.loop().Now()); });
  cluster.loop().RunFor(400);
  // Each re-arm re-applies the skew, so the drift accumulates round after
  // round instead of staying a constant offset.
  EXPECT_EQ(a_ticks, (std::vector<Time>{50, 100, 150, 200, 250, 300, 350, 400}));
  EXPECT_EQ(b_ticks, (std::vector<Time>{100, 200, 300, 400}));
}

TEST(ClusterFaults, PlanPartitionDirectivesApplyAtTheDeclaredTimes) {
  Cluster cluster(7);
  auto* a = cluster.AddNode<ProbeNode>("a:1");
  auto* b = cluster.AddNode<ProbeNode>("b:1");
  cluster.StartAll();
  FaultPlan plan;
  plan.partitions.push_back({/*start_ms=*/50, /*heal_ms=*/150, {"b:1"}});
  cluster.InstallFaultPlan(plan);
  a->Send("b:1", "ping");                            // before the cut
  cluster.loop().Schedule(100, [&] { a->Send("b:1", "ping"); });  // inside
  cluster.loop().Schedule(150, [&] { a->Send("b:1", "ping"); });  // heal is exclusive
  cluster.loop().RunToCompletion();
  EXPECT_EQ(b->pings_, 2);
  EXPECT_EQ(cluster.plan_dropped_messages(), 1u);
}

TEST(Trace, SerializeParseRoundTripPreservesHash) {
  Trace trace;
  trace.Append({1, "deliver", "a:1>b:1 ping"});
  trace.Append({2, "timer", "b:1"});
  trace.Append({5, "crash", "b:1"});
  Trace parsed = Trace::Parse(trace.Serialize());
  EXPECT_EQ(parsed.size(), trace.size());
  EXPECT_EQ(parsed.Hash(), trace.Hash());
}

TEST(Trace, ReplayOfIdenticalRunSucceedsAndDivergenceThrows) {
  Trace recording;
  recording.Append({1, "deliver", "a:1>b:1 ping"});
  recording.Append({2, "timer", "b:1"});

  TraceRecorder replay(&recording);
  replay.Record(1, "deliver", "a:1>b:1 ping");
  replay.Record(2, "timer", "b:1");
  EXPECT_NO_THROW(replay.FinishReplay());

  TraceRecorder diverging(&recording);
  EXPECT_THROW(diverging.Record(1, "deliver", "a:1>c:1 ping"), TraceDivergence);

  TraceRecorder incomplete(&recording);
  incomplete.Record(1, "deliver", "a:1>b:1 ping");
  EXPECT_THROW(incomplete.FinishReplay(), TraceDivergence);
}

}  // namespace
}  // namespace ctsim
