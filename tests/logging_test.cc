// Tests for the logging substrate: statement registry, log store, Logstash
// agent filtering, and the custom stash of Fig. 6.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/logging/log_store.h"
#include "src/logging/stash.h"
#include "src/logging/statement.h"

namespace ctlog {
namespace {

TEST(StatementRegistry, RegistrationIsIdempotent) {
  auto& registry = StatementRegistry::Instance();
  int a = registry.Register(Level::kInfo, "unit test stmt {}", "Here.there");
  int b = registry.Register(Level::kInfo, "unit test stmt {}", "Here.there");
  EXPECT_EQ(a, b);
  int c = registry.Register(Level::kWarn, "unit test stmt {}", "Here.there");
  EXPECT_NE(a, c);  // level participates in identity
}

TEST(StatementRegistry, CountsPlaceholders) {
  auto& registry = StatementRegistry::Instance();
  int id = registry.Register(Level::kInfo, "x {} y {} z {}", "T.m");
  EXPECT_EQ(registry.Get(id).num_args, 3);
}

TEST(LogStore, AppendAndQuery) {
  LogStore store;
  Logger logger(&store, "node1:42349", [] { return 123u; });
  logger.Info("hello {}", {"world"});
  logger.Error("bad {}", {"thing"});
  ASSERT_EQ(store.instances().size(), 2u);
  EXPECT_EQ(store.instances()[0].text, "hello world");
  EXPECT_EQ(store.instances()[0].time_ms, 123u);
  EXPECT_EQ(store.instances()[0].level, Level::kInfo);
  EXPECT_EQ(store.instances()[1].level, Level::kError);
  for (const Instance& instance : store.instances()) {
    EXPECT_EQ(instance.node, "node1:42349");
  }
}

TEST(LogStore, SubscribersSeeEachInstance) {
  LogStore store;
  int seen = 0;
  store.Subscribe([&](const Instance&) { ++seen; });
  Logger logger(&store, "n", [] { return 0u; });
  logger.Info("a");
  logger.Info("b");
  EXPECT_EQ(seen, 2);
}

TEST(OnlineFilter, RecognizesNodeValues) {
  OnlineFilter filter;
  filter.hosts = {"node1", "node2"};
  EXPECT_TRUE(filter.IsNodeValue("node1:42349"));
  EXPECT_TRUE(filter.IsNodeValue("node1"));
  EXPECT_FALSE(filter.IsNodeValue("node3:42349"));
  EXPECT_FALSE(filter.IsNodeValue("node1:notaport"));
  EXPECT_FALSE(filter.IsNodeValue("container_1_2_3"));
  EXPECT_FALSE(filter.IsNodeValue("node1:"));
}

OnlineFilter TwoHostFilter() {
  OnlineFilter filter;
  filter.hosts = {"node3", "node4"};
  return filter;
}

// The running example of Fig. 5(c)/Fig. 6.
TEST(CustomStash, BuildsFig6Structures) {
  CustomStash stash(TwoHostFilter());
  stash.Process({"node3", "node3:42349"});
  stash.Process({"node4", "node4:42349"});
  stash.Process({"container_3", "node3:42349"});
  stash.Process({"attempt_3", "container_3"});
  stash.Process({"container_4", "node4:42349"});
  stash.Process({"attempt_4", "container_4"});
  stash.Process({"jvm_m_4", "attempt_4"});

  EXPECT_EQ(stash.nodes().size(), 4u);  // bare hosts + host:port forms
  EXPECT_EQ(stash.Lookup("container_3").value(), "node3:42349");
  EXPECT_EQ(stash.Lookup("attempt_3").value(), "node3:42349");
  EXPECT_EQ(stash.Lookup("attempt_4").value(), "node4:42349");
  EXPECT_EQ(stash.Lookup("jvm_m_4").value(), "node4:42349");
}

TEST(CustomStash, NodeValuesResolveToThemselves) {
  CustomStash stash(TwoHostFilter());
  // Identity resolution needs no prior log line: "host:port" self-identifies.
  EXPECT_EQ(stash.Lookup("node3:42349").value(), "node3:42349");
  EXPECT_FALSE(stash.Lookup("node9:1").has_value());
}

TEST(CustomStash, UnassociatedValuesAreDiscarded) {
  CustomStash stash(TwoHostFilter());
  stash.Process({"container_9", "attempt_9"});  // neither resolves to a node
  EXPECT_FALSE(stash.Lookup("container_9").has_value());
  EXPECT_TRUE(stash.value_to_node().empty());
}

TEST(CustomStash, FifoOrderMatters) {
  // Unlike the offline analysis, the stash is single-pass: a value whose
  // association arrives later stays unresolved at its first mention.
  CustomStash stash(TwoHostFilter());
  stash.Process({"attempt_1", "container_1"});  // too early: discarded
  stash.Process({"container_1", "node3:42349"});
  EXPECT_TRUE(stash.Lookup("container_1").has_value());
  EXPECT_FALSE(stash.Lookup("attempt_1").has_value());
}

TEST(CustomStash, ReassociatesOnNewAnchor) {
  // A recovered component re-registering on another node re-anchors its
  // values (the attempt_2-on-node2 case).
  CustomStash stash(TwoHostFilter());
  stash.Process({"app_1", "node3:42349"});
  EXPECT_EQ(stash.Lookup("app_1").value(), "node3:42349");
  stash.Process({"app_1", "node4:42349"});
  EXPECT_EQ(stash.Lookup("app_1").value(), "node4:42349");
}

TEST(LogstashAgent, ForwardsOnlyFilteredArgsOfOwnNode) {
  OnlineFilter filter = TwoHostFilter();
  int stmt = StatementRegistry::Instance().Register(ctlog::Level::kInfo,
                                                    "Assigned thing {} on host {}", "T.assign");
  filter.metainfo_args[stmt] = {0, 1};
  CustomStash stash(filter);
  LogstashAgent agent("node3:42349", &stash);

  LogStore store;
  store.Subscribe([&](const Instance& instance) { agent.OnInstance(instance); });
  Logger mine(&store, "node3:42349", [] { return 0u; });
  Logger other(&store, "node4:42349", [] { return 0u; });

  mine.Log(stmt, {"thing_1", "node3:42349"});
  other.Log(stmt, {"thing_2", "node4:42349"});                   // different node: ignored
  mine.Info("unfiltered {} on {}", {"thing_3", "node4:42349"});  // statement not in filter

  // Only the first line's two values reached the stash.
  EXPECT_EQ(stash.nodes(), std::set<std::string>{"node3:42349"});
  EXPECT_EQ(stash.value_to_node().size(), 1u);
  EXPECT_EQ(stash.Lookup("thing_1").value(), "node3:42349");
  EXPECT_FALSE(stash.Lookup("thing_2").has_value());
  EXPECT_FALSE(stash.Lookup("thing_3").has_value());
}

}  // namespace
}  // namespace ctlog
