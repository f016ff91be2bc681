// Property-based tests over randomized inputs: invariants of the inference
// closure, the crash-point analysis, the stash, and the simulator that must
// hold for *any* input, not just the curated fixtures.
#include <gtest/gtest.h>

#include <set>

#include "src/analysis/crash_point_analysis.h"
#include "src/analysis/metainfo_inference.h"
#include "src/common/rng.h"
#include "src/logging/stash.h"
#include "src/model/catalog.h"
#include "src/model/program_model.h"
#include "src/sim/cluster.h"

namespace {

using ctcommon::Rng;
using ctmodel::AccessKind;
using ctmodel::AccessPointDecl;
using ctmodel::FieldDecl;
using ctmodel::ProgramModel;
using ctmodel::TypeDecl;

// Builds a random type universe: a forest of subtype chains, some collection
// types, fields, and access points.
struct RandomModel {
  ProgramModel model{"random"};
  std::vector<std::string> type_names;

  explicit RandomModel(uint64_t seed) {
    Rng rng(seed);
    ctmodel::AddBaseTypes(&model);
    int num_types = static_cast<int>(rng.Uniform(5, 40));
    for (int i = 0; i < num_types; ++i) {
      TypeDecl type;
      type.name = "T" + std::to_string(i);
      if (i > 0 && rng.Chance(0.4)) {
        type.supertype = "T" + std::to_string(rng.Index(i));
      }
      model.AddType(type);
      type_names.push_back(type.name);
    }
    int num_collections = static_cast<int>(rng.Uniform(1, 8));
    for (int i = 0; i < num_collections; ++i) {
      TypeDecl coll;
      coll.name = "Coll" + std::to_string(i);
      coll.element_types = {type_names[rng.Index(type_names.size())]};
      model.AddType(coll);
    }
    int num_fields = static_cast<int>(rng.Uniform(3, 30));
    for (int i = 0; i < num_fields; ++i) {
      FieldDecl field;
      field.clazz = type_names[rng.Index(type_names.size())];
      field.name = "f" + std::to_string(i);
      field.type = rng.Chance(0.2) ? "Coll" + std::to_string(rng.Index(num_collections))
                                   : type_names[rng.Index(type_names.size())];
      field.set_only_in_constructor = rng.Chance(0.3);
      model.AddField(field);

      int accesses = static_cast<int>(rng.Uniform(0, 4));
      for (int a = 0; a < accesses; ++a) {
        AccessPointDecl point;
        point.field_id = field.clazz + "." + field.name;
        point.kind = rng.Chance(0.5) ? AccessKind::kRead : AccessKind::kWrite;
        point.clazz = field.clazz;
        point.method = "m" + std::to_string(a);
        point.value_unused = rng.Chance(0.2);
        point.sanity_checked = rng.Chance(0.2);
        model.AddAccessPoint(point);
      }
    }
  }
};

class InferenceProperty : public ::testing::TestWithParam<int> {};

// Property: the closure is monotone — adding a seed never removes types.
TEST_P(InferenceProperty, SeedMonotonicity) {
  RandomModel random(GetParam());
  Rng rng(GetParam() * 31 + 1);
  ctanalysis::MetaInfoInference inference(&random.model);
  std::set<std::string> seeds{random.type_names[rng.Index(random.type_names.size())]};
  auto small = inference.Infer(seeds, {});
  seeds.insert(random.type_names[rng.Index(random.type_names.size())]);
  auto big = inference.Infer(seeds, {});
  for (const auto& [name, info] : small.types) {
    EXPECT_TRUE(big.IsMetaInfoType(name)) << name;
  }
  EXPECT_GE(big.NumFields(), small.NumFields());
}

// Property: the closure is idempotent — re-seeding with its own output adds
// nothing.
TEST_P(InferenceProperty, ClosureIdempotent) {
  RandomModel random(GetParam());
  Rng rng(GetParam() * 17 + 3);
  ctanalysis::MetaInfoInference inference(&random.model);
  std::set<std::string> seeds{random.type_names[rng.Index(random.type_names.size())]};
  auto once = inference.Infer(seeds, {});
  std::set<std::string> all_types;
  for (const auto& [name, info] : once.types) {
    all_types.insert(name);
  }
  auto twice = inference.Infer(all_types, {});
  EXPECT_EQ(once.NumTypes(), twice.NumTypes());
}

// Property: base types never enter the meta-info type set.
TEST_P(InferenceProperty, BaseTypesExcluded) {
  RandomModel random(GetParam());
  ctanalysis::MetaInfoInference inference(&random.model);
  std::set<std::string> seeds(random.type_names.begin(), random.type_names.end());
  seeds.insert("java.lang.String");
  seeds.insert("java.lang.Integer");
  auto result = inference.Infer(seeds, {});
  EXPECT_FALSE(result.IsMetaInfoType("java.lang.String"));
  EXPECT_FALSE(result.IsMetaInfoType("java.lang.Integer"));
}

// Property: subtype closure — every subtype of a meta-info type is one too.
TEST_P(InferenceProperty, SubtypesClosed) {
  RandomModel random(GetParam());
  Rng rng(GetParam() * 7 + 11);
  ctanalysis::MetaInfoInference inference(&random.model);
  std::set<std::string> seeds{random.type_names[rng.Index(random.type_names.size())]};
  auto result = inference.Infer(seeds, {});
  for (const auto& type : random.model.types()) {
    if (!type.supertype.empty() && result.IsMetaInfoType(type.supertype)) {
      EXPECT_TRUE(result.IsMetaInfoType(type.name)) << type.name;
    }
  }
}

// Property: every surviving crash point is on a meta-info field, and pruning
// options only ever shrink the set.
TEST_P(InferenceProperty, CrashPointsSubsetAndMonotone) {
  RandomModel random(GetParam());
  Rng rng(GetParam() * 13 + 7);
  ctanalysis::MetaInfoInference inference(&random.model);
  std::set<std::string> seeds{random.type_names[rng.Index(random.type_names.size())]};
  auto metainfo = inference.Infer(seeds, {});
  ctanalysis::CrashPointAnalysis analysis(&random.model, &metainfo);

  auto pruned = analysis.Identify();
  ctanalysis::CrashPointOptions no_prune;
  no_prune.prune = false;
  auto full = analysis.Identify(no_prune);

  EXPECT_LE(pruned.points.size(), full.points.size());
  std::set<int> full_ids = full.PointIds();
  for (const auto& point : pruned.points) {
    EXPECT_TRUE(metainfo.IsMetaInfoField(point.field_id)) << point.field_id;
    EXPECT_TRUE(full_ids.count(point.access_point_id));
  }
  // Accounting: candidates = survivors + pruned (promotion replaces 1:<n>).
  EXPECT_EQ(full.pruned_constructor + full.pruned_unused + full.pruned_sanity_checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InferenceProperty, ::testing::Range(1, 26));

class StashProperty : public ::testing::TestWithParam<int> {};

// Property: every association the stash ever reports points at a known node
// value, and lookups never invent values.
TEST_P(StashProperty, AssociationsAlwaysAnchorAtNodes) {
  Rng rng(GetParam());
  ctlog::OnlineFilter filter;
  filter.hosts = {"h1", "h2", "h3"};
  ctlog::CustomStash stash(filter);
  std::vector<std::string> pool;
  for (int i = 0; i < 30; ++i) {
    pool.push_back("value_" + std::to_string(i));
  }
  for (int round = 0; round < 200; ++round) {
    std::vector<std::string> instance;
    int n = static_cast<int>(rng.Uniform(1, 4));
    for (int k = 0; k < n; ++k) {
      if (rng.Chance(0.3)) {
        instance.push_back("h" + std::to_string(rng.Uniform(1, 3)) + ":" +
                           std::to_string(rng.Uniform(1000, 9999)));
      } else {
        instance.push_back(pool[rng.Index(pool.size())]);
      }
    }
    stash.Process(instance);
  }
  for (const auto& [value, node] : stash.value_to_node()) {
    EXPECT_TRUE(filter.IsNodeValue(node)) << value << " -> " << node;
    EXPECT_FALSE(filter.IsNodeValue(value)) << "node values are never map keys";
  }
  EXPECT_FALSE(stash.Lookup("never_seen_value").has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StashProperty, ::testing::Range(1, 16));

class SimProperty : public ::testing::TestWithParam<int> {};

class CountingNode : public ctsim::Node {
 public:
  CountingNode(ctsim::Cluster* cluster, std::string id) : Node(cluster, std::move(id)) {
    Handle("tick", [this](const ctsim::Message&) { ++received_; });
  }
  int received_ = 0;
};

// Property: messages are never delivered to dead nodes, and delivered +
// dropped equals sent.
TEST_P(SimProperty, ConservationOfMessages) {
  Rng rng(GetParam());
  ctsim::Cluster cluster;
  std::vector<CountingNode*> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(cluster.AddNode<CountingNode>("n" + std::to_string(i) + ":1"));
  }
  cluster.StartAll();
  int sent = 0;
  for (int i = 0; i < 150; ++i) {
    uint64_t when = rng.Uniform(0, 500);
    int from = static_cast<int>(rng.Index(4));
    int to = static_cast<int>(rng.Index(4));
    cluster.loop().ScheduleAt(when, [&, from, to] {
      if (nodes[from]->IsRunning()) {
        nodes[from]->Send(nodes[to]->id(), "tick");
        ++sent;
      }
    });
  }
  cluster.loop().ScheduleAt(rng.Uniform(100, 400),
                            [&] { cluster.Crash(nodes[rng.Index(4)]->id()); });
  cluster.loop().RunToCompletion();
  int received = 0;
  for (auto* node : nodes) {
    if (!node->IsRunning()) {
      EXPECT_GE(node->received_, 0);
    }
    received += node->received_;
  }
  EXPECT_EQ(static_cast<uint64_t>(sent),
            cluster.delivered_messages() + cluster.dropped_messages());
  EXPECT_EQ(static_cast<uint64_t>(received), cluster.delivered_messages());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimProperty, ::testing::Range(1, 21));

}  // namespace
