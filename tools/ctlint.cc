// ctlint: model-consistency linter for the shipped program models.
//
// Runs every check of ctanalysis::LintModel over the five mini systems (and
// the legacy YARN variant) and prints one line per issue. Exit status is the
// number of models with findings, so CI fails the build the moment a model
// and its executable system drift apart.
//
// Usage: ctlint [--summary]
//   --summary   print per-model method/edge/reachability statistics too
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/analysis/call_graph.h"
#include "src/analysis/context_enumeration.h"
#include "src/analysis/model_lint.h"
#include "src/systems/cassandra/cass_defs.h"
#include "src/systems/hbase/hbase_defs.h"
#include "src/systems/hdfs/hdfs_defs.h"
#include "src/systems/yarn/yarn_defs.h"
#include "src/systems/zookeeper/zk_defs.h"

namespace {

int LintOne(const ctmodel::ProgramModel& model, bool summary) {
  ctanalysis::LintResult result = ctanalysis::LintModel(model);
  if (result.ok()) {
    std::printf("%-22s OK\n", model.system_name().c_str());
  } else {
    std::printf("%-22s %zu issue(s)\n", model.system_name().c_str(), result.issues.size());
    for (const auto& issue : result.issues) {
      std::printf("  [%s] %s: %s\n", issue.check.c_str(), issue.subject.c_str(),
                  issue.message.c_str());
    }
  }
  if (summary) {
    ctanalysis::CallGraph graph(model);
    ctanalysis::ContextEnumeration enumeration(&graph);
    ctanalysis::StaticContextResult contexts = enumeration.EnumerateAll(5);
    ctanalysis::StaticContextResult feasible =
        enumeration.EnumerateAll(5, /*prune_infeasible=*/true);
    std::printf("  methods=%d edges=%d(resolved %d) reachable=%zu "
                "contexts@5=%d unreachable-points=%zu "
                "feasible@5=%d cs-pruned=%d net-windows=%d grammar-ops=%d\n",
                model.NumMethods(), model.NumCallEdges(), graph.num_resolved_edges(),
                graph.reachable().size(), contexts.TotalContexts(),
                contexts.unreachable_points.size(), feasible.TotalContexts(),
                feasible.pruned_call_strings, model.NumNetworkFaultWindows(),
                model.NumGrammarOps());
  }
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool summary = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--summary") == 0) {
      summary = true;
    } else {
      std::fprintf(stderr, "usage: ctlint [--summary]\n");
      return 2;
    }
  }

  int failing_models = 0;
  failing_models += LintOne(ctyarn::GetYarnArtifacts(ctyarn::YarnMode::kTrunk).model, summary);
  failing_models += LintOne(ctyarn::GetYarnArtifacts(ctyarn::YarnMode::kLegacy).model, summary);
  failing_models += LintOne(cthdfs::GetHdfsArtifacts().model, summary);
  failing_models += LintOne(cthbase::GetHBaseArtifacts().model, summary);
  failing_models += LintOne(ctzk::GetZkArtifacts().model, summary);
  failing_models += LintOne(ctcass::GetCassArtifacts().model, summary);
  return failing_models;
}
