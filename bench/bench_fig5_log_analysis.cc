// Figures 1, 5 and 6: the meta-info view. Runs the mini-YARN workload, shows
// the logging statements and their extracted patterns (Fig. 5a/5b), a sample
// of runtime instances with recovered values (Fig. 5c), the offline
// meta-info graph (Fig. 5d / Fig. 1), and the online stash's HashSet +
// HashMap (Fig. 6) built by replaying the same logs through per-node
// Logstash agents.
#include <optional>

#include "bench/bench_util.h"
#include "src/analysis/log_analysis.h"
#include "src/common/strings.h"
#include "src/core/executor.h"
#include "src/logging/stash.h"
#include "src/runtime/tracer.h"

int main(int argc, char** argv) {
  ctbench::BenchFlags flags = ctbench::ParseFlags(argc, argv);
  ctbench::BenchObservation observation(flags);
  ctyarn::YarnSystem yarn;
  ctrt::AccessTracer::Instance().Reset(ctrt::TraceMode::kOff);
  auto run = yarn.NewRun(3, 2019);
  // This bench drives the Executor directly (no campaign driver), so an
  // observed run's observer is made, passed and absorbed by hand.
  ctobs::CampaignObserver* observer = observation.ObserverFor("yarn/fig5-workload");
  std::optional<ctobs::RunObserver> run_observer;
  if (observer != nullptr) {
    run_observer.emplace();
  }
  ctcore::Executor::Execute(*run, nullptr, run_observer ? &*run_observer : nullptr);
  if (run_observer) {
    observer->AbsorbRun(0, std::move(*run_observer));
  }
  const auto& instances = run->cluster().logs().instances();

  ctbench::PrintHeader("Fig. 5(a)/(b) — logging statements and extracted patterns");
  const auto& registry = ctlog::StatementRegistry::Instance();
  std::set<int> used;
  for (const auto& instance : instances) {
    used.insert(instance.statement_id);
  }
  for (int id : used) {
    const auto& stmt = registry.Get(id);
    std::printf("  %-58s => %s\n", stmt.tmpl.c_str(),
                ctcommon::ReplaceAll(stmt.tmpl, "{}", "(.*)").c_str());
  }

  ctbench::PrintHeader("Fig. 5(c) — runtime log instances (first 12)");
  int shown = 0;
  for (const auto& instance : instances) {
    if (++shown > 12) {
      break;
    }
    std::printf("  %6llu %-14s %s\n", static_cast<unsigned long long>(instance.time_ms),
                instance.node.c_str(), instance.text.c_str());
  }

  ctanalysis::LogAnalysis analysis(&yarn.model(), run->cluster().config_hosts());
  ctanalysis::LogAnalysisResult result = analysis.Analyze(instances);

  ctbench::PrintHeader("Fig. 5(d) / Fig. 1 — derived runtime meta-info view");
  std::printf("node values: ");
  for (const auto& node : result.graph.node_values) {
    std::printf("%s ", node.c_str());
  }
  std::printf("\nvalue -> node:\n");
  for (const auto& [value, node] : result.graph.value_to_node) {
    std::printf("  %-42s -> %s\n", value.c_str(), node.c_str());
  }
  std::printf("match rate: %d/%d (mismatched %d)\n", result.instances_matched,
              result.instances_total, result.instances_mismatched);

  ctbench::PrintHeader("Fig. 6 — online stash (HashSet + HashMap) via Logstash agents");
  ctlog::CustomStash stash(analysis.MakeOnlineFilter(result));
  std::vector<std::unique_ptr<ctlog::LogstashAgent>> agents;
  for (const auto& node : run->cluster().node_ids()) {
    agents.push_back(std::make_unique<ctlog::LogstashAgent>(node, &stash));
  }
  for (const auto& instance : instances) {
    for (auto& agent : agents) {
      agent->OnInstance(instance);
    }
  }
  std::printf("HashSet  : %zu node values\n", stash.nodes().size());
  std::printf("HashMap  : %zu value->node entries\n", stash.value_to_node().size());
  int printed = 0;
  for (const auto& [value, node] : stash.value_to_node()) {
    if (++printed > 10) {
      break;
    }
    std::printf("  %-42s -> %s\n", value.c_str(), node.c_str());
  }

  return observation.Write() ? 0 : 1;
}
