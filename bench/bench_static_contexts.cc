// Static vs profiled dynamic crash points.
//
// Column 1 of the comparison: the profiled pipeline (workload-doubling
// fixpoint, §3.1.3) against the static pipeline (bounded call-string
// enumeration over the declared call graph) on every system — dynamic-point
// counts, recall/precision of the enumeration against the profiled set, and
// end-to-end phase-1 wall time. Then a depth ablation: enumerated contexts
// and unreachable-point prunes at call-string bounds 1..6.
#include <chrono>

#include "bench/bench_util.h"
#include "src/analysis/call_graph.h"
#include "src/analysis/context_enumeration.h"
#include "src/runtime/tracer.h"

namespace {

double WallSeconds(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  ctbench::BenchFlags flags = ctbench::ParseFlags(argc, argv);
  ctbench::BenchObservation observation(flags);
  ctbench::PrintHeader(
      "Static call-string enumeration vs profiling (dynamic crash points)");
  std::printf("%-14s | %8s %6s | %8s %6s %8s | %7s %9s | %8s %8s\n", "System", "Profiled",
              "iters", "Static", "prune", "cs-prune", "Recall", "Precision", "t_prof",
              "t_static");
  ctbench::PrintRule();
  for (const auto& system : ctbench::AllSystems()) {
    ctcore::CrashTunerDriver driver;

    ctcore::DriverOptions profiled_options;
    profiled_options.observer = observation.ObserverFor(system->name() + "/profiled");
    ctcore::SystemReport profiled;
    double t_profiled = WallSeconds([&] { profiled = driver.Run(*system, profiled_options); });

    ctcore::DriverOptions options;
    options.context_mode = ctcore::ContextMode::kStaticOnly;
    options.observer = observation.ObserverFor(system->name() + "/static");
    ctcore::SystemReport enumerated;
    double t_static = WallSeconds([&] { enumerated = driver.Run(*system, options); });

    // The driver's enumeration, checked against the profiled fixpoint.
    ctanalysis::CallGraph graph(system->model());
    const ctanalysis::ContextCrossCheck check = ctanalysis::CompareWithProfile(
        ctanalysis::ContextEnumeration(&graph).EnumerateAll(
            ctrt::AccessTracer::DefaultStackDepth(), /*prune_infeasible=*/true),
        profiled.profile.dynamic_access_points);

    std::printf("%-14s | %8d %6d | %8d %6d %8d | %6.1f%% %8.1f%% | %7.2fs %7.2fs\n",
                system->name().c_str(), profiled.dynamic_crash_points,
                profiled.profile.iterations, enumerated.static_contexts,
                enumerated.static_unreachable_points, enumerated.static_pruned_call_strings,
                100.0 * check.Recall(), 100.0 * check.Precision(), t_profiled, t_static);
  }
  std::printf("Recall: profiled pairs the enumeration reproduces (must be 100%%).\n");
  std::printf("Precision: enumerated pairs over profiled points the workload exercised.\n");
  std::printf("prune: executable candidates dropped for unreachable anchors.\n");
  std::printf("cs-prune: individual call strings dropped by per-string feasibility.\n");

  ctbench::PrintHeader("Depth ablation — enumerated contexts at call-string bounds 1..6");
  std::printf("Each cell: feasible contexts (strings removed by per-string pruning).\n");
  std::printf("%-14s |", "System");
  for (int depth = 1; depth <= 6; ++depth) {
    std::printf(" %11s", ("d=" + std::to_string(depth)).c_str());
  }
  std::printf(" | %9s\n", "unreach");
  ctbench::PrintRule();
  for (const auto& system : ctbench::AllSystems()) {
    ctanalysis::CallGraph graph(system->model());
    ctanalysis::ContextEnumeration enumeration(&graph);
    std::printf("%-14s |", system->name().c_str());
    size_t unreachable = 0;
    for (int depth = 1; depth <= 6; ++depth) {
      ctanalysis::StaticContextResult result =
          enumeration.EnumerateAll(depth, /*prune_infeasible=*/true);
      char cell[32];
      std::snprintf(cell, sizeof(cell), "%d(-%d)", result.TotalContexts(),
                    result.pruned_call_strings);
      std::printf(" %11s", cell);
      unreachable = result.unreachable_points.size();
    }
    std::printf(" | %9zu\n", unreachable);
  }
  std::printf("Counts cover every modelled access point (catalog included); the\n");
  std::printf("unreach column is the access points whose anchor no entry reaches.\n");

  return observation.Write() ? 0 : 1;
}
