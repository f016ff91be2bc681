// Tables 6 and 13: the fix-complexity comparison and the Kubernetes study.
#include "bench/bench_util.h"
#include "src/study/bug_study.h"

int main(int argc, char** argv) {
  // Study tables only — no campaign runs here, so --metrics-out/--trace-out
  // produce empty (but well-formed) outputs.
  ctbench::BenchFlags flags = ctbench::ParseFlags(argc, argv);
  ctbench::BenchObservation observation(flags);
  ctbench::PrintHeader("Table 6 — complexity of fixing new bugs vs CREB bugs");
  std::printf("%-12s %14s %14s %14s %12s\n", "", "LOC/patch", "patches/bug", "days-to-fix",
              "comments");
  for (const auto& row : ctstudy::FixComplexity()) {
    std::printf("%-12s %14.1f %14.1f %14.1f %12.1f\n", row.dataset.c_str(), row.loc_per_patch,
                row.patches_per_bug, row.days_to_fix, row.comments);
  }
  std::printf("(same patch complexity, ~5.5x faster fixes, ~3x fewer comments: reproduction\n"
              " instructions shipped with each report do the work)\n");

  ctbench::PrintHeader("Table 13 — studied Kubernetes crash-recovery bugs");
  std::printf("Node: ");
  for (const auto& bug : ctstudy::KubernetesBugs()) {
    if (bug.metainfo == "Node") {
      std::printf("%s ", bug.pr.c_str());
    }
  }
  std::printf("\nPod : ");
  for (const auto& bug : ctstudy::KubernetesBugs()) {
    if (bug.metainfo == "Pod") {
      std::printf("%s ", bug.pr.c_str());
    }
  }
  std::printf("\nAll %zu bugs are triggered at meta-info access points (§4.4): the\n"
              "meta-info abstraction transfers beyond the JVM ecosystem.\n",
              ctstudy::KubernetesBugs().size());

  return observation.Write() ? 0 : 1;
}
