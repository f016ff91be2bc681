// Table 2: meta-info types inferred for the Fig. 3 Yarn example — the
// log-identified (*) seeds and the statically derived members, grouped by
// the kind of meta-info they refer to. Also prints the Table 3 keyword
// table the collection classification uses.
#include "bench/bench_util.h"
#include "src/analysis/crash_point_analysis.h"
#include "src/core/crashtuner.h"
#include "src/systems/yarn/yarn_system.h"

int main(int argc, char** argv) {
  ctbench::BenchFlags flags = ctbench::ParseFlags(argc, argv);
  ctbench::BenchObservation observation(flags);
  ctbench::PrintHeader("Table 2 — meta-info types for the Hadoop2/Yarn example");
  ctyarn::YarnSystem yarn;
  ctcore::DriverOptions options;
  options.observer = observation.ObserverFor(yarn.name());
  ctcore::SystemReport report = ctcore::CrashTunerDriver().Run(yarn, options);

  for (const auto& [group, members] : report.metainfo.ByGroup()) {
    std::printf("%s\n", group.c_str());
    for (const auto& info : members) {
      std::printf("  %-62s %s\n", info.name.c_str(),
                  info.from_log ? "*" : info.derived_via.c_str());
    }
  }
  ctbench::PrintRule();
  std::printf("log-identified seeds: %zu   derived: %zu   total meta-info types: %d\n",
              report.log_result.seed_types.size(),
              report.metainfo.types.size() - report.log_result.seed_types.size(),
              report.metainfo.NumTypes());

  ctbench::PrintHeader("Table 3 — collection read/write keywords (classification check)");
  const char* reads[] = {"get",     "peek",  "poll",    "clone",   "at",     "element", "index",
                         "toArray", "sub",   "contain", "isEmpty", "exist",  "values"};
  const char* writes[] = {"add",     "clear", "remove", "retain", "put",      "insert",
                          "set",     "replace", "offer", "push",   "pop",      "copyInto"};
  std::printf("read : ");
  for (const char* keyword : reads) {
    std::printf("%s%s ", keyword, ctanalysis::IsCollectionReadOp(keyword) ? "" : "(!)");
  }
  std::printf("\nwrite: ");
  for (const char* keyword : writes) {
    std::printf("%s%s ", keyword, ctanalysis::IsCollectionWriteOp(keyword) ? "" : "(!)");
  }
  std::printf("\n");

  return observation.Write() ? 0 : 1;
}
