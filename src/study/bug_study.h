// The paper's curated bug-study data.
//
// Section 2 studies 116 crash-recovery bugs from the CREB and CBS databases,
// narrowing to 66 single-crash bugs of which 52 are timing-sensitive
// (Table 1). Section 4 adds the fix-complexity comparison (Table 6) and the
// Kubernetes study (Table 13). This module is data, not measurement: the
// benches print it alongside the measured counterparts so EXPERIMENTS.md can
// record paper-vs-reproduced for the study tables too.
#ifndef SRC_STUDY_BUG_STUDY_H_
#define SRC_STUDY_BUG_STUDY_H_

#include <map>
#include <string>
#include <vector>

namespace ctstudy {

enum class Scenario { kPreRead, kPostWrite, kNotTimingSensitive };

// One studied bug (Table 1).
struct StudiedBug {
  std::string id;        // e.g. "YARN-5918"
  std::string system;    // Hadoop2 / HDFS / HBase / ZooKeeper
  std::string metainfo;  // meta-info accessed at the crash point
  Scenario scenario = Scenario::kPreRead;
  // §4.1.1 reproduction status in the paper.
  bool reproduced_by_paper = true;
  // Why not, when not ("not logged" / "lower layer" / "no node association").
  std::string not_reproduced_reason;
  // Reproduced by this repository's mini systems (legacy-mode runs).
  bool reproduced_here = false;
};

// Table 1 (52 timing-sensitive bugs) + the 14 non-timing-sensitive ones.
const std::vector<StudiedBug>& StudiedBugs();

// Summary counts used by benches and tests.
struct StudySummary {
  int total = 0;
  int timing_sensitive = 0;
  int non_timing_sensitive = 0;
  int pre_read = 0;
  int post_write = 0;
  int reproduced_by_paper = 0;
  std::map<std::string, int> per_system;
  std::map<std::string, int> per_metainfo;
};
StudySummary Summarize();

// Table 6: complexity of fixing newly detected bugs vs CREB bugs.
struct FixComplexityRow {
  std::string dataset;  // "CREB bugs" / "New bugs"
  double loc_per_patch = 0;
  double patches_per_bug = 0;
  double days_to_fix = 0;
  double comments = 0;
};
const std::vector<FixComplexityRow>& FixComplexity();

// Table 13: the 14 scheduling-related Kubernetes crash-recovery bugs, all
// triggered at meta-info access points.
struct KubernetesBug {
  std::string pr;        // e.g. "#53647"
  std::string metainfo;  // Node / Pod
};
const std::vector<KubernetesBug>& KubernetesBugs();

}  // namespace ctstudy

#endif  // SRC_STUDY_BUG_STUDY_H_
