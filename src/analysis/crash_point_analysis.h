// Static crash-point identification (§3.1.2).
//
// Crash points are program points before a read of (pre-read) or after a
// write to (post-write) a meta-info field. Collection-mediated accesses are
// classified by the API-name keyword table (Table 3); points that match
// neither keyword list are not accesses at all. Three pruning optimizations
// (constructor-only fields, unused reads, sanity-checked reads) and the
// return-site promotion reduce the candidate set; per-optimization counters
// feed Table 12 and the ablation benches.
#ifndef SRC_ANALYSIS_CRASH_POINT_ANALYSIS_H_
#define SRC_ANALYSIS_CRASH_POINT_ANALYSIS_H_

#include <set>
#include <string>
#include <vector>

#include "src/analysis/metainfo_inference.h"
#include "src/model/program_model.h"

namespace ctanalysis {

// Read/write keyword lists of Table 3.
bool IsCollectionReadOp(const std::string& op);
bool IsCollectionWriteOp(const std::string& op);

enum class CrashPointKind { kPreRead, kPostWrite };

struct StaticCrashPoint {
  int access_point_id = -1;
  CrashPointKind kind = CrashPointKind::kPreRead;
  std::string field_id;
  std::string location;  // "Class.method:line"
};

struct CrashPointOptions {
  // The three §3.1.2 optimizations together: constructor-only fields, unused
  // reads and sanity-checked reads. Off arms every candidate (the §4.3.1
  // soundness probe).
  bool prune = true;
  // Drop candidates whose anchor method the declared call graph cannot reach
  // from any entry point. Off by default (Table 10/12 counts predate the call
  // graph); the static-context driver modes switch it on.
  bool prune_statically_unreachable = false;
};

struct CrashPointResult {
  std::vector<StaticCrashPoint> points;
  // Counters (Tables 10 & 12).
  int metainfo_access_points = 0;  // candidates before pruning
  int pruned_constructor = 0;
  int pruned_unused = 0;
  int pruned_sanity_checked = 0;
  int promoted_points = 0;    // returned-directly reads expanded away
  int promotion_sites = 0;    // call sites considered during promotion
  int pruned_unreachable = 0;  // prune_statically_unreachable only

  std::set<int> PointIds() const;
};

class CrashPointAnalysis {
 public:
  CrashPointAnalysis(const ctmodel::ProgramModel* model, const MetaInfoResult* metainfo)
      : model_(model), metainfo_(metainfo) {}

  CrashPointResult Identify(const CrashPointOptions& options = CrashPointOptions()) const;

 private:
  // Emits `point` (or its promoted call sites) into `result` subject to the
  // read-side pruning rules.
  void EmitPoint(const ctmodel::AccessPointDecl& point, const CrashPointOptions& options,
                 bool via_promotion, CrashPointResult* result) const;

  const ctmodel::ProgramModel* model_;
  const MetaInfoResult* metainfo_;
};

}  // namespace ctanalysis

#endif  // SRC_ANALYSIS_CRASH_POINT_ANALYSIS_H_
