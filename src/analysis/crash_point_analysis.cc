#include "src/analysis/crash_point_analysis.h"

#include <memory>

#include "src/analysis/call_graph.h"
#include "src/common/strings.h"

namespace ctanalysis {

namespace {

// Table 3 keyword lists. A collection API call is a read/write access if its
// method name starts with one of these keywords (case-insensitive).
const char* kReadKeywords[] = {"get",     "peek", "poll",    "clone",   "at",
                               "element", "index", "toarray", "sub",     "contain",
                               "isempty", "exist", "values"};
const char* kWriteKeywords[] = {"add",     "clear", "remove", "retain", "put",     "insert",
                                "set",     "replace", "offer", "push",   "pop",     "copyinto"};

bool MatchesKeyword(const std::string& op, const char* const* keywords, size_t count) {
  std::string lower = ctcommon::ToLower(op);
  for (size_t i = 0; i < count; ++i) {
    if (lower.rfind(keywords[i], 0) == 0) {
      return true;
    }
  }
  return false;
}

std::string Location(const ctmodel::AccessPointDecl& point) {
  return point.clazz + "." + point.method + ":" + std::to_string(point.line);
}

}  // namespace

bool IsCollectionReadOp(const std::string& op) {
  return MatchesKeyword(op, kReadKeywords, std::size(kReadKeywords));
}

bool IsCollectionWriteOp(const std::string& op) {
  return MatchesKeyword(op, kWriteKeywords, std::size(kWriteKeywords));
}

std::set<int> CrashPointResult::PointIds() const {
  std::set<int> ids;
  for (const auto& point : points) {
    ids.insert(point.access_point_id);
  }
  return ids;
}

void CrashPointAnalysis::EmitPoint(const ctmodel::AccessPointDecl& point,
                                   const CrashPointOptions& options, bool via_promotion,
                                   CrashPointResult* result) const {
  // Determine the effective access kind; collection ops are classified by
  // keyword, everything else by the declared kind.
  ctmodel::AccessKind kind = point.kind;
  if (!point.collection_op.empty()) {
    if (IsCollectionReadOp(point.collection_op)) {
      kind = ctmodel::AccessKind::kRead;
    } else if (IsCollectionWriteOp(point.collection_op)) {
      kind = ctmodel::AccessKind::kWrite;
    } else {
      return;  // neither a read nor a write op: not an access
    }
  }

  if (kind == ctmodel::AccessKind::kRead) {
    if (point.returned_directly && !via_promotion) {
      // Replace the read with its call sites (§3.1.2 "promotion").
      ++result->promoted_points;
      for (int site_id : point.promoted_sites) {
        ++result->promotion_sites;
        EmitPoint(model_->access_point(site_id), options, /*via_promotion=*/true, result);
      }
      return;
    }
    if (options.prune && point.value_unused) {
      ++result->pruned_unused;
      return;
    }
    if (options.prune && point.sanity_checked) {
      ++result->pruned_sanity_checked;
      return;
    }
  }

  StaticCrashPoint out;
  out.access_point_id = point.id;
  out.kind = kind == ctmodel::AccessKind::kRead ? CrashPointKind::kPreRead
                                                : CrashPointKind::kPostWrite;
  out.field_id = point.field_id;
  out.location = Location(point);
  result->points.push_back(out);
}

CrashPointResult CrashPointAnalysis::Identify(const CrashPointOptions& options) const {
  CrashPointResult result;
  std::unique_ptr<CallGraph> graph;
  if (options.prune_statically_unreachable) {
    graph = std::make_unique<CallGraph>(*model_);
  }
  // Promotion sites are only reachable through their promoting read; they are
  // not independent candidates.
  std::set<int> promotion_site_ids;
  for (const auto& point : model_->access_points()) {
    promotion_site_ids.insert(point.promoted_sites.begin(), point.promoted_sites.end());
  }
  for (const auto& point : model_->access_points()) {
    if (!metainfo_->IsMetaInfoField(point.field_id)) {
      continue;
    }
    if (promotion_site_ids.count(point.id) > 0) {
      continue;
    }
    ++result.metainfo_access_points;

    if (graph != nullptr &&
        !graph->IsReachable(ctmodel::ProgramModel::ContextMethodOf(point))) {
      ++result.pruned_unreachable;
      continue;
    }

    const ctmodel::FieldDecl* field = model_->FindField(point.field_id);
    if (options.prune && field != nullptr && field->set_only_in_constructor) {
      // The containing class is itself a meta-info type (Definition 2), so
      // later references to the field are redundant crash points.
      ++result.pruned_constructor;
      continue;
    }
    EmitPoint(point, options, /*via_promotion=*/false, &result);
  }
  return result;
}

}  // namespace ctanalysis
