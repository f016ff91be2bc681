#include "src/core/multi_crash.h"

#include <set>

namespace ctcore {

std::vector<CrashPairCandidate> EnumerateCrashPairs(const std::set<ctrt::DynamicPoint>& points,
                                                    long long max_pairs) {
  std::vector<CrashPairCandidate> pairs;
  if (max_pairs == 0) {
    return pairs;
  }
  const std::vector<ctrt::DynamicPoint> ordered(points.begin(), points.end());
  const size_t cap = max_pairs < 0 ? ordered.size() * ordered.size()
                                   : static_cast<size_t>(max_pairs);
  for (size_t i = 0; i < ordered.size() && pairs.size() < cap; ++i) {
    for (size_t j = i + 1; j < ordered.size() && pairs.size() < cap; ++j) {
      pairs.push_back({ordered[i], ordered[j]});
    }
  }
  return pairs;
}

double PairSetCrossCheck::Recall() const {
  return profiled == 0 ? 1.0 : static_cast<double>(matched) / static_cast<double>(profiled);
}

double PairSetCrossCheck::Precision() const {
  return enumerated == 0 ? 1.0
                         : static_cast<double>(matched) / static_cast<double>(enumerated);
}

PairSetCrossCheck ComparePairSets(const std::set<ctrt::DynamicPoint>& profiled_points,
                                  const std::set<ctrt::DynamicPoint>& static_points) {
  PairSetCrossCheck check;
  const long long s = static_cast<long long>(static_points.size());
  check.enumerated = s * (s - 1) / 2;
  // Walk the profiled pairs explicitly (they are the small side) and test
  // membership in the static pair set, which needs only point membership:
  // {a, b} is statically enumerable iff both endpoints are static points.
  // Both walks are unordered, so the ratios score distinct candidates rather
  // than double-counting each one per injection order.
  for (const CrashPairCandidate& pair : EnumerateCrashPairs(profiled_points, -1)) {
    ++check.profiled;
    if (static_points.count(pair.first) > 0 && static_points.count(pair.second) > 0) {
      ++check.matched;
    } else {
      check.missed.push_back(pair);
    }
  }
  return check;
}

}  // namespace ctcore
