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

}  // namespace ctcore
