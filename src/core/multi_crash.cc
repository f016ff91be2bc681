#include "src/core/multi_crash.h"

#include <memory>
#include <set>

#include "src/common/fnv.h"
#include "src/core/campaign.h"
#include "src/sim/exception.h"

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

ctanalysis::CrashPointKind MultiCrashTester::KindOf(int point_id, std::string* location) const {
  for (const auto& point : crash_points_->points) {
    if (point.access_point_id == point_id) {
      if (location != nullptr) {
        *location = point.location;
      }
      return point.kind;
    }
  }
  return ctanalysis::CrashPointKind::kPreRead;
}

void MultiCrashTester::Inject(ctsim::Cluster& cluster, const ctlog::CustomStash& stash,
                              ctanalysis::CrashPointKind kind, const ctrt::AccessEvent& event,
                              bool* injected, std::string* target) {
  auto resolved = stash.Lookup(event.value);
  if (!resolved.has_value() || !cluster.IsAlive(*resolved)) {
    return;
  }
  *injected = true;
  *target = *resolved;
  bool killing_current = (*resolved == cluster.current_node());
  if (kind == ctanalysis::CrashPointKind::kPreRead) {
    cluster.Shutdown(*resolved);
    if (killing_current) {
      throw ctsim::NodeCrashedSignal{};
    }
    cluster.loop().RunFor(pre_read_wait_ms_);
  } else {
    cluster.Crash(*resolved);
    if (killing_current) {
      throw ctsim::NodeCrashedSignal{};
    }
  }
}

PairInjectionResult MultiCrashTester::TestPair(const ctrt::DynamicPoint& first,
                                               const ctrt::DynamicPoint& second, uint64_t seed) {
  PairInjectionResult result;
  result.first = first;
  result.second = second;
  ctanalysis::CrashPointKind first_kind = KindOf(first.point_id, &result.first_location);
  ctanalysis::CrashPointKind second_kind = KindOf(second.point_id, &result.second_location);

  auto run = system_->NewRun(system_->default_workload_size(), seed);
  ctsim::Cluster& cluster = run->cluster();

  ctlog::CustomStash stash(filter_);
  std::vector<std::unique_ptr<ctlog::LogstashAgent>> agents;
  for (const auto& node_id : cluster.node_ids()) {
    agents.push_back(std::make_unique<ctlog::LogstashAgent>(node_id, &stash));
  }
  cluster.logs().Subscribe([&agents](const ctlog::Instance& instance) {
    for (auto& agent : agents) {
      agent->OnInstance(instance);
    }
  });

  ctrt::AccessTracer& tracer = run->context().tracer();
  tracer.Reset(ctrt::TraceMode::kTrigger);
  tracer.ArmAccessTrigger(first, [&, second, second_kind](const ctrt::AccessEvent& event) {
    // Chain the second injection before delivering the first fault: if the
    // first target is the currently executing node, Inject throws and the
    // re-arm must already be in place.
    tracer.RearmAccessTrigger(second, [&, second_kind](const ctrt::AccessEvent& second_event) {
      Inject(cluster, stash, second_kind, second_event, &result.second_injected,
             &result.second_target);
    });
    Inject(cluster, stash, first_kind, event, &result.first_injected, &result.first_target);
  });

  result.outcome = Executor::Execute(*run, &baseline_);
  // The armed/re-armed trigger dies with the run's context.
  return result;
}

namespace {

// Content-derived pair seed: FNV-1a over both endpoints, mixed with the base
// seed. Position-independent, so a pair runs the same simulation whatever
// the cap and wherever it sits in the walk.
uint64_t PairSeed(uint64_t seed, const CrashPairCandidate& pair) {
  ctcommon::Fnv1a hash;
  auto mix = [&hash](const std::string& text) {
    hash.Add(text);
    hash.AddByte(0xff);
  };
  mix(std::to_string(pair.first.point_id));
  mix(pair.first.stack_key);
  mix(std::to_string(pair.second.point_id));
  mix(pair.second.stack_key);
  return seed + (hash.value() >> 1);
}

}  // namespace

MultiCrashReport MultiCrashTester::TestPairs(const ProfileResult& profile,
                                             const std::vector<InjectionResult>& single_results,
                                             int max_pairs, uint64_t seed, int jobs) {
  MultiCrashReport report;
  // Failure signatures already reachable with one crash: a pair only counts
  // as "multi-only" if its signature is new.
  std::set<std::string> single_signatures;
  for (const auto& single : single_results) {
    if (single.outcome.IsBug()) {
      std::string exception = single.outcome.uncommon_exceptions.empty()
                                  ? ""
                                  : single.outcome.uncommon_exceptions.front();
      single_signatures.insert(single.outcome.PrimarySymptom() + "|" + exception);
    }
  }

  // Enumerate the (deterministically ordered, capped) pair list up front so
  // the runs can fan out across worker threads. The shared enumerator means
  // a static-only point set feeds the quadratic phase through the very same
  // walk the profiled set does.
  const std::vector<CrashPairCandidate> pairs =
      EnumerateCrashPairs(profile.dynamic_access_points, max_pairs);
  CampaignEngine engine(jobs);
  std::vector<PairInjectionResult> results =
      engine.Map(static_cast<int>(pairs.size()), [&](int i) {
        const CrashPairCandidate& task = pairs[static_cast<size_t>(i)];
        return TestPair(task.first, task.second, PairSeed(seed, task));
      });

  // Aggregate in pair order: double summation and report rows come out the
  // same at any thread count.
  for (const PairInjectionResult& result : results) {
    ++report.pairs_tested;
    report.virtual_hours +=
        static_cast<double>(result.outcome.virtual_duration_ms) / 3'600'000.0;
    if (!result.outcome.IsBug()) {
      continue;
    }
    report.failing.push_back(result);
    std::string exception = result.outcome.uncommon_exceptions.empty()
                                ? ""
                                : result.outcome.uncommon_exceptions.front();
    if (single_signatures.count(result.outcome.PrimarySymptom() + "|" + exception) == 0) {
      report.multi_only.push_back(result);
    }
  }
  return report;
}

}  // namespace ctcore
