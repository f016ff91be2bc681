#include "src/fuzz/fuzz_phase.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/fnv.h"
#include "src/core/campaign.h"
#include "src/core/executor.h"
#include "src/fuzz/generator.h"
#include "src/sim/trace.h"

namespace ctfuzz {

namespace {

// "fuzz-ops": the generation stream is (fuzz seed ^ salt) mixed with the run
// index. The runs themselves draw no random numbers, so this stream alone
// decides what a fuzz run does.
constexpr uint64_t kFuzzSalt = 0x66757a7a2d6f7073ull;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string ReplaceAll(std::string text, const std::string& what, const std::string& with) {
  size_t pos = 0;
  while ((pos = text.find(what, pos)) != std::string::npos) {
    text.replace(pos, what.size(), with);
    pos += with.size();
  }
  return text;
}

// Live cluster members whose id starts with `prefix`, sorted — the pool a
// target ordinal indexes into (modulo its size), so ops stay meaningful at
// any --scale and membership changes resolve deterministically at fire time.
std::vector<std::string> PoolWithPrefix(const ctsim::Cluster& cluster, const std::string& prefix,
                                        bool alive_only) {
  std::vector<std::string> pool;
  for (const std::string& id : cluster.node_ids()) {
    if (id.rfind(prefix, 0) != 0) {
      continue;
    }
    if (alive_only && !cluster.IsAlive(id)) {
      continue;
    }
    pool.push_back(id);
  }
  std::sort(pool.begin(), pool.end());
  return pool;
}

void FireOp(ctsim::Cluster& cluster, const ctmodel::GrammarOpDecl& decl, const FuzzOp& op) {
  const bool node_op = decl.kind != ctmodel::GrammarOpKind::kRpc;
  const std::vector<std::string> pool =
      PoolWithPrefix(cluster, decl.target_prefix, /*alive_only=*/node_op);
  if (pool.empty()) {
    return;
  }
  const std::string& target = pool[op.target_ordinal % pool.size()];
  switch (decl.kind) {
    case ctmodel::GrammarOpKind::kCrash:
      cluster.Crash(target);
      return;
    case ctmodel::GrammarOpKind::kShutdown:
      cluster.Shutdown(target);
      return;
    case ctmodel::GrammarOpKind::kRpc:
      break;
  }
  std::string node_pick;
  if (!decl.arg_prefix.empty()) {
    const std::vector<std::string> arg_pool =
        PoolWithPrefix(cluster, decl.arg_prefix, /*alive_only=*/false);
    if (arg_pool.empty()) {
      return;
    }
    node_pick = arg_pool[op.target_ordinal % arg_pool.size()];
  }
  std::vector<std::pair<std::string, std::string>> args;
  args.reserve(decl.args.size());
  for (const auto& [key, tpl] : decl.args) {
    std::string value = ReplaceAll(tpl, "%MAG%", std::to_string(op.magnitude));
    if (value.find("%NODE%") != std::string::npos) {
      if (node_pick.empty()) {
        return;  // op wants a node argument but declared no pool for it
      }
      value = ReplaceAll(value, "%NODE%", node_pick);
    }
    args.emplace_back(key, value);
  }
  std::string verb = decl.rpc_verb;
  if (verb.empty()) {
    const size_t dot = decl.target_method.rfind('.');
    verb = dot == std::string::npos ? decl.target_method : decl.target_method.substr(dot + 1);
  }
  cluster.Post("fuzzer", target, verb, std::move(args));
}

// Schedules every op of the workload onto the run's event loop (ownerless
// events, so they fire regardless of which nodes died in the meantime).
void ScheduleOps(ctcore::WorkloadRun& run, const ctmodel::ProgramModel& model,
                 const FuzzWorkload& workload) {
  ctsim::Cluster& cluster = run.cluster();
  for (const FuzzOp& op : workload.ops) {
    const ctmodel::GrammarOpDecl& decl = model.grammar_ops()[op.op_index];
    cluster.loop().Schedule(op.time_ms,
                            [&cluster, &decl, op] { FireOp(cluster, decl, op); });
  }
}

struct RunRecord {
  std::set<ctrt::DynamicPoint> points;  // dynamic crash points the run reached
  uint64_t trace_hash = 0;
  ctcore::RunOutcome outcome;
};

// One profiled run of `workload`, judged against `baseline`.
RunRecord ExecuteOne(const ctcore::SystemUnderTest& system, const std::set<int>& access_points,
                     const FuzzWorkload& workload, const ctcore::OracleBaseline& baseline) {
  auto prepare = [&access_points](ctrt::RunContext& context) {
    context.tracer().Reset(ctrt::TraceMode::kProfile);
    context.tracer().SetProfiledPoints(access_points, /*io_points=*/{});
  };
  auto run = system.NewRun(workload.workload_size, /*seed=*/0, prepare);
  ctsim::Cluster& cluster = run->cluster();
  ctsim::TraceRecorder recorder;
  cluster.set_trace_recorder(&recorder);

  ScheduleOps(*run, system.model(), workload);
  RunRecord record;
  record.outcome = ctcore::Executor::Execute(*run, &baseline);
  record.points = run->context().tracer().dynamic_access_points();
  record.trace_hash = recorder.hash();
  return record;
}

}  // namespace

FuzzResult RunFuzzPhase(const ctcore::SystemUnderTest& system, ctcore::SystemReport* report,
                        const FuzzPhaseOptions& options) {
  FuzzResult result;
  if (options.runs <= 0) {
    return result;
  }

  // The fixed workload script's dynamic points are the coverage floor: every
  // pair fuzzing "discovers" is by construction beyond the script.
  result.coverage = report->profile.dynamic_access_points;
  const int baseline_pairs = static_cast<int>(result.coverage.size());

  const OpSequenceGenerator generator(&system.model());
  const int budget = generator.HasGrammar() ? options.runs : 0;
  const uint64_t stream = (options.seed + 2000) ^ kFuzzSalt;
  const std::set<int> access_points = report->crash_points.PointIds();
  const int workload_size = system.default_workload_size();

  struct Drawn {
    FuzzWorkload workload;
    RunRecord record;
  };
  ctcore::CampaignEngine engine(options.jobs);
  std::vector<Drawn> drawn = engine.Map(budget, [&](int g) {
    ctcommon::Rng rng(SplitMix64(stream + static_cast<uint64_t>(g)));
    Drawn out;
    out.workload = generator.Generate(rng, workload_size);
    out.record = ExecuteOne(system, access_points, out.workload, report->profile.baseline);
    return out;
  });

  // Run-order merge: admission order, coverage set, the aggregate hash and
  // the triaged bugs are functions of the run index alone.
  ctcommon::Fnv1a trace_hash;
  std::vector<ctcore::InjectionResult> bug_runs;
  for (int g = 0; g < budget; ++g) {
    Drawn& run = drawn[static_cast<size_t>(g)];
    trace_hash.AddU64(run.record.trace_hash);
    int fresh = 0;
    for (const ctrt::DynamicPoint& point : run.record.points) {
      if (result.coverage.insert(point).second) {
        ++fresh;
        result.new_keys.insert(point);
      }
    }
    if (fresh > 0) {
      ++result.new_coverage_runs;
      CorpusEntry entry;
      entry.workload = std::move(run.workload);
      entry.trace_hash = run.record.trace_hash;
      entry.run_index = g;
      entry.new_keys = fresh;
      result.corpus.push_back(std::move(entry));
    }
    if (run.record.outcome.IsBug()) {
      // A fuzz run has no crash-point location, so TriageBugs reports it
      // only when its failure matches a known bug.
      ctcore::InjectionResult& bug_run = bug_runs.emplace_back();
      bug_run.injected = true;
      bug_run.outcome = std::move(run.record.outcome);
    }
  }
  result.runs = budget;
  result.bug_runs = static_cast<int>(bug_runs.size());
  for (const ctcore::DetectedBug& bug : ctcore::TriageBugs(system, bug_runs)) {
    result.bug_ids.push_back(bug.bug_id);
  }
  result.trace_hash = budget > 0 ? trace_hash.value() : 0;

  ctcore::FuzzSummary& summary = report->fuzz;
  summary.active = true;
  summary.runs = result.runs;
  summary.corpus_size = static_cast<int>(result.corpus.size());
  summary.baseline_pairs = baseline_pairs;
  summary.coverage_pairs = static_cast<int>(result.coverage.size());
  summary.new_pairs = static_cast<int>(result.new_keys.size());
  summary.new_coverage_runs = result.new_coverage_runs;
  summary.bug_runs = result.bug_runs;
  summary.bug_ids = result.bug_ids;
  summary.trace_hash = result.trace_hash;
  return result;
}

}  // namespace ctfuzz
