#include "src/fuzz/fuzzer.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/common/fnv.h"
#include "src/core/campaign.h"
#include "src/core/executor.h"
#include "src/fuzz/generator.h"
#include "src/sim/trace.h"

namespace ctfuzz {

namespace {

// "fuzz-ops": the generation stream is (campaign seed ^ salt) mixed with the
// global run index — disjoint by construction from the workload stream
// (raw seed) and the network stream ("net-flt" salt in the cluster).
constexpr uint64_t kFuzzSalt = 0x66757a7a2d6f7073ull;

// Runs generated per corpus snapshot. Fixed and jobs-independent: within a
// batch every workload derives from the same snapshot, so scheduling order
// cannot leak into generation.
constexpr int kBatchSize = 8;

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
    if (op.op_index < 0 || op.op_index >= model.NumGrammarOps()) {
      throw std::runtime_error("fuzz workload: op index " + std::to_string(op.op_index) +
                               " out of range for model with " +
                               std::to_string(model.NumGrammarOps()) + " grammar ops");
    }
    const ctmodel::GrammarOpDecl& decl = model.grammar_ops()[op.op_index];
    cluster.loop().Schedule(op.time_ms,
                            [&cluster, &decl, op] { FireOp(cluster, decl, op); });
  }
}

struct RunRecord {
  std::set<CoverageKey> keys;
  uint64_t trace_hash = 0;
  bool is_bug = false;
};

RunRecord ExecuteOne(const ctcore::SystemUnderTest& system, const std::set<int>& access_points,
                     const std::set<int>& io_points, const FuzzWorkload& workload,
                     ctobs::CampaignObserver* observer, int slot) {
  auto prepare = [&access_points, &io_points](ctrt::RunContext& context) {
    context.tracer().Reset(ctrt::TraceMode::kProfile);
    context.tracer().SetProfiledPoints(access_points, io_points);
  };
  auto run = system.NewRun(workload.workload_size, workload.run_seed, prepare);
  ctsim::Cluster& cluster = run->cluster();
  ctsim::TraceRecorder recorder;
  cluster.set_trace_recorder(&recorder);

  ctobs::RunObserver* run_observer = &run->context().observer();
  if (observer != nullptr && slot >= 0) {
    run_observer->Enable();
  }

  ScheduleOps(*run, system.model(), workload);
  const ctcore::RunOutcome outcome = ctcore::Executor::Execute(*run, /*baseline=*/nullptr);

  RunRecord record;
  record.keys = HarvestCoverage(run->context().tracer());
  record.trace_hash = recorder.hash();
  record.is_bug = outcome.IsBug();
  if (observer != nullptr && slot >= 0) {
    ctobs::MetricsShard& metrics = run_observer->metrics();
    metrics.Add("fuzz.ops", workload.ops.size());
    metrics.Add("trace.events", recorder.size());
    observer->AbsorbRun(slot, std::move(*run_observer));
  }
  return record;
}

}  // namespace

FuzzResult WorkloadFuzzer::Run(const ctcore::SystemUnderTest& system,
                               const std::set<int>& access_points,
                               const std::set<int>& io_points,
                               const std::set<CoverageKey>& baseline,
                               const FuzzOptions& options) const {
  FuzzResult result;
  for (const CoverageKey& key : baseline) {
    result.coverage.Add(key);
  }
  const OpSequenceGenerator generator(&system.model());
  if (!generator.HasGrammar() || options.budget <= 0) {
    return result;
  }
  const int workload_size = system.default_workload_size();
  ctcore::CampaignEngine engine(options.jobs);
  ctcommon::Fnv1a trace_hash;

  struct Batched {
    FuzzWorkload workload;
    RunRecord record;
  };

  int produced = 0;
  while (produced < options.budget) {
    const int n = std::min(kBatchSize, options.budget - produced);
    // Generation reads the corpus as it stood at batch start: a worker's
    // finish order can never change what another run in the batch draws.
    std::vector<FuzzWorkload> snapshot;
    snapshot.reserve(result.corpus.size());
    for (const CorpusEntry& entry : result.corpus.entries()) {
      snapshot.push_back(entry.workload);
    }
    std::vector<Batched> batch = engine.Map(n, [&](int i) {
      const int g = produced + i;
      ctcommon::Rng rng(SplitMix64((options.seed ^ kFuzzSalt) + static_cast<uint64_t>(g)));
      Batched out;
      out.workload = (!snapshot.empty() && rng.Chance(0.5))
                         ? generator.Mutate(snapshot[rng.Index(snapshot.size())], rng)
                         : generator.Generate(rng, workload_size);
      const int slot = options.observer != nullptr ? options.observer_slot_base + g : -1;
      out.record =
          ExecuteOne(system, access_points, io_points, out.workload, options.observer, slot);
      return out;
    });
    // Index-ordered merge: admission order, coverage set, and the aggregate
    // hash are functions of the global run index alone.
    for (int i = 0; i < n; ++i) {
      const int g = produced + i;
      Batched& b = batch[static_cast<size_t>(i)];
      trace_hash.AddU64(b.record.trace_hash);
      int fresh = 0;
      for (const CoverageKey& key : b.record.keys) {
        if (result.coverage.Add(key)) {
          ++fresh;
          result.new_keys.insert(key);  // coverage started as baseline
        }
      }
      if (b.record.is_bug) {
        ++result.bug_runs;
      }
      if (fresh > 0) {
        ++result.new_coverage_runs;
        CorpusEntry entry;
        entry.workload = std::move(b.workload);
        entry.trace_hash = b.record.trace_hash;
        entry.run_index = g;
        entry.new_keys = fresh;
        result.corpus.Add(std::move(entry));
      }
      ++result.runs;
    }
    produced += n;
  }
  result.trace_hash = trace_hash.value();
  return result;
}

void WorkloadFuzzer::ReplayCorpus(const ctcore::SystemUnderTest& system,
                                  const std::set<int>& access_points,
                                  const std::set<int>& io_points, const Corpus& corpus) const {
  for (size_t i = 0; i < corpus.size(); ++i) {
    const CorpusEntry& entry = corpus[i];
    const RunRecord record = ExecuteOne(system, access_points, io_points, entry.workload,
                                        /*observer=*/nullptr, /*slot=*/-1);
    if (record.trace_hash != entry.trace_hash) {
      throw std::runtime_error(
          "fuzz corpus replay: entry " + std::to_string(i) + " (run " +
          std::to_string(entry.run_index) + ") diverged: recorded trace hash " +
          std::to_string(entry.trace_hash) + ", replayed " + std::to_string(record.trace_hash));
    }
  }
}

}  // namespace ctfuzz
