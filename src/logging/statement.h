// Logging-statement registry.
//
// The paper's log analysis (§3.1.1) starts from the *logging statements* in
// the program: call sites of Log4j/SLF4J interfaces whose format string plus
// argument list define a log pattern ("Assigned container (.*) on host (.*)").
// Our mini systems register each logging statement once, at static-init or
// model-build time, and then emit instances by statement id. This keeps the
// static view (patterns) and the dynamic view (instances) linked exactly the
// way bytecode call sites and runtime lines are linked in the original tool.
#ifndef SRC_LOGGING_STATEMENT_H_
#define SRC_LOGGING_STATEMENT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <shared_mutex>
#include <string>
#include <tuple>
#include <vector>

namespace ctlog {

enum class Level { kFatal, kError, kWarn, kInfo, kDebug, kTrace };

// One logging statement in the program under test.
struct Statement {
  int id = -1;
  Level level = Level::kInfo;
  // Brace template, e.g. "NodeManager from {} registered as {}".
  std::string tmpl;
  // Class::method that contains the statement (for reports only).
  std::string location;
  int num_args = 0;
};

// Process-wide registry of logging statements. Statements describe static
// program structure, so a singleton mirrors the single program under test per
// process; per-run state (instances) lives in LogStore instead.
//
// The registry is read and written from concurrent injection runs (Logger::
// AdHoc registers on the fly), so it is split into an immutable frozen table
// — lock-free to read — and a shared_mutex-guarded overflow for statements
// first seen after the last Freeze(). Ids are dense and stable: the frozen
// table holds ids [0, frozen), the overflow continues from there.
class StatementRegistry {
 public:
  static StatementRegistry& Instance();

  // Registers a statement and returns its id. Registering the same
  // (level, tmpl, location) again returns the existing id, making static
  // initialization idempotent across repeated model builds. Thread-safe.
  int Register(Level level, const std::string& tmpl, const std::string& location);

  // Thread-safe; the reference stays valid for the registry's lifetime.
  const Statement& Get(int id) const;
  int size() const;
  // Snapshot of every registered statement, ordered by id.
  std::vector<Statement> statements() const;

  // Moves the overflow into the frozen table so subsequent lookups of those
  // statements are lock-free. NOT thread-safe: callers must be at a quiescent
  // point (no concurrent Register/Get) — the campaign engine freezes before
  // fanning runs out across worker threads.
  void Freeze();

 private:
  using Key = std::tuple<Level, std::string, std::string>;

  StatementRegistry() = default;

  std::vector<Statement> frozen_;  // ids [0, frozen_.size()); immutable between Freeze()s
  std::map<Key, int> frozen_index_;
  mutable std::shared_mutex mu_;   // guards overflow_ / overflow_index_
  std::deque<Statement> overflow_;  // deque: stable references across push_back
  std::map<Key, int> overflow_index_;
};

}  // namespace ctlog

#endif  // SRC_LOGGING_STATEMENT_H_
