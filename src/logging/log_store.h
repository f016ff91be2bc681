// Per-run log storage and the Logger handle nodes write through.
//
// Each simulated cluster owns one LogStore; each node gets a Logger bound to
// its node id. Instances keep both the rendered text and the raw argument
// values. Offline log analysis deliberately ignores the raw values and
// re-derives them by pattern matching (as the paper must, since it only sees
// text), but tests use the raw values as ground truth.
#ifndef SRC_LOGGING_LOG_STORE_H_
#define SRC_LOGGING_LOG_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/logging/statement.h"

namespace ctlog {

// One emitted log line.
struct Instance {
  uint64_t time_ms = 0;
  std::string node;  // emitting node id, e.g. "node1:42349"
  int statement_id = -1;
  Level level = Level::kInfo;
  std::string text;
  std::vector<std::string> args;
};

class LogStore {
 public:
  LogStore() = default;
  LogStore(const LogStore&) = delete;
  LogStore& operator=(const LogStore&) = delete;

  void Append(Instance instance);

  const std::vector<Instance>& instances() const { return instances_; }

  // Live subscription: Logstash-like agents register here to see each line as
  // it is written (the paper's agents watch log-file changes).
  using Subscriber = std::function<void(const Instance&)>;
  void Subscribe(Subscriber fn);

 private:
  std::vector<Instance> instances_;
  std::vector<Subscriber> subscribers_;
};

// Node-side logging facade mirroring the Log4j interface names the paper keys
// on (fatal/error/warn/info/debug/trace).
class Logger {
 public:
  Logger(LogStore* store, std::string node, std::function<uint64_t()> now)
      : store_(store), node_(std::move(node)), now_(std::move(now)) {}

  // Emits an instance of a registered statement with concrete argument values.
  void Log(int statement_id, std::vector<std::string> args);

  // Convenience wrappers that register an ad-hoc statement on first use.
  void Info(const std::string& tmpl, std::vector<std::string> args = {},
            const std::string& location = "");
  void Warn(const std::string& tmpl, std::vector<std::string> args = {},
            const std::string& location = "");
  void Error(const std::string& tmpl, std::vector<std::string> args = {},
             const std::string& location = "");
  void Fatal(const std::string& tmpl, std::vector<std::string> args = {},
             const std::string& location = "");

  const std::string& node() const { return node_; }

 private:
  void AdHoc(Level level, const std::string& tmpl, std::vector<std::string> args,
             const std::string& location);

  LogStore* store_;
  std::string node_;
  std::function<uint64_t()> now_;
};

}  // namespace ctlog

#endif  // SRC_LOGGING_LOG_STORE_H_
