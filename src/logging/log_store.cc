#include "src/logging/log_store.h"

#include "src/common/strings.h"

namespace ctlog {

void LogStore::Append(Instance instance) {
  instances_.push_back(std::move(instance));
  const Instance& stored = instances_.back();
  for (const auto& fn : subscribers_) {
    fn(stored);
  }
}

void LogStore::Subscribe(Subscriber fn) { subscribers_.push_back(std::move(fn)); }

void Logger::Log(int statement_id, std::vector<std::string> args) {
  const Statement& stmt = StatementRegistry::Instance().Get(statement_id);
  Instance instance;
  instance.time_ms = now_();
  instance.node = node_;
  instance.statement_id = statement_id;
  instance.level = stmt.level;
  instance.text = ctcommon::FormatBraces(stmt.tmpl, args);
  instance.args = std::move(args);
  store_->Append(std::move(instance));
}

void Logger::AdHoc(Level level, const std::string& tmpl, std::vector<std::string> args,
                   const std::string& location) {
  int id = StatementRegistry::Instance().Register(level, tmpl, location);
  Log(id, std::move(args));
}

void Logger::Info(const std::string& tmpl, std::vector<std::string> args,
                  const std::string& location) {
  AdHoc(Level::kInfo, tmpl, std::move(args), location);
}
void Logger::Warn(const std::string& tmpl, std::vector<std::string> args,
                  const std::string& location) {
  AdHoc(Level::kWarn, tmpl, std::move(args), location);
}
void Logger::Error(const std::string& tmpl, std::vector<std::string> args,
                   const std::string& location) {
  AdHoc(Level::kError, tmpl, std::move(args), location);
}
void Logger::Fatal(const std::string& tmpl, std::vector<std::string> args,
                   const std::string& location) {
  AdHoc(Level::kFatal, tmpl, std::move(args), location);
}

}  // namespace ctlog
