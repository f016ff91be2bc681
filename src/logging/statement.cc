#include "src/logging/statement.h"

#include <mutex>

#include "src/common/check.h"
#include "src/common/strings.h"

namespace ctlog {

StatementRegistry& StatementRegistry::Instance() {
  static StatementRegistry* registry = new StatementRegistry();
  return *registry;
}

int StatementRegistry::Register(Level level, const std::string& tmpl,
                                const std::string& location) {
  Key key = std::make_tuple(level, tmpl, location);
  // The frozen index only changes at quiescent points, so the common case —
  // re-registering a statement the models declared long ago — takes no lock.
  auto it = frozen_index_.find(key);
  if (it != frozen_index_.end()) {
    return it->second;
  }
  std::unique_lock lock(mu_);
  auto overflow_it = overflow_index_.find(key);
  if (overflow_it != overflow_index_.end()) {
    return overflow_it->second;
  }
  Statement stmt;
  stmt.id = static_cast<int>(frozen_.size() + overflow_.size());
  stmt.level = level;
  stmt.tmpl = tmpl;
  stmt.location = location;
  stmt.num_args = ctcommon::CountPlaceholders(tmpl);
  overflow_.push_back(stmt);
  overflow_index_[key] = stmt.id;
  return stmt.id;
}

const Statement& StatementRegistry::Get(int id) const {
  CT_CHECK(id >= 0);
  if (id < static_cast<int>(frozen_.size())) {
    return frozen_[id];
  }
  std::shared_lock lock(mu_);
  const size_t offset = static_cast<size_t>(id) - frozen_.size();
  CT_CHECK(offset < overflow_.size());
  // Deque references survive concurrent push_back, so the reference stays
  // valid after the lock is released.
  return overflow_[offset];
}

int StatementRegistry::size() const {
  std::shared_lock lock(mu_);
  return static_cast<int>(frozen_.size() + overflow_.size());
}

std::vector<Statement> StatementRegistry::statements() const {
  std::vector<Statement> out(frozen_.begin(), frozen_.end());
  std::shared_lock lock(mu_);
  out.insert(out.end(), overflow_.begin(), overflow_.end());
  return out;
}

void StatementRegistry::Freeze() {
  std::unique_lock lock(mu_);
  frozen_.insert(frozen_.end(), overflow_.begin(), overflow_.end());
  frozen_index_.merge(overflow_index_);
  overflow_.clear();
  overflow_index_.clear();
}

}  // namespace ctlog
