// SystemUnderTest adapter for mini-YARN: builds a 1-RM + N-NM cluster and
// runs the WordCount+curl workload (Table 4 row 1).
#ifndef SRC_SYSTEMS_YARN_YARN_SYSTEM_H_
#define SRC_SYSTEMS_YARN_YARN_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/system_under_test.h"
#include "src/systems/yarn/yarn_defs.h"

namespace ctyarn {

class YarnSystem : public ctcore::SystemUnderTest {
 public:
  explicit YarnSystem(YarnMode mode = YarnMode::kTrunk, YarnConfig config = YarnConfig());

  std::string name() const override { return "Hadoop2/Yarn"; }
  std::string version() const override {
    return mode_ == YarnMode::kLegacy ? "2.7.0 (legacy repro)" : "3.3.0-SNAPSHOT";
  }
  std::string workload_name() const override { return "WordCount+curl"; }
  const ctmodel::ProgramModel& model() const override;
  int default_workload_size() const override { return Scaled(3); }
  std::vector<ctcore::KnownBug> known_bugs() const override;

  YarnMode mode() const { return mode_; }
  const YarnConfig& config() const { return config_; }

 protected:
  std::unique_ptr<ctcore::WorkloadRun> MakeRun(int workload_size) const override;

 private:
  YarnMode mode_;
  YarnConfig config_;
};

}  // namespace ctyarn

#endif  // SRC_SYSTEMS_YARN_YARN_SYSTEM_H_
