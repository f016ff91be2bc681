// SystemUnderTest adapter for mini-HBase (Table 4 row 3: PE+curl).
#ifndef SRC_SYSTEMS_HBASE_HBASE_SYSTEM_H_
#define SRC_SYSTEMS_HBASE_HBASE_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/system_under_test.h"
#include "src/systems/hbase/hbase_defs.h"

namespace cthbase {

class HBaseSystem : public ctcore::SystemUnderTest {
 public:
  explicit HBaseSystem(HBaseConfig config = HBaseConfig()) : config_(config) {}

  std::string name() const override { return "HBase"; }
  std::string version() const override { return "3.0.0-SNAPSHOT"; }
  std::string workload_name() const override { return "PE+curl"; }
  const ctmodel::ProgramModel& model() const override { return GetHBaseArtifacts().model; }
  int default_workload_size() const override { return Scaled(3); }
  std::vector<ctcore::KnownBug> known_bugs() const override;

  const HBaseConfig& config() const { return config_; }

 protected:
  std::unique_ptr<ctcore::WorkloadRun> MakeRun(int workload_size) const override;

 private:
  HBaseConfig config_;
};

}  // namespace cthbase

#endif  // SRC_SYSTEMS_HBASE_HBASE_SYSTEM_H_
