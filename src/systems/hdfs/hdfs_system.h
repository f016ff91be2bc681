// SystemUnderTest adapter for mini-HDFS (Table 4 row 2: TestDFSIO+curl).
#ifndef SRC_SYSTEMS_HDFS_HDFS_SYSTEM_H_
#define SRC_SYSTEMS_HDFS_HDFS_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/system_under_test.h"
#include "src/systems/hdfs/hdfs_defs.h"

namespace cthdfs {

class HdfsSystem : public ctcore::SystemUnderTest {
 public:
  explicit HdfsSystem(HdfsConfig config = HdfsConfig()) : config_(config) {}

  std::string name() const override { return "HDFS"; }
  std::string version() const override { return "3.3.0-SNAPSHOT"; }
  std::string workload_name() const override { return "TestDFSIO+curl"; }
  const ctmodel::ProgramModel& model() const override { return GetHdfsArtifacts().model; }
  int default_workload_size() const override { return Scaled(2); }
  std::vector<ctcore::KnownBug> known_bugs() const override;

  const HdfsConfig& config() const { return config_; }

 protected:
  std::unique_ptr<ctcore::WorkloadRun> MakeRun(int workload_size) const override;

 private:
  HdfsConfig config_;
};

}  // namespace cthdfs

#endif  // SRC_SYSTEMS_HDFS_HDFS_SYSTEM_H_
