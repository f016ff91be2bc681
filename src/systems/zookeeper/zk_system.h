// SystemUnderTest adapter for mini-ZooKeeper (Table 4 row 4: SmokeTest+curl).
#ifndef SRC_SYSTEMS_ZOOKEEPER_ZK_SYSTEM_H_
#define SRC_SYSTEMS_ZOOKEEPER_ZK_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/system_under_test.h"
#include "src/systems/zookeeper/zk_defs.h"

namespace ctzk {

class ZkSystem : public ctcore::SystemUnderTest {
 public:
  explicit ZkSystem(ZkConfig config = ZkConfig()) : config_(config) {}

  std::string name() const override { return "ZooKeeper"; }
  std::string version() const override { return "3.5.4-beta"; }
  std::string workload_name() const override { return "SmokeTest+curl"; }
  const ctmodel::ProgramModel& model() const override { return GetZkArtifacts().model; }
  int default_workload_size() const override { return Scaled(4); }
  // The paper's crash campaign found no new ZooKeeper bugs and neither does
  // ours — the only entry is the seeded message race, reachable exclusively
  // by network-fault mode (a partitioned peer rejoining after its quorum
  // expired it; crashes can never re-deliver an expired peer's heartbeat).
  std::vector<ctcore::KnownBug> known_bugs() const override {
    return {
        {"ZOOKEEPER-2212", "Major", "message-race", "Unresolved",
         "Rejoining peer accepted without epoch sync", "QuorumPeer",
         "PrepRequestProcessor.pRequest", "rejoined the quorum without syncing"},
    };
  }

  const ZkConfig& config() const { return config_; }

 protected:
  std::unique_ptr<ctcore::WorkloadRun> MakeRun(int workload_size) const override;

 private:
  ZkConfig config_;
};

}  // namespace ctzk

#endif  // SRC_SYSTEMS_ZOOKEEPER_ZK_SYSTEM_H_
