// SystemUnderTest adapter for mini-Cassandra (Table 4 row 5: Stress).
#ifndef SRC_SYSTEMS_CASSANDRA_CASS_SYSTEM_H_
#define SRC_SYSTEMS_CASSANDRA_CASS_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/system_under_test.h"
#include "src/systems/cassandra/cass_defs.h"

namespace ctcass {

class CassSystem : public ctcore::SystemUnderTest {
 public:
  explicit CassSystem(CassConfig config = CassConfig()) : config_(config) {}

  std::string name() const override { return "Cassandra"; }
  std::string version() const override { return "3.11.4"; }
  std::string workload_name() const override { return "Stress"; }
  const ctmodel::ProgramModel& model() const override { return GetCassArtifacts().model; }
  int default_workload_size() const override { return Scaled(4); }
  std::vector<ctcore::KnownBug> known_bugs() const override {
    return {
        // The message race first, so a network-fault injection that both
        // races gossip *and* fails a write triages to the race.
        {"CA-15158", "Major", "message-race", "Unresolved",
         "Gossip from dead endpoint applied without restart check", "InetAddressAndPort",
         "Gossiper.applyStateLocally", "Gossip restart race"},
        {"CA-15131", "Normal", "pre-read", "Unresolved", "Request fails due to using removed node",
         "InetAddressAndPort", "StorageProxy.performWrite", "using removed node"},
    };
  }

  const CassConfig& config() const { return config_; }

 protected:
  std::unique_ptr<ctcore::WorkloadRun> MakeRun(int workload_size) const override;

 private:
  CassConfig config_;
};

}  // namespace ctcass

#endif  // SRC_SYSTEMS_CASSANDRA_CASS_SYSTEM_H_
