// White-box unit tests for the mini systems: protocol state, recovery
// behaviour under manually scheduled faults, and model/runtime consistency
// (every executable access point declared in a model is actually exercised
// by a profiled run, and vice versa).
#include <gtest/gtest.h>

#include <set>

#include "src/core/executor.h"
#include "src/core/profiler.h"
#include "src/runtime/tracer.h"
#include "src/systems/cassandra/cass_nodes.h"
#include "src/systems/cassandra/cass_system.h"
#include "src/systems/hbase/hbase_nodes.h"
#include "src/systems/hbase/hbase_system.h"
#include "src/systems/hdfs/hdfs_nodes.h"
#include "src/systems/hdfs/hdfs_system.h"
#include "src/systems/yarn/resource_manager.h"
#include "src/systems/yarn/yarn_system.h"
#include "src/systems/zookeeper/zk_nodes.h"
#include "src/systems/zookeeper/zk_system.h"

namespace {

using ctcore::Executor;

// --- YARN protocol state ---------------------------------------------------

TEST(YarnProtocol, SchedulerStateConsistentAfterCleanRun) {
  ctyarn::YarnSystem yarn;
  auto run = yarn.NewRun(3, 91);
  Executor::Execute(*run, nullptr);
  auto* rm = dynamic_cast<ctyarn::ResourceManager*>(run->cluster().Find("master:8030"));
  ASSERT_NE(rm, nullptr);
  // All containers resolved, no leaked usage.
  for (const auto& [cid, container] : rm->containers()) {
    EXPECT_TRUE(container.state == "COMPLETED" || container.state == "RELEASED" ||
                container.state == "RUNNING")
        << cid << " in " << container.state;
  }
  for (const auto& [node_id, scheduler_node] : rm->scheduler_nodes()) {
    EXPECT_GE(scheduler_node.used, 0) << node_id;
  }
  // App finished.
  ASSERT_EQ(rm->apps().size(), 1u);
  EXPECT_EQ(rm->apps().begin()->second.state, "FINISHED");
}

TEST(YarnProtocol, WorkerCrashReschedulesTasks) {
  ctyarn::YarnSystem yarn;
  auto run = yarn.NewRun(3, 92);
  // Kill a worker mid-run (tasks running); the job must still finish via
  // rescheduling on the survivors.
  run->cluster().loop().Schedule(21000, [&] { run->cluster().Crash("node2:42349"); });
  ctcore::RunOutcome outcome = Executor::Execute(*run, nullptr);
  EXPECT_TRUE(outcome.finished);
  EXPECT_FALSE(outcome.failed);
}

TEST(YarnProtocol, AmNodeCrashStartsNewAttempt) {
  ctyarn::YarnSystem yarn;
  auto run = yarn.NewRun(2, 93);
  run->cluster().loop().Schedule(17000, [&] {
    auto* rm = dynamic_cast<ctyarn::ResourceManager*>(run->cluster().Find("master:8030"));
    ASSERT_NE(rm, nullptr);
    // Crash whichever node hosts the current attempt's AM.
    const auto& app = rm->apps().begin()->second;
    run->cluster().Crash(rm->attempts().at(app.current_attempt).node);
  });
  ctcore::RunOutcome outcome = Executor::Execute(*run, nullptr);
  EXPECT_TRUE(outcome.finished);
  auto* rm = dynamic_cast<ctyarn::ResourceManager*>(run->cluster().Find("master:8030"));
  EXPECT_GE(rm->apps().begin()->second.attempt_count, 2);
}

TEST(YarnProtocol, AttemptsExhaustedFailsTheJob) {
  ctyarn::YarnConfig config;
  config.max_app_attempts = 1;
  ctyarn::YarnSystem yarn(ctyarn::YarnMode::kTrunk, config);
  auto run = yarn.NewRun(2, 94);
  run->cluster().loop().Schedule(17000, [&] {
    auto* rm = dynamic_cast<ctyarn::ResourceManager*>(run->cluster().Find("master:8030"));
    const auto& app = rm->apps().begin()->second;
    run->cluster().Crash(rm->attempts().at(app.current_attempt).node);
  });
  ctcore::RunOutcome outcome = Executor::Execute(*run, nullptr);
  EXPECT_TRUE(outcome.failed);
}

// --- HDFS protocol state -----------------------------------------------------

TEST(HdfsProtocol, DataNodesRegisterWithDelay) {
  cthdfs::HdfsSystem hdfs;
  auto run = hdfs.NewRun(1, 95);
  run->cluster().StartAll();
  run->Start();
  run->cluster().loop().RunUntil(1000);
  auto* dn = dynamic_cast<cthdfs::DataNode*>(run->cluster().Find("dnode1:50010"));
  ASSERT_NE(dn, nullptr);
  EXPECT_FALSE(dn->registered()) << "ack is delayed by the namesystem lock";
  run->cluster().loop().RunUntil(4000);
  EXPECT_TRUE(dn->registered());
}

TEST(HdfsProtocol, ActiveNameNodeTracksLiveDataNodes) {
  cthdfs::HdfsSystem hdfs;
  auto run = hdfs.NewRun(1, 96);
  run->cluster().StartAll();
  run->Start();
  run->cluster().loop().RunUntil(2000);
  auto* nn = dynamic_cast<cthdfs::NameNode*>(run->cluster().Find("namenode1:9000"));
  ASSERT_NE(nn, nullptr);
  EXPECT_EQ(nn->datanodes().size(), 3u);
  run->cluster().Shutdown("dnode2:50010");  // graceful: unregister is immediate
  run->cluster().loop().RunFor(100);
  EXPECT_EQ(nn->datanodes().size(), 2u);
}

TEST(HdfsProtocol, StandbyPromotesOnActiveCrash) {
  cthdfs::HdfsSystem hdfs;
  auto run = hdfs.NewRun(1, 97);
  run->cluster().StartAll();
  run->Start();
  run->cluster().loop().RunUntil(2000);
  auto* standby = dynamic_cast<cthdfs::NameNode*>(run->cluster().Find("namenode2:9000"));
  ASSERT_NE(standby, nullptr);
  EXPECT_FALSE(standby->active());
  run->cluster().Crash("namenode1:9000");
  run->cluster().loop().RunUntil(6000);
  EXPECT_TRUE(standby->active());
}

// --- HBase protocol state -----------------------------------------------------

TEST(HBaseProtocol, MasterActivatesAndAssignsAllRegions) {
  cthbase::HBaseSystem hbase;
  auto run = hbase.NewRun(2, 98);
  run->cluster().StartAll();
  run->Start();
  run->cluster().loop().RunUntil(6000);
  auto* master = dynamic_cast<cthbase::HMaster*>(run->cluster().Find("hmaster:16000"));
  ASSERT_NE(master, nullptr);
  EXPECT_TRUE(master->active());
  EXPECT_EQ(master->regions().size(), static_cast<size_t>(hbase.config().num_regions));
  for (const auto& [region, state] : master->regions()) {
    EXPECT_EQ(state.state, "OPEN") << region;
  }
}

TEST(HBaseProtocol, ZkBlindCrashIsInvisible) {
  // A RegionServer crashed before its ZooKeeper registration never expires:
  // the master keeps it among online servers (the Fig. 9 substrate).
  cthbase::HBaseSystem hbase;
  auto run = hbase.NewRun(2, 99);
  run->cluster().StartAll();
  run->Start();
  run->cluster().loop().Schedule(1000, [&] { run->cluster().Crash("rserver1:16020"); });
  run->cluster().loop().RunUntil(12000);
  auto* master = dynamic_cast<cthbase::HMaster*>(run->cluster().Find("hmaster:16000"));
  ASSERT_NE(master, nullptr);
  EXPECT_TRUE(master->online_servers().count("rserver1:16020"))
      << "no znode, no expiry, no removal";
  EXPECT_FALSE(master->active()) << "startup blocks on the dead server's info";
}

TEST(HBaseProtocol, ZkRegisteredCrashExpiresAndRecovers) {
  cthbase::HBaseSystem hbase;
  auto run = hbase.NewRun(2, 100);
  run->cluster().StartAll();
  run->Start();
  run->cluster().loop().Schedule(7000, [&] { run->cluster().Crash("rserver1:16020"); });
  run->cluster().loop().RunUntil(13000);
  auto* master = dynamic_cast<cthbase::HMaster*>(run->cluster().Find("hmaster:16000"));
  EXPECT_FALSE(master->online_servers().count("rserver1:16020"));
  // Dead server's regions first sit in RECOVERING (WAL split), then move.
  for (const auto& [region, state] : master->regions()) {
    if (state.server == "rserver1:16020") {
      EXPECT_EQ(state.state, "RECOVERING") << region;
    }
  }
  run->cluster().loop().RunUntil(28000);
  for (const auto& [region, state] : master->regions()) {
    EXPECT_NE(state.server, "rserver1:16020") << region << " still on the dead server";
  }
}

// --- ZooKeeper / Cassandra ------------------------------------------------------

TEST(ZkProtocol, HighestAliveIdLeads) {
  ctzk::ZkSystem zk;
  auto run = zk.NewRun(2, 101);
  run->cluster().StartAll();
  run->Start();
  run->cluster().loop().RunUntil(1500);
  auto* peer1 = dynamic_cast<ctzk::ZkPeer*>(run->cluster().Find("zkpeer1:2888"));
  auto* peer3 = dynamic_cast<ctzk::ZkPeer*>(run->cluster().Find("zkpeer3:2888"));
  EXPECT_FALSE(peer1->IsLeader());
  EXPECT_TRUE(peer3->IsLeader());
  run->cluster().Crash("zkpeer3:2888");
  run->cluster().loop().RunFor(3000);
  auto* peer2 = dynamic_cast<ctzk::ZkPeer*>(run->cluster().Find("zkpeer2:2888"));
  EXPECT_TRUE(peer2->IsLeader());
}

// Cuts zkpeer3 off from 1500 ms until `heal_ms`. It is last heard at 1501
// (the 1500 ms round was posted before the cut), so the 250 ms sweep with a
// 1500 ms timeout expires it at 3250 on every side, and the race window
// (kRemovalRaceWindowMs, 1200 ms) closes at 4450. Returns how many
// StaleEpochExceptions the re-admission logged.
int StaleEpochExceptionsAfterHeal(ctsim::Time heal_ms) {
  ctzk::ZkSystem zk;
  auto run = zk.NewRun(2, 105);
  ctsim::Cluster& cluster = run->cluster();
  cluster.StartAll();
  cluster.loop().RunUntil(1500);
  cluster.Partition({"zkpeer3:2888"}, 1500, heal_ms);
  cluster.loop().RunUntil(3300);
  std::vector<ctzk::ZkPeer*> peers;
  for (const char* id : {"zkpeer1:2888", "zkpeer2:2888", "zkpeer3:2888"}) {
    peers.push_back(dynamic_cast<ctzk::ZkPeer*>(cluster.Find(id)));
  }
  // The expiry happened: the majority side re-elected.
  EXPECT_EQ(peers[0]->leader(), "zkpeer2:2888");
  cluster.loop().RunUntil(heal_ms + 3000);
  for (const ctzk::ZkPeer* peer : peers) {
    EXPECT_EQ(peer->leader(), "zkpeer3:2888") << peer->id() << " after heal at " << heal_ms;
  }
  int stale = 0;
  for (const auto& instance : cluster.logs().instances()) {
    stale += instance.text.rfind("Uncommon exception StaleEpochException", 0) == 0 ? 1 : 0;
  }
  return stale;
}

TEST(ZkProtocol, StaleHeartbeatRacesOnlyInsideTheRemovalWindow) {
  // Healed at 3600, zkpeer3's 4000 ms heartbeat lands 751 ms after expiry.
  EXPECT_GT(StaleEpochExceptionsAfterHeal(3600), 0);
  // Healed at 6000, its first heartbeat lands 2751 ms after expiry.
  EXPECT_EQ(StaleEpochExceptionsAfterHeal(6000), 0);
}

TEST(ZkProtocol, WritesReplicateToAllPeers) {
  ctzk::ZkSystem zk;
  auto run = zk.NewRun(2, 102);
  Executor::Execute(*run, nullptr);
  auto* peer1 = dynamic_cast<ctzk::ZkPeer*>(run->cluster().Find("zkpeer1:2888"));
  auto* peer2 = dynamic_cast<ctzk::ZkPeer*>(run->cluster().Find("zkpeer2:2888"));
  auto* peer3 = dynamic_cast<ctzk::ZkPeer*>(run->cluster().Find("zkpeer3:2888"));
  EXPECT_EQ(peer1->znodes().size(), 4u);
  EXPECT_EQ(peer1->znodes(), peer2->znodes());
  EXPECT_EQ(peer2->znodes(), peer3->znodes());
}

TEST(CassandraProtocol, GossipRemovesDeadPeerFromRing) {
  ctcass::CassSystem cass;
  auto run = cass.NewRun(2, 103);
  run->cluster().StartAll();
  run->Start();
  run->cluster().loop().RunUntil(1400);
  auto* node = dynamic_cast<ctcass::CassNode*>(run->cluster().Find("cass1:7000"));
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->ring().size(), 3u);
  run->cluster().Crash("cass2:7000");
  run->cluster().loop().RunFor(3000);
  EXPECT_EQ(node->ring().size(), 2u);
}

TEST(CassandraProtocol, ReplicationStoresRowsOnTwoNodes) {
  ctcass::CassSystem cass;
  auto run = cass.NewRun(2, 104);
  Executor::Execute(*run, nullptr);
  int total_rows = 0;
  for (const char* id : {"cass1:7000", "cass2:7000", "cass3:7000"}) {
    total_rows +=
        static_cast<int>(dynamic_cast<ctcass::CassNode*>(run->cluster().Find(id))->data().size());
  }
  EXPECT_EQ(total_rows, 2 * 5 * 2);  // ops x replication factor
}

// --- Model/runtime consistency ---------------------------------------------------

template <typename System>
void CheckExecutablePointsAreProfiled(int min_expected) {
  System system;
  std::set<int> executable;
  for (const auto& point : system.model().access_points()) {
    if (point.executable) {
      executable.insert(point.id);
    }
  }
  ctcore::Profiler profiler;
  ctcore::ProfileResult profile = profiler.Profile(system, executable, {}, 105);
  std::set<int> hit;
  for (const auto& dynamic_point : profile.dynamic_access_points) {
    hit.insert(dynamic_point.point_id);
    EXPECT_TRUE(executable.count(dynamic_point.point_id));
  }
  EXPECT_GE(static_cast<int>(hit.size()), min_expected);
}

TEST(ModelConsistency, YarnExecutablePointsFire) {
  CheckExecutablePointsAreProfiled<ctyarn::YarnSystem>(15);
}
TEST(ModelConsistency, HdfsExecutablePointsFire) {
  CheckExecutablePointsAreProfiled<cthdfs::HdfsSystem>(5);
}
TEST(ModelConsistency, HBaseExecutablePointsFire) {
  CheckExecutablePointsAreProfiled<cthbase::HBaseSystem>(7);
}
TEST(ModelConsistency, ZooKeeperExecutablePointsFire) {
  CheckExecutablePointsAreProfiled<ctzk::ZkSystem>(3);
}
TEST(ModelConsistency, CassandraExecutablePointsFire) {
  CheckExecutablePointsAreProfiled<ctcass::CassSystem>(2);
}

template <typename System>
void CheckDeclaredFieldsExist() {
  System system;
  for (const auto& point : system.model().access_points()) {
    EXPECT_NE(system.model().FindField(point.field_id), nullptr) << point.field_id;
  }
  for (const auto& field : system.model().fields()) {
    EXPECT_NE(system.model().FindType(field.type), nullptr)
        << field.id << " has unknown type " << field.type;
  }
}

TEST(ModelConsistency, YarnFieldsAndTypesResolve) { CheckDeclaredFieldsExist<ctyarn::YarnSystem>(); }
TEST(ModelConsistency, HdfsFieldsAndTypesResolve) { CheckDeclaredFieldsExist<cthdfs::HdfsSystem>(); }
TEST(ModelConsistency, HBaseFieldsAndTypesResolve) {
  CheckDeclaredFieldsExist<cthbase::HBaseSystem>();
}
TEST(ModelConsistency, ZooKeeperFieldsAndTypesResolve) {
  CheckDeclaredFieldsExist<ctzk::ZkSystem>();
}
TEST(ModelConsistency, CassandraFieldsAndTypesResolve) {
  CheckDeclaredFieldsExist<ctcass::CassSystem>();
}

}  // namespace
