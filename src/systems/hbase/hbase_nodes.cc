#include "src/systems/hbase/hbase_nodes.h"

#include "src/runtime/tracer.h"
#include "src/sim/exception.h"

namespace cthbase {

using ctsim::Message;
using ctsim::SimException;

// How long a removal's recovery actions stay in flight — the width of the
// seeded message-race window. A stale heartbeat landing inside it hits the
// race; a later one takes the benign resync path. Sub-second-scale on
// purpose: the paper's observation is that recovery windows are narrow,
// which is why blind fault injection rarely lands in them.
constexpr ctsim::Time kRemovalRaceWindowMs = 1200;

// --- ZkQuorum ---------------------------------------------------------------

ZkQuorum::ZkQuorum(ctsim::Cluster* cluster, std::string id, std::string master,
                   const HBaseArtifacts* artifacts, const HBaseConfig* config)
    : Node(cluster, std::move(id)),
      master_(std::move(master)),
      artifacts_(artifacts),
      config_(config) {
  session_fd_ = std::make_unique<ctsim::FailureDetector>(
      this, config_->zk_session_timeout_ms, config_->zk_sweep_ms,
      [this](const std::string& owner) {
        std::vector<std::string> expired;
        for (const auto& [path, session_owner] : ephemerals_) {
          if (session_owner == owner) {
            expired.push_back(path);
          }
        }
        for (const auto& path : expired) {
          ephemerals_.erase(path);
        }
        expired_sessions_[owner] = this->cluster().loop().Now();
        Send(master_, "rsExpired", {{"rs", owner}});
      });
  Handle("createEphemeral", [this](const Message& m) {
    ephemerals_[m.Arg("path")] = m.from;
    session_fd_->Heartbeat(m.from);
    log().Log(artifacts_->stmts.znode_created, {m.Arg("path"), m.from});
  });
  Handle("sessionHeartbeat", [this](const Message& m) {
    auto expired = expired_sessions_.find(m.from);
    if (expired != expired_sessions_.end()) {
      const bool recovering =
          this->cluster().loop().Now() - expired->second <= kRemovalRaceWindowMs;
      expired_sessions_.erase(expired);
      if (recovering) {
        // The quorum accepts a heartbeat on a session it already expired
        // instead of answering SESSION_EXPIRED (the YouAreDeadException
        // race): the master's server-crash procedure is still running while
        // the region server, back from a healed partition, keeps serving.
        throw SimException("YouAreDeadException",
                           "Session heartbeat from expired region server " + m.from +
                               " accepted without restart");
      }
      // The crash procedure already finished: benign new-session path.
    }
    session_fd_->Heartbeat(m.from);
  });
  Handle("closeSession", [this](const Message& m) { session_fd_->NotifyLeft(m.from); });
}

void ZkQuorum::OnStart() { session_fd_->Start(); }

void ZkQuorum::OnHandlerException(const std::string& context, const SimException& e) {
  // A bad session op is rejected and logged; the quorum itself survives
  // (a real ZK server does not die on a stale client request).
  (void)context;
  (void)e;
}

// --- HMaster ----------------------------------------------------------------

HMaster::HMaster(ctsim::Cluster* cluster, std::string id, const HBaseArtifacts* artifacts,
                 const HBaseConfig* config, HBaseJobState* job)
    : Node(cluster, std::move(id)), artifacts_(artifacts), config_(config), job_(job) {
  SetCritical();
  Handle("reportForDuty", [this](const Message& m) { ReportForDuty(m); });
  Handle("serverInfo", [this](const Message& m) { ServerInfo(m); });
  Handle("rsExpired", [this](const Message& m) {
    log().Log(artifacts_->stmts.rs_expired, {m.Arg("rs")});
    ServerCrashProcedure(m.Arg("rs"));
  });
  Handle("regionOpened", [this](const Message& m) {
    auto it = regions_.find(m.Arg("region"));
    if (it != regions_.end() && it->second.server == m.from) {
      it->second.state = "OPEN";
      log().Log(artifacts_->stmts.region_opened, {m.Arg("region"), m.from});
    }
  });
  Handle("locate", [this](const Message& m) { Locate(m); });
  Handle("balance", [this](const Message& m) { ForceBalance(m); });
  Handle("clusterStatus", [this](const Message& m) {
    CT_FRAME("MasterRpcServices.getClusterStatus");
    int live = 0;
    std::set<std::string> snapshot = online_;
    for (const auto& rs : snapshot) {
      // Benign armed point: the membership check below tolerates removal.
      CT_PRE_READ(artifacts_->points.master_status_read, rs);
      if (online_.count(rs) > 0) {
        ++live;
      }
    }
    Send(m.from, "clusterStatusReply", {{"live", std::to_string(live)}});
  });
}

void HMaster::OnStart() {
  Every(config_->balancer_period_ms, [this] { BalancerChore(); });
  Every(config_->stuck_monitor_period_ms, [this] { StuckRegionChore(); });
  // Replication watcher touches its peers znode: a lower-layer ZooKeeper
  // value that never co-occurs with a server in any log line, so the online
  // analysis can never map it to a target node (§3.4 — why HBASE-7111,
  // HBASE-5722 and HBASE-5635 stay out of reach).
  Every(5000, [this] {
    CT_FRAME("ReplicationZKWatcher.refreshPeers");
    CT_PRE_READ(artifacts_->points.master_znode_read, "/hbase/replication/peers");
  });
}

void HMaster::OnHandlerException(const std::string& context, const SimException& e) {
  // State-machine and procedure exceptions are logged and tolerated; the
  // master survives (none of the seeded HBase bugs kill the master process).
  (void)context;
  (void)e;
}

void HMaster::ReportForDuty(const Message& m) {
  CT_FRAME("ServerManager.regionServerReport");
  const std::string rs = m.from;
  online_.insert(rs);
  // HBASE-22041 (Fig. 9): the server is online as far as the master knows,
  // but until it registers in ZooKeeper nobody can detect its death.
  CT_POST_WRITE(artifacts_->points.master_online_write, rs);
  log().Log(artifacts_->stmts.rs_reported, {rs});
  pending_info_.insert(rs);
  PollServerInfo(rs, 0);
}

void HMaster::PollServerInfo(const std::string& rs, int attempt) {
  if (pending_info_.count(rs) == 0) {
    return;
  }
  // //TODO: How many times should we retry — the startup master retries
  // forever (the HBASE-22041 hang); an active master gives up and runs the
  // server-crash procedure.
  if (active_ && attempt >= config_->info_retry_limit_active) {
    ServerCrashProcedure(rs);
    return;
  }
  Send(rs, "getServerInfo", {});
  After(config_->info_retry_ms, [this, rs, attempt] { PollServerInfo(rs, attempt + 1); });
}

void HMaster::ServerInfo(const Message& m) {
  const std::string rs = m.from;
  if (pending_info_.erase(rs) == 0) {
    return;
  }
  if (!active_) {
    if (meta_candidate_.empty()) {
      meta_candidate_ = rs;
    }
    // Startup blocks until *every* reported server has answered the startup
    // read — and the read retries forever (Fig. 9): a server that died
    // before reaching ZooKeeper stalls activation indefinitely.
    if (pending_info_.empty()) {
      After(config_->activation_delay_ms, [this] { Activate(); });
    }
    return;
  }
  // A server joining the running cluster gets a region rebalanced onto it.
  if (!rebalanced_) {
    rebalanced_ = true;
    std::string region = RegionName(config_->num_regions - 1);
    log().Log(artifacts_->stmts.region_moving, {region, rs});
    AssignRegion(region, rs, /*rebalance=*/true);
  }
}

void HMaster::Activate() {
  CT_FRAME("HMaster.finishActiveMasterInitialization");
  if (active_) {
    return;
  }
  // HBASE-22017: the activation path uses the remembered meta-server
  // candidate without re-checking that it is still online.
  CT_PRE_READ(artifacts_->points.master_activate_read, meta_candidate_);
  if (online_.count(meta_candidate_) == 0) {
    std::string failed = meta_candidate_;
    meta_candidate_ = PickServer("");
    if (!meta_candidate_.empty()) {
      After(1000, [this] { Activate(); });
    }
    throw SimException("ServerNotRunningException",
                       "Master fails to become active due to removed node " + failed);
  }
  active_ = true;
  log().Log(artifacts_->stmts.master_active, {id(), meta_candidate_});
  AssignInitialRegions();
}

std::string HMaster::PickServer(const std::string& exclude) {
  for (const auto& rs : online_) {
    if (rs != exclude && pending_info_.count(rs) == 0 && cluster().IsAlive(rs)) {
      return rs;
    }
  }
  return "";
}

void HMaster::AssignInitialRegions() {
  std::vector<std::string> servers(online_.begin(), online_.end());
  for (int r = 0; r < config_->num_regions; ++r) {
    const std::string& rs = servers[assign_rr_++ % servers.size()];
    log().Log(artifacts_->stmts.region_assigned, {RegionName(r), rs});
    AssignRegion(RegionName(r), rs, /*rebalance=*/false);
  }
}

void HMaster::AssignRegion(const std::string& region, const std::string& rs, bool rebalance) {
  RegionState state;
  state.server = rs;
  state.state = "OPENING";
  state.since = this->cluster().loop().Now();
  regions_[region] = state;
  Send(rs, "openRegion", {{"region", region}, {"reason", rebalance ? "rebalance" : "assign"}});
}

void HMaster::ServerCrashProcedure(const std::string& rs) {
  CT_FRAME("ServerCrashProcedure.execute");
  if (online_.erase(rs) == 0) {
    return;
  }
  if (pending_info_.count(rs) > 0) {
    pending_info_.erase(rs);
    // HBASE-21740 / HBASE-22023: the crash procedure cannot cope with a
    // server that died before finishing initialization.
    throw SimException("IllegalStateException",
                       "Shutdown during initialization causing abort for " + rs);
  }
  // Regions of the dead server are recovered: the write-ahead log must be
  // split before they can be reassigned, so they sit in RECOVERING for a
  // while — the HBASE-22050 window.
  for (auto& [region, state] : regions_) {
    if (state.server != rs || state.state == "RECOVERING") {
      continue;
    }
    state.state = "RECOVERING";
    state.since = this->cluster().loop().Now();
    std::string region_copy = region;
    After(config_->wal_split_ms, [this, region_copy] {
      auto it = regions_.find(region_copy);
      if (it == regions_.end() || it->second.state != "RECOVERING") {
        return;
      }
      std::string target = PickServer(it->second.server);
      if (target.empty()) {
        return;
      }
      log().Log(artifacts_->stmts.region_moving, {region_copy, target});
      AssignRegion(region_copy, target, /*rebalance=*/false);
    });
  }
}

void HMaster::Locate(const Message& m) {
  // The client-facing path handles every region state (in-transition replies
  // ask the client to retry), so it carries no crash point.
  auto it = regions_.find(m.Arg("region"));
  if (it == regions_.end() || it->second.state != "OPEN") {
    Send(m.from, "locateRetry", {{"region", m.Arg("region")}});
    return;
  }
  Send(m.from, "location", {{"region", m.Arg("region")}, {"rs", it->second.server}});
}

void HMaster::ForceBalance(const ctsim::Message&) {
  // Admin-triggered balance (the fuzz grammar's force-balance op): same scan
  // as the chore, but under the RPC service frame — an off-schedule run that
  // can land while a server-crash procedure still has regions RECOVERING.
  CT_FRAME("MasterRpcServices.balance");
  BalancerChore();
}

void HMaster::BalancerChore() {
  CT_FRAME("LoadBalancer.balanceCluster");
  if (!active_) {
    return;
  }
  std::vector<std::string> names;
  for (const auto& [region, state] : regions_) {
    names.push_back(region);
  }
  for (const auto& region : names) {
    // HBASE-22050: the balancer walks region states without expecting the
    // transient RECOVERING state a mid-move server death leaves behind.
    CT_PRE_READ(artifacts_->points.master_balancer_read, region);
    auto it = regions_.find(region);
    if (it == regions_.end()) {
      continue;
    }
    if (it->second.state == "RECOVERING") {
      throw SimException("AtomicViolationException",
                         "Atomic violation causing shutdown aborts for region " + region);
    }
  }
}

void HMaster::StuckRegionChore() {
  if (!active_) {
    return;
  }
  ctsim::Time now = this->cluster().loop().Now();
  for (auto& [region, state] : regions_) {
    if (state.state == "OPENING" && now - state.since > config_->stuck_threshold_ms) {
      // §4.1.3: a region stuck in OPENING is eventually killed and
      // reassigned — minutes later.
      std::string target = PickServer(state.server);
      if (!target.empty()) {
        log().Log(artifacts_->stmts.region_moving, {region, target});
        AssignRegion(region, target, /*rebalance=*/false);
      }
    }
  }
}

// --- RegionServer -----------------------------------------------------------

RegionServer::RegionServer(ctsim::Cluster* cluster, std::string id, std::string master,
                           std::string zk, const HBaseArtifacts* artifacts,
                           const HBaseConfig* config)
    : Node(cluster, std::move(id)),
      master_(std::move(master)),
      zk_(std::move(zk)),
      zk_id_(cluster->Intern(zk_)),
      session_heartbeat_verb_(cluster->Intern("sessionHeartbeat")),
      artifacts_(artifacts),
      config_(config) {
  Handle("getServerInfo", [this](const Message& m) {
    if (init_done_) {
      Send(m.from, "serverInfo", {});
    }
  });
  Handle("openRegion", [this](const Message& m) { OpenRegion(m); });
  Handle("put", [this](const Message& m) {
    auto it = regions_.find(m.Arg("region"));
    if (it == regions_.end() || it->second != "OPEN") {
      return;  // Client times out and relocates.
    }
    CT_FRAME("HRegion.doMiniBatchMutate");
    CT_IO_BEGIN(artifacts_->io.rs_wal_append_io);
    CT_IO_END(artifacts_->io.rs_wal_append_io);
    Send(m.from, "putAck", {{"region", m.Arg("region")}});
  });
}

void RegionServer::OnStart() {
  After(config_->rs_report_delay_ms, [this] { Send(master_, "reportForDuty", {}); });
  After(config_->rs_metrics1_ms, [this] {
    CT_FRAME("HRegionServer.initializeMetrics");
    // HBASE-21740 window: metrics source created early in initialization.
    CT_POST_WRITE(artifacts_->points.rs_metrics1_write, this->id());
  });
  After(config_->rs_metrics2_ms, [this] {
    CT_FRAME("MetricsRegionServerWrapperImpl.init");
    // HBASE-22023 window: the metrics wrapper initializes later.
    CT_POST_WRITE(artifacts_->points.rs_metrics2_write, this->id());
  });
  After(config_->rs_init_done_ms, [this] { init_done_ = true; });
  After(config_->rs_zk_register_ms, [this] {
    zk_registered_ = true;
    Send(zk_, "createEphemeral", {{"path", "/hbase/rs/" + this->id()}});
    Every(config_->session_heartbeat_ms, [this] { Send(zk_id_, session_heartbeat_verb_); });
  });
}

void RegionServer::OnShutdown() {
  if (zk_registered_) {
    Send(zk_, "closeSession", {});
  }
}

void RegionServer::OpenRegion(const Message& m) {
  CT_FRAME("HRegion.openRegion");
  const std::string region = m.Arg("region");
  regions_[region] = "OPENING";
  if (m.Arg("reason") == "rebalance") {
    CT_FRAME("HRegion.openRegionRebalance");
    // A crash here, on a server that has reported but not yet reached
    // ZooKeeper, leaves the region stuck in OPENING (§4.1.3's HBase timeout).
    CT_POST_WRITE(artifacts_->points.rs_open_rebalance_write, region);
  } else {
    CT_POST_WRITE(artifacts_->points.rs_open_region_write, region);
  }
  After(config_->region_open_ms, [this, region] {
    if (regions_.count(region) > 0) {
      regions_[region] = "OPEN";
      Send(master_, "regionOpened", {{"region", region}});
    }
  });
}

// --- Client -----------------------------------------------------------------

HBaseClient::HBaseClient(ctsim::Cluster* cluster, std::string id, std::string master, int num_ops,
                         const HBaseArtifacts* artifacts, const HBaseConfig* config,
                         HBaseJobState* job)
    : Node(cluster, std::move(id)),
      master_(std::move(master)),
      num_ops_(num_ops),
      artifacts_(artifacts),
      config_(config),
      job_(job) {
  Handle("location", [this](const Message& m) {
    ++serial_;
    Send(m.Arg("rs"), "put", {{"region", m.Arg("region")}});
  });
  Handle("locateRetry", [this](const Message&) {
    // Region in transition; retry after a pause (handled by RetryCheck).
  });
  Handle("putAck", [this](const Message&) {
    ++completed_;
    ++serial_;
    attempts_ = 0;
    if (completed_ >= num_ops_) {
      job_->done = true;
      return;
    }
    After(config_->client_op_pacing_ms, [this] { NextOp(); });
  });
  Handle("clusterStatusReply", [](const Message&) {});
}

void HBaseClient::StartWorkload() {
  After(config_->client_start_ms, [this] { NextOp(); });
  After(config_->client_start_ms + 1500, [this] { Send(master_, "clusterStatus", {}); });
}

void HBaseClient::NextOp() {
  if (completed_ >= num_ops_) {
    return;
  }
  std::string region = RegionName(completed_ % config_->num_regions);
  Send(master_, "locate", {{"region", region}});
  int serial = serial_;
  After(config_->client_retry_ms, [this, serial] { RetryCheck(serial); });
}

void HBaseClient::RetryCheck(int serial) {
  if (completed_ >= num_ops_ || serial != serial_) {
    return;
  }
  if (++attempts_ > 600) {
    job_->failed = true;
    return;
  }
  NextOp();
}

}  // namespace cthbase
