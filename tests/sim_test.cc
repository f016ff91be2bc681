// Tests for the cluster simulator: node lifecycle, messaging, crash vs
// graceful shutdown, the failure detector, and exception boundaries.
#include <gtest/gtest.h>

#include "src/sim/cluster.h"
#include "src/sim/exception.h"
#include "src/sim/failure_detector.h"

namespace ctsim {
namespace {

class EchoNode : public Node {
 public:
  EchoNode(Cluster* cluster, std::string id) : Node(cluster, std::move(id)) {
    Handle("ping", [this](const Message& m) {
      ++pings_;
      Send(m.from, "pong", {});
    });
    Handle("pong", [this](const Message&) { ++pongs_; });
    Handle("boom", [this](const Message&) {
      throw SimException("NullPointerException", "boom");
    });
    Handle("crashsignal", [this](const Message&) {
      mid_handler_ = true;
      throw NodeCrashedSignal{};
    });
  }

  int pings_ = 0;
  int pongs_ = 0;
  bool mid_handler_ = false;
  bool shutdown_ran_ = false;

 protected:
  void OnShutdown() override { shutdown_ran_ = true; }
};

TEST(Cluster, DeliversMessagesWithLatency) {
  Cluster cluster;
  auto* a = cluster.AddNode<EchoNode>("a:1");
  auto* b = cluster.AddNode<EchoNode>("b:1");
  cluster.StartAll();
  a->Send("b:1", "ping");
  cluster.loop().RunToCompletion();
  EXPECT_EQ(b->pings_, 1);
  EXPECT_EQ(a->pongs_, 1);
  EXPECT_EQ(cluster.delivered_messages(), 2u);
}

TEST(Cluster, MessagesToDeadNodesAreDropped) {
  Cluster cluster;
  auto* a = cluster.AddNode<EchoNode>("a:1");
  auto* b = cluster.AddNode<EchoNode>("b:1");
  cluster.StartAll();
  a->Send("b:1", "ping");
  cluster.Crash("b:1");  // dies before delivery
  cluster.loop().RunToCompletion();
  EXPECT_EQ(b->pings_, 0);
  EXPECT_EQ(cluster.dropped_messages(), 1u);
}

TEST(Cluster, CrashIsAbruptShutdownIsGraceful) {
  Cluster cluster;
  auto* a = cluster.AddNode<EchoNode>("a:1");
  auto* b = cluster.AddNode<EchoNode>("b:1");
  cluster.StartAll();
  cluster.Crash("a:1");
  EXPECT_FALSE(a->shutdown_ran_);
  EXPECT_EQ(a->state(), NodeState::kCrashed);
  cluster.Shutdown("b:1");
  EXPECT_TRUE(b->shutdown_ran_);
  EXPECT_EQ(b->state(), NodeState::kShutdown);
  EXPECT_FALSE(cluster.IsAlive("a:1"));
  EXPECT_FALSE(cluster.IsAlive("b:1"));
}

TEST(Cluster, DeadNodeTimersNeverFire) {
  Cluster cluster;
  auto* a = cluster.AddNode<EchoNode>("a:1");
  cluster.StartAll();
  int fired = 0;
  a->After(100, [&] { ++fired; });
  cluster.loop().Schedule(50, [&] { cluster.Crash("a:1"); });
  cluster.loop().RunToCompletion();
  EXPECT_EQ(fired, 0);
}

TEST(Cluster, EveryRepeatsUntilDeath) {
  Cluster cluster;
  auto* a = cluster.AddNode<EchoNode>("a:1");
  cluster.StartAll();
  int ticks = 0;
  a->Every(10, [&] { ++ticks; });
  cluster.loop().Schedule(55, [&] { cluster.Crash("a:1"); });
  cluster.loop().RunUntil(200);
  EXPECT_EQ(ticks, 5);
}

TEST(Cluster, UnhandledExceptionAbortsNodeAndLogsIt) {
  Cluster cluster;
  auto* a = cluster.AddNode<EchoNode>("a:1");
  auto* b = cluster.AddNode<EchoNode>("b:1");
  cluster.StartAll();
  a->Send("b:1", "boom");
  cluster.loop().RunToCompletion();
  EXPECT_TRUE(b->aborted());
  EXPECT_FALSE(cluster.IsAlive("b:1"));
  EXPECT_FALSE(cluster.cluster_down());  // b is not critical
  bool logged = false;
  for (const auto& instance : cluster.logs().instances()) {
    logged = logged || instance.text.find("Uncommon exception NullPointerException") == 0;
  }
  EXPECT_TRUE(logged);
}

class CriticalNode : public EchoNode {
 public:
  CriticalNode(Cluster* cluster, std::string id) : EchoNode(cluster, std::move(id)) {
    SetCritical();
  }
};

TEST(Cluster, CriticalNodeAbortTakesClusterDown) {
  Cluster cluster;
  auto* a = cluster.AddNode<EchoNode>("a:1");
  cluster.AddNode<CriticalNode>("master:1");
  cluster.StartAll();
  a->Send("master:1", "boom");
  cluster.loop().RunToCompletion();
  EXPECT_TRUE(cluster.cluster_down());
  EXPECT_NE(cluster.cluster_down_reason().find("master:1"), std::string::npos);
}

TEST(Cluster, NodeCrashedSignalSilentlyEndsHandler) {
  Cluster cluster;
  auto* a = cluster.AddNode<EchoNode>("a:1");
  auto* b = cluster.AddNode<EchoNode>("b:1");
  cluster.StartAll();
  a->Send("b:1", "crashsignal");
  cluster.loop().RunToCompletion();
  EXPECT_TRUE(b->mid_handler_);
  EXPECT_FALSE(b->aborted());  // not an exception, just a killed process
}

TEST(Cluster, CurrentNodeTracksExecutingHandler) {
  Cluster cluster;
  auto* a = cluster.AddNode<EchoNode>("a:1");
  cluster.AddNode<EchoNode>("b:1");
  cluster.StartAll();
  std::string observed;
  a->After(10, [&] { observed = cluster.current_node(); });
  cluster.loop().RunToCompletion();
  EXPECT_EQ(observed, "a:1");
  EXPECT_EQ(cluster.current_node(), "");
}

// A sends a same-tick burst to B and schedules its own event for the
// delivery tick. B's first handler waits in a nested RunFor, as the pre-read
// trigger does; the rest of the burst was scheduled first, so B receives it
// inside that window, before A's event runs.
class BurstNode : public Node {
 public:
  BurstNode(Cluster* cluster, std::string id, std::vector<std::string>* order)
      : Node(cluster, std::move(id)) {
    Handle("go", [this, order](const Message&) {
      Send("b:1", "m1");
      Send("b:1", "m2");
      Send("b:1", "m3");
      this->cluster().loop().Schedule(this->cluster().latency_ms(),
                                      [order] { order->push_back("a-event"); });
    });
    Handle("m1", [this, order](const Message&) {
      order->push_back("m1");
      this->cluster().loop().RunFor(10);
      order->push_back("m1-resumed");
    });
    Handle("m2", [order](const Message&) { order->push_back("m2"); });
    Handle("m3", [order](const Message&) { order->push_back("m3"); });
  }
};

TEST(Cluster, SameTickBurstPrecedesLaterEventsWhenAHandlerReentersTheLoop) {
  Cluster cluster;
  std::vector<std::string> order;
  cluster.AddNode<BurstNode>("a:1", &order);
  cluster.AddNode<BurstNode>("b:1", &order);
  cluster.StartAll();
  cluster.Post("client", "a:1", "go");
  cluster.loop().RunToCompletion();
  EXPECT_EQ(order, (std::vector<std::string>{"m1", "m2", "m3", "a-event", "m1-resumed"}));
}

// B's handler for m1 posts enough messages to grow the in-flight slab many
// times over, then re-enters the loop, where A echoes each one back: their
// deliveries free slots and the echoes refill them. m1's own slot must stay
// untouched until the handler returns.
class SlabNode : public Node {
 public:
  SlabNode(Cluster* cluster, std::string id) : Node(cluster, std::move(id)) {
    Handle("m1", [this](const Message& m) {
      for (int i = 0; i < 1000; ++i) {
        Send("a:1", "filler", {{"k", "filler-" + std::to_string(i)}});
      }
      this->cluster().loop().RunFor(10);
      seen_ = m.from + " " + m.method + " " + m.Arg("k");
    });
    Handle("filler", [this](const Message& m) { Send(m.from, "echo", {{"k", "echo"}}); });
    Handle("echo", [this](const Message&) { ++echoes_; });
  }

  std::string seen_;
  int echoes_ = 0;
};

TEST(Cluster, HandlerKeepsItsMessageWhilePostingAndReenteringTheLoop) {
  Cluster cluster;
  auto* a = cluster.AddNode<SlabNode>("a:1");
  auto* b = cluster.AddNode<SlabNode>("b:1");
  cluster.StartAll();
  a->Send("b:1", "m1", {{"k", "v1"}});
  cluster.loop().RunToCompletion();
  EXPECT_EQ(b->echoes_, 1000);
  EXPECT_EQ(b->seen_, "a:1 m1 v1");
}

struct Traffic {
  uint64_t trace_hash = 0;
  uint64_t delivered = 0;
  uint64_t partition_dropped = 0;
  size_t interned = 0;
  bool cut_key_interned = false;
};

// A pings B, then C twice: once inside a partition window that cuts C off
// and once after it heals. `by_symbol` picks Send(NodeId, Symbol, args) over
// Send(string, string, args).
Traffic SendTraffic(bool by_symbol) {
  Cluster cluster;
  TraceRecorder trace;
  cluster.set_trace_recorder(&trace);
  auto* a = cluster.AddNode<EchoNode>("a:1");
  cluster.AddNode<EchoNode>("b:1");
  cluster.AddNode<EchoNode>("c:1");
  cluster.StartAll();
  cluster.Partition({"c:1"}, 0, 5);
  auto send = [&](const std::string& to, KvList args) {
    if (by_symbol) {
      const NodeId to_id = cluster.Intern(to);
      a->Send(to_id, cluster.Intern("ping"), std::move(args));
    } else {
      a->Send(to, "ping", std::move(args));
    }
  };
  send("b:1", {{"seq", "1"}});
  send("c:1", {{"cut", "1"}});
  cluster.loop().RunUntil(10);
  send("c:1", {{"seq", "2"}});
  cluster.loop().RunToCompletion();
  return {trace.hash(), cluster.delivered_messages(), cluster.plan_dropped_messages(),
          cluster.interner().size(), !cluster.interner().Find("cut").empty()};
}

TEST(Cluster, SymbolAndStringSendsAreTheSameTraffic) {
  const Traffic by_string = SendTraffic(false);
  const Traffic by_symbol = SendTraffic(true);
  EXPECT_EQ(by_string.trace_hash, by_symbol.trace_hash);
  EXPECT_EQ(by_string.delivered, by_symbol.delivered);
  EXPECT_EQ(by_string.partition_dropped, by_symbol.partition_dropped);
  EXPECT_EQ(by_string.interned, by_symbol.interned);
  EXPECT_EQ(by_string.delivered, 4u);  // two pings, two pongs
  EXPECT_EQ(by_string.partition_dropped, 1u);
  // A dropped message's arg keys are interned all the same.
  EXPECT_TRUE(by_string.cut_key_interned);
  EXPECT_TRUE(by_symbol.cut_key_interned);
}

TEST(Cluster, DeferredNodesStartExplicitly) {
  Cluster cluster;
  auto* late = cluster.AddNode<EchoNode>("late:1");
  late->set_defer_start(true);
  cluster.StartAll();
  EXPECT_EQ(late->state(), NodeState::kStopped);
  cluster.StartNode("late:1");
  EXPECT_TRUE(late->IsRunning());
}

TEST(Cluster, ConfigHostsDeduplicates) {
  Cluster cluster;
  cluster.AddNode<EchoNode>("host1:10");
  cluster.AddNode<EchoNode>("host1:20");
  cluster.AddNode<EchoNode>("host2:10");
  EXPECT_EQ(cluster.config_hosts(), (std::vector<std::string>{"host1", "host2"}));
}

// Registers one verb no other test node handles.
class SoloNode : public Node {
 public:
  SoloNode(Cluster* cluster, std::string id) : Node(cluster, std::move(id)) {
    Handle("solo", [](const Message&) {});
  }
};

TEST(Cluster, UnhandledVerbIsLoggedOnceAndDoesNotAbort) {
  // Handlers are indexed by method id. "solo" is interned before a:1's
  // verbs, so it is an empty slot inside a:1's table; "late" is interned
  // after a:1 registered its handlers, so it lies past the table's end.
  Cluster cluster;
  auto* solo = cluster.AddNode<SoloNode>("s:1");
  auto* a = cluster.AddNode<EchoNode>("a:1");
  cluster.StartAll();
  solo->Send("a:1", "solo");
  solo->Send("a:1", "late");
  solo->Send("a:1", "ping");
  cluster.loop().RunToCompletion();
  auto count = [&cluster](const std::string& text) {
    int n = 0;
    for (const auto& instance : cluster.logs().instances()) {
      n += instance.node == "a:1" && instance.text == text ? 1 : 0;
    }
    return n;
  };
  EXPECT_EQ(count("No handler for RPC solo"), 1);
  EXPECT_EQ(count("No handler for RPC late"), 1);
  EXPECT_FALSE(a->aborted());
  EXPECT_TRUE(a->IsRunning());
  EXPECT_EQ(a->pings_, 1);
}

// Registers a handler from inside its own handler, which Handle forbids.
class SelfRegisteringNode : public Node {
 public:
  SelfRegisteringNode(Cluster* cluster, std::string id) : Node(cluster, std::move(id)) {
    Handle("ping", [this](const Message&) { Handle("pong", [](const Message&) {}); });
  }
};

TEST(ClusterDeathTest, HandleInsideTheNodesOwnHandlerAborts) {
  EXPECT_DEATH(
      {
        Cluster cluster;
        cluster.AddNode<SelfRegisteringNode>("a:1");
        cluster.StartAll();
        cluster.Post("x:1", "a:1", "ping");
        cluster.loop().RunToCompletion();
      },
      "CT_CHECK failed");
}

// Throws from the component a test picks: a delivery, an After, an Every or
// the shutdown hook. Its exception policy records the cluster's current node
// before applying the default (abort).
class FaultyNode : public Node {
 public:
  FaultyNode(Cluster* cluster, std::string id) : Node(cluster, std::move(id)) {
    Handle("boom", [](const Message&) { throw SimException("NullPointerException", "boom"); });
    Handle("reenter", [this](const Message&) {
      this->cluster().loop().RunFor(20);
      resumed_as_ = this->cluster().current_node();
      throw SimException("IllegalStateException", "after the wait");
    });
  }

  void ThrowInAfter() {
    After(5, [] { throw SimException("NullPointerException", "after"); });
  }
  void ThrowInEvery() {
    Every(5, [] { throw SimException("NullPointerException", "every"); });
  }

  bool throw_on_shutdown_ = false;
  std::string resumed_as_;
  std::vector<std::string> policy_ran_as_;

 protected:
  void OnShutdown() override {
    if (throw_on_shutdown_) {
      throw SimException("NullPointerException", "stop");
    }
  }
  void OnHandlerException(const std::string& context, const SimException& e) override {
    policy_ran_as_.push_back(cluster().current_node());
    Node::OnHandlerException(context, e);
  }
};

std::vector<std::string> FatalLines(Cluster& cluster) {
  std::vector<std::string> lines;
  for (const auto& instance : cluster.logs().instances()) {
    if (instance.level == ctlog::Level::kFatal) {
      lines.push_back(instance.text);
    }
  }
  return lines;
}

TEST(Cluster, AbortLineNamesTheContextThatThrew) {
  Cluster cluster;
  auto* verb = cluster.AddNode<FaultyNode>("verb:1");
  auto* after = cluster.AddNode<FaultyNode>("after:1");
  auto* every = cluster.AddNode<FaultyNode>("every:1");
  auto* stop = cluster.AddNode<FaultyNode>("stop:1");
  cluster.StartAll();
  stop->throw_on_shutdown_ = true;
  cluster.Shutdown("stop:1");
  cluster.Post("client", "verb:1", "boom");
  after->ThrowInAfter();
  every->ThrowInEvery();
  cluster.loop().RunToCompletion();
  EXPECT_EQ(FatalLines(cluster),
            (std::vector<std::string>{
                "Aborting node stop:1 : NullPointerException in shutdown: stop",
                "Aborting node verb:1 : NullPointerException in boom: boom",
                "Aborting node after:1 : NullPointerException in timer: after",
                "Aborting node every:1 : NullPointerException in timer: every",
            }));
  for (const auto* node : {verb, after, every, stop}) {
    EXPECT_EQ(node->policy_ran_as_, std::vector<std::string>{node->id()});
  }
}

TEST(Cluster, ExceptionPolicyRunsAsTheNodeAndTheCallerIsRestored) {
  // a's handler waits in a nested RunFor, inside which b's timer throws; then
  // a's handler resumes and throws too.
  Cluster cluster;
  auto* a = cluster.AddNode<FaultyNode>("a:1");
  auto* b = cluster.AddNode<FaultyNode>("b:1");
  cluster.StartAll();
  cluster.Post("client", "a:1", "reenter");
  b->ThrowInAfter();
  std::string between_events = "unset";
  cluster.loop().Schedule(30, [&] { between_events = cluster.current_node(); });
  cluster.loop().RunToCompletion();
  EXPECT_EQ(b->policy_ran_as_, std::vector<std::string>{"b:1"});
  EXPECT_EQ(a->resumed_as_, "a:1");
  EXPECT_EQ(a->policy_ran_as_, std::vector<std::string>{"a:1"});
  EXPECT_TRUE(a->aborted());
  EXPECT_TRUE(b->aborted());
  EXPECT_EQ(between_events, "");
  EXPECT_EQ(cluster.current_node(), "");
}

TEST(Cluster, AfterInsideAnAfterCallbackReusesItsSlot) {
  // The first callback arms the second and then reads its own capture: its
  // slot is free for the second only because the callback was moved out of
  // it before running.
  Cluster cluster;
  auto* a = cluster.AddNode<EchoNode>("a:1");
  cluster.StartAll();
  std::vector<std::string> order;
  a->After(10, [&order, a, tag = std::string(40, 'x')] {
    a->After(5, [&order] { order.push_back("second"); });
    order.push_back("first " + tag.substr(0, 3));
  });
  cluster.loop().RunToCompletion();
  EXPECT_EQ(order, (std::vector<std::string>{"first xxx", "second"}));
  EXPECT_EQ(a->timer_slots(), 1u);
}

class MonitorNode : public Node {
 public:
  MonitorNode(Cluster* cluster, std::string id) : Node(cluster, std::move(id)) {
    fd_ = std::make_unique<FailureDetector>(this, 100, 20,
                                            [this](const std::string& n) { lost_.push_back(n); });
  }
  void StartFd() { fd_->Start(); }
  std::unique_ptr<FailureDetector> fd_;
  std::vector<std::string> lost_;
};

TEST(FailureDetector, DeclaresSilentNodesLostAfterTimeout) {
  Cluster cluster;
  auto* monitor = cluster.AddNode<MonitorNode>("m:1");
  cluster.StartAll();
  monitor->StartFd();
  monitor->fd_->Heartbeat("w:1");
  cluster.loop().RunUntil(80);
  EXPECT_TRUE(monitor->lost_.empty());  // within timeout
  cluster.loop().RunUntil(300);
  ASSERT_EQ(monitor->lost_.size(), 1u);
  EXPECT_EQ(monitor->lost_[0], "w:1");
  EXPECT_FALSE(monitor->fd_->IsTracked("w:1"));
}

TEST(FailureDetector, HeartbeatsKeepNodesAlive) {
  Cluster cluster;
  auto* monitor = cluster.AddNode<MonitorNode>("m:1");
  cluster.StartAll();
  monitor->StartFd();
  for (int t = 0; t <= 500; t += 50) {
    cluster.loop().Schedule(t, [monitor] { monitor->fd_->Heartbeat("w:1"); });
  }
  cluster.loop().RunUntil(520);
  EXPECT_TRUE(monitor->lost_.empty());
  EXPECT_TRUE(monitor->fd_->IsTracked("w:1"));
}

TEST(FailureDetector, NotifyLeftIsImmediate) {
  // The graceful-shutdown fast path: no timeout wait.
  Cluster cluster;
  auto* monitor = cluster.AddNode<MonitorNode>("m:1");
  cluster.StartAll();
  monitor->StartFd();
  monitor->fd_->Heartbeat("w:1");
  monitor->fd_->NotifyLeft("w:1");
  EXPECT_EQ(monitor->lost_, (std::vector<std::string>{"w:1"}));
}

TEST(FailureDetector, LossesFireInStringOrderWhateverTheIdOrder) {
  // Interned as w:9, w:10, w:2, so the id-indexed table holds them in that
  // order; string order is w:10, w:2, w:9.
  Cluster cluster;
  auto* monitor = cluster.AddNode<MonitorNode>("m:1");
  cluster.StartAll();
  monitor->StartFd();
  for (const char* worker : {"w:9", "w:10", "w:2"}) {
    monitor->fd_->Heartbeat(worker);
  }
  EXPECT_EQ(monitor->fd_->tracked(), (std::vector<std::string>{"w:10", "w:2", "w:9"}));
  // Sweeps run every 20 ms with a 100 ms timeout: the sweep at 120 is the
  // first to find them silent, and it expires all three.
  cluster.loop().RunUntil(119);
  EXPECT_TRUE(monitor->lost_.empty());
  cluster.loop().RunUntil(120);
  EXPECT_EQ(monitor->lost_, (std::vector<std::string>{"w:10", "w:2", "w:9"}));
  EXPECT_TRUE(monitor->fd_->tracked().empty());
}

TEST(FailureDetector, NodesThatNeverHeartbeatAreNotTracked) {
  Cluster cluster;
  auto* monitor = cluster.AddNode<MonitorNode>("m:1");
  cluster.StartAll();
  monitor->StartFd();
  monitor->fd_->Heartbeat("w:1");
  // Interned after the only tracked node, so past the end of the table.
  const NodeId silent = cluster.Intern("w:2");
  EXPECT_FALSE(monitor->fd_->IsTracked(silent));
  monitor->fd_->Forget(silent);
  monitor->fd_->NotifyLeft(silent);
  // Never interned at all.
  EXPECT_FALSE(monitor->fd_->IsTracked("w:3"));
  monitor->fd_->Forget("w:3");
  monitor->fd_->NotifyLeft("w:3");
  EXPECT_TRUE(monitor->lost_.empty());
  EXPECT_EQ(monitor->fd_->tracked(), (std::vector<std::string>{"w:1"}));
}

TEST(FailureDetector, ForgetSuppressesCallback) {
  Cluster cluster;
  auto* monitor = cluster.AddNode<MonitorNode>("m:1");
  cluster.StartAll();
  monitor->StartFd();
  monitor->fd_->Heartbeat("w:1");
  monitor->fd_->Forget("w:1");
  cluster.loop().RunUntil(500);
  EXPECT_TRUE(monitor->lost_.empty());
}

}  // namespace
}  // namespace ctsim
