// A steady-state simulator round allocates nothing: message dispatch, timer
// firings and Every's re-arming run on storage the loop, the cluster and the
// node already hold.
//
// This binary replaces the global operator new with one that counts calls
// while a window is armed, so only the measured stretch of virtual time is
// counted and no other suite is affected.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/sim/cluster.h"
#include "src/sim/trace.h"
#include "src/systems/zookeeper/zk_nodes.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

}  // namespace

// Out of line, so the compiler never pairs an inlined free() with a new
// expression at a call site.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ctsim {
namespace {

struct Window {
  uint64_t allocations = 0;
  uint64_t events = 0;
};

// Runs `cluster` to virtual time `until`, counting heap allocations and
// executed events on the way.
Window MeasureUntil(Cluster& cluster, Time until) {
  const uint64_t events_before = cluster.loop().executed_events();
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  cluster.loop().RunUntil(until);
  g_counting.store(false, std::memory_order_relaxed);
  return {g_allocations.load(std::memory_order_relaxed),
          cluster.loop().executed_events() - events_before};
}

TEST(SteadyState, ZooKeeperQuorumRoundsAllocateNothing) {
  // The scale-8 ensemble without a client: every 500 ms each of the 24 peers
  // heartbeats the other 23, and every 250 ms each sweeps its failure
  // detector. The trace hash is on, as in a campaign run.
  Cluster cluster;
  TraceRecorder trace;
  cluster.set_trace_recorder(&trace);
  ctzk::ZkConfig config;
  config.num_peers = 24;
  ctzk::QuorumShared shared;
  std::vector<std::string> peers;
  for (int i = 1; i <= config.num_peers; ++i) {
    peers.push_back("zkpeer" + std::to_string(i) + ":2888");
  }
  for (int i = 1; i <= config.num_peers; ++i) {
    cluster.AddNode<ctzk::ZkPeer>(peers[i - 1], i, peers, &ctzk::GetZkArtifacts(), &config,
                                  &shared);
  }
  cluster.StartAll();
  cluster.loop().RunUntil(5000);

  const Window window = MeasureUntil(cluster, 15000);
  // 20 rounds of 24 ticks and 24 * 23 deliveries, plus 24 * 40 sweeps.
  EXPECT_EQ(window.events, 12480u);
  EXPECT_EQ(window.allocations, 0u);
  EXPECT_EQ(cluster.dropped_messages(), 0u);
}

// Pings its peer from an Every and keeps one After re-arming itself.
class PingNode : public Node {
 public:
  PingNode(Cluster* cluster, std::string id, const std::string& peer)
      : Node(cluster, std::move(id)),
        peer_(cluster->Intern(peer)),
        ping_(cluster->Intern("ping")),
        pong_(cluster->Intern("pong")) {
    Handle("ping", [this](const Message& m) { Send(m.from, pong_); });
    Handle("pong", [this](const Message&) { ++pongs_; });
  }

  int pongs_ = 0;
  int timer_fires_ = 0;

 protected:
  void OnStart() override {
    Every(10, [this] { Send(peer_, ping_); });
    Rearm();
  }

 private:
  void Rearm() {
    After(7, [this] {
      ++timer_fires_;
      Rearm();
    });
  }

  NodeId peer_;
  Symbol ping_;
  Symbol pong_;
};

TEST(SteadyState, PingPongWithTimersAllocatesNothing) {
  Cluster cluster;
  TraceRecorder trace;
  cluster.set_trace_recorder(&trace);
  auto* a = cluster.AddNode<PingNode>("a:1", "b:1");
  auto* b = cluster.AddNode<PingNode>("b:1", "a:1");
  cluster.StartAll();
  cluster.loop().RunUntil(100);
  const int pongs_before = a->pongs_ + b->pongs_;
  const int fires_before = a->timer_fires_ + b->timer_fires_;

  const Window window = MeasureUntil(cluster, 1100);
  EXPECT_EQ(window.allocations, 0u);
  // Per node: 100 ticks, each a ping out and a pong back, and 143 firings
  // of the 7 ms timer, all in the one slot it re-arms into.
  EXPECT_EQ(a->pongs_ + b->pongs_ - pongs_before, 200);
  EXPECT_EQ(a->timer_fires_ + b->timer_fires_ - fires_before, 286);
  EXPECT_EQ(a->timer_slots(), 1u);
  EXPECT_EQ(b->timer_slots(), 1u);
}

}  // namespace
}  // namespace ctsim
