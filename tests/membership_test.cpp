// Membership service and chain-repair mechanics.
#include <gtest/gtest.h>

#include "src/harness/cluster.h"
#include "src/harness/experiment.h"
#include "src/msg/message.h"
#include "src/ring/membership.h"
#include "src/sim/network.h"

namespace chainreaction {
namespace {

class RecordingActor : public Actor {
 public:
  void OnMessage(Address, std::string_view payload) override {
    MemNewMembership m;
    if (DecodeMessage(payload, &m)) {
      epochs.push_back(m.epoch);
      last_nodes = m.nodes;
    }
  }
  std::vector<uint64_t> epochs;
  std::vector<NodeId> last_nodes;
};

TEST(Membership, RemoveBroadcastsNewEpochToNodesAndListeners) {
  Simulator sim;
  SimNetwork net(&sim, NetworkConfig{{10, 0}, {100, 0}, 0.0}, 1);

  MembershipService service({1, 2, 3, 4, 5}, 8, 3);
  service.AttachEnv(net.Register(100, &service, 0));

  RecordingActor nodes[5];
  for (NodeId n = 1; n <= 5; ++n) {
    net.Register(n, &nodes[n - 1], 0);
  }
  RecordingActor listener;
  net.Register(200, &listener, 0);
  service.AddListener(200);

  EXPECT_EQ(service.epoch(), 1u);
  service.RemoveNode(3);
  sim.Run();

  EXPECT_EQ(service.epoch(), 2u);
  for (NodeId n : {1u, 2u, 4u, 5u}) {
    ASSERT_EQ(nodes[n - 1].epochs.size(), 1u) << "node " << n;
    EXPECT_EQ(nodes[n - 1].epochs[0], 2u);
  }
  // The removed node gets exactly one farewell copy: a live-drained node
  // must learn the flip to hand off its unstable head keys (a node removed
  // because it crashed simply never receives it).
  ASSERT_EQ(nodes[2].epochs.size(), 1u);
  EXPECT_EQ(nodes[2].epochs[0], 2u);
  ASSERT_EQ(listener.epochs.size(), 1u);
  EXPECT_EQ(listener.last_nodes, (std::vector<NodeId>{1, 2, 4, 5}));
}

TEST(Membership, AddNodeRejoins) {
  Simulator sim;
  SimNetwork net(&sim, NetworkConfig{{10, 0}, {100, 0}, 0.0}, 1);
  MembershipService service({1, 2, 3}, 8, 2);
  service.AttachEnv(net.Register(100, &service, 0));
  RecordingActor a;
  RecordingActor others[3];
  for (NodeId n = 1; n <= 4; ++n) {
    net.Register(n, n == 4 ? &a : &others[n - 1], 0);
  }
  service.AddNode(4);
  sim.Run();
  EXPECT_EQ(service.epoch(), 2u);
  EXPECT_TRUE(service.ring().Contains(4));
  ASSERT_FALSE(a.epochs.empty());
}

TEST(Membership, RemoveUnknownNodeIsNoop) {
  Simulator sim;
  SimNetwork net(&sim, NetworkConfig{{10, 0}, {100, 0}, 0.0}, 1);
  MembershipService service({1, 2, 3}, 8, 2);
  service.AttachEnv(net.Register(100, &service, 0));
  service.RemoveNode(99);
  EXPECT_EQ(service.epoch(), 1u);
}

TEST(Repair, StaleEpochChainPutsDropped) {
  // A chain put sent under epoch 1 that arrives after a reconfiguration
  // must be ignored (the new head re-propagates under the new epoch).
  ClusterOptions opts;
  opts.system = SystemKind::kChainReaction;
  opts.servers_per_dc = 8;
  opts.clients_per_dc = 1;
  Cluster cluster(opts);

  // Establish data, then reconfigure.
  bool done = false;
  cluster.crx_client(0)->Put("epoch-key", "v", [&](const auto&) { done = true; });
  cluster.sim()->Run();
  ASSERT_TRUE(done);
  cluster.KillServer(0, 7);
  cluster.sim()->Run();

  // Inject a stale-epoch chain put at some live node: it must not apply.
  const Ring& ring = cluster.membership(0)->ring();
  const NodeId victim = ring.ChainFor("epoch-key")[1];
  CrxChainPut stale;
  stale.key = "epoch-key";
  stale.value = "STALE";
  stale.version = Version{};
  stale.version.vv = VersionVector(1);
  stale.version.vv.Set(0, 99);
  stale.version.lamport = 1;  // LWW-oldest: even if applied it would not win
  stale.epoch = 1;            // pre-reconfiguration epoch
  // Find the node object to address it through a raw registered sender.
  class Sender : public Actor {
   public:
    void OnMessage(Address, std::string_view) override {}
  } sender;
  Env* env = cluster.net()->Register(kClientAddressBase + 500, &sender, 0);
  env->Send(victim, EncodeMessage(stale));
  cluster.sim()->Run();

  bool read_done = false;
  cluster.crx_client(0)->Get("epoch-key", [&](const ChainReactionClient::GetResult& r) {
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.value, "v");
    read_done = true;
  });
  cluster.sim()->Run();
  ASSERT_TRUE(read_done);
}

TEST(Repair, ClientsLearnNewRing) {
  ClusterOptions opts;
  opts.system = SystemKind::kChainReaction;
  opts.servers_per_dc = 8;
  opts.clients_per_dc = 2;
  Cluster cluster(opts);
  cluster.Preload(50, 32);

  cluster.KillServer(0, 0);
  cluster.sim()->Run();

  // All subsequent operations complete without the crashed node (if a
  // client still addressed it, the message would be dropped and the op
  // would only complete via timeout retries; with the membership update it
  // completes at normal latency).
  for (int i = 0; i < 50; ++i) {
    const Time start = cluster.sim()->Now();
    bool done = false;
    cluster.crx_client(1)->Get(RecordKey(i), [&](const auto& r) {
      EXPECT_TRUE(r.found);
      done = true;
    });
    cluster.sim()->Run();
    ASSERT_TRUE(done);
    EXPECT_LT(cluster.sim()->Now() - start, 100 * kMillisecond) << "op used timeout retries";
  }
  EXPECT_EQ(cluster.crx_client(1)->retries(), 0u);
}

// Failure-detection / broadcast tuning knobs (CrxConfig fd_sweep_interval,
// fd_timeout, membership_rebroadcast_interval), one test per knob.

TEST(FailureKnobs, FdTimeoutKnobExtendsGrace) {
  ClusterOptions opts;
  opts.system = SystemKind::kChainReaction;
  opts.servers_per_dc = 8;
  opts.clients_per_dc = 1;
  opts.heartbeat_interval = 50 * kMillisecond;
  opts.fd_timeout = 2 * kSecond;  // default would be 4x50ms = 200ms
  Cluster cluster(opts);

  cluster.net()->Crash(cluster.ServerAddress(0, 2));
  cluster.sim()->RunUntil(cluster.sim()->Now() + 1 * kSecond);
  // Default timeout would have evicted the node ~4 sweeps in; the knob says
  // tolerate 2s of silence.
  EXPECT_EQ(cluster.membership(0)->failures_detected(), 0u);
  cluster.sim()->RunUntil(cluster.sim()->Now() + 2 * kSecond);
  EXPECT_EQ(cluster.membership(0)->failures_detected(), 1u);
}

TEST(FailureKnobs, FdSweepIntervalKnobSetsDetectionCadence) {
  ClusterOptions opts;
  opts.system = SystemKind::kChainReaction;
  opts.servers_per_dc = 8;
  opts.clients_per_dc = 1;
  opts.heartbeat_interval = 50 * kMillisecond;
  opts.fd_sweep_interval = 1 * kSecond;  // default would sweep every 50ms
  Cluster cluster(opts);

  cluster.net()->Crash(cluster.ServerAddress(0, 2));
  cluster.sim()->RunUntil(cluster.sim()->Now() + 500 * kMillisecond);
  // The silence already exceeds the (default 200ms) timeout, but no sweep
  // has run yet.
  EXPECT_EQ(cluster.membership(0)->failures_detected(), 0u);
  cluster.sim()->RunUntil(cluster.sim()->Now() + 700 * kMillisecond);
  EXPECT_EQ(cluster.membership(0)->failures_detected(), 1u);
}

TEST(FailureKnobs, RebroadcastKnobRefreshesListeners) {
  ClusterOptions opts;
  opts.system = SystemKind::kChainReaction;
  opts.servers_per_dc = 8;
  opts.clients_per_dc = 1;
  opts.heartbeat_interval = 50 * kMillisecond;
  opts.membership_rebroadcast_interval = 100 * kMillisecond;
  Cluster cluster(opts);

  // A listener registered *after* construction never saw an announcement;
  // only the periodic rebroadcast can teach it the current ring.
  RecordingActor late;
  cluster.net()->Register(kClientAddressBase + 900, &late, 0);
  cluster.membership(0)->AddListener(kClientAddressBase + 900);

  cluster.sim()->RunUntil(cluster.sim()->Now() + 1 * kSecond);
  EXPECT_GE(cluster.membership(0)->rebroadcasts(), 8u);
  ASSERT_FALSE(late.epochs.empty());
  EXPECT_EQ(late.epochs.back(), 1u);  // no topology change, same epoch
  EXPECT_EQ(late.last_nodes.size(), 8u);
}

TEST(Repair, SurvivesDownToReplicationFloor) {
  // Keep killing nodes until only R remain; every acked write stays
  // readable throughout.
  ClusterOptions opts;
  opts.system = SystemKind::kChainReaction;
  opts.servers_per_dc = 6;
  opts.clients_per_dc = 1;
  opts.replication = 3;
  Cluster cluster(opts);
  ChainReactionClient* client = cluster.crx_client(0);

  for (int i = 0; i < 20; ++i) {
    bool done = false;
    client->Put("floor-" + std::to_string(i), "v", [&](const auto&) { done = true; });
    cluster.sim()->Run();
    ASSERT_TRUE(done);
  }

  for (uint32_t victim = 0; victim < 3; ++victim) {
    cluster.KillServer(0, victim);
    cluster.sim()->Run();
    for (int i = 0; i < 20; ++i) {
      bool found = false;
      client->Get("floor-" + std::to_string(i),
                  [&](const ChainReactionClient::GetResult& r) { found = r.found; });
      cluster.sim()->Run();
      EXPECT_TRUE(found) << "key " << i << " lost after killing " << victim + 1 << " nodes";
    }
  }
}

}  // namespace
}  // namespace chainreaction
