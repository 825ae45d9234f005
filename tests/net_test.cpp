// TCP transport tests: the same ChainReaction actors that run on the
// simulator are deployed across several TcpRuntimes (one per modeled
// process) on loopback sockets, and must behave identically.
#include <gtest/gtest.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/chainreaction_client.h"
#include "src/core/chainreaction_node.h"
#include "src/net/address_book.h"
#include "src/net/sync_client.h"
#include "src/net/tcp_cluster.h"
#include "src/net/tcp_runtime.h"
#include "src/ring/ring.h"

namespace chainreaction {
namespace {

// A little TCP deployment: N single-node server "processes" + 1 client
// process, all over loopback.
class TcpClusterFixture {
 public:
  explicit TcpClusterFixture(uint32_t num_nodes, uint32_t replication = 3) {
    std::vector<NodeId> ids;
    for (NodeId n = 0; n < num_nodes; ++n) {
      ids.push_back(n);
    }
    const Ring ring(ids, 16, replication, 1);

    CrxConfig cfg;
    cfg.replication = replication;
    cfg.k_stability = 2 <= replication ? 2 : 1;
    cfg.num_dcs = 1;
    cfg.client_timeout = 2 * kSecond;

    for (NodeId n = 0; n < num_nodes; ++n) {
      auto runtime = std::make_unique<TcpRuntime>(&book_);
      auto node = std::make_unique<ChainReactionNode>(n, cfg, ring);
      node->AttachEnv(runtime->Register(n, node.get()));
      nodes_.push_back(std::move(node));
      runtimes_.push_back(std::move(runtime));
    }

    client_runtime_ = std::make_unique<TcpRuntime>(&book_);
    client_ = std::make_unique<ChainReactionClient>(kClientAddressBase, cfg, ring, 42);
    client_->AttachEnv(client_runtime_->Register(kClientAddressBase, client_.get()));

    for (auto& rt : runtimes_) {
      rt->Start();
    }
    client_runtime_->Start();
  }

  ~TcpClusterFixture() {
    client_runtime_->Stop();
    for (auto& rt : runtimes_) {
      rt->Stop();
    }
  }

  SyncClient MakeSyncClient() { return SyncClient(client_.get(), client_runtime_.get()); }

  uint64_t TotalFrames() const {
    uint64_t total = client_runtime_->frames_sent();
    for (const auto& rt : runtimes_) {
      total += rt->frames_sent();
    }
    return total;
  }

 private:
  AddressBook book_;
  std::vector<std::unique_ptr<TcpRuntime>> runtimes_;
  std::vector<std::unique_ptr<ChainReactionNode>> nodes_;
  std::unique_ptr<TcpRuntime> client_runtime_;
  std::unique_ptr<ChainReactionClient> client_;
};

TEST(TcpTransport, PutGetRoundTrip) {
  TcpClusterFixture cluster(5);
  SyncClient client = cluster.MakeSyncClient();

  const auto put = client.Put("tcp-key", "tcp-value");
  ASSERT_TRUE(put.status.ok());
  EXPECT_EQ(put.version.vv.Get(0), 1u);

  const auto get = client.Get("tcp-key");
  ASSERT_TRUE(get.status.ok());
  EXPECT_TRUE(get.found);
  EXPECT_EQ(get.value, "tcp-value");
  EXPECT_TRUE(get.version == put.version);

  EXPECT_GT(cluster.TotalFrames(), 0u) << "operations must traverse real sockets";
}

TEST(TcpTransport, MissingKey) {
  TcpClusterFixture cluster(4);
  SyncClient client = cluster.MakeSyncClient();
  const auto get = client.Get("never-written");
  ASSERT_TRUE(get.status.ok());
  EXPECT_FALSE(get.found);
}

TEST(TcpTransport, ManySequentialOps) {
  TcpClusterFixture cluster(5);
  SyncClient client = cluster.MakeSyncClient();
  for (int i = 0; i < 60; ++i) {
    const Key key = "k-" + std::to_string(i % 7);
    const Value value = "v-" + std::to_string(i);
    ASSERT_TRUE(client.Put(key, value).status.ok());
    const auto get = client.Get(key);
    ASSERT_TRUE(get.found);
    EXPECT_EQ(get.value, value);
  }
}

TEST(TcpTransport, LargeValueFraming) {
  TcpClusterFixture cluster(4);
  SyncClient client = cluster.MakeSyncClient();
  // Large enough to exercise partial reads/writes through the 16 KiB
  // socket buffers and the outbox path.
  Value big(512 * 1024, 'x');
  for (size_t i = 0; i < big.size(); i += 4096) {
    big[i] = static_cast<char>('a' + (i / 4096) % 26);
  }
  ASSERT_TRUE(client.Put("big", big).status.ok());
  const auto get = client.Get("big");
  ASSERT_TRUE(get.found);
  EXPECT_EQ(get.value, big);
}

TEST(TcpTransport, VersionsMonotonePerKey) {
  TcpClusterFixture cluster(5);
  SyncClient client = cluster.MakeSyncClient();
  Version last;
  for (int i = 0; i < 10; ++i) {
    const auto put = client.Put("mono", "v" + std::to_string(i));
    ASSERT_TRUE(put.status.ok());
    if (i > 0) {
      EXPECT_TRUE(last.LwwLess(put.version));
      EXPECT_TRUE(put.version.CausallyIncludes(last));
    }
    last = put.version;
  }
}

TEST(TcpTransport, ReplicationOneSingleProcess) {
  TcpClusterFixture cluster(2, /*replication=*/1);
  SyncClient client = cluster.MakeSyncClient();
  ASSERT_TRUE(client.Put("solo", "v").status.ok());
  const auto get = client.Get("solo");
  EXPECT_TRUE(get.found);
  EXPECT_EQ(get.value, "v");
}

// Frame accounting must balance at quiescence: every frame one runtime put
// on a socket must come out of another runtime's parser — no torn, dropped,
// or duplicated frames through the coalesced writev path. Polls until the
// counters stop moving (stability notifications trail the last client ack).
TEST(TcpTransport, FrameIntegrityAcrossRuntimes) {
  TcpCluster::Options opts;
  opts.num_nodes = 5;
  opts.loop_threads = 2;
  opts.num_clients = 2;
  opts.config.replication = 3;
  opts.config.k_stability = 2;
  opts.config.num_dcs = 1;
  opts.config.client_timeout = 2 * kSecond;
  TcpCluster cluster(opts);

  TcpCluster::LoadOptions load;
  load.duration = 300 * kMillisecond;
  load.value_size = 64;
  load.key_space = 32;
  load.get_fraction = 0.3;
  load.pipeline = 4;
  const TcpCluster::LoadResult result = cluster.RunClosedLoop(load);
  ASSERT_GT(result.ops, 0u);
  EXPECT_EQ(result.failures, 0u);

  const auto totals = [&] {
    const uint64_t sent =
        cluster.server_runtime()->frames_sent() + cluster.client_runtime()->frames_sent();
    const uint64_t received = cluster.server_runtime()->frames_received() +
                              cluster.client_runtime()->frames_received();
    return std::make_pair(sent, received);
  };
  auto last = totals();
  for (int i = 0; i < 500; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto now = totals();
    if (now == last && now.first == now.second) {
      break;
    }
    last = now;
  }
  const auto final_totals = totals();
  EXPECT_GT(final_totals.first, 0u);
  EXPECT_EQ(final_totals.first, final_totals.second)
      << "frames sent and received must balance at quiescence";
}

// Counts the frames delivered to it (from any loop thread).
class CountingActor : public Actor {
 public:
  void OnMessage(Address, std::string_view) override { received.fetch_add(1); }
  std::atomic<int> received{0};
};

int64_t ProcessCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

// Polls `cond` for up to 5 s.
bool WaitFor(const std::function<bool()>& cond) {
  for (int i = 0; i < 500 && !cond(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return cond();
}

// When a peer runtime goes away, the survivor must drop both of its sockets
// to it (the one it dialed and the one the peer dialed in on). A socket at
// EOF stays readable, so one left in the poll set turns the idle loop into
// a busy spin. Later sends to the gone peer must fail quietly.
TEST(TcpPeerClose, IdleSurvivorDoesNotSpin) {
  CountingActor a, b;
  AddressBook book;
  TcpRuntime survivor(&book);
  Env* env_a = survivor.Register(1, &a);
  auto peer = std::make_unique<TcpRuntime>(&book);
  Env* env_b = peer->Register(2, &b);
  survivor.Start();
  peer->Start();
  survivor.PostTo(1, [env_a] { env_a->Send(2, "ping"); });
  peer->PostTo(2, [env_b] { env_b->Send(1, "pong"); });
  ASSERT_TRUE(WaitFor([&] { return a.received.load() == 1 && b.received.load() == 1; }));

  peer.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // EOFs arrive
  const int64_t cpu_before = ProcessCpuMicros();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const int64_t cpu_used = ProcessCpuMicros() - cpu_before;
  // An idle loop wakes at most every 50 ms; a spinning one burns the whole
  // 500 ms.
  EXPECT_LT(cpu_used, 100000) << "survivor loop polls a closed socket";

  for (int i = 0; i < 5; ++i) {
    survivor.PostTo(1, [env_a] { env_a->Send(2, "after-close"); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // The survivor's loop still runs: a local frame gets through.
  survivor.PostTo(1, [env_a] { env_a->Send(1, "self"); });
  EXPECT_TRUE(WaitFor([&] { return a.received.load() == 2; }));
  survivor.Stop();
}

// Writes that reach a socket whose peer has gone: the first provokes the
// peer's RST, the next fails with EPIPE, which raises SIGPIPE (and ends the
// process) unless the send passes MSG_NOSIGNAL. Per-frame flushing
// (coalesced_io = false) writes inside Send, and the survivor's loop is held
// in one callback throughout, so the writes land before the loop can see
// the EOF and close the socket itself.
TEST(TcpPeerClose, WritesToClosedPeerDoNotRaiseSigpipe) {
  CountingActor a, b;
  AddressBook book;
  TcpRuntime survivor(&book, /*loop_threads=*/1, /*coalesced_io=*/false);
  Env* env_a = survivor.Register(1, &a);
  auto peer = std::make_unique<TcpRuntime>(&book);
  peer->Register(2, &b);
  survivor.Start();
  peer->Start();
  survivor.PostTo(1, [env_a] { env_a->Send(2, "ping"); });
  ASSERT_TRUE(WaitFor([&] { return b.received.load() == 1; }));

  std::atomic<bool> peer_gone{false};
  std::atomic<bool> sends_done{false};
  survivor.PostTo(1, [&] {
    while (!peer_gone.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (int i = 0; i < 4; ++i) {
      env_a->Send(2, "after-close");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));  // RST lands
    }
    sends_done.store(true);
  });
  peer.reset();
  peer_gone.store(true);
  ASSERT_TRUE(WaitFor([&] { return sends_done.load(); }));
  survivor.PostTo(1, [env_a] { env_a->Send(1, "self"); });
  EXPECT_TRUE(WaitFor([&] { return a.received.load() == 1; }));
  survivor.Stop();
}

// Adjacent links in the ring's segment chains whose two nodes sit on
// different loops: the chain hops and stable notifies that cross threads.
size_t CrossLoopLinks(const Ring& ring, const std::vector<uint32_t>& shard_of) {
  size_t cross = 0;
  for (const auto& chain : ring.SegmentChains()) {
    for (size_t i = 0; i + 1 < chain.size(); ++i) {
      cross += shard_of[chain[i]] != shard_of[chain[i + 1]] ? 1 : 0;
    }
  }
  return cross;
}

// The starting point of AssignShardsByRingOrder: nodes in order of first
// appearance in the segment chains, cut into `loops` contiguous blocks.
std::vector<uint32_t> BlockSplit(const Ring& ring, uint32_t num_nodes, uint32_t loops) {
  std::vector<NodeId> order;
  std::vector<bool> seen(num_nodes, false);
  for (const auto& chain : ring.SegmentChains()) {
    for (NodeId n : chain) {
      if (!seen[n]) {
        seen[n] = true;
        order.push_back(n);
      }
    }
  }
  std::vector<uint32_t> shard_of(num_nodes, 0);
  for (size_t i = 0; i < order.size(); ++i) {
    shard_of[order[i]] = static_cast<uint32_t>(i * loops / order.size());
  }
  return shard_of;
}

// Shard assignment: every loop gets floor(n/L) or ceil(n/L) nodes, the
// result is a pure function of the ring, and it never has more cross-loop
// chain links than the contiguous block split it starts from. With 16
// vnodes the blocks barely beat a random split, so at 8 nodes and 2 loops
// the swap search must find strictly fewer.
TEST(TcpTransportMultiLoop, ShardAssignmentCoversAllLoops) {
  for (uint32_t num_nodes : {3u, 5u, 8u, 12u}) {
    std::vector<NodeId> ids;
    for (NodeId n = 0; n < num_nodes; ++n) {
      ids.push_back(n);
    }
    const Ring ring(ids, 16, 3, 1);
    for (uint32_t loops : {1u, 2u, 3u, 4u}) {
      const auto shard_of = TcpCluster::AssignShardsByRingOrder(ring, num_nodes, loops);
      ASSERT_EQ(shard_of.size(), num_nodes);
      std::vector<uint32_t> nodes_per_loop(loops, 0);
      for (uint32_t s : shard_of) {
        ASSERT_LT(s, loops);
        ++nodes_per_loop[s];
      }
      for (uint32_t l = 0; l < loops; ++l) {
        EXPECT_GE(nodes_per_loop[l], num_nodes / loops)
            << "nodes=" << num_nodes << " loops=" << loops << " loop=" << l;
        EXPECT_LE(nodes_per_loop[l], (num_nodes + loops - 1) / loops)
            << "nodes=" << num_nodes << " loops=" << loops << " loop=" << l;
      }
      EXPECT_EQ(TcpCluster::AssignShardsByRingOrder(Ring(ids, 16, 3, 1), num_nodes, loops),
                shard_of)
          << "nodes=" << num_nodes << " loops=" << loops;
      EXPECT_LE(CrossLoopLinks(ring, shard_of),
                CrossLoopLinks(ring, BlockSplit(ring, num_nodes, loops)))
          << "nodes=" << num_nodes << " loops=" << loops;
    }
  }
  std::vector<NodeId> ids;
  for (NodeId n = 0; n < 8; ++n) {
    ids.push_back(n);
  }
  const Ring ring(ids, 16, 3, 1);
  EXPECT_LT(CrossLoopLinks(ring, TcpCluster::AssignShardsByRingOrder(ring, 8, 2)),
            CrossLoopLinks(ring, BlockSplit(ring, 8, 2)));
}

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// How long hand-offs to a loop waited, recorded from the loop threads.
struct WaitStats {
  void Add(int64_t waited_us) {
    int64_t seen = max_us.load();
    while (seen < waited_us && !max_us.compare_exchange_weak(seen, waited_us)) {
    }
    if (waited_us >= 10000) {
      slow.fetch_add(1);
    }
    count.fetch_add(1);
  }
  std::atomic<int64_t> max_us{0};
  std::atomic<int> slow{0};  // waits of 10 ms or more
  std::atomic<int> count{0};
};

// Receives frames stamped with their send time.
class StampingActor : public Actor {
 public:
  void OnMessage(Address, std::string_view payload) override {
    waits.Add(NowUs() - std::stoll(std::string(payload)));
  }
  WaitStats waits;
};

// Posts from another thread and frames from another loop reach a loop that
// is blocked in poll without waiting for the poll's 50 ms fallback timeout:
// the poster that finds the loop asleep writes its wake fd. The gaps let
// each loop go back to sleep before the next post, so every item meets a
// sleeping (or just-falling-asleep) loop. A lost wakeup leaves an item
// waiting out the rest of the poll, a share of 50 ms: no item may wait
// 50 ms, and at most a tenth of them 10 ms.
TEST(TcpTransportMultiLoop, IdleLoopWakesForPostsAndFrames) {
  MetricsRegistry metrics;
  StampingActor sender, receiver;
  AddressBook book;
  TcpRuntime runtime(&book, /*loop_threads=*/2);
  runtime.AttachMetrics(&metrics);
  Env* sender_env = runtime.Register(1, &sender, 0);
  runtime.Register(2, &receiver, 1);
  runtime.Start();

  constexpr int kItems = 200;
  WaitStats posts;
  for (int i = 0; i < kItems; ++i) {
    const int64_t posted = NowUs();
    runtime.PostToLoop(i % 2, [&posts, posted] { posts.Add(NowUs() - posted); });
    std::this_thread::sleep_for(std::chrono::microseconds(500 + 100 * (i % 7)));
    runtime.PostToLoop(0, [sender_env] { sender_env->Send(2, std::to_string(NowUs())); });
    std::this_thread::sleep_for(std::chrono::microseconds(500 + 100 * (i % 5)));
  }
  ASSERT_TRUE(WaitFor(
      [&] { return posts.count.load() == kItems && receiver.waits.count.load() == kItems; }));
  runtime.Stop();

  EXPECT_LT(posts.max_us.load(), 50000) << "a post waited for the poll timeout";
  EXPECT_LE(posts.slow.load(), kItems / 10);
  EXPECT_LT(receiver.waits.max_us.load(), 50000) << "a frame waited for the poll timeout";
  EXPECT_LE(receiver.waits.slow.load(), kItems / 10);
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.SumCounters("crx_net_cross_loop_frames"), kItems);
  EXPECT_GT(snap.SumCounters("crx_net_loop_wakes"), 0);
  EXPECT_LE(snap.SumCounters("crx_net_loop_wakes"), 3 * kItems) << "one wake per post at most";
}

// The protocol must behave identically when the node actors are spread
// across two event loops of one runtime: chains that span the loop
// boundary exercise the cross-loop post path (TSan covers this test).
TEST(TcpTransportMultiLoop, CrossLoopChainTraffic) {
  TcpCluster::Options opts;
  opts.num_nodes = 6;
  opts.loop_threads = 2;
  opts.num_clients = 1;
  opts.config.replication = 3;
  opts.config.k_stability = 2;
  opts.config.num_dcs = 1;
  opts.config.client_timeout = 2 * kSecond;
  TcpCluster cluster(opts);

  // The 3-replica chains over 6 nodes in 2 blocks necessarily include
  // chains spanning both loops.
  bool cross_loop = false;
  for (NodeId n = 0; n < 6; ++n) {
    if (cluster.shard_of_node(n) != cluster.shard_of_node(0)) {
      cross_loop = true;
    }
  }
  EXPECT_TRUE(cross_loop);

  SyncClient client(cluster.client(0), cluster.client_runtime());
  Version last;
  for (int i = 0; i < 40; ++i) {
    const Key key = "ml-" + std::to_string(i % 5);
    const Value value = "v-" + std::to_string(i);
    const auto put = client.Put(key, value);
    ASSERT_TRUE(put.status.ok()) << "op " << i;
    const auto get = client.Get(key);
    ASSERT_TRUE(get.status.ok());
    ASSERT_TRUE(get.found);
    EXPECT_EQ(get.value, value);
    if (i > 0) {
      EXPECT_TRUE(last.LwwLess(put.version)) << "versions must stay monotone per client";
    }
    last = put.version;
  }
}

// The runtime's hand-off instruments on a cross-loop chain run: frames
// handed from one server loop to the other are counted, and a loop is woken
// at most once per item handed to it (a running loop is not woken at all).
TEST(TcpTransportMultiLoop, CrossLoopHandOffIsCounted) {
  MetricsRegistry metrics;
  TcpCluster::Options opts;
  opts.num_nodes = 6;
  opts.loop_threads = 2;
  opts.num_clients = 2;
  opts.config.replication = 3;
  opts.config.k_stability = 2;
  opts.config.num_dcs = 1;
  opts.config.client_timeout = 2 * kSecond;
  opts.metrics = &metrics;
  TcpCluster cluster(opts);

  TcpCluster::LoadOptions load;
  load.duration = 200 * kMillisecond;
  load.value_size = 64;
  load.key_space = 64;
  load.pipeline = 2;
  const TcpCluster::LoadResult result = cluster.RunClosedLoop(load);
  EXPECT_GT(result.ops, 0u);
  EXPECT_EQ(result.failures, 0u);

  const MetricsSnapshot snap = metrics.Snapshot();
  const std::string server =
      "transport=tcp,port=" + std::to_string(cluster.server_runtime()->port());
  const int64_t frames = snap.Value("crx_net_cross_loop_frames", server);
  const int64_t wakes = snap.Value("crx_net_loop_wakes", server);
  EXPECT_GT(frames, 0);
  EXPECT_LE(wakes, frames);
}

// Per-turn ack coalescing over real sockets: a node sends the acks it
// produced for one client in one loop turn as one frame, a CrxPutAckBatch
// when there are two or more (crx_ack_batched counts the acks those frames
// carry). Pipelined sessions get some of their acks in batches; a batch
// must cover every outstanding put it acks (no lost completions).
TEST(TcpTransportMultiLoop, PipelinedPutsWithAckBatching) {
  MetricsRegistry metrics;
  TcpCluster::Options opts;
  opts.num_nodes = 6;
  opts.loop_threads = 2;
  opts.num_clients = 2;
  opts.config.replication = 3;
  opts.config.k_stability = 2;
  opts.config.num_dcs = 1;
  opts.config.client_timeout = 2 * kSecond;
  opts.metrics = &metrics;
  TcpCluster cluster(opts);

  TcpCluster::LoadOptions load;
  load.duration = 300 * kMillisecond;
  load.value_size = 64;
  load.key_space = 16;
  load.get_fraction = 0.0;
  load.pipeline = 8;
  const TcpCluster::LoadResult result = cluster.RunClosedLoop(load);
  EXPECT_GT(result.ops, 0u);
  EXPECT_EQ(result.failures, 0u) << "every pipelined put must be acked";
  EXPECT_GT(metrics.Snapshot().SumCounters("crx_ack_batched"), 0) << "no ack batch in 300 ms";
}

// A session with one put outstanding has at most one ack in flight, so
// every ack it gets is a plain CrxPutAck: nothing waits to be batched.
TEST(TcpTransportMultiLoop, SingleOutstandingPutsGetPlainAcks) {
  MetricsRegistry metrics;
  TcpCluster::Options opts;
  opts.num_nodes = 6;
  opts.loop_threads = 2;
  opts.num_clients = 4;
  opts.config.replication = 3;
  opts.config.k_stability = 2;
  opts.config.num_dcs = 1;
  opts.config.client_timeout = 2 * kSecond;
  opts.metrics = &metrics;
  TcpCluster cluster(opts);

  TcpCluster::LoadOptions load;
  load.duration = 200 * kMillisecond;
  load.value_size = 64;
  load.key_space = 16;
  load.get_fraction = 0.0;
  load.pipeline = 1;
  const TcpCluster::LoadResult result = cluster.RunClosedLoop(load);
  EXPECT_GT(result.ops, 0u);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(metrics.Snapshot().SumCounters("crx_ack_batched"), 0);
}

// Watermark dependency compression over real sockets: the varint frames
// must survive the coalesced writev/parser path, and the activity-gated
// watermark gossip (a periodic timer broadcasting to every ring peer from
// whichever loop thread owns the node) must not race the protocol handlers
// (TSan covers this test). Behavior must match explicit deps: zero
// failures, every value reads back.
TEST(TcpTransportMultiLoop, WatermarkUnderLoad) {
  TcpCluster::Options opts;
  opts.num_nodes = 6;
  opts.loop_threads = 2;
  opts.num_clients = 2;
  opts.config.replication = 3;
  opts.config.k_stability = 2;
  opts.config.num_dcs = 1;
  opts.config.client_timeout = 2 * kSecond;
  opts.config.dep_watermark = true;
  TcpCluster cluster(opts);

  TcpCluster::LoadOptions load;
  load.duration = 300 * kMillisecond;
  load.value_size = 64;
  load.key_space = 32;
  load.get_fraction = 0.3;
  load.pipeline = 4;
  const TcpCluster::LoadResult result = cluster.RunClosedLoop(load);
  EXPECT_GT(result.ops, 0u);
  EXPECT_EQ(result.failures, 0u);

  SyncClient client(cluster.client(0), cluster.client_runtime());
  for (int i = 0; i < 20; ++i) {
    const Key key = "wm-" + std::to_string(i % 4);
    const Value value = "v2-" + std::to_string(i);
    const auto put = client.Put(key, value);
    ASSERT_TRUE(put.status.ok()) << "op " << i;
    const auto get = client.Get(key);
    ASSERT_TRUE(get.status.ok());
    ASSERT_TRUE(get.found);
    EXPECT_EQ(get.value, value);
  }
}

// Elastic membership over TCP: a brand-new node boots in its own runtime
// while closed-loop load runs, its ports enter the shared address book, the
// coordinator streams its key ranges and flips the epoch — all without
// restarting any existing runtime. Afterwards the newcomer must hold data
// and every key written before the join must still read back correctly.
TEST(TcpElastic, JoinUnderLoadWithoutRestart) {
  TcpCluster::Options opts;
  opts.num_nodes = 5;
  opts.loop_threads = 2;
  opts.num_clients = 2;
  opts.elastic = true;
  opts.config.replication = 3;
  opts.config.k_stability = 2;
  opts.config.num_dcs = 1;
  opts.config.client_timeout = 2 * kSecond;
  opts.config.heartbeat_interval = 0;  // no FD: loopback "processes" don't crash
  TcpCluster cluster(opts);

  // Seed a known data set before the topology changes.
  SyncClient seeder(cluster.client(0), cluster.client_runtime());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(seeder.Put("pre-" + std::to_string(i), "v" + std::to_string(i)).status.ok());
  }

  // Kick off background load, then join a 6th node mid-run.
  std::thread admin([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    cluster.AddJoiningServer();
  });
  TcpCluster::LoadOptions load;
  load.duration = 600 * kMillisecond;
  load.value_size = 64;
  load.key_space = 64;
  load.get_fraction = 0.3;
  load.pipeline = 2;
  const TcpCluster::LoadResult result = cluster.RunClosedLoop(load);
  admin.join();
  EXPECT_GT(result.ops, 0u);
  EXPECT_EQ(result.failures, 0u) << "ops spanning the epoch flip must succeed";

  ASSERT_TRUE(cluster.WaitMigrationIdle());
  EXPECT_EQ(cluster.coordinator()->completed(), 1u);
  EXPECT_EQ(cluster.coordinator()->aborted(), 0u);
  EXPECT_EQ(cluster.coordinator()->observed_epoch(), 2u);
  ASSERT_EQ(cluster.num_nodes(), 6u);

  // The newcomer received migrated entries over real sockets.
  EXPECT_GT(cluster.node(5)->mig_entries_in(), 0u);
  EXPECT_GT(cluster.node(5)->store().KeyCount(), 0u);

  // Every pre-join key still reads back through the post-flip ring.
  SyncClient reader(cluster.client(1), cluster.client_runtime());
  for (int i = 0; i < 64; ++i) {
    const auto get = reader.Get("pre-" + std::to_string(i));
    ASSERT_TRUE(get.status.ok()) << "pre-" << i;
    ASSERT_TRUE(get.found) << "pre-" << i;
    EXPECT_EQ(get.value, "v" + std::to_string(i));
  }
}

}  // namespace
}  // namespace chainreaction
