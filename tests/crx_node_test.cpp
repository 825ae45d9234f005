// Protocol-level tests of the ChainReaction node and client library:
// k-stability acks, chain-index metadata evolution, read distribution,
// dependency gating, retry dedup, and the unsafe modes the checker must
// catch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/harness/cluster.h"
#include "src/harness/experiment.h"
#include "src/msg/message.h"
#include "src/sim/network.h"
#include "src/storage/checkpoint.h"
#include "src/ycsb/driver.h"

namespace chainreaction {
namespace {

ClusterOptions SmallCrx(uint32_t servers = 8, uint32_t clients = 2) {
  ClusterOptions opts;
  opts.system = SystemKind::kChainReaction;
  opts.servers_per_dc = servers;
  opts.clients_per_dc = clients;
  return opts;
}

TEST(CrxProtocol, AckArrivesFromPositionK) {
  for (uint32_t k = 1; k <= 3; ++k) {
    ClusterOptions opts = SmallCrx();
    opts.replication = 3;
    opts.k_stability = k;
    Cluster cluster(opts);
    ChainIndex acked_at = 0;
    cluster.crx_client(0)->Put("key", "v", [&](const ChainReactionClient::PutResult& r) {
      ASSERT_TRUE(r.status.ok());
      acked_at = 0;
      ChainIndex idx = 0;
      ASSERT_TRUE(cluster.crx_client(0)->LookupMetadata("key", nullptr, &idx));
      acked_at = idx;
    });
    cluster.sim()->Run();
    EXPECT_EQ(acked_at, k) << "k=" << k;
  }
}

TEST(CrxProtocol, StableReadExtendsChainIndexToR) {
  ClusterOptions opts = SmallCrx();
  opts.replication = 3;
  opts.k_stability = 1;
  Cluster cluster(opts);
  ChainReactionClient* client = cluster.crx_client(0);

  bool put_done = false;
  client->Put("key", "v", [&](const auto&) { put_done = true; });
  cluster.sim()->Run();
  ASSERT_TRUE(put_done);

  // The simulator drained: the write reached the tail and became stable.
  // The next read (from position 1, the only allowed one) reports
  // stability and drops the key's entry: with no entry the client may use
  // the whole chain afterwards.
  ChainIndex idx = 0;
  ASSERT_TRUE(client->LookupMetadata("key", nullptr, &idx));
  EXPECT_EQ(idx, 1u);

  bool read_done = false;
  client->Get("key", [&](const ChainReactionClient::GetResult& r) {
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.answered_by_position, 1u);
    read_done = true;
  });
  cluster.sim()->Run();
  ASSERT_TRUE(read_done);
  EXPECT_FALSE(client->LookupMetadata("key", nullptr, &idx));

  ChainIndex widest = 0;
  for (int i = 0; i < 30; ++i) {
    client->Get("key", [&](const ChainReactionClient::GetResult& r) {
      widest = std::max(widest, r.answered_by_position);
    });
    cluster.sim()->Run();
  }
  EXPECT_EQ(widest, 3u);
}

TEST(CrxProtocol, ReadsSpreadOverWholeChainForStableData) {
  ClusterOptions opts = SmallCrx(8, 1);
  opts.replication = 3;
  Cluster cluster(opts);
  ChainReactionClient* client = cluster.crx_client(0);

  bool done = false;
  client->Put("key", "v", [&](const auto&) { done = true; });
  cluster.sim()->Run();
  ASSERT_TRUE(done);

  // First read marks the key stable at the client; subsequent reads pick
  // uniformly among all three positions.
  std::set<ChainIndex> positions;
  for (int i = 0; i < 100; ++i) {
    client->Get("key", [&](const ChainReactionClient::GetResult& r) {
      positions.insert(r.answered_by_position);
    });
    cluster.sim()->Run();
  }
  EXPECT_EQ(positions.size(), 3u) << "reads were not distributed";
  const auto by_pos = cluster.ReadsByPosition();
  uint64_t total = 0;
  for (uint64_t c : by_pos) {
    total += c;
  }
  EXPECT_EQ(total, 100u);
}

TEST(CrxProtocol, HeadOnlyPolicyNeverLeavesPositionOne) {
  ClusterOptions opts = SmallCrx(8, 1);
  opts.read_policy = ReadPolicy::kHeadOnly;
  Cluster cluster(opts);
  ChainReactionClient* client = cluster.crx_client(0);
  bool done = false;
  client->Put("key", "v", [&](const auto&) { done = true; });
  cluster.sim()->Run();
  ASSERT_TRUE(done);
  for (int i = 0; i < 20; ++i) {
    client->Get("key", [&](const ChainReactionClient::GetResult& r) {
      EXPECT_EQ(r.answered_by_position, 1u);
    });
    cluster.sim()->Run();
  }
}

TEST(CrxProtocol, VersionsGrowPerKey) {
  Cluster cluster(SmallCrx());
  ChainReactionClient* client = cluster.crx_client(0);
  Version v1, v2;
  client->Put("key", "a", [&](const auto& r) { v1 = r.version; });
  cluster.sim()->Run();
  client->Put("key", "b", [&](const auto& r) { v2 = r.version; });
  cluster.sim()->Run();
  EXPECT_EQ(v1.vv.Get(0), 1u);
  EXPECT_EQ(v2.vv.Get(0), 2u);
  EXPECT_TRUE(v1.LwwLess(v2));
  EXPECT_TRUE(v2.CausallyIncludes(v1));
}

TEST(CrxProtocol, AccessedSetCollapsesAfterWrite) {
  Cluster cluster(SmallCrx());
  ChainReactionClient* client = cluster.crx_client(0);

  // Prepare three keys.
  for (const char* key : {"a", "b", "c"}) {
    bool done = false;
    client->Put(key, "v", [&](const auto&) { done = true; });
    cluster.sim()->Run();
    ASSERT_TRUE(done);
  }
  // After the last write the accessed set is just that key.
  EXPECT_EQ(client->accessed_set_size(), 1u);

  // Reads accumulate dependencies...
  for (const char* key : {"a", "b"}) {
    client->Get(key, [](const auto&) {});
    cluster.sim()->Run();
  }
  EXPECT_EQ(client->accessed_set_size(), 3u);  // c (written) + a + b

  // ...and the next write collapses them. In a single-DC deployment the
  // client omits dependencies it knows to be DC-Write-Stable (a and b were
  // read as stable after the simulator drained), so only the unread-since-
  // write entry for c is carried.
  std::vector<Dependency> carried;
  client->Put("d", "v", [&](const ChainReactionClient::PutResult& r) { carried = r.deps; });
  cluster.sim()->Run();
  ASSERT_EQ(carried.size(), 1u);
  EXPECT_EQ(carried[0].key, "c");
  EXPECT_EQ(client->accessed_set_size(), 1u);
}

TEST(CrxProtocol, GeoModeCarriesStableDepsWithFlag) {
  ClusterOptions opts = SmallCrx(6, 1);
  opts.num_dcs = 2;
  Cluster cluster(opts);
  ChainReactionClient* client = cluster.crx_client(0);

  bool done = false;
  client->Put("a", "v", [&](const auto&) { done = true; });
  cluster.sim()->Run();
  ASSERT_TRUE(done);
  client->Get("a", [](const auto&) {});  // learns stability
  cluster.sim()->Run();

  std::vector<Dependency> carried;
  client->Put("b", "v", [&](const ChainReactionClient::PutResult& r) { carried = r.deps; });
  cluster.sim()->Run();
  // With remote DCs the stable dependency must still travel (remote DCs
  // check it), but flagged so the local head skips the stability wait.
  ASSERT_EQ(carried.size(), 1u);
  EXPECT_EQ(carried[0].key, "a");
  EXPECT_TRUE(carried[0].local_stable);
}

TEST(CrxProtocol, DependencyGatingWaitsForSlowTail) {
  // Manual topology: find two keys with disjoint chains, make the dep
  // key's tail slow, and verify the dependent write waits for stability.
  ClusterOptions opts = SmallCrx(8, 1);
  opts.replication = 3;
  opts.k_stability = 1;  // ack as soon as the head applies
  // Slow down everything uniformly so the tail hop dominates.
  opts.server_service = ServiceModel{2000, 0.0, 0};  // 2ms per message
  Cluster cluster(opts);
  ChainReactionClient* client = cluster.crx_client(0);

  // Write the dependency key, then immediately write a second key. With
  // k=1 the ack for key1 arrives long before key1 reaches its tail, so the
  // write of key2 (which depends on key1) must be gated at key2's head.
  Time t_ack2 = 0;
  bool done2 = false;
  client->Put("key-one", "v1", [&](const auto&) {
    client->Put("key-two", "v2", [&](const auto&) {
      t_ack2 = cluster.sim()->Now();
      done2 = true;
    });
  });
  cluster.sim()->Run();
  ASSERT_TRUE(done2);

  // key-two depends on key-one, which cannot be DC-Write-Stable yet when
  // the put arrives (its chain needs several 2ms hops): the head must wait.
  EXPECT_GE(cluster.TotalDepWaits(), 1u);
  EXPECT_GT(cluster.TotalDepWaitMicros(), 0u);
  // Nothing may remain parked.
  for (uint32_t i = 0; i < opts.servers_per_dc; ++i) {
    EXPECT_EQ(cluster.crx_node(0, i)->gated_puts_pending(), 0u);
  }
}

TEST(CrxProtocol, SameKeyWriteBurstNotGated) {
  ClusterOptions opts = SmallCrx(8, 1);
  opts.k_stability = 1;
  Cluster cluster(opts);
  ChainReactionClient* client = cluster.crx_client(0);

  int remaining = 10;
  std::function<void()> next = [&]() {
    if (remaining-- == 0) {
      return;
    }
    client->Put("hot", "v", [&](const auto&) { next(); });
  };
  next();
  cluster.sim()->Run();
  // Same-chain dependencies never require a stability round trip.
  EXPECT_EQ(cluster.TotalDepWaits(), 0u);
}

TEST(CrxProtocol, RetriedPutIsDeduplicated) {
  // A raw actor impersonates a client that sends the same request twice
  // (as a timeout-retry would); the head must assign one version only.
  ClusterOptions opts = SmallCrx(8, 1);
  Cluster cluster(opts);

  class RawClient : public Actor {
   public:
    void OnMessage(Address, std::string_view payload) override {
      CrxPutAck ack;
      if (DecodeMessage(payload, &ack)) {
        acks.push_back(ack.version);
      }
    }
    std::vector<Version> acks;
  } raw;
  Env* env = cluster.net()->Register(kClientAddressBase + 999, &raw, 0);

  CrxPut put;
  put.req = 1;
  put.client = kClientAddressBase + 999;
  put.key = "dup-key";
  put.value = "v";
  // The head of dup-key's chain:
  const Ring& ring = cluster.membership(0)->ring();
  const NodeId head = ring.HeadFor("dup-key");
  env->Send(head, EncodeMessage(put));
  cluster.sim()->Run();
  env->Send(head, EncodeMessage(put));  // retry
  cluster.sim()->Run();

  ASSERT_EQ(raw.acks.size(), 2u);
  EXPECT_TRUE(raw.acks[0] == raw.acks[1]) << "retry produced a second version";
  // The store holds exactly one version.
  uint32_t idx = 0;
  for (; idx < opts.servers_per_dc; ++idx) {
    if (cluster.crx_node(0, idx)->id() == head) {
      break;
    }
  }
  EXPECT_EQ(cluster.crx_node(0, idx)->store().VersionCount("dup-key"), 1u);
}

TEST(CrxProtocol, RetryDedupWindowHoldsCapPuts) {
  // The head remembers the last kCompletedReqCap versioned requests: a
  // retry behind cap - 1 newer puts at the same head still gets the
  // original version, one behind cap newer puts is versioned as a new put.
  ClusterOptions opts = SmallCrx(8, 1);
  Cluster cluster(opts);

  const Address client = kClientAddressBase + 999;
  class RawClient : public Actor {
   public:
    void OnMessage(Address, std::string_view payload) override {
      CrxPutAck ack;
      if (DecodeMessage(payload, &ack) && ack.req == 1) {
        dup_acks.push_back(ack.version);
      }
    }
    std::vector<Version> dup_acks;
  } raw;
  Env* env = cluster.net()->Register(client, &raw, 0);

  const Ring& ring = cluster.membership(0)->ring();
  const NodeId head = ring.HeadFor("dup-key");
  // Other keys with the same head, so every newer put lands in its window.
  std::vector<Key> fillers;
  for (int i = 0; fillers.size() < 16; ++i) {
    Key key = "fill-" + std::to_string(i);
    if (ring.HeadFor(key) == head) {
      fillers.push_back(std::move(key));
    }
  }
  const auto send_put = [&](RequestId req, const Key& key) {
    CrxPut put;
    put.req = req;
    put.client = client;
    put.key = key;
    put.value = "v";
    env->Send(head, EncodeMessage(put));
  };
  constexpr size_t kCap = ChainReactionNode::kCompletedReqCap;

  send_put(1, "dup-key");
  cluster.sim()->Run();
  ASSERT_EQ(raw.dup_acks.size(), 1u);
  const Version original = raw.dup_acks[0];

  RequestId next_req = 2;
  for (size_t i = 0; i + 1 < kCap; ++i, ++next_req) {
    send_put(next_req, fillers[next_req % fillers.size()]);
  }
  cluster.sim()->Run();
  send_put(1, "dup-key");  // retry behind kCap - 1 newer puts
  cluster.sim()->Run();
  ASSERT_EQ(raw.dup_acks.size(), 2u);
  EXPECT_TRUE(raw.dup_acks[1] == original) << "retry inside the window got a new version";

  send_put(next_req, fillers[next_req % fillers.size()]);  // the kCap-th newer put
  cluster.sim()->Run();
  send_put(1, "dup-key");  // the original has left the window
  cluster.sim()->Run();
  ASSERT_EQ(raw.dup_acks.size(), 3u);
  EXPECT_FALSE(raw.dup_acks[2] == original) << "retry past the window was deduplicated";
  EXPECT_GT(raw.dup_acks[2].lamport, original.lamport);
}

TEST(CrxProtocol, UnsafeReadPolicyCaughtByChecker) {
  ClusterOptions opts = SmallCrx(8, 8);
  opts.read_policy = ReadPolicy::kAnyNodeUnsafe;
  // Long chains, slow links, and a hot key space widen the window between
  // a write's ack (position k=1) and its arrival at the tail, so unsafe
  // whole-chain reads observe causally stale data.
  opts.replication = 5;
  opts.k_stability = 1;
  opts.net.intra_site = LinkModel{800, 400};
  opts.server_service = ServiceModel{200, 0.1, 50};
  Cluster cluster(opts);

  RunOptions run;
  run.spec = WorkloadSpec::A(/*records=*/20, /*value_size=*/64);  // hot keys
  run.warmup = 100 * kMillisecond;
  run.measure = 3 * kSecond;
  run.attach_checker = true;
  const RunResult result = RunWorkload(&cluster, run);
  EXPECT_GT(result.checker_violations, 0u)
      << "the unsafe read policy should produce detectable violations";
}

TEST(CrxProtocol, SafePolicyCleanUnderSameConditions) {
  ClusterOptions opts = SmallCrx(8, 8);
  opts.net.intra_site = LinkModel{400, 200};
  opts.server_service = ServiceModel{50, 0.1, 10};
  Cluster cluster(opts);

  RunOptions run;
  run.spec = WorkloadSpec::A(/*records=*/50, /*value_size=*/64);
  run.warmup = 100 * kMillisecond;
  run.measure = 3 * kSecond;
  run.attach_checker = true;
  const RunResult result = RunWorkload(&cluster, run);
  EXPECT_EQ(result.checker_violations, 0u)
      << (result.checker_diagnostics.empty() ? "" : result.checker_diagnostics[0]);
}

TEST(CrxProtocol, ReplicationOneChain) {
  ClusterOptions opts = SmallCrx(4, 1);
  opts.replication = 1;
  opts.k_stability = 1;
  Cluster cluster(opts);
  ChainReactionClient* client = cluster.crx_client(0);
  bool done = false;
  client->Put("solo", "v", [&](const auto& r) {
    EXPECT_TRUE(r.status.ok());
    done = true;
  });
  cluster.sim()->Run();
  ASSERT_TRUE(done);
  bool read = false;
  client->Get("solo", [&](const ChainReactionClient::GetResult& r) {
    EXPECT_TRUE(r.found);
    EXPECT_TRUE(r.version.IsNull() == false);
    read = true;
  });
  cluster.sim()->Run();
  ASSERT_TRUE(read);
}

TEST(CrxProtocol, InterleavedSessionsSeeEachOther) {
  Cluster cluster(SmallCrx(8, 2));
  ChainReactionClient* a = cluster.crx_client(0);
  ChainReactionClient* b = cluster.crx_client(1);

  bool done = false;
  a->Put("shared", "from-a", [&](const auto&) { done = true; });
  cluster.sim()->Run();
  ASSERT_TRUE(done);

  Value seen;
  b->Get("shared", [&](const ChainReactionClient::GetResult& r) { seen = r.value; });
  cluster.sim()->Run();
  EXPECT_EQ(seen, "from-a");

  done = false;
  b->Put("shared", "from-b", [&](const auto&) { done = true; });
  cluster.sim()->Run();
  ASSERT_TRUE(done);

  a->Get("shared", [&](const ChainReactionClient::GetResult& r) { seen = r.value; });
  cluster.sim()->Run();
  EXPECT_EQ(seen, "from-b");
}

// ------------------------------ key records --------------------------------

// A record that holds no version (here: only the stability cache) is
// bookkeeping, not data: it never counts as a key, never reaches a key
// walk, and never reaches a checkpoint. It is erased once every slot is
// empty again.
TEST(CrxRecords, RecordWithoutVersionIsNotAKey) {
  VersionedStore store;
  Version v;
  v.vv = VersionVector(1);
  v.vv.Set(0, 1);
  v.lamport = 1;
  ASSERT_TRUE(store.Apply("data", "value", v));
  KeyRecord& empty = store.Claim("slots-only");
  empty.slots.stable_vv.MergeMax(v.vv);

  EXPECT_EQ(store.KeyCount(), 1u);
  EXPECT_EQ(store.RecordCount(), 2u);
  EXPECT_EQ(store.Latest("slots-only"), nullptr);
  std::vector<Key> walked;
  store.ForEachKey([&walked](const Key& key, const StoredVersion&) { walked.push_back(key); });
  EXPECT_EQ(walked, std::vector<Key>{"data"});
  size_t versions = 0;
  store.ForEachVersion([&versions](const Key&, const StoredVersion&) { versions++; });
  EXPECT_EQ(versions, 1u);

  const std::string path = ::testing::TempDir() + "crx_record_checkpoint_" +
                           std::to_string(reinterpret_cast<uintptr_t>(&store));
  ASSERT_TRUE(SaveCheckpoint(store, path).ok());
  VersionedStore loaded;
  ASSERT_TRUE(LoadCheckpoint(path, &loaded).ok());
  std::remove(path.c_str());
  EXPECT_EQ(loaded.KeyCount(), 1u);
  EXPECT_EQ(loaded.RecordCount(), 1u);
  EXPECT_EQ(loaded.Lookup("slots-only"), nullptr);

  // Erased only once every slot is empty; a record with a version stays.
  EXPECT_FALSE(store.ReleaseIfEmpty(&empty));
  empty.slots.stable_vv = VersionVector();
  EXPECT_TRUE(store.ReleaseIfEmpty(&empty));
  EXPECT_EQ(store.RecordCount(), 1u);
  EXPECT_FALSE(store.ReleaseIfEmpty(store.Lookup("data")));
}

// Runs the simulator in 1 ms slices until every node of `cluster` (indexes
// below `count`) has left `epoch`, and checks each node right at its flip:
// no key whose head moved away from it keeps an unstable-head slot there.
// Checking at the flip, not later, keeps anti-entropy (which drops a stale
// slot on its next round) from hiding a slot the epoch change left behind.
// Returns how many (node, key) head moves it checked.
size_t CheckHeadSlotsAtFlip(Cluster* cluster, uint32_t count, uint64_t epoch,
                            const Ring& ring_before, int records) {
  size_t moved = 0;
  std::vector<bool> flipped(count, false);
  for (int slice = 0; slice < 10000; ++slice) {
    bool all = true;
    for (uint32_t idx = 0; idx < count; ++idx) {
      const ChainReactionNode* node = cluster->crx_node(0, idx);
      if (flipped[idx] || node->epoch() == epoch) {
        all = all && flipped[idx];
        continue;
      }
      flipped[idx] = true;
      const NodeId addr = cluster->ServerAddress(0, idx);
      const Ring& ring_now = cluster->membership(0)->ring();
      for (int i = 0; i < records; ++i) {
        const Key key = RecordKey(static_cast<uint64_t>(i));
        if (ring_before.HeadFor(key) != addr ||
            (ring_now.Contains(addr) && ring_now.HeadFor(key) == addr)) {
          continue;
        }
        moved++;
        if (const KeyRecord* rec = node->store().Lookup(key)) {
          EXPECT_EQ(rec->slots.unstable_head, 0u) << key << " on node " << idx;
        }
      }
    }
    if (all) {
      break;
    }
    cluster->sim()->RunUntil(cluster->sim()->Now() + 1 * kMillisecond);
  }
  return moved;
}

// Keys whose chain moves away from a node (a join, then a drain, under a
// write load) leave that node no unstable-head slot at the flip, and, once
// the load has settled, no pending stability notify and no record without
// a version.
TEST(CrxRecords, ChainMoveLeavesNoSlotBehind) {
  ClusterOptions opts = SmallCrx(8, 3);
  opts.heartbeat_interval = 50 * kMillisecond;
  opts.seed = 19;
  Cluster cluster(opts);
  constexpr int kRecords = 200;
  cluster.Preload(kRecords, 64);

  StatsCollector stats;
  uint64_t insert_counter = kRecords;
  std::vector<std::unique_ptr<WorkloadDriver>> drivers;
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    drivers.push_back(std::make_unique<WorkloadDriver>(
        cluster.client(i), cluster.client_env(i), WorkloadSpec::A(kRecords, 64), 500 + i,
        &insert_counter, &stats));
    drivers.back()->Start();
  }
  cluster.sim()->RunUntil(cluster.sim()->Now() + 200 * kMillisecond);

  size_t moved = 0;
  Ring ring_before = cluster.membership(0)->ring();
  uint32_t joined = 0;
  ASSERT_NE(cluster.AddJoiningServer(0, &joined), 0u);
  moved += CheckHeadSlotsAtFlip(&cluster, joined, ring_before.epoch(), ring_before, kRecords);
  ASSERT_TRUE(cluster.WaitMigrationIdle(0));
  cluster.sim()->RunUntil(cluster.sim()->Now() + 100 * kMillisecond);
  ring_before = cluster.membership(0)->ring();
  ASSERT_NE(cluster.DrainServer(0, 2), 0u);
  moved += CheckHeadSlotsAtFlip(&cluster, joined + 1, ring_before.epoch(), ring_before, kRecords);
  ASSERT_TRUE(cluster.WaitMigrationIdle(0));
  EXPECT_GT(moved, 0u);
  cluster.sim()->RunUntil(cluster.sim()->Now() + 100 * kMillisecond);
  for (auto& d : drivers) {
    d->Stop();
  }
  cluster.sim()->RunUntil(cluster.sim()->Now() + 1 * kSecond);
  EXPECT_EQ(cluster.coordinator(0)->completed(), 2u);

  for (uint32_t idx = 0; idx <= joined; ++idx) {
    const ChainReactionNode* node = cluster.crx_node(0, idx);
    EXPECT_EQ(node->unstable_head_keys_count(), 0u) << "node " << idx;
    EXPECT_EQ(node->stable_notifies_pending(), 0u) << "node " << idx;
    EXPECT_EQ(node->store().RecordCount(), node->store().KeyCount()) << "node " << idx;
  }
}

// An Env whose zero-delay timers wait until the test ends the turn (other
// timers never fire), and which records every frame sent: the test decides
// which frames one loop turn handles.
class TurnEnv : public Env {
 public:
  struct Frame {
    Address dst;
    std::string bytes;
  };

  Time Now() override { return 1000; }
  void Send(Address dst, Payload payload) override {
    sent.push_back(Frame{dst, std::string(payload.view())});
  }
  uint64_t Schedule(Duration delay, std::function<void()> fn) override {
    if (delay == 0) {
      end_of_turn.push_back(std::move(fn));
    }
    return ++timers;
  }
  void CancelTimer(uint64_t) override {}

  void EndTurn() {
    std::vector<std::function<void()>> due;
    due.swap(end_of_turn);
    for (auto& fn : due) {
      fn();
    }
  }
  // The frames sent so far to `dst` of message type `type`.
  std::vector<std::string> Sent(Address dst, MsgType type) const {
    std::vector<std::string> out;
    for (const Frame& f : sent) {
      if (f.dst == dst && PeekType(f.bytes) == type) {
        out.push_back(f.bytes);
      }
    }
    return out;
  }

  std::vector<std::function<void()>> end_of_turn;
  std::vector<Frame> sent;
  uint64_t timers = 0;
};

Version MakeVersion(uint64_t dc0, uint64_t dc1, uint64_t lamport, DcId origin) {
  Version v;
  v.vv = VersionVector(2);
  v.vv.Set(0, dc0);
  v.vv.Set(1, dc1);
  v.lamport = lamport;
  v.origin = origin;
  return v;
}

std::string ChainPutFrame(const Ring& ring, const Version& version, Address client,
                          RequestId req, ChainIndex ack_at) {
  CrxChainPut m;
  m.key = "k";
  m.value = "v" + std::to_string(version.lamport);
  m.version = version;
  m.client = client;
  m.req = req;
  m.ack_at = ack_at;
  m.epoch = ring.epoch();
  return EncodeMessage(m);
}

CrxConfig TurnConfig() {
  CrxConfig cfg;
  cfg.num_dcs = 2;
  cfg.dep_watermark = false;
  return cfg;
}

// A tail that stabilizes several versions of one key in one turn, two of
// them concurrent, sends one CrxStableNotify for the key at the end of the
// turn, and that notify dominates every one of them.
TEST(CrxTurnFlush, TailSendsOneDominatingNotifyPerKeyPerTurn) {
  const Ring ring({0, 1, 2}, 16, 3, 1);
  const std::vector<NodeId>& chain = ring.ChainFor("k");
  ChainReactionNode tail(chain[2], TurnConfig(), ring);
  TurnEnv env;
  tail.AttachEnv(&env);

  const Version versions[] = {MakeVersion(1, 0, 1, 0), MakeVersion(2, 0, 2, 0),
                              MakeVersion(0, 1, 3, 1)};
  for (const Version& v : versions) {
    tail.OnMessage(chain[1], ChainPutFrame(ring, v, 0, 0, 0));
  }
  EXPECT_EQ(env.end_of_turn.size(), 1u) << "one flush armed per turn";
  EXPECT_EQ(tail.stable_notifies_pending(), 1u);
  EXPECT_TRUE(env.Sent(chain[1], MsgType::kCrxStableNotify).empty()) << "sent before turn end";

  env.EndTurn();
  EXPECT_EQ(tail.stable_notifies_pending(), 0u);
  std::vector<std::string> notifies = env.Sent(chain[1], MsgType::kCrxStableNotify);
  ASSERT_EQ(notifies.size(), 1u);
  CrxStableNotify notify;
  ASSERT_TRUE(DecodeMessage(notifies[0], &notify));
  EXPECT_EQ(notify.key, "k");
  for (const Version& v : versions) {
    EXPECT_TRUE(notify.version.vv.Dominates(v.vv)) << v.ToString();
    EXPECT_GE(notify.version.lamport, v.lamport);
  }

  // The next turn arms its own flush.
  env.sent.clear();
  tail.OnMessage(chain[1], ChainPutFrame(ring, MakeVersion(3, 1, 4, 0), 0, 0, 0));
  EXPECT_EQ(env.end_of_turn.size(), 1u);
  env.EndTurn();
  notifies = env.Sent(chain[1], MsgType::kCrxStableNotify);
  ASSERT_EQ(notifies.size(), 1u);
  ASSERT_TRUE(DecodeMessage(notifies[0], &notify));
  EXPECT_EQ(notify.version.lamport, 4u);
}

// The node at position k sends the acks it produced for one client in one
// turn as one frame: a lone ack as a plain CrxPutAck, two or more as one
// CrxPutAckBatch in ack order.
TEST(CrxTurnFlush, AcksForOneClientShareOneFramePerTurn) {
  const Ring ring({0, 1, 2}, 16, 3, 1);
  const std::vector<NodeId>& chain = ring.ChainFor("k");
  ChainReactionNode middle(chain[1], TurnConfig(), ring);
  TurnEnv env;
  middle.AttachEnv(&env);
  const Address client = kClientAddressBase + 1;
  const Address other = kClientAddressBase + 2;

  for (uint64_t req = 1; req <= 3; ++req) {
    middle.OnMessage(chain[0], ChainPutFrame(ring, MakeVersion(req, 0, req, 0), client, req, 2));
  }
  middle.OnMessage(chain[0], ChainPutFrame(ring, MakeVersion(4, 0, 4, 0), other, 9, 2));
  EXPECT_EQ(env.end_of_turn.size(), 1u);
  EXPECT_TRUE(env.Sent(client, MsgType::kCrxPutAckBatch).empty());
  env.EndTurn();
  EXPECT_TRUE(env.Sent(client, MsgType::kCrxPutAck).empty());
  const std::vector<std::string> batches = env.Sent(client, MsgType::kCrxPutAckBatch);
  ASSERT_EQ(batches.size(), 1u);
  CrxPutAckBatch batch;
  ASSERT_TRUE(DecodeMessage(batches[0], &batch));
  ASSERT_EQ(batch.acks.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(batch.acks[i].req, i + 1);
    EXPECT_EQ(batch.acks[i].acked_at, 2u);
  }
  std::vector<std::string> plain = env.Sent(other, MsgType::kCrxPutAck);
  ASSERT_EQ(plain.size(), 1u);
  CrxPutAck ack;
  ASSERT_TRUE(DecodeMessage(plain[0], &ack));
  EXPECT_EQ(ack.req, 9u);

  // A lone ack in a later turn is a plain CrxPutAck, even for a client
  // that got a batch before.
  env.sent.clear();
  middle.OnMessage(chain[0], ChainPutFrame(ring, MakeVersion(5, 0, 5, 0), client, 4, 2));
  env.EndTurn();
  EXPECT_TRUE(env.Sent(client, MsgType::kCrxPutAckBatch).empty());
  plain = env.Sent(client, MsgType::kCrxPutAck);
  ASSERT_EQ(plain.size(), 1u);
  ASSERT_TRUE(DecodeMessage(plain[0], &ack));
  EXPECT_EQ(ack.req, 4u);
}

std::string WatermarkFrame(NodeId node, uint64_t epoch, uint64_t cut) {
  CrxWatermark m;
  m.node = node;
  m.epoch = epoch;
  m.cut = cut;
  return EncodeMessage(m);
}

CrxConfig WatermarkConfig() {
  CrxConfig cfg;
  cfg.dep_watermark = true;
  return cfg;
}

// W is the minimum over every ring peer's learned cut; while any peer's cut
// is unknown, W stays 0. A cut from a node outside the ring counts for
// nothing, and a lower later cut from the same peer does not lower it.
TEST(CrxWatermarkCuts, UnknownPeerHoldsWatermarkAtZero) {
  const Ring ring({0, 1, 2}, 16, 3, 1);
  ChainReactionNode node(0, WatermarkConfig(), ring);
  TurnEnv env;
  node.AttachEnv(&env);
  ASSERT_EQ(node.StableCut(), 999u);  // TurnEnv's clock cap: Now() - 1

  EXPECT_EQ(node.ClusterWatermark(), 0u);
  node.OnMessage(1, WatermarkFrame(1, 1, 500));
  node.OnMessage(7, WatermarkFrame(7, 1, 800));
  EXPECT_EQ(node.ClusterWatermark(), 0u) << "node 2's cut is still unknown";
  node.OnMessage(2, WatermarkFrame(2, 1, 700));
  EXPECT_EQ(node.ClusterWatermark(), 500u);
  node.OnMessage(1, WatermarkFrame(1, 1, 300));
  EXPECT_EQ(node.ClusterWatermark(), 500u) << "cuts only grow";
  node.OnMessage(1, WatermarkFrame(1, 1, 2000));
  EXPECT_EQ(node.ClusterWatermark(), 700u);
  node.OnMessage(2, WatermarkFrame(2, 1, 5000));
  EXPECT_EQ(node.ClusterWatermark(), 999u) << "the node's own cut caps W";
}

// Cuts are epoch-scoped: an epoch change forgets every peer's cut (W drops
// to 0 until each peer reports again), and a cut sent for the old epoch is
// ignored.
TEST(CrxWatermarkCuts, EpochChangeResetsEveryCut) {
  const Ring ring({0, 1, 2}, 16, 3, 1);
  ChainReactionNode node(0, WatermarkConfig(), ring);
  TurnEnv env;
  node.AttachEnv(&env);
  node.OnMessage(1, WatermarkFrame(1, 1, 500));
  node.OnMessage(2, WatermarkFrame(2, 1, 700));
  ASSERT_EQ(node.ClusterWatermark(), 500u);

  MemNewMembership change;
  change.epoch = 2;
  change.nodes = {0, 1, 2};
  node.OnMessage(kServiceAddressBase, EncodeMessage(change));
  EXPECT_EQ(node.ClusterWatermark(), 0u);
  node.OnMessage(1, WatermarkFrame(1, 1, 600));
  node.OnMessage(2, WatermarkFrame(2, 1, 600));
  EXPECT_EQ(node.ClusterWatermark(), 0u) << "epoch-1 cuts after the change";
  node.OnMessage(1, WatermarkFrame(1, 2, 400));
  EXPECT_EQ(node.ClusterWatermark(), 0u);
  node.OnMessage(2, WatermarkFrame(2, 2, 450));
  EXPECT_EQ(node.ClusterWatermark(), 400u);
}

}  // namespace
}  // namespace chainreaction
