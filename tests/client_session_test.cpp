// Focused unit tests of the client library's session-state rules: metadata
// update precedence, metadata sweeps under the watermark, accessed-set
// stability tracking, retries, and determinism of whole-cluster runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "src/common/flags.h"
#include "src/harness/cluster.h"
#include "src/harness/experiment.h"

namespace chainreaction {
namespace {

ClusterOptions Small(uint64_t seed = 1) {
  ClusterOptions opts;
  opts.system = SystemKind::kChainReaction;
  opts.servers_per_dc = 8;
  opts.clients_per_dc = 2;
  opts.seed = seed;
  return opts;
}

// Runs the simulator until `done` turns true (not to quiescence), so a
// read can land while the last write is still unstable.
void RunUntilDone(Cluster* cluster, const bool& done) {
  while (!done) {
    cluster->sim()->RunUntil(cluster->sim()->Now() + 10);
  }
}

// A reply never narrows the prefix a session knows for the same version.
// A reply that reports the version DC-Write-Stable drops the entry, and
// later replies of that version, from any position, do not bring it back:
// a key with no entry is read from any chain node.
TEST(ClientSession, MetadataNeverShrinksForSameVersion) {
  Cluster cluster(Small());
  ChainReactionClient* client = cluster.crx_client(0);
  const ChainIndex k = cluster.options().k_stability;
  ASSERT_LT(k, cluster.options().replication);

  bool done = false;
  client->Put("k", "v", [&](const auto&) { done = true; });
  RunUntilDone(&cluster, done);
  ChainIndex idx = 0;
  ASSERT_TRUE(client->LookupMetadata("k", nullptr, &idx));
  ASSERT_EQ(idx, k);

  // Read before the tail's stability notify is back: the reply (from a
  // position <= k) carries the unstable version and must leave the index
  // at k.
  done = false;
  client->Get("k", [&](const auto&) { done = true; });
  RunUntilDone(&cluster, done);
  ASSERT_TRUE(client->LookupMetadata("k", nullptr, &idx));
  EXPECT_EQ(idx, k);

  // Once the write is stable, the first reply drops the entry for good.
  cluster.sim()->Run();
  std::set<ChainIndex> positions;
  for (int i = 0; i < 20; ++i) {
    client->Get("k", [&](const ChainReactionClient::GetResult& r) {
      positions.insert(r.answered_by_position);
    });
    cluster.sim()->Run();
    EXPECT_FALSE(client->LookupMetadata("k", nullptr, nullptr)) << "iteration " << i;
  }
  EXPECT_GT(positions.size(), 1u) << "reads never left the known prefix";
}

// A newer version replaces an older entry; once the newest version is
// DC-Write-Stable, a reply of it drops the entry instead of recording it.
// Head-only reads make every mid-flight reply carry the newest version
// while it is still unstable.
TEST(ClientSession, NewerVersionReplacesMetadata) {
  ClusterOptions opts = Small();
  opts.read_policy = ReadPolicy::kHeadOnly;
  Cluster cluster(opts);
  ChainReactionClient* a = cluster.crx_client(0);
  ChainReactionClient* b = cluster.crx_client(1);

  const auto write_then_read = [&](const std::string& value, Version* seen) {
    bool done = false;
    a->Put("k", value, [&](const auto&) { done = true; });
    RunUntilDone(&cluster, done);
    done = false;
    b->Get("k", [&](const auto&) { done = true; });
    RunUntilDone(&cluster, done);
    ChainIndex idx = 0;
    ASSERT_TRUE(b->LookupMetadata("k", seen, &idx));
    EXPECT_EQ(idx, 1u);
  };
  Version v1;
  write_then_read("v1", &v1);
  Version v2;
  write_then_read("v2", &v2);
  EXPECT_TRUE(v1.LwwLess(v2));
  EXPECT_TRUE(v2.CausallyIncludes(v1));

  cluster.sim()->Run();
  bool done = false;
  Version read;
  b->Get("k", [&](const ChainReactionClient::GetResult& r) {
    read = r.version;
    done = true;
  });
  cluster.sim()->Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(read, v2);
  EXPECT_FALSE(b->LookupMetadata("k", nullptr, nullptr));
}

TEST(ClientSession, ResetForgetsEverything) {
  Cluster cluster(Small());
  ChainReactionClient* client = cluster.crx_client(0);
  bool done = false;
  client->Put("k", "v", [&](const auto&) { done = true; });
  cluster.sim()->Run();
  ASSERT_TRUE(done);
  EXPECT_GT(client->metadata_entries(), 0u);
  EXPECT_GT(client->accessed_set_size(), 0u);
  client->ResetSession();
  EXPECT_EQ(client->metadata_entries(), 0u);
  EXPECT_EQ(client->accessed_set_size(), 0u);
}

// AccessedSetBytes() reports what the accessed set costs on the wire. With
// two DCs and no watermark no dependency is dropped, so it must equal the
// bytes the dependency list adds to the encoded CrxPut.
TEST(ClientSession, AccessedSetBytesMatchEncodedDeps) {
  ClusterOptions opts = Small();
  opts.num_dcs = 2;
  opts.dep_watermark = false;  // explicit dependency lists: nothing is covered
  Cluster cluster(opts);
  cluster.Preload(64, 16);
  ChainReactionClient* client = cluster.crx_client(0);
  for (int i = 0; i < 12; ++i) {
    client->Get(RecordKey(static_cast<uint64_t>(i) * 5), [](const auto&) {});
    cluster.sim()->Run();
  }
  const size_t entries = client->accessed_set_size();
  const size_t bytes = client->AccessedSetBytes();
  ASSERT_GE(entries, 12u);

  std::vector<Dependency> sent;
  client->Put("sink", "v", [&](const ChainReactionClient::PutResult& r) { sent = r.deps; });
  cluster.sim()->Run();
  ASSERT_EQ(sent.size(), entries) << "a dependency was dropped";
  CrxPut with_deps;
  with_deps.key = "sink";
  with_deps.deps = sent;
  CrxPut without_deps;
  without_deps.key = "sink";
  EXPECT_EQ(bytes, EncodeMessage(with_deps).size() - EncodeMessage(without_deps).size());
}

TEST(ClientSession, RetryOnLostAckIsTransparent) {
  ClusterOptions opts = Small(5);
  opts.client_timeout = 20 * kMillisecond;
  Cluster cluster(opts);
  ChainReactionClient* client = cluster.crx_client(0);

  // First write pins down the chain so we can intercept the acking node.
  bool done = false;
  client->Put("probe", "v0", [&](const auto&) { done = true; });
  cluster.sim()->Run();
  ASSERT_TRUE(done);

  // Crash-and-restore the whole cluster's links briefly right as the next
  // write's ack would flow: simplest deterministic loss is a short global
  // crash of the client itself... instead, drop everything via the network
  // for a moment after issuing the put.
  int acks = 0;
  client->Put("probe", "v1", [&](const ChainReactionClient::PutResult& r) {
    EXPECT_TRUE(r.status.ok());
    acks++;
  });
  // Let the put reach the head, then sever the client for one timeout.
  cluster.sim()->RunUntil(cluster.sim()->Now() + 150);
  cluster.net()->Crash(client->address());
  cluster.sim()->RunUntil(cluster.sim()->Now() + 5 * kMillisecond);
  cluster.net()->Restore(client->address());
  cluster.sim()->Run();

  EXPECT_EQ(acks, 1) << "exactly one completion despite retries";
  EXPECT_GE(client->retries(), 1u);

  // The retried write must not have created a second version.
  bool read_done = false;
  client->Get("probe", [&](const ChainReactionClient::GetResult& r) {
    EXPECT_EQ(r.value, "v1");
    EXPECT_EQ(r.version.vv.Get(0), 2u) << "duplicate version assigned on retry";
    read_done = true;
  });
  cluster.sim()->Run();
  ASSERT_TRUE(read_done);
}

TEST(ClientSession, WholeClusterRunsAreDeterministic) {
  auto fingerprint = [](uint64_t seed) {
    ClusterOptions opts;
    opts.system = SystemKind::kChainReaction;
    opts.servers_per_dc = 8;
    opts.clients_per_dc = 4;
    opts.seed = seed;
    Cluster cluster(opts);
    RunOptions run;
    run.spec = WorkloadSpec::A(150, 64);
    run.warmup = 100 * kMillisecond;
    run.measure = 1 * kSecond;
    const RunResult r = RunWorkload(&cluster, run);
    return std::make_tuple(r.stats.TotalOps(), r.stats.read_latency.max(),
                           r.stats.write_latency.max(),
                           cluster.sim()->events_executed());
  };
  EXPECT_EQ(fingerprint(42), fingerprint(42));
  EXPECT_NE(fingerprint(42), fingerprint(43));
}

// Writes `n` distinct keys back to back from one session (each put issued
// from the previous one's callback) and returns the largest metadata map
// the session held along the way.
size_t WriteDistinctKeys(Cluster* cluster, ChainReactionClient* client, int n) {
  size_t peak = 0;
  int next = 0;
  std::function<void()> put_next = [&]() {
    peak = std::max(peak, client->metadata_entries());
    if (next == n) {
      return;
    }
    client->Put("distinct-" + std::to_string(next++), "v", [&](const auto&) { put_next(); });
  };
  put_next();
  cluster->sim()->Run();
  EXPECT_EQ(next, n);
  return peak;
}

// With the watermark on (the default) a session forgets metadata the
// watermark proves DC-Write-Stable, so its map stays near the unstable
// window however many keys it writes. Explicit mode keeps one entry per
// written key: a k=2 ack never says the write became stable.
TEST(ClientSession, MetadataBoundedByWatermark) {
  Cluster cluster(Small());
  ChainReactionClient* client = cluster.crx_client(0);
  const size_t peak = WriteDistinctKeys(&cluster, client, 2000);
  EXPECT_LE(peak, 128u);
  EXPECT_LE(client->metadata_entries(), 128u);

  ClusterOptions explicit_opts = Small();
  explicit_opts.dep_watermark = false;
  Cluster explicit_cluster(explicit_opts);
  ChainReactionClient* explicit_client = explicit_cluster.crx_client(0);
  WriteDistinctKeys(&explicit_cluster, explicit_client, 2000);
  EXPECT_EQ(explicit_client->metadata_entries(), 2000u);
}

// The watermark speaks only for the local DC: a remote-origin version the
// session read before it was DC-Write-Stable here keeps its entry through
// every sweep, even once the local watermark's lamport has passed it.
TEST(ClientSession, RemoteOriginMetadataNotDroppedByWatermark) {
  ClusterOptions opts = Small(3);
  opts.num_dcs = 2;
  Cluster cluster(opts);
  ChainReactionClient* reader = cluster.crx_client(0);  // DC 0
  ChainReactionClient* remote_writer = cluster.crx_client(opts.clients_per_dc);  // DC 1
  ASSERT_EQ(cluster.client_dc(opts.clients_per_dc), 1);
  const ChainIndex r = opts.replication;

  constexpr int kKeys = 200;
  int written = 0;
  std::function<void()> put_next = [&]() {
    if (written < kKeys) {
      remote_writer->Put("geo-" + std::to_string(written++), "v",
                         [&](const auto&) { put_next(); });
    }
  };
  put_next();

  // Poll each remote key from DC 0 until a reply carries the DC-1 version.
  // Replies served before the version stabilized here leave an entry with
  // chain_index < R; those are the entries under test (a stable reply
  // leaves none). Each key is read only until its first DC-1 reply, so no
  // later stable reply drops it.
  std::map<Key, Version> unstable_remote;
  for (int i = 0; i < kKeys; ++i) {
    const Key key = "geo-" + std::to_string(i);
    for (int attempt = 0; attempt < 400; ++attempt) {
      bool done = false;
      DcId origin = 0;
      reader->Get(key, [&](const ChainReactionClient::GetResult& res) {
        origin = res.found ? res.version.origin : 0;
        done = true;
      });
      while (!done) {
        cluster.sim()->RunUntil(cluster.sim()->Now() + 50);
      }
      if (origin == 1) {
        Version v;
        ChainIndex idx = 0;
        if (reader->LookupMetadata(key, &v, &idx) && idx < r) {
          unstable_remote[key] = v;
        }
        break;
      }
    }
  }
  cluster.sim()->Run();
  ASSERT_FALSE(unstable_remote.empty()) << "no read caught a remote version mid-chain";

  // Local writes move the watermark past the remote lamports and drive
  // several sweeps (each one drops the covered local entries).
  WriteDistinctKeys(&cluster, reader, 300);
  EXPECT_LE(reader->metadata_entries(), 128u + unstable_remote.size());
  for (const auto& [key, version] : unstable_remote) {
    ASSERT_GE(reader->watermark(), version.lamport) << "watermark never passed " << key;
    Version kept;
    EXPECT_TRUE(reader->LookupMetadata(key, &kept, nullptr)) << "dropped " << key;
    EXPECT_EQ(kept, version) << key;
  }
}

// ------------------------------ flags util ---------------------------------

TEST(Flags, ParsesFormsAndRejectsUnknown) {
  Flags flags;
  const char* argv[] = {"prog", "--alpha", "7", "--beta=hello", "--gamma"};
  ASSERT_TRUE(flags.Parse(5, const_cast<char**>(argv), {"alpha", "beta", "gamma"}));
  EXPECT_EQ(flags.GetInt("alpha", 0), 7);
  EXPECT_EQ(flags.GetString("beta", ""), "hello");
  EXPECT_TRUE(flags.GetBool("gamma", false));
  EXPECT_EQ(flags.GetInt("missing", 9), 9);
  EXPECT_FALSE(flags.Has("missing"));

  Flags bad;
  const char* argv2[] = {"prog", "--nope", "1"};
  EXPECT_FALSE(bad.Parse(3, const_cast<char**>(argv2), {"alpha"}));

  Flags positional;
  const char* argv3[] = {"prog", "stray"};
  EXPECT_FALSE(positional.Parse(2, const_cast<char**>(argv3), {"alpha"}));
}

TEST(Flags, DoubleAndDefaults) {
  Flags flags;
  const char* argv[] = {"prog", "--rate=0.25"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv), {"rate"}));
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0), 0.25);
  EXPECT_DOUBLE_EQ(flags.GetDouble("other", 1.5), 1.5);
}

}  // namespace
}  // namespace chainreaction
