// Focused unit tests of the client library's session-state rules: metadata
// update precedence, accessed-set stability tracking, retries, and
// determinism of whole-cluster runs.
#include <gtest/gtest.h>

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

TEST(ClientSession, MetadataNeverShrinksForSameVersion) {
  Cluster cluster(Small());
  ChainReactionClient* client = cluster.crx_client(0);

  bool done = false;
  client->Put("k", "v", [&](const auto&) { done = true; });
  cluster.sim()->Run();
  ASSERT_TRUE(done);

  // Read until the reply reports stability (chain_index -> R), then keep
  // reading: the index must stay at R even when later replies come from
  // position 1.
  for (int i = 0; i < 20; ++i) {
    client->Get("k", [](const auto&) {});
    cluster.sim()->Run();
    ChainIndex idx = 0;
    ASSERT_TRUE(client->LookupMetadata("k", nullptr, &idx));
    if (i > 0) {
      EXPECT_EQ(idx, cluster.options().replication) << "iteration " << i;
    }
  }
}

TEST(ClientSession, NewerVersionReplacesMetadata) {
  Cluster cluster(Small());
  ChainReactionClient* a = cluster.crx_client(0);
  ChainReactionClient* b = cluster.crx_client(1);

  bool done = false;
  a->Put("k", "v1", [&](const auto&) { done = true; });
  cluster.sim()->Run();
  ASSERT_TRUE(done);
  b->Get("k", [](const auto&) {});
  cluster.sim()->Run();
  Version v1;
  ASSERT_TRUE(b->LookupMetadata("k", &v1, nullptr));

  done = false;
  a->Put("k", "v2", [&](const auto&) { done = true; });
  cluster.sim()->Run();
  ASSERT_TRUE(done);
  b->Get("k", [](const auto&) {});
  cluster.sim()->Run();
  Version v2;
  ASSERT_TRUE(b->LookupMetadata("k", &v2, nullptr));
  EXPECT_TRUE(v1.LwwLess(v2));
  EXPECT_TRUE(v2.CausallyIncludes(v1));
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
