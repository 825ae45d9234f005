// Multi-key causally consistent read transactions (MultiGet).
//
// Checks the basic API, the snapshot property under adversarial concurrent
// writers (every returned snapshot is internally causally consistent), and
// that the second round actually triggers when it must.
#include <gtest/gtest.h>

#include <map>

#include "src/harness/cluster.h"
#include "src/harness/experiment.h"

namespace chainreaction {
namespace {

ClusterOptions Opts(uint32_t servers = 8, uint32_t clients = 3, uint64_t seed = 1) {
  ClusterOptions opts;
  opts.system = SystemKind::kChainReaction;
  opts.servers_per_dc = servers;
  opts.clients_per_dc = clients;
  opts.seed = seed;
  return opts;
}

// Snapshot invariant: no returned version is strictly causally dominated by
// a dependency (on the same multiget key set) of another returned version.
void AssertSnapshotConsistent(const std::vector<Key>& keys,
                              const ChainReactionClient::MultiGetResult& out) {
  ASSERT_EQ(out.results.size(), keys.size());
  for (size_t j = 0; j < out.results.size(); ++j) {
    if (!out.results[j].found) {
      continue;
    }
    for (const Dependency& dep : out.results[j].deps) {
      for (size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] != dep.key) {
          continue;
        }
        const auto& got = out.results[i];
        ASSERT_TRUE(got.found)
            << "snapshot returned not-found for '" << keys[i] << "' although '" << keys[j]
            << "' causally depends on it";
        const bool strictly_dominated = dep.version.vv.Dominates(got.version.vv) &&
                                        !(dep.version.vv == got.version.vv);
        EXPECT_FALSE(strictly_dominated)
            << "'" << keys[i] << "' returned " << got.version.ToString()
            << " but co-read '" << keys[j] << "' depends on " << dep.version.ToString();
      }
    }
  }
}

TEST(MultiGet, EmptyAndSingleKey) {
  Cluster cluster(Opts());
  ChainReactionClient* client = cluster.crx_client(0);

  bool empty_done = false;
  client->MultiGet({}, [&](const ChainReactionClient::MultiGetResult& r) {
    EXPECT_TRUE(r.status.ok());
    EXPECT_TRUE(r.results.empty());
    empty_done = true;
  });
  cluster.sim()->Run();
  ASSERT_TRUE(empty_done);

  bool put_done = false;
  client->Put("solo", "v", [&](const auto&) { put_done = true; });
  cluster.sim()->Run();
  ASSERT_TRUE(put_done);

  bool got = false;
  client->MultiGet({"solo", "missing"}, [&](const ChainReactionClient::MultiGetResult& r) {
    ASSERT_EQ(r.results.size(), 2u);
    EXPECT_TRUE(r.results[0].found);
    EXPECT_EQ(r.results[0].value, "v");
    EXPECT_FALSE(r.results[1].found);
    EXPECT_EQ(r.rounds, 1u);
    got = true;
  });
  cluster.sim()->Run();
  ASSERT_TRUE(got);
}

TEST(MultiGet, ReturnsDependencyLists) {
  Cluster cluster(Opts());
  ChainReactionClient* client = cluster.crx_client(0);
  bool done = false;
  client->Put("x", "x1", [&](const auto&) {
    client->Put("y", "y1", [&](const auto&) { done = true; });  // y depends on x
  });
  cluster.sim()->Run();
  ASSERT_TRUE(done);

  bool got = false;
  cluster.crx_client(1)->MultiGet({"x", "y"},
                                  [&](const ChainReactionClient::MultiGetResult& r) {
                                    ASSERT_TRUE(r.results[1].found);
                                    ASSERT_EQ(r.results[1].deps.size(), 1u);
                                    EXPECT_EQ(r.results[1].deps[0].key, "x");
                                    got = true;
                                  });
  cluster.sim()->Run();
  ASSERT_TRUE(got);
}

// Adversarial property test: writers build dependency chains x->y across
// sessions while readers continuously snapshot {x, y}. Every snapshot must
// be consistent, and under this contention the two-round path must trigger
// (proving the guarantee is not vacuous).
TEST(MultiGet, SnapshotsConsistentUnderContention) {
  ClusterOptions opts = Opts(8, 4, 7);
  // Within one DC the write gating already forbids most anomalies; the
  // residual snapshot hazard needs the transaction's reads of x and y to be
  // served far apart in time, with a full write+stabilize cycle of the
  // co-read key in between. Huge latency jitter spreads the reads; the
  // writer keeps the cross-dependencies churning.
  opts.net.intra_site = LinkModel{200, 4000};
  // Jitter alone spreads the two reads by less than that cycle, so round
  // two is rare (about one per 7,000 snapshots). Each client send costs
  // 1 ms of egress, and the snapshot names idle keys between x and y: a
  // reader's y read leaves ~17 ms after its x read, while the writer pays
  // 1 ms per operation. Round two then fires dozens of times per run.
  opts.client_service.base_out = 1 * kMillisecond;
  constexpr int kIdleKeys = 16;
  // Explicit dependency lists: with the watermark the writer's puts drop
  // covered deps, so y's stored deps seldom name x and round two (which
  // reads those stored deps) would seldom trigger.
  opts.dep_watermark = false;
  Cluster cluster(opts);

  ChainReactionClient* writer = cluster.crx_client(0);
  ChainReactionClient* reader1 = cluster.crx_client(1);
  ChainReactionClient* reader2 = cluster.crx_client(2);

  // Writer loop: read x, write y (dep x), write x anew — builds fresh
  // cross-key dependencies continuously.
  int writes_left = 400;
  std::function<void()> write_loop = [&]() {
    if (writes_left-- <= 0) {
      return;
    }
    writer->Put("x", "x-" + std::to_string(writes_left), [&](const auto&) {
      writer->Get("x", [&](const auto&) {
        writer->Put("y", "y-" + std::to_string(writes_left), [&](const auto&) { write_loop(); });
      });
    });
  };
  write_loop();

  std::vector<Key> keys = {"x"};
  for (int i = 0; i < kIdleKeys; ++i) {
    keys.push_back("idle" + std::to_string(i));
  }
  keys.push_back("y");
  int snapshots = 0;
  std::function<void(ChainReactionClient*)> read_loop = [&](ChainReactionClient* reader) {
    if (snapshots >= 600) {
      return;
    }
    reader->MultiGet(keys, [&, reader](const ChainReactionClient::MultiGetResult& r) {
      snapshots++;
      AssertSnapshotConsistent(keys, r);
      read_loop(reader);
    });
  };
  read_loop(reader1);
  read_loop(reader2);

  cluster.sim()->Run();
  EXPECT_GE(snapshots, 600);
  const uint64_t second_rounds =
      reader1->multiget_second_rounds() + reader2->multiget_second_rounds();
  EXPECT_GT(second_rounds, 0u)
      << "contention never triggered round two — the property test is vacuous";
}

TEST(MultiGet, WiderKeySetSnapshot) {
  ClusterOptions opts = Opts(8, 3, 9);
  opts.net.intra_site = LinkModel{300, 400};
  Cluster cluster(opts);

  ChainReactionClient* writer = cluster.crx_client(0);
  // Build a dependency chain a -> b -> c -> d (each write reads the prior).
  int rounds_left = 150;
  std::function<void()> write_loop = [&]() {
    if (rounds_left-- <= 0) {
      return;
    }
    writer->Put("a", "a" + std::to_string(rounds_left), [&](const auto&) {
      writer->Get("a", [&](const auto&) {
        writer->Put("b", "b" + std::to_string(rounds_left), [&](const auto&) {
          writer->Get("b", [&](const auto&) {
            writer->Put("c", "c" + std::to_string(rounds_left),
                        [&](const auto&) { write_loop(); });
          });
        });
      });
    });
  };
  write_loop();

  const std::vector<Key> keys = {"a", "b", "c"};
  int snapshots = 0;
  std::function<void()> read_loop = [&]() {
    if (snapshots >= 300) {
      return;
    }
    cluster.crx_client(1)->MultiGet(keys, [&](const ChainReactionClient::MultiGetResult& r) {
      snapshots++;
      AssertSnapshotConsistent(keys, r);
      EXPECT_LE(r.rounds, 2u);
      read_loop();
    });
  };
  read_loop();
  cluster.sim()->Run();
  EXPECT_GE(snapshots, 300);
}

TEST(MultiGet, GeoSnapshots) {
  ClusterOptions opts = Opts(6, 2, 11);
  opts.num_dcs = 2;
  Cluster cluster(opts);

  // DC0 writes the dependency pair; DC1 snapshots it.
  ChainReactionClient* writer = cluster.crx_client(0);
  int writes_left = 60;
  std::function<void()> write_loop = [&]() {
    if (writes_left-- <= 0) {
      return;
    }
    writer->Put("gx", "x" + std::to_string(writes_left), [&](const auto&) {
      writer->Put("gy", "y" + std::to_string(writes_left), [&](const auto&) { write_loop(); });
    });
  };
  write_loop();

  const std::vector<Key> keys = {"gx", "gy"};
  int snapshots = 0;
  std::function<void()> read_loop = [&]() {
    if (snapshots >= 100) {
      return;
    }
    cluster.crx_client(2)->MultiGet(keys, [&](const ChainReactionClient::MultiGetResult& r) {
      snapshots++;
      if (r.results[0].found || r.results[1].found) {
        AssertSnapshotConsistent(keys, r);
      }
      read_loop();
    });
  };
  read_loop();
  cluster.sim()->Run();
  EXPECT_GE(snapshots, 100);
}

}  // namespace
}  // namespace chainreaction
