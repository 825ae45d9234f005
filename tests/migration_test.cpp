// Elastic membership: planned join/drain/rebalance through the migration
// coordinator (src/admin/). Data streams to the planned layout BEFORE the
// epoch flips; acked writes stay readable and causally consistent across the
// cutover. All clusters here run heartbeat timers — drive with RunUntil.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/harness/cluster.h"
#include "src/harness/experiment.h"
#include "src/ycsb/driver.h"

namespace chainreaction {
namespace {

ClusterOptions ElasticOpts(uint64_t seed = 1) {
  ClusterOptions opts;
  opts.system = SystemKind::kChainReaction;
  opts.servers_per_dc = 8;
  opts.clients_per_dc = 3;
  opts.heartbeat_interval = 50 * kMillisecond;
  opts.seed = seed;
  return opts;
}

void ExpectAllReadable(Cluster* cluster, int records) {
  ChainReactionClient* reader = cluster->crx_client(0);
  for (int i = 0; i < records; ++i) {
    bool found = false;
    reader->Get(RecordKey(i),
                [&](const ChainReactionClient::GetResult& r) { found = r.found; });
    cluster->sim()->RunUntil(cluster->sim()->Now() + 50 * kMillisecond);
    EXPECT_TRUE(found) << "key " << RecordKey(i);
  }
}

TEST(Migration, JoinStreamsDataAndFlipsEpoch) {
  Cluster cluster(ElasticOpts());
  cluster.Preload(200, 64);
  const uint64_t epoch_before = cluster.membership(0)->epoch();

  uint32_t idx = 0;
  const uint64_t id = cluster.AddJoiningServer(0, &idx);
  ASSERT_NE(id, 0u);
  EXPECT_EQ(idx, 8u);
  ASSERT_TRUE(cluster.WaitMigrationIdle(0));

  EXPECT_EQ(cluster.coordinator(0)->completed(), 1u);
  EXPECT_EQ(cluster.coordinator(0)->aborted(), 0u);
  EXPECT_EQ(cluster.membership(0)->epoch(), epoch_before + 1);
  const NodeId newcomer = cluster.ServerAddress(0, idx);
  EXPECT_TRUE(cluster.membership(0)->ring().Contains(newcomer));
  // The newcomer owns ring arcs now, and migration (not chain repair) moved
  // the data in: it streamed entries before the flip.
  EXPECT_GT(cluster.crx_node(0, idx)->store().KeyCount(), 0u);
  EXPECT_GT(cluster.crx_node(0, idx)->mig_entries_in(), 0u);
  EXPECT_FALSE(cluster.crx_node(0, idx)->migration_source_active());

  cluster.sim()->RunUntil(cluster.sim()->Now() + 500 * kMillisecond);
  std::string diag;
  EXPECT_TRUE(cluster.CheckConvergence(&diag)) << diag;
  ExpectAllReadable(&cluster, 200);

  // Migration state is exported as labeled Prometheus gauges. The source
  // backlog has drained to zero now that the join committed; the newcomer's
  // inflow sessions stay tracked (gauge > 0) until the straggler window a
  // further epoch away closes, so only existence is asserted there.
  const MetricsSnapshot snap = cluster.metrics()->Snapshot();
  const std::string prom = snap.RenderPrometheus();
  EXPECT_NE(prom.find("crx_mig_inflow_sessions{"), std::string::npos);
  EXPECT_NE(prom.find("crx_mig_keys_pending{"), std::string::npos);
  size_t mig_gauges = 0;
  for (const MetricPoint& p : snap.points) {
    if (p.name == "crx_mig_keys_pending") {
      EXPECT_EQ(p.kind, MetricKind::kGauge);
      EXPECT_EQ(p.value, 0) << p.name << "{" << p.labels << "}";
      ++mig_gauges;
    } else if (p.name == "crx_mig_inflow_sessions") {
      EXPECT_EQ(p.kind, MetricKind::kGauge);
      ++mig_gauges;
    }
  }
  EXPECT_GT(mig_gauges, 0u);
}

TEST(Migration, JoinUnderLoadStaysCausal) {
  Cluster cluster(ElasticOpts(11));
  cluster.Preload(100, 64);

  StatsCollector stats;
  uint64_t insert_counter = 100;
  CausalChecker checker;
  std::vector<std::unique_ptr<WorkloadDriver>> drivers;
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    auto driver = std::make_unique<WorkloadDriver>(cluster.client(i), cluster.client_env(i),
                                                   WorkloadSpec::A(100, 64), 700 + i,
                                                   &insert_counter, &stats);
    const uint32_t session = cluster.client(i)->address();
    driver->on_write_complete = [&checker, session](const Key& key, const KvPutResult& r) {
      checker.RecordWrite(session, key, r.version, r.deps);
    };
    driver->on_read_complete = [&checker, session](const Key& key, const KvGetResult& r) {
      checker.RecordRead(session, key, r.found, r.version);
    };
    driver->Start();
    drivers.push_back(std::move(driver));
  }

  cluster.sim()->RunUntil(cluster.sim()->Now() + 300 * kMillisecond);
  uint32_t idx = 0;
  ASSERT_NE(cluster.AddJoiningServer(0, &idx), 0u);
  ASSERT_TRUE(cluster.WaitMigrationIdle(0));
  cluster.sim()->RunUntil(cluster.sim()->Now() + 500 * kMillisecond);
  for (auto& d : drivers) {
    d->Stop();
  }
  cluster.sim()->RunUntil(cluster.sim()->Now() + 1 * kSecond);

  EXPECT_EQ(cluster.coordinator(0)->completed(), 1u);
  EXPECT_GT(stats.TotalOps(), 200u);
  EXPECT_EQ(checker.violations(), 0u)
      << (checker.diagnostics().empty() ? "" : checker.diagnostics()[0]);
  std::string diag;
  EXPECT_TRUE(cluster.CheckConvergence(&diag)) << diag;
}

// A session that forgot a key's metadata reads it with no version floor
// from any node of the key's chain. A join moves chains onto a newcomer
// that got its data by migration; reads of pruned keys must never return
// less than the session's acked write, during the migration or after the
// flip.
TEST(Migration, PrunedMetadataReadsAtLeastAckedAcrossJoin) {
  Cluster cluster(ElasticOpts(17));
  ChainReactionClient* session = cluster.crx_client(0);
  std::map<Key, Version> acked;
  int next = 0;
  std::function<void()> put_next = [&]() {
    if (next == 300) {
      return;
    }
    const Key key = "pruned-" + std::to_string(next++);
    session->Put(key, "value-" + key, [&, key](const ChainReactionClient::PutResult& r) {
      ASSERT_TRUE(r.status.ok());
      acked[key] = r.version;
      put_next();
    });
  };
  put_next();
  cluster.sim()->RunUntil(cluster.sim()->Now() + 1 * kSecond);
  ASSERT_EQ(acked.size(), 300u);
  std::vector<Key> pruned;
  for (const auto& [key, version] : acked) {
    if (!session->LookupMetadata(key, nullptr, nullptr)) {
      pruned.push_back(key);
    }
  }
  ASSERT_GE(pruned.size(), 200u) << "the watermark pruned too little to test";

  size_t issued = 0;
  size_t replies = 0;
  auto read_all = [&]() {
    for (const Key& key : pruned) {
      issued++;
      session->Get(key, [&, key](const ChainReactionClient::GetResult& r) {
        replies++;
        EXPECT_TRUE(r.found) << "lost acked key " << key;
        EXPECT_FALSE(r.found && r.version.LwwLess(acked[key]))
            << "read older than the acked version of " << key;
      });
    }
  };

  // A round of reads every millisecond while the newcomer's data streams
  // in, across the flip, and for a while after it.
  uint32_t idx = 0;
  ASSERT_NE(cluster.AddJoiningServer(0, &idx), 0u);
  int rounds_after_flip = 0;
  for (int round = 0; round < 5000 && rounds_after_flip < 20; ++round) {
    read_all();
    cluster.sim()->RunUntil(cluster.sim()->Now() + 1 * kMillisecond);
    if (cluster.coordinator(0)->completed() > 0) {
      rounds_after_flip++;
    }
  }
  ASSERT_EQ(cluster.coordinator(0)->completed(), 1u);
  cluster.sim()->RunUntil(cluster.sim()->Now() + 500 * kMillisecond);
  read_all();
  cluster.sim()->RunUntil(cluster.sim()->Now() + 500 * kMillisecond);
  EXPECT_EQ(replies, issued);
  EXPECT_GT(cluster.crx_node(0, idx)->reads_served(), 0u);

  const NodeId newcomer = cluster.ServerAddress(0, idx);
  size_t moved = 0;
  for (const Key& key : pruned) {
    if (cluster.membership(0)->ring().PositionOf(key, newcomer) != 0) {
      moved++;
    }
  }
  EXPECT_GT(moved, 0u) << "no pruned key's chain moved onto the newcomer";
}

TEST(Migration, DrainUnderLoadStaysCausal) {
  Cluster cluster(ElasticOpts(13));
  cluster.Preload(100, 64);

  StatsCollector stats;
  uint64_t insert_counter = 100;
  CausalChecker checker;
  std::vector<std::unique_ptr<WorkloadDriver>> drivers;
  for (size_t i = 0; i < cluster.num_clients(); ++i) {
    auto driver = std::make_unique<WorkloadDriver>(cluster.client(i), cluster.client_env(i),
                                                   WorkloadSpec::A(100, 64), 300 + i,
                                                   &insert_counter, &stats);
    const uint32_t session = cluster.client(i)->address();
    driver->on_write_complete = [&checker, session](const Key& key, const KvPutResult& r) {
      checker.RecordWrite(session, key, r.version, r.deps);
    };
    driver->on_read_complete = [&checker, session](const Key& key, const KvGetResult& r) {
      checker.RecordRead(session, key, r.found, r.version);
    };
    driver->Start();
    drivers.push_back(std::move(driver));
  }

  cluster.sim()->RunUntil(cluster.sim()->Now() + 300 * kMillisecond);
  const NodeId victim = cluster.ServerAddress(0, 3);
  ASSERT_NE(cluster.DrainServer(0, 3), 0u);
  ASSERT_TRUE(cluster.WaitMigrationIdle(0));
  cluster.sim()->RunUntil(cluster.sim()->Now() + 500 * kMillisecond);
  for (auto& d : drivers) {
    d->Stop();
  }
  cluster.sim()->RunUntil(cluster.sim()->Now() + 1 * kSecond);

  EXPECT_EQ(cluster.coordinator(0)->completed(), 1u);
  EXPECT_FALSE(cluster.membership(0)->ring().Contains(victim));
  // The drained process is still up — it just owns nothing.
  EXPECT_FALSE(cluster.crx_node(0, 3)->migration_source_active());
  EXPECT_EQ(checker.violations(), 0u)
      << (checker.diagnostics().empty() ? "" : checker.diagnostics()[0]);
  std::string diag;
  EXPECT_TRUE(cluster.CheckConvergence(&diag)) << diag;
  ExpectAllReadable(&cluster, 100);
}

TEST(Migration, RebalanceShiftsWeight) {
  ClusterOptions opts = ElasticOpts(17);
  Cluster cluster(opts);
  cluster.Preload(200, 64);

  const NodeId heavy = cluster.ServerAddress(0, 1);
  ASSERT_NE(cluster.RebalanceServer(0, 1, 4 * opts.vnodes), 0u);
  ASSERT_TRUE(cluster.WaitMigrationIdle(0));

  EXPECT_EQ(cluster.coordinator(0)->completed(), 1u);
  EXPECT_EQ(cluster.membership(0)->ring().WeightOf(heavy), 4 * opts.vnodes);

  cluster.sim()->RunUntil(cluster.sim()->Now() + 500 * kMillisecond);
  std::string diag;
  EXPECT_TRUE(cluster.CheckConvergence(&diag)) << diag;
  ExpectAllReadable(&cluster, 200);
}

TEST(Migration, BackToBackPlannedEpochs) {
  // A join queued on top of a drain: the second plan launches the moment
  // the first commits, against the first's committed topology.
  Cluster cluster(ElasticOpts(19));
  cluster.Preload(100, 64);
  const uint64_t epoch_before = cluster.membership(0)->epoch();

  uint32_t idx = 0;
  ASSERT_NE(cluster.AddJoiningServer(0, &idx), 0u);
  ASSERT_NE(cluster.DrainServer(0, 2), 0u);  // queues behind the join
  ASSERT_TRUE(cluster.WaitMigrationIdle(0));

  EXPECT_EQ(cluster.coordinator(0)->completed(), 2u);
  EXPECT_EQ(cluster.coordinator(0)->aborted(), 0u);
  EXPECT_EQ(cluster.membership(0)->epoch(), epoch_before + 2);
  EXPECT_TRUE(cluster.membership(0)->ring().Contains(cluster.ServerAddress(0, idx)));
  EXPECT_FALSE(cluster.membership(0)->ring().Contains(cluster.ServerAddress(0, 2)));

  cluster.sim()->RunUntil(cluster.sim()->Now() + 500 * kMillisecond);
  std::string diag;
  EXPECT_TRUE(cluster.CheckConvergence(&diag)) << diag;
  ExpectAllReadable(&cluster, 100);
}

TEST(Migration, CrashDuringMigrationAbortsCleanlyAndRetrySucceeds) {
  // A node crashes silently right as a join launches: its snapshot never
  // reports, failure detection flips an unplanned epoch mid-flight, and the
  // coordinator must fold the migration cleanly. A re-issued join against
  // the post-crash ring then succeeds.
  Cluster cluster(ElasticOpts(23));
  cluster.Preload(100, 64);

  cluster.net()->Crash(cluster.ServerAddress(0, 5));  // silent — FD must notice
  uint32_t idx = 0;
  const uint64_t id = cluster.AddJoiningServer(0, &idx);
  ASSERT_NE(id, 0u);
  ASSERT_TRUE(cluster.WaitMigrationIdle(0, 5 * kSecond));

  EXPECT_EQ(cluster.coordinator(0)->aborted(), 1u);
  EXPECT_EQ(cluster.coordinator(0)->completed(), 0u);
  EXPECT_EQ(cluster.membership(0)->failures_detected(), 1u);
  const NodeId newcomer = cluster.ServerAddress(0, idx);
  EXPECT_FALSE(cluster.membership(0)->ring().Contains(newcomer));
  // No node is left holding migration-source state.
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(cluster.crx_node(0, i)->migration_source_active()) << "node " << i;
  }

  // Retry: the coordinator observed the crash epoch, so the new plan builds
  // on the 7-node ring.
  ASSERT_NE(cluster.coordinator(0)->StartJoin(newcomer), 0u);
  ASSERT_TRUE(cluster.WaitMigrationIdle(0));
  EXPECT_EQ(cluster.coordinator(0)->completed(), 1u);
  EXPECT_TRUE(cluster.membership(0)->ring().Contains(newcomer));

  cluster.sim()->RunUntil(cluster.sim()->Now() + 500 * kMillisecond);
  std::string diag;
  EXPECT_TRUE(cluster.CheckConvergence(&diag)) << diag;
  ExpectAllReadable(&cluster, 100);
}

class SnapshotDoneRecorder : public Actor {
 public:
  void OnMessage(Address, std::string_view payload) override {
    MigSnapshotDone m;
    if (PeekType(payload) == MsgType::kMigSnapshotDone && DecodeMessage(payload, &m)) {
      dones.push_back(m);
    }
  }
  std::vector<MigSnapshotDone> dones;
};

TEST(Migration, StaleEpochSnapshotRequestRefused) {
  Cluster cluster(ElasticOpts(29));
  cluster.Preload(50, 32);

  SnapshotDoneRecorder recorder;
  const Address recorder_addr = kClientAddressBase + 700;
  cluster.net()->Register(recorder_addr, &recorder, 0);

  // A request planned against an epoch this ring never saw: the node must
  // refuse (reply aborted) rather than stream against the wrong layout.
  MigSnapshotRequest req;
  req.migration_id = 4242;
  req.epoch = cluster.membership(0)->epoch() + 5;
  req.planned_epoch = req.epoch + 1;
  req.planned_nodes = cluster.membership(0)->nodes();
  req.planned_weights = cluster.membership(0)->Weights();
  req.coordinator = recorder_addr;
  ChainReactionNode* node = cluster.crx_node(0, 0);
  node->OnMessage(recorder_addr, EncodeMessage(req));
  cluster.sim()->RunUntil(cluster.sim()->Now() + 100 * kMillisecond);

  ASSERT_EQ(recorder.dones.size(), 1u);
  EXPECT_TRUE(recorder.dones[0].aborted);
  EXPECT_EQ(recorder.dones[0].migration_id, 4242u);
  EXPECT_FALSE(node->migration_source_active());
  EXPECT_EQ(node->mig_entries_out(), 0u);
}

TEST(Migration, StaleEpochKeyBatchDropped) {
  Cluster cluster(ElasticOpts(31));
  cluster.Preload(50, 32);
  ChainReactionNode* node = cluster.crx_node(0, 1);
  const size_t keys_before = node->store().KeyCount();

  // A batch from a dead epoch with no established session: dropped whole.
  MigKeyBatch batch;
  batch.migration_id = 999;
  batch.epoch = 0;  // ring epoch is >= 1
  batch.source = cluster.ServerAddress(0, 0);
  batch.target = node->id();
  batch.coordinator = kClientAddressBase + 701;
  batch.seq = 1;
  batch.last = true;
  MigEntry entry;
  entry.key = "mig-stale-key";
  entry.value = "SHOULD-NOT-APPLY";
  entry.version.vv = VersionVector(1);
  entry.version.vv.Set(0, 77);
  entry.version.lamport = 77;
  batch.entries.push_back(entry);
  node->OnMessage(batch.source, EncodeMessage(batch));
  cluster.sim()->RunUntil(cluster.sim()->Now() + 100 * kMillisecond);

  EXPECT_EQ(node->mig_entries_in(), 0u);
  EXPECT_EQ(node->store().KeyCount(), keys_before);
  EXPECT_EQ(node->store().Latest("mig-stale-key"), nullptr);
}

}  // namespace
}  // namespace chainreaction
