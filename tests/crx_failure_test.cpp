// Failure-injection tests: node crashes with chain repair must never lose
// acknowledged writes or violate causal+ consistency. The CrashRestart
// tests exercise the durability path: a crashed server restarts from its
// WAL + checkpoint instead of resyncing from scratch.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/harness/cluster.h"
#include "src/harness/experiment.h"

namespace chainreaction {
namespace {

ClusterOptions FailureOpts(uint64_t seed = 1) {
  ClusterOptions opts;
  opts.system = SystemKind::kChainReaction;
  opts.servers_per_dc = 10;
  opts.clients_per_dc = 4;
  opts.replication = 3;
  opts.k_stability = 2;
  opts.seed = seed;
  return opts;
}

// Unique per-test scratch directory for node data dirs, removed on teardown.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(::testing::TempDir() + "crx_" + tag + "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this))) {}
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadFileOrEmpty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return "";
  }
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

// True when the recorder currently holds an event of `kind`.
bool RecorderHas(const FlightRecorder* recorder, EventKind kind) {
  for (const FlightEvent& e : recorder->Snapshot()) {
    if (e.kind == kind) {
      return true;
    }
  }
  return false;
}

TEST(CrxFailure, AckedWritesSurviveOneCrash) {
  Cluster cluster(FailureOpts());
  ChainReactionClient* writer = cluster.crx_client(0);

  // Write 50 keys and remember their acknowledged versions.
  std::map<Key, Version> acked;
  for (int i = 0; i < 50; ++i) {
    const Key key = "surv-" + std::to_string(i);
    writer->Put(key, "value-" + std::to_string(i),
                [&acked, key](const ChainReactionClient::PutResult& r) {
                  ASSERT_TRUE(r.status.ok());
                  acked[key] = r.version;
                });
    cluster.sim()->Run();
  }
  ASSERT_EQ(acked.size(), 50u);

  // Crash one server; membership reconfigures and repairs chains.
  cluster.KillServer(0, 3);
  cluster.sim()->Run();

  // Every acknowledged write must still be readable at (at least) its
  // acknowledged version, from a fresh session.
  ChainReactionClient* reader = cluster.crx_client(1);
  for (const auto& [key, version] : acked) {
    bool done = false;
    reader->Get(key, [&, key_copy = key](const ChainReactionClient::GetResult& r) {
      EXPECT_TRUE(r.found) << "lost acked key " << key_copy;
      if (r.found) {
        EXPECT_FALSE(acked[key_copy].vv.Dominates(r.version.vv) &&
                     !(acked[key_copy].vv == r.version.vv))
            << "read version older than acked for " << key_copy;
      }
      done = true;
    });
    cluster.sim()->Run();
    ASSERT_TRUE(done);
  }
}

TEST(CrxFailure, WorkloadAcrossCrashStaysCausal) {
  Cluster cluster(FailureOpts(7));
  cluster.Preload(300, 64);

  RunOptions run;
  run.spec = WorkloadSpec::A(300, 64);
  run.preload = false;
  run.warmup = 200 * kMillisecond;
  run.measure = 2 * kSecond;
  run.attach_checker = true;

  // Interleave the crash with the measurement window.
  cluster.sim()->Schedule(1 * kSecond, [&cluster]() { cluster.KillServer(0, 5); });
  const RunResult result = RunWorkload(&cluster, run);

  EXPECT_EQ(result.checker_violations, 0u)
      << (result.checker_diagnostics.empty() ? "" : result.checker_diagnostics[0]);
  EXPECT_GT(result.stats.TotalOps(), 500u);

  std::string diag;
  EXPECT_TRUE(cluster.CheckConvergence(&diag)) << diag;

  // No write may stay parked at a head forever.
  for (uint32_t i = 0; i < cluster.options().servers_per_dc; ++i) {
    if (cluster.net()->IsCrashed(cluster.ServerAddress(0, i))) {
      continue;
    }
    EXPECT_EQ(cluster.crx_node(0, i)->gated_puts_pending(), 0u) << "node " << i;
  }
}

TEST(CrxFailure, SequentialCrashesSurvivable) {
  ClusterOptions opts = FailureOpts(11);
  opts.servers_per_dc = 12;
  Cluster cluster(opts);
  cluster.Preload(200, 64);

  RunOptions run;
  run.spec = WorkloadSpec::B(200, 64);
  run.preload = false;
  run.warmup = 200 * kMillisecond;
  run.measure = 3 * kSecond;
  run.attach_checker = true;

  // Crash three different servers, spaced out so repair completes between.
  cluster.sim()->Schedule(800 * kMillisecond, [&] { cluster.KillServer(0, 2); });
  cluster.sim()->Schedule(1600 * kMillisecond, [&] { cluster.KillServer(0, 7); });
  cluster.sim()->Schedule(2400 * kMillisecond, [&] { cluster.KillServer(0, 11); });

  const RunResult result = RunWorkload(&cluster, run);
  EXPECT_EQ(result.checker_violations, 0u)
      << (result.checker_diagnostics.empty() ? "" : result.checker_diagnostics[0]);
  std::string diag;
  EXPECT_TRUE(cluster.CheckConvergence(&diag)) << diag;
}

TEST(CrxFailure, CrashDuringGeoReplication) {
  ClusterOptions opts = FailureOpts(13);
  opts.num_dcs = 2;
  opts.servers_per_dc = 8;
  opts.clients_per_dc = 2;
  Cluster cluster(opts);
  cluster.Preload(100, 64);

  RunOptions run;
  run.spec = WorkloadSpec::A(100, 64);
  run.preload = false;
  run.warmup = 200 * kMillisecond;
  run.measure = 2 * kSecond;
  run.attach_checker = true;

  cluster.sim()->Schedule(1 * kSecond, [&] { cluster.KillServer(1, 4); });
  const RunResult result = RunWorkload(&cluster, run);
  EXPECT_EQ(result.checker_violations, 0u)
      << (result.checker_diagnostics.empty() ? "" : result.checker_diagnostics[0]);
  std::string diag;
  EXPECT_TRUE(cluster.CheckConvergence(&diag)) << diag;
}

TEST(CrxFailure, NewChainMemberServesAfterSync) {
  Cluster cluster(FailureOpts(17));
  ChainReactionClient* client = cluster.crx_client(0);

  // Establish stable data.
  for (int i = 0; i < 30; ++i) {
    bool done = false;
    client->Put("sync-" + std::to_string(i), "v", [&](const auto&) { done = true; });
    cluster.sim()->Run();
    ASSERT_TRUE(done);
  }

  cluster.KillServer(0, 1);
  cluster.sim()->Run();  // repair completes

  // A fresh session (no metadata) reads every key from arbitrary chain
  // positions — including freshly synced members — and must find them all.
  ChainReactionClient* reader = cluster.crx_client(2);
  for (int i = 0; i < 30; ++i) {
    bool found = false;
    reader->Get("sync-" + std::to_string(i),
                [&](const ChainReactionClient::GetResult& r) { found = r.found; });
    cluster.sim()->Run();
    EXPECT_TRUE(found) << "key sync-" << i << " unreadable after repair";
  }
}

// Steps the simulator one event at a time until a live node holds a
// backward stability notify that waits for its end-of-turn flush, that is,
// until the flush is armed but has not run. Returns the node's index, or -1.
int StepUntilFlushArmed(Cluster* cluster) {
  for (int events = 0; events < 1000000 && cluster->sim()->Step(); ++events) {
    for (uint32_t idx = 0; idx < cluster->options().servers_per_dc; ++idx) {
      if (!cluster->net()->IsCrashed(cluster->ServerAddress(0, idx)) &&
          cluster->crx_node(0, idx)->stable_notifies_pending() > 0) {
        return static_cast<int>(idx);
      }
    }
  }
  return -1;
}

// The end-of-turn flush survives the faults that can land between arming
// it and running it: an epoch change, a crash the node comes back from in
// place, and a crash it never comes back from. No node is left with a
// flush armed forever: puts keep being acked and notifies keep flowing.
TEST(CrxFailure, FaultBetweenArmingAndFlushLeavesNoFlushArmed) {
  Cluster cluster(FailureOpts(41));
  cluster.Preload(100, 64);
  auto notify_bytes = [&cluster] {
    const auto& by_tag = cluster.net()->bytes_by_tag();
    auto it = by_tag.find(static_cast<uint16_t>(MsgType::kCrxStableNotify));
    return it == by_tag.end() ? uint64_t{0} : it->second;
  };
  size_t acked = 0;
  auto start_puts = [&cluster, &acked](const std::string& prefix) {
    for (size_t c = 0; c < cluster.num_clients(); ++c) {
      cluster.crx_client(c)->Put(prefix + std::to_string(c), "v", [&acked](const auto& r) {
        acked += r.status.ok() ? 1 : 0;
      });
    }
  };

  // Epoch change: the node learns a new ring while its notify waits, as if
  // the announcement arrived earlier in the same loop turn.
  start_puts("epoch-");
  const int changed = StepUntilFlushArmed(&cluster);
  ASSERT_GE(changed, 0);
  ChainReactionNode* node = cluster.crx_node(0, static_cast<uint32_t>(changed));
  cluster.KillServer(0, (static_cast<uint32_t>(changed) + 1) % 10);
  MemNewMembership announce;
  announce.epoch = cluster.membership(0)->epoch();
  announce.nodes = cluster.membership(0)->nodes();
  announce.weights = cluster.membership(0)->Weights();
  node->OnMessage(0, EncodeMessage(announce));
  ASSERT_EQ(node->epoch(), announce.epoch);
  ASSERT_GT(node->stable_notifies_pending(), 0u);
  cluster.sim()->RunUntil(cluster.sim()->Now());
  EXPECT_EQ(node->stable_notifies_pending(), 0u) << "the armed flush ran in the new epoch";
  cluster.sim()->Run();

  // Crash in place: the flush waits out the crash and runs on restore.
  start_puts("pause-");
  const int paused = StepUntilFlushArmed(&cluster);
  ASSERT_GE(paused, 0);
  node = cluster.crx_node(0, static_cast<uint32_t>(paused));
  const NodeId paused_addr = cluster.ServerAddress(0, static_cast<uint32_t>(paused));
  cluster.net()->Crash(paused_addr);
  cluster.sim()->RunUntil(cluster.sim()->Now() + 5 * kMillisecond);
  EXPECT_GT(node->stable_notifies_pending(), 0u);
  cluster.net()->Restore(paused_addr);
  cluster.sim()->RunUntil(cluster.sim()->Now());
  EXPECT_EQ(node->stable_notifies_pending(), 0u) << "the flush ran on restore";
  cluster.sim()->Run();

  // Crash for good: the flush dies with the node; the new chains carry on.
  start_puts("kill-");
  const int killed = StepUntilFlushArmed(&cluster);
  ASSERT_GE(killed, 0);
  cluster.KillServer(0, static_cast<uint32_t>(killed));
  cluster.sim()->Run();

  EXPECT_EQ(acked, 3 * cluster.num_clients());
  const uint64_t notifies_before = notify_bytes();
  start_puts("after-");
  cluster.sim()->Run();
  EXPECT_EQ(acked, 4 * cluster.num_clients());
  EXPECT_GT(notify_bytes(), notifies_before);
  for (uint32_t idx = 0; idx < 10; ++idx) {
    if (cluster.net()->IsCrashed(cluster.ServerAddress(0, idx))) {
      continue;
    }
    EXPECT_EQ(cluster.crx_node(0, idx)->stable_notifies_pending(), 0u) << "node " << idx;
    EXPECT_EQ(cluster.crx_node(0, idx)->unstable_head_keys_count(), 0u) << "node " << idx;
  }
  std::string diag;
  EXPECT_TRUE(cluster.CheckConvergence(&diag)) << diag;
}

// The crash-restart suite runs under both value engines: recovery must be
// engine-oblivious (mem replays values from the WAL; disk re-opens the
// value log, truncates to the checkpoint manifest, and replays the tail).
// The disk variant uses a deliberately tiny residency cache so recovery
// and post-restart reads exercise real log reads.
class CrxCrashRestart : public ::testing::TestWithParam<StorageEngineKind> {
 protected:
  ClusterOptions EngineOpts(ClusterOptions opts) const {
    opts.engine = GetParam();
    opts.engine_cache_bytes = 32u << 10;
    opts.engine_segment_bytes = 64u << 10;
    return opts;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Engines, CrxCrashRestart,
    ::testing::Values(StorageEngineKind::kMem, StorageEngineKind::kDisk),
    [](const ::testing::TestParamInfo<StorageEngineKind>& param_info) {
      return std::string(StorageEngineKindName(param_info.param));
    });

TEST_P(CrxCrashRestart, RecoveryRebuildsPreCrashStoreExactly) {
  ScratchDir scratch("restart_exact");
  ClusterOptions opts = EngineOpts(FailureOpts(23));
  opts.data_root = scratch.path();
  opts.fsync_policy = FsyncPolicy::kAlways;  // every acked byte durable
  Cluster cluster(opts);
  cluster.Preload(150, 64);

  ChainReactionClient* writer = cluster.crx_client(0);
  for (int i = 0; i < 80; ++i) {
    writer->Put("exact-" + std::to_string(i), "v" + std::to_string(i), [](const auto&) {});
    cluster.sim()->Run();
  }

  // Capture the victim's store, version for version, then crash it.
  const uint32_t victim = 4;
  std::map<std::pair<Key, std::string>, std::pair<Value, bool>> before;
  cluster.crx_node(0, victim)->store().ForEachVersion(
      [&before](const Key& key, const StoredVersion& sv) {
        before[{key, sv.version.ToString()}] = {sv.value, sv.stable};
      });
  ASSERT_FALSE(before.empty());
  cluster.CrashServer(0, victim);

  // Recover from its data dir alone (no chain help): with fsync=always the
  // rebuilt store must match the pre-crash store exactly.
  CrxConfig cfg;
  cfg.replication = opts.replication;
  cfg.k_stability = opts.k_stability;
  cfg.engine = GetParam();
  cfg.engine_cache_bytes = opts.engine_cache_bytes;
  ChainReactionNode recovered(cluster.ServerAddress(0, victim), cfg,
                              cluster.membership(0)->ring());
  ASSERT_TRUE(recovered.RecoverFrom(cluster.NodeDataDir(0, victim)).ok());
  EXPECT_GT(recovered.last_recovery_stats().records, 0u);

  std::map<std::pair<Key, std::string>, std::pair<Value, bool>> after;
  recovered.store().ForEachVersion([&after](const Key& key, const StoredVersion& sv) {
    after[{key, sv.version.ToString()}] = {sv.value, sv.stable};
  });
  EXPECT_EQ(before, after);
}

// Recovery rebuilds the node's per-key slots from the store alone: the
// stability cache (StableVvOf) of every key, and the unstable-head list —
// keys this node heads whose newest version was still unstable at the
// crash. The crash lands while writes to keys the victim heads are acked
// (k=2) but not yet stable.
TEST_P(CrxCrashRestart, RecoveryRebuildsStabilityAndHeadSlots) {
  ScratchDir scratch("restart_slots");
  ClusterOptions opts = EngineOpts(FailureOpts(31));
  opts.data_root = scratch.path();
  opts.fsync_policy = FsyncPolicy::kAlways;
  Cluster cluster(opts);
  cluster.Preload(150, 64);

  const uint32_t victim = 4;
  const NodeId victim_addr = cluster.ServerAddress(0, victim);
  const Ring ring_before = cluster.membership(0)->ring();
  size_t acked = 0;
  size_t issued = 0;
  for (int i = 0; issued < cluster.num_clients(); ++i) {
    const Key key = "slot-" + std::to_string(i);
    if (ring_before.HeadFor(key) != victim_addr) {
      continue;
    }
    cluster.crx_client(issued++)->Put(key, "v", [&acked](const auto&) { acked++; });
  }
  while (acked < issued) {
    cluster.sim()->RunUntil(cluster.sim()->Now() + 10);
  }

  ChainReactionNode* node = cluster.crx_node(0, victim);
  const size_t heads_before = node->unstable_head_keys_count();
  ASSERT_GT(heads_before, 0u) << "every write stabilized before the crash";
  std::map<Key, std::string> stable_before;
  node->store().ForEachKey([&](const Key& key, const StoredVersion&) {
    stable_before[key] = node->StableVvOf(key);
  });
  cluster.CrashServer(0, victim);

  {
    // Recovery against the ring the victim crashed in, so it heads the
    // same keys again.
    CrxConfig cfg;
    cfg.replication = opts.replication;
    cfg.k_stability = opts.k_stability;
    cfg.engine = GetParam();
    cfg.engine_cache_bytes = opts.engine_cache_bytes;
    ChainReactionNode recovered(victim_addr, cfg, ring_before);
    ASSERT_TRUE(recovered.RecoverFrom(cluster.NodeDataDir(0, victim)).ok());
    EXPECT_EQ(recovered.unstable_head_keys_count(), heads_before);
    EXPECT_EQ(recovered.store().KeyCount(), stable_before.size());
    for (const auto& [key, vv] : stable_before) {
      EXPECT_EQ(recovered.StableVvOf(key), vv) << key;
    }
  }

  // RestartServer recovers the same stability cache; its ring no longer
  // lists the victim, so it heads nothing until the rejoin epoch.
  ASSERT_TRUE(cluster.RestartServer(0, victim).ok());
  const ChainReactionNode* restarted = cluster.crx_node(0, victim);
  EXPECT_EQ(restarted->unstable_head_keys_count(), 0u);
  for (const auto& [key, vv] : stable_before) {
    EXPECT_EQ(restarted->StableVvOf(key), vv) << key;
  }
  // Once the rejoin repair settles, every write is stable: no node keeps a
  // head slot or a pending notify.
  cluster.sim()->Run();
  for (uint32_t idx = 0; idx < opts.servers_per_dc; ++idx) {
    EXPECT_EQ(cluster.crx_node(0, idx)->unstable_head_keys_count(), 0u) << "node " << idx;
    EXPECT_EQ(cluster.crx_node(0, idx)->stable_notifies_pending(), 0u) << "node " << idx;
  }
}

TEST_P(CrxCrashRestart, AckedWritesSurviveCrashRestart) {
  ScratchDir scratch("restart_acked");
  ClusterOptions opts = EngineOpts(FailureOpts(29));
  opts.data_root = scratch.path();
  opts.fsync_policy = FsyncPolicy::kAlways;
  Cluster cluster(opts);

  std::map<Key, Version> acked;
  ChainReactionClient* writer = cluster.crx_client(0);
  for (int i = 0; i < 50; ++i) {
    const Key key = "rsurv-" + std::to_string(i);
    writer->Put(key, "value-" + std::to_string(i),
                [&acked, key](const ChainReactionClient::PutResult& r) {
                  ASSERT_TRUE(r.status.ok());
                  acked[key] = r.version;
                });
    cluster.sim()->Run();
  }
  ASSERT_EQ(acked.size(), 50u);

  cluster.CrashServer(0, 3);
  cluster.sim()->Run();

  // The crash path dumped the victim's flight recorder to its data dir:
  // a crash_dump header plus the control-plane events leading up to death.
  const std::string flight = ReadFileOrEmpty(cluster.NodeDataDir(0, 3) + "/flight.log");
  ASSERT_FALSE(flight.empty()) << "no flight.log written on crash";
  EXPECT_NE(flight.find("crash_dump"), std::string::npos) << flight;

  ASSERT_TRUE(cluster.RestartServer(0, 3).ok());
  cluster.sim()->Run();  // rejoin repair completes
  EXPECT_GT(cluster.crx_node(0, 3)->last_recovery_stats().records, 0u);
  // The restarted node's fresh recorder must show the recovery replay and
  // the rejoin guard lifting once chain repair caught it up.
  EXPECT_TRUE(RecorderHas(cluster.crx_node(0, 3)->events(), EventKind::kWalRecovery));

  // Every acknowledged write must still be readable at (at least) its
  // acknowledged version from a fresh session, with the restarted node
  // back in its chains.
  ChainReactionClient* reader = cluster.crx_client(1);
  for (const auto& [key, version] : acked) {
    bool done = false;
    reader->Get(key, [&, key_copy = key](const ChainReactionClient::GetResult& r) {
      EXPECT_TRUE(r.found) << "lost acked key " << key_copy;
      if (r.found) {
        EXPECT_FALSE(acked[key_copy].vv.Dominates(r.version.vv) &&
                     !(acked[key_copy].vv == r.version.vv))
            << "read version older than acked for " << key_copy;
      }
      done = true;
    });
    cluster.sim()->Run();
    ASSERT_TRUE(done);
  }
}

// A session that forgot a key's metadata (the watermark proved the version
// DC-Write-Stable) reads it with no version floor from any chain node. That
// must still never return less than the session's own acked write: not
// while a replica is down, not while it rejoins with a recovered store that
// lost its un-flushed group-commit batch, and not after.
TEST_P(CrxCrashRestart, PrunedMetadataReadsAtLeastAcked) {
  ScratchDir scratch("restart_pruned");
  ClusterOptions opts = EngineOpts(FailureOpts(37));
  opts.data_root = scratch.path();
  // Group commit that never fills its batch: the victim's crash loses every
  // record of the writes below, so it rejoins without them and only the
  // repair sync brings them back.
  opts.fsync_policy = FsyncPolicy::kBatch;
  opts.wal_batch_records = 4096;
  Cluster cluster(opts);
  // Preloaded bulk makes the rejoin repair long enough for reads to land
  // while it is still in flight.
  cluster.Preload(4000, 256);

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
  cluster.sim()->Run();
  ASSERT_EQ(acked.size(), 300u);
  std::vector<Key> pruned;
  for (const auto& [key, version] : acked) {
    if (!session->LookupMetadata(key, nullptr, nullptr)) {
      pruned.push_back(key);
    }
  }
  ASSERT_GE(pruned.size(), 200u) << "the watermark pruned too little to test";

  // Reads every pruned key; every reply must carry at least the acked version.
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

  const uint32_t victim = 4;
  cluster.CrashServer(0, victim);
  read_all();
  cluster.sim()->Run();
  ASSERT_TRUE(cluster.RestartServer(0, victim).ok());
  // A round of reads every 250 us while the victim rejoins and its repair
  // sync streams in, then rounds once it has caught up.
  for (int round = 0; round < 40; ++round) {
    read_all();
    cluster.sim()->RunUntil(cluster.sim()->Now() + 250);
  }
  cluster.sim()->Run();
  read_all();
  cluster.sim()->Run();
  EXPECT_EQ(replies, issued);
  EXPECT_GT(cluster.crx_node(0, victim)->reads_served(), 0u);
}

TEST_P(CrxCrashRestart, WorkloadAcrossCrashRestartStaysCausal) {
  // The property test: crash a node mid-propagation under YCSB-A with
  // group-commit durability (the un-flushed batch is lost on crash),
  // restart it from its data dir mid-run, and require a clean causal+
  // checker and full convergence.
  ScratchDir scratch("restart_causal");
  ClusterOptions opts = EngineOpts(FailureOpts(31));
  opts.data_root = scratch.path();
  opts.fsync_policy = FsyncPolicy::kBatch;
  Cluster cluster(opts);
  cluster.Preload(300, 64);

  RunOptions run;
  run.spec = WorkloadSpec::A(300, 64);
  run.preload = false;
  run.warmup = 200 * kMillisecond;
  run.measure = 3 * kSecond;
  run.attach_checker = true;

  cluster.sim()->Schedule(1 * kSecond, [&cluster]() { cluster.CrashServer(0, 5); });
  cluster.sim()->Schedule(2 * kSecond, [&cluster]() {
    ASSERT_TRUE(cluster.RestartServer(0, 5).ok());
  });
  const RunResult result = RunWorkload(&cluster, run);

  EXPECT_EQ(result.checker_violations, 0u)
      << (result.checker_diagnostics.empty() ? "" : result.checker_diagnostics[0]);
  EXPECT_GT(result.stats.TotalOps(), 500u);
  EXPECT_GT(cluster.crx_node(0, 5)->last_recovery_stats().records, 0u);

  // The mid-run crash left a readable flight dump with the crash header and
  // real pre-crash activity; the restarted node recorded its WAL replay.
  const std::string flight = ReadFileOrEmpty(cluster.NodeDataDir(0, 5) + "/flight.log");
  ASSERT_FALSE(flight.empty()) << "no flight.log written on crash";
  EXPECT_NE(flight.find("crash_dump"), std::string::npos);
  EXPECT_TRUE(RecorderHas(cluster.crx_node(0, 5)->events(), EventKind::kWalRecovery));

  std::string diag;
  EXPECT_TRUE(cluster.CheckConvergence(&diag)) << diag;

  // No write may stay parked at a head forever — including the rejoined one.
  for (uint32_t i = 0; i < cluster.options().servers_per_dc; ++i) {
    EXPECT_EQ(cluster.crx_node(0, i)->gated_puts_pending(), 0u) << "node " << i;
  }
}

}  // namespace
}  // namespace chainreaction
