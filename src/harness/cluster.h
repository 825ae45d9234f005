// Simulated cluster harness.
//
// Builds a complete deployment of one of the five systems under test on the
// deterministic simulator: servers placed on per-DC consistent-hashing
// rings, a membership service and geo replicator per DC, and a set of
// closed-loop clients. Provides preloading, failure injection, convergence
// checking, and aggregated introspection for the experiments.
#ifndef SRC_HARNESS_CLUSTER_H_
#define SRC_HARNESS_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/admin/migration.h"
#include "src/baselines/eventual.h"
#include "src/common/histogram.h"
#include "src/chain/cr.h"
#include "src/chain/craq.h"
#include "src/common/types.h"
#include "src/core/chainreaction_client.h"
#include "src/core/chainreaction_node.h"
#include "src/geo/geo_replicator.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/ring/membership.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/wal/wal.h"
#include "src/ycsb/kv_client.h"

namespace chainreaction {

enum class SystemKind {
  kChainReaction,
  kCr,            // classic chain replication (FAWN-KV baseline)
  kCraq,          // CRAQ baseline
  kEventualOne,   // Cassandra R=1/W=1 stand-in
  kQuorum,        // Cassandra quorum stand-in
};

const char* SystemKindName(SystemKind kind);

struct ClusterOptions {
  SystemKind system = SystemKind::kChainReaction;
  uint32_t servers_per_dc = 16;
  uint32_t clients_per_dc = 32;
  uint32_t replication = 3;   // R
  uint32_t k_stability = 2;   // k (ChainReaction only)
  uint32_t vnodes = 16;
  uint16_t num_dcs = 1;       // >1 supported for ChainReaction only

  NetworkConfig net{LinkModel{100, 20}, LinkModel{80 * kMillisecond, 2 * kMillisecond}, 0.0};
  // Per-message server cost: ~10us + 10ns/byte saturates a node around
  // 10^5 small messages/sec, in the ballpark of a FAWN-KV backend.
  ServiceModel server_service{10, 0.01, 2};
  ServiceModel client_service{1, 0.0, 0};

  ReadPolicy read_policy = ReadPolicy::kUniformPrefix;
  // Stable-watermark dependency compression (see CrxConfig::dep_watermark).
  // Both default to CrxConfig's, so the simulator and TCP run one protocol.
  bool dep_watermark = CrxConfig{}.dep_watermark;
  Duration wm_gossip_interval = CrxConfig{}.wm_gossip_interval;
  bool disable_dependency_gating = false;  // testing only
  Duration client_timeout = 500 * kMillisecond;
  // >0 enables heartbeat failure detection (ChainReaction only): nodes
  // heartbeat at this period; the membership service removes nodes silent
  // for 4 periods. Keeps timers alive forever — drive with RunUntil.
  Duration heartbeat_interval = 0;
  // Failure-detection tuning (effective only with heartbeat_interval > 0).
  // 0 picks the defaults: sweep every heartbeat_interval, timeout 4x it.
  Duration fd_sweep_interval = 0;
  Duration fd_timeout = 0;
  // >0: the membership service re-broadcasts the current epoch at this
  // period even without topology changes (keeps the event queue non-empty;
  // drive with RunUntil).
  Duration membership_rebroadcast_interval = 0;
  // Planned-migration coordinator tuning (see src/admin/migration.h).
  Duration migration_timeout = 5 * kSecond;
  uint32_t mig_batch_keys = 64;
  Duration mig_batch_interval = 0;
  // >0: clients trace every Nth put end-to-end (ChainReaction only); hops
  // land in Cluster::traces().
  uint32_t trace_sample_every = 0;
  // Probabilistic head sampling (combines with trace_sample_every).
  double trace_probability = 0.0;
  // >0: tail-based capture — every put is traced; traces whose observed
  // latency is >= this threshold are always retained (see CrxConfig).
  int64_t slow_trace_us = 0;
  // Dep-stall watchdog threshold, as a multiple of the per-node chain-lag
  // EWMA (see CrxConfig::stall_depwait_multiple; 0 disables).
  double stall_depwait_multiple = 8.0;
  uint64_t seed = 1;

  // Non-empty: every ChainReaction server runs with durability enabled,
  // node idx of DC dc logging to `<data_root>/dc<dc>-n<idx>/`, and the
  // crash-restart-with-recovery failure mode (CrashServer/RestartServer)
  // becomes available alongside the lose-everything KillServer. The WALs
  // run without the background flusher — the simulator is single-threaded
  // and deterministic, so batch-mode flushes happen at batch-size
  // boundaries and on crash/shutdown instead of on a wall-clock timer.
  std::string data_root;
  FsyncPolicy fsync_policy = FsyncPolicy::kBatch;
  uint32_t wal_batch_records = 64;

  // Value-storage engine for ChainReaction nodes. kDisk requires data_root
  // (values live in `<node dir>/vlog`); the cache budget bounds how many
  // value bytes each node keeps materialized in memory.
  StorageEngineKind engine = StorageEngineKind::kMem;
  uint64_t engine_cache_bytes = 64u << 20;
  uint64_t engine_segment_bytes = 8u << 20;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Simulator* sim() { return &sim_; }
  SimNetwork* net() { return net_.get(); }
  const ClusterOptions& options() const { return options_; }

  // Shared observability: one registry + trace collector for the whole
  // deployment (the simulator is one process). Always non-null; every
  // ChainReaction actor and the network have their instruments attached.
  MetricsRegistry* metrics() { return &metrics_; }
  const MetricsRegistry* metrics() const { return &metrics_; }
  TraceCollector* traces() { return &traces_; }

  // Clients are numbered 0..num_dcs*clients_per_dc-1, DC-major.
  size_t num_clients() const { return kv_clients_.size(); }
  KvClient* client(size_t i) { return kv_clients_[i].get(); }
  Env* client_env(size_t i) { return client_envs_[i]; }
  DcId client_dc(size_t i) const { return static_cast<DcId>(i / options_.clients_per_dc); }

  // ChainReaction-specific access (null / empty for baselines).
  ChainReactionClient* crx_client(size_t i);
  ChainReactionNode* crx_node(DcId dc, uint32_t idx);
  GeoReplicator* geo(DcId dc);
  MembershipService* membership(DcId dc);
  MigrationCoordinator* coordinator(DcId dc);

  // Baseline node access (null when a different system is running).
  CrNode* cr_node(uint32_t idx) { return idx < cr_nodes_.size() ? cr_nodes_[idx].get() : nullptr; }
  CraqNode* craq_node(uint32_t idx) {
    return idx < craq_nodes_.size() ? craq_nodes_[idx].get() : nullptr;
  }
  EventualNode* ev_node(uint32_t idx) {
    return idx < ev_nodes_.size() ? ev_nodes_[idx].get() : nullptr;
  }

  // Synchronously (in simulated time) loads keys 0..records-1 with
  // `value_size`-byte values, then runs the simulation to quiescence.
  void Preload(uint64_t records, size_t value_size);

  // Crashes a server and tells the membership service (ChainReaction only;
  // baselines run with static membership). The node's in-memory state is
  // gone for good — recovery is a full resync from its chain peers.
  void KillServer(DcId dc, uint32_t idx);

  // Crash-restart with recovery (requires options().data_root). CrashServer
  // drops the server off the network exactly as a process crash would: the
  // un-flushed WAL batch is lost, everything already handed to the OS
  // survives in its data dir. RestartServer later rebuilds the node from
  // that data dir (newest checkpoint + WAL tail replay) and rejoins it;
  // chain repair then re-propagates only what it missed while down.
  void CrashServer(DcId dc, uint32_t idx);
  Status RestartServer(DcId dc, uint32_t idx);
  std::string NodeDataDir(DcId dc, uint32_t idx) const;

  // Elastic membership (ChainReaction only; requires heartbeat_interval so
  // the sim stays drivable with RunUntil). Each operation is planned through
  // the DC's migration coordinator: data streams to the new layout first,
  // then the epoch flips. Returns the migration id (0 = rejected).
  //
  // AddJoiningServer boots a brand-new server (index servers_per_dc, then
  // +1, ...) and starts a join migration for it; the returned idx addresses
  // it via crx_node()/ServerAddress. `weight` 0 = default vnode count.
  uint64_t AddJoiningServer(DcId dc, uint32_t* idx_out = nullptr, uint32_t weight = 0);
  // Drains a live server out of the ring (its data migrates away first).
  // The process stays up — it just stops owning any key range.
  uint64_t DrainServer(DcId dc, uint32_t idx);
  // Changes a server's vnode weight, shifting ring arcs onto/off it.
  uint64_t RebalanceServer(DcId dc, uint32_t idx, uint32_t weight);
  // Runs the simulator in bounded slices until the DC's coordinator has no
  // active or queued migration (or `max_wait` sim time elapses). Returns
  // true if it went idle.
  bool WaitMigrationIdle(DcId dc, Duration max_wait = 30 * kSecond);

  // Aggregations ------------------------------------------------------------
  // Sum of reads answered per chain position across all servers
  // (ChainReaction and CRAQ expose this; others return empty).
  std::vector<uint64_t> ReadsByPosition() const;
  uint64_t TotalDepWaitMicros() const;
  Histogram MergedDepWaitHist() const;
  uint64_t TotalDepWaits() const;
  uint64_t TotalWritesApplied() const;

  // After quiescence, verifies that every replica of every key agrees on the
  // newest version, within and across DCs (ChainReaction only).
  bool CheckConvergence(std::string* diagnostic) const;

  NodeId ServerAddress(DcId dc, uint32_t idx) const;

  // Starts one aggregated HTTP telemetry endpoint for the whole simulated
  // deployment: the shared metrics registry and trace collector (both
  // thread-safe to scrape while the simulation runs), every node's and
  // replicator's flight recorder under /events, and a static-topology
  // /status (dynamic per-node state is loop-owned and not exposed here —
  // use the per-node endpoints of the TCP runtime for that). Returns null
  // if `port` cannot be bound. The cluster must outlive the server.
  std::unique_ptr<TelemetryServer> ServeTelemetry(uint16_t port);

 private:
  void BuildChainReaction();
  void BuildBaseline();
  CrxConfig MakeCrxConfig(DcId dc) const;
  WalOptions MakeWalOptions() const;

  ClusterOptions options_;
  Simulator sim_;
  std::unique_ptr<SimNetwork> net_;
  MetricsRegistry metrics_;
  TraceCollector traces_;

  // Per-DC state (ChainReaction); baselines use index 0 only.
  std::vector<std::unique_ptr<MembershipService>> membership_;
  std::vector<std::unique_ptr<MigrationCoordinator>> coordinators_;
  std::vector<std::unique_ptr<GeoReplicator>> geo_;
  std::vector<std::vector<std::unique_ptr<ChainReactionNode>>> crx_nodes_;
  // Crashed-then-replaced nodes, parked until teardown so flight-recorder
  // pointers handed to a TelemetryServer can never dangle across restarts.
  std::vector<std::unique_ptr<ChainReactionNode>> retired_nodes_;
  std::vector<std::unique_ptr<CrNode>> cr_nodes_;
  std::vector<std::unique_ptr<CraqNode>> craq_nodes_;
  std::vector<std::unique_ptr<EventualNode>> ev_nodes_;

  std::vector<std::unique_ptr<ChainReactionClient>> crx_clients_;
  std::vector<std::unique_ptr<CrClient>> cr_clients_;
  std::vector<std::unique_ptr<CraqClient>> craq_clients_;
  std::vector<std::unique_ptr<EventualClient>> ev_clients_;

  std::vector<std::unique_ptr<KvClient>> kv_clients_;
  std::vector<Env*> client_envs_;
};

}  // namespace chainreaction

#endif  // SRC_HARNESS_CLUSTER_H_
