#include "src/harness/cluster.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "src/common/logging.h"
#include "src/common/result.h"
#include "src/ycsb/workload.h"

namespace chainreaction {

namespace {
// Server ids: dc * kDcStride + idx. Keeps server addresses below the client
// address base for any sane cluster size.
constexpr Address kDcStride = 4096;
constexpr Address kGeoBase = kServiceAddressBase;          // + dc
constexpr Address kMembershipBase = kServiceAddressBase + 1024;  // + dc
constexpr Address kCoordinatorBase = kServiceAddressBase + 2048;  // + dc
}  // namespace

const char* SystemKindName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kChainReaction:
      return "CHAINREACTION";
    case SystemKind::kCr:
      return "CR(FAWN-KV)";
    case SystemKind::kCraq:
      return "CRAQ";
    case SystemKind::kEventualOne:
      return "EVENTUAL-R1W1";
    case SystemKind::kQuorum:
      return "QUORUM";
  }
  return "?";
}

NodeId Cluster::ServerAddress(DcId dc, uint32_t idx) const { return dc * kDcStride + idx; }

Cluster::Cluster(ClusterOptions options) : options_(std::move(options)) {
  CHAINRX_CHECK(options_.num_dcs >= 1);
  CHAINRX_CHECK(options_.system == SystemKind::kChainReaction || options_.num_dcs == 1);
  net_ = std::make_unique<SimNetwork>(&sim_, options_.net, options_.seed ^ 0x6e657400);
  net_->AttachMetrics(&metrics_);
  if (options_.system == SystemKind::kChainReaction) {
    BuildChainReaction();
  } else {
    BuildBaseline();
  }
}

Cluster::~Cluster() {
  // Clean-teardown flight dump: crash dumps (CrashServer) already write
  // flight.log, but a run that ends normally used to discard every live
  // node's recorder. Dump them all so post-run analysis always has the
  // control-plane tail, marked with a shutdown (not crash) header.
  if (!options_.data_root.empty()) {
    for (DcId dc = 0; dc < crx_nodes_.size(); ++dc) {
      for (uint32_t idx = 0; idx < crx_nodes_[dc].size(); ++idx) {
        if (crx_nodes_[dc][idx] != nullptr) {
          crx_nodes_[dc][idx]->events()->DumpToFile(NodeDataDir(dc, idx) + "/flight.log",
                                                    sim_.Now(), EventKind::kShutdownDump);
        }
      }
    }
  }
}

CrxConfig Cluster::MakeCrxConfig(DcId dc) const {
  CrxConfig cfg;
  cfg.replication = options_.replication;
  cfg.k_stability = options_.k_stability;
  cfg.vnodes = options_.vnodes;
  cfg.local_dc = dc;
  cfg.num_dcs = options_.num_dcs;
  cfg.geo_replicator = options_.num_dcs > 1 ? kGeoBase + dc : 0;
  cfg.client_timeout = options_.client_timeout;
  if (options_.heartbeat_interval > 0) {
    cfg.membership = kMembershipBase + dc;
    cfg.heartbeat_interval = options_.heartbeat_interval;
  }
  cfg.fd_sweep_interval = options_.fd_sweep_interval;
  cfg.fd_timeout = options_.fd_timeout;
  cfg.membership_rebroadcast_interval = options_.membership_rebroadcast_interval;
  cfg.read_policy = options_.read_policy;
  cfg.dep_watermark = options_.dep_watermark;
  cfg.wm_gossip_interval = options_.wm_gossip_interval;
  cfg.engine = options_.engine;
  cfg.engine_cache_bytes = options_.engine_cache_bytes;
  cfg.engine_segment_bytes = options_.engine_segment_bytes;
  cfg.disable_dependency_gating = options_.disable_dependency_gating;
  cfg.trace_sample_every = options_.trace_sample_every;
  cfg.trace_probability = options_.trace_probability;
  cfg.slow_trace_us = options_.slow_trace_us;
  cfg.stall_depwait_multiple = options_.stall_depwait_multiple;
  return cfg;
}

WalOptions Cluster::MakeWalOptions() const {
  WalOptions wal;
  wal.policy = options_.fsync_policy;
  wal.batch_max_records = options_.wal_batch_records;
  wal.start_flusher_thread = false;  // deterministic under the simulator
  return wal;
}

std::string Cluster::NodeDataDir(DcId dc, uint32_t idx) const {
  return options_.data_root + "/dc" + std::to_string(dc) + "-n" + std::to_string(idx);
}

void Cluster::BuildChainReaction() {
  const uint16_t dcs = options_.num_dcs;
  membership_.resize(dcs);
  coordinators_.resize(dcs);
  geo_.resize(dcs);
  crx_nodes_.resize(dcs);

  for (DcId dc = 0; dc < dcs; ++dc) {
    std::vector<NodeId> node_ids;
    for (uint32_t i = 0; i < options_.servers_per_dc; ++i) {
      node_ids.push_back(ServerAddress(dc, i));
    }
    membership_[dc] = std::make_unique<MembershipService>(node_ids, options_.vnodes,
                                                          options_.replication);
    Env* menv = net_->Register(kMembershipBase + dc, membership_[dc].get(), dc);
    membership_[dc]->AttachEnv(menv);
    const CrxConfig cfg = MakeCrxConfig(dc);
    if (options_.heartbeat_interval > 0) {
      const Duration sweep = cfg.fd_sweep_interval > 0 ? cfg.fd_sweep_interval
                                                       : options_.heartbeat_interval;
      const Duration timeout =
          cfg.fd_timeout > 0 ? cfg.fd_timeout : 4 * options_.heartbeat_interval;
      membership_[dc]->EnableFailureDetection(sweep, timeout);
    }
    if (cfg.membership_rebroadcast_interval > 0) {
      membership_[dc]->EnableRebroadcast(cfg.membership_rebroadcast_interval);
    }
    const Ring& ring = membership_[dc]->ring();

    // Planned-migration coordinator: a per-DC control-plane actor tracking
    // the membership view live (listener) and driving join/drain/rebalance.
    MigrationCoordinator::Options copt;
    copt.vnodes = options_.vnodes;
    copt.replication = options_.replication;
    copt.self = kCoordinatorBase + dc;
    copt.membership = kMembershipBase + dc;
    copt.batch_keys = options_.mig_batch_keys;
    copt.batch_interval = options_.mig_batch_interval;
    copt.timeout = options_.migration_timeout;
    coordinators_[dc] = std::make_unique<MigrationCoordinator>(copt);
    Env* xenv = net_->Register(kCoordinatorBase + dc, coordinators_[dc].get(), dc);
    coordinators_[dc]->AttachEnv(xenv);
    coordinators_[dc]->AttachObs(&metrics_);
    coordinators_[dc]->Seed(membership_[dc]->epoch(), node_ids, membership_[dc]->Weights());
    membership_[dc]->AddListener(kCoordinatorBase + dc);

    // The disk engine lives under each node's data dir.
    CHAINRX_CHECK(options_.engine != StorageEngineKind::kDisk || !options_.data_root.empty());
    for (uint32_t i = 0; i < options_.servers_per_dc; ++i) {
      auto node = std::make_unique<ChainReactionNode>(node_ids[i], cfg, ring);
      if (!options_.data_root.empty()) {
        const Status st = node->EnableDurability(NodeDataDir(dc, i), MakeWalOptions());
        CHAINRX_CHECK(st.ok());
      }
      Env* env = net_->Register(node_ids[i], node.get(), dc, options_.server_service);
      node->AttachEnv(env);
      node->AttachObs(&metrics_, &traces_);
      crx_nodes_[dc].push_back(std::move(node));
    }

    if (dcs > 1) {
      geo_[dc] = std::make_unique<GeoReplicator>(dc, cfg, ring);
      Env* genv = net_->Register(kGeoBase + dc, geo_[dc].get(), dc, ServiceModel{2, 0.0, 0});
      geo_[dc]->AttachEnv(genv);
      geo_[dc]->AttachObs(&metrics_, &traces_);
      membership_[dc]->AddListener(kGeoBase + dc);
    }

    for (uint32_t c = 0; c < options_.clients_per_dc; ++c) {
      const Address addr = kClientAddressBase + dc * options_.clients_per_dc + c;
      auto client = std::make_unique<ChainReactionClient>(
          addr, cfg, ring, options_.seed * 7919 + addr);
      Env* cenv = net_->Register(addr, client.get(), dc, options_.client_service);
      client->AttachEnv(cenv);
      client->AttachObs(&metrics_, &traces_);
      membership_[dc]->AddListener(addr);
      kv_clients_.push_back(std::make_unique<CrxKvClient>(client.get()));
      client_envs_.push_back(cenv);
      crx_clients_.push_back(std::move(client));
    }
  }

  if (dcs > 1) {
    std::vector<Address> peers(dcs, 0);
    for (DcId dc = 0; dc < dcs; ++dc) {
      peers[dc] = kGeoBase + dc;
    }
    for (DcId dc = 0; dc < dcs; ++dc) {
      geo_[dc]->SetPeers(peers);
    }
  }
}

void Cluster::BuildBaseline() {
  std::vector<NodeId> node_ids;
  for (uint32_t i = 0; i < options_.servers_per_dc; ++i) {
    node_ids.push_back(ServerAddress(0, i));
  }
  const Ring ring(node_ids, options_.vnodes, options_.replication, /*epoch=*/1);

  for (uint32_t i = 0; i < options_.servers_per_dc; ++i) {
    switch (options_.system) {
      case SystemKind::kCr: {
        auto node = std::make_unique<CrNode>(node_ids[i], ring);
        node->AttachEnv(net_->Register(node_ids[i], node.get(), 0, options_.server_service));
        cr_nodes_.push_back(std::move(node));
        break;
      }
      case SystemKind::kCraq: {
        auto node = std::make_unique<CraqNode>(node_ids[i], ring);
        node->AttachEnv(net_->Register(node_ids[i], node.get(), 0, options_.server_service));
        craq_nodes_.push_back(std::move(node));
        break;
      }
      case SystemKind::kEventualOne:
      case SystemKind::kQuorum: {
        const EvConsistency mode = options_.system == SystemKind::kQuorum
                                       ? EvConsistency::kQuorum
                                       : EvConsistency::kOne;
        auto node = std::make_unique<EventualNode>(node_ids[i], ring, mode,
                                                   options_.seed * 31 + i);
        node->AttachEnv(net_->Register(node_ids[i], node.get(), 0, options_.server_service));
        ev_nodes_.push_back(std::move(node));
        break;
      }
      case SystemKind::kChainReaction:
        CHAINRX_CHECK(false);
    }
  }

  for (uint32_t c = 0; c < options_.clients_per_dc; ++c) {
    const Address addr = kClientAddressBase + c;
    Env* cenv = nullptr;
    switch (options_.system) {
      case SystemKind::kCr: {
        auto client = std::make_unique<CrClient>(addr, ring, options_.client_timeout);
        cenv = net_->Register(addr, client.get(), 0, options_.client_service);
        client->AttachEnv(cenv);
        kv_clients_.push_back(std::make_unique<CrKvClient>(client.get(), addr));
        cr_clients_.push_back(std::move(client));
        break;
      }
      case SystemKind::kCraq: {
        auto client = std::make_unique<CraqClient>(addr, ring, options_.client_timeout,
                                                   options_.seed * 7919 + addr);
        cenv = net_->Register(addr, client.get(), 0, options_.client_service);
        client->AttachEnv(cenv);
        kv_clients_.push_back(std::make_unique<CraqKvClient>(client.get(), addr));
        craq_clients_.push_back(std::move(client));
        break;
      }
      case SystemKind::kEventualOne:
      case SystemKind::kQuorum: {
        auto client = std::make_unique<EventualClient>(addr, ring, options_.client_timeout,
                                                       options_.seed * 7919 + addr);
        cenv = net_->Register(addr, client.get(), 0, options_.client_service);
        client->AttachEnv(cenv);
        kv_clients_.push_back(std::make_unique<EventualKvClient>(client.get(), addr));
        ev_clients_.push_back(std::move(client));
        break;
      }
      case SystemKind::kChainReaction:
        CHAINRX_CHECK(false);
    }
    client_envs_.push_back(cenv);
  }
}

ChainReactionClient* Cluster::crx_client(size_t i) {
  return i < crx_clients_.size() ? crx_clients_[i].get() : nullptr;
}

ChainReactionNode* Cluster::crx_node(DcId dc, uint32_t idx) {
  if (dc < crx_nodes_.size() && idx < crx_nodes_[dc].size()) {
    return crx_nodes_[dc][idx].get();
  }
  return nullptr;
}

GeoReplicator* Cluster::geo(DcId dc) { return dc < geo_.size() ? geo_[dc].get() : nullptr; }

MembershipService* Cluster::membership(DcId dc) {
  return dc < membership_.size() ? membership_[dc].get() : nullptr;
}

MigrationCoordinator* Cluster::coordinator(DcId dc) {
  return dc < coordinators_.size() ? coordinators_[dc].get() : nullptr;
}

uint64_t Cluster::AddJoiningServer(DcId dc, uint32_t* idx_out, uint32_t weight) {
  CHAINRX_CHECK(options_.system == SystemKind::kChainReaction);
  CHAINRX_CHECK(dc < crx_nodes_.size());
  const uint32_t idx = static_cast<uint32_t>(crx_nodes_[dc].size());
  const NodeId node_id = ServerAddress(dc, idx);
  // The newcomer boots on the *current* ring (which does not contain it):
  // it owns nothing yet, absorbs the migration stream as a target, and
  // takes over its chain segments when the committed epoch arrives.
  auto node = std::make_unique<ChainReactionNode>(node_id, MakeCrxConfig(dc),
                                                  membership_[dc]->ring());
  if (!options_.data_root.empty()) {
    const Status st = node->EnableDurability(NodeDataDir(dc, idx), MakeWalOptions());
    CHAINRX_CHECK(st.ok());
  }
  Env* env = net_->Register(node_id, node.get(), dc, options_.server_service);
  node->AttachEnv(env);
  node->AttachObs(&metrics_, &traces_);
  crx_nodes_[dc].push_back(std::move(node));
  if (idx_out != nullptr) {
    *idx_out = idx;
  }
  return coordinators_[dc]->StartJoin(node_id, weight);
}

uint64_t Cluster::DrainServer(DcId dc, uint32_t idx) {
  CHAINRX_CHECK(options_.system == SystemKind::kChainReaction);
  CHAINRX_CHECK(dc < crx_nodes_.size() && idx < crx_nodes_[dc].size());
  return coordinators_[dc]->StartDrain(ServerAddress(dc, idx));
}

uint64_t Cluster::RebalanceServer(DcId dc, uint32_t idx, uint32_t weight) {
  CHAINRX_CHECK(options_.system == SystemKind::kChainReaction);
  CHAINRX_CHECK(dc < crx_nodes_.size() && idx < crx_nodes_[dc].size());
  return coordinators_[dc]->StartRebalance(ServerAddress(dc, idx), weight);
}

bool Cluster::WaitMigrationIdle(DcId dc, Duration max_wait) {
  CHAINRX_CHECK(dc < coordinators_.size() && coordinators_[dc] != nullptr);
  const Time deadline = sim_.Now() + max_wait;
  while (!coordinators_[dc]->idle() && sim_.Now() < deadline) {
    sim_.RunUntil(sim_.Now() + 10 * kMillisecond);
  }
  return coordinators_[dc]->idle();
}

void Cluster::Preload(uint64_t records, size_t value_size) {
  // Load through the DC-0 clients, keys striped round-robin, each client
  // loading sequentially; then run to quiescence (stabilization + geo).
  const size_t loaders = std::min<size_t>(options_.clients_per_dc, kv_clients_.size());
  CHAINRX_CHECK(loaders > 0);
  uint64_t outstanding = 0;

  struct Loader {
    Cluster* cluster;
    size_t client_idx;
    uint64_t next;
    uint64_t records;
    size_t stride;
    size_t value_size;
    uint64_t* outstanding;

    void LoadOne() {
      if (next >= records) {
        return;
      }
      const uint64_t idx = next;
      next += stride;
      (*outstanding)++;
      cluster->client(client_idx)
          ->Put(RecordKey(idx), MakeValue(0, idx, value_size), [this](const KvPutResult&) {
            (*outstanding)--;
            LoadOne();
          });
    }
  };

  std::vector<Loader> tasks(loaders);
  for (size_t i = 0; i < loaders; ++i) {
    tasks[i] = Loader{this, i, static_cast<uint64_t>(i), records, loaders, value_size,
                      &outstanding};
    tasks[i].LoadOne();
  }
  if (options_.heartbeat_interval > 0) {
    // Heartbeat timers keep the queue non-empty forever; drain in bounded
    // windows until the load completes, then let stabilization settle.
    while (outstanding > 0) {
      sim_.RunUntil(sim_.Now() + 100 * kMillisecond);
    }
    sim_.RunUntil(sim_.Now() + 500 * kMillisecond);
  } else {
    // Loaders chain their own continuation, so running the simulator until
    // the event queue is empty completes the load and stabilization.
    sim_.Run();
  }
  CHAINRX_CHECK(outstanding == 0);
}

void Cluster::KillServer(DcId dc, uint32_t idx) {
  CHAINRX_CHECK(options_.system == SystemKind::kChainReaction);
  const NodeId node = ServerAddress(dc, idx);
  net_->Crash(node);
  membership_[dc]->RemoveNode(node);
}

void Cluster::CrashServer(DcId dc, uint32_t idx) {
  CHAINRX_CHECK(options_.system == SystemKind::kChainReaction);
  CHAINRX_CHECK(!options_.data_root.empty());
  const NodeId node = ServerAddress(dc, idx);
  // Dump the victim's flight recorder to its data dir first — the post-crash
  // artifact an operator (or the crash-restart property test) reads to see
  // what the node was doing when it died.
  crx_nodes_[dc][idx]->events()->DumpToFile(NodeDataDir(dc, idx) + "/flight.log",
                                            sim_.Now());
  // Drop the un-flushed group-commit batch, as a real process crash would;
  // everything already written through to the OS stays in the data dir.
  crx_nodes_[dc][idx]->CrashDurability();
  net_->Crash(node);
  membership_[dc]->RemoveNode(node);
}

Status Cluster::RestartServer(DcId dc, uint32_t idx) {
  CHAINRX_CHECK(options_.system == SystemKind::kChainReaction);
  CHAINRX_CHECK(!options_.data_root.empty());
  const NodeId node_id = ServerAddress(dc, idx);

  // The crashed actor is gone; a restarted process is a fresh node that
  // rebuilds its store from the data dir before rejoining.
  net_->Unregister(node_id);
  net_->Restore(node_id);
  auto node = std::make_unique<ChainReactionNode>(node_id, MakeCrxConfig(dc),
                                                  membership_[dc]->ring());
  // Recover before re-opening the WAL: torn-tail truncation only applies to
  // the newest segment, and opening the WAL first would create a fresh one.
  Status status = node->RecoverFrom(NodeDataDir(dc, idx));
  if (!status.ok()) {
    return status;
  }
  status = node->EnableDurability(NodeDataDir(dc, idx), MakeWalOptions());
  if (!status.ok()) {
    return status;
  }
  Env* env = net_->Register(node_id, node.get(), dc, options_.server_service);
  node->AttachEnv(env);
  node->AttachObs(&metrics_, &traces_);
  retired_nodes_.push_back(std::move(crx_nodes_[dc][idx]));
  crx_nodes_[dc][idx] = std::move(node);
  // Announce the rejoin only once recovery is complete: the epoch broadcast
  // triggers chain repair, which syncs the node the delta it missed.
  membership_[dc]->AddNode(node_id);
  return Status::Ok();
}

std::unique_ptr<TelemetryServer> Cluster::ServeTelemetry(uint16_t port) {
  auto server = std::make_unique<TelemetryServer>(port);
  if (!server->ok()) {
    return nullptr;
  }
  server->AttachMetrics(&metrics_);
  server->AttachTraces(&traces_);
  for (DcId dc = 0; dc < crx_nodes_.size(); ++dc) {
    for (uint32_t idx = 0; idx < crx_nodes_[dc].size(); ++idx) {
      server->AddRecorder(
          "dc" + std::to_string(dc) + "-n" + std::to_string(idx),
          crx_nodes_[dc][idx]->events());
    }
  }
  for (DcId dc = 0; dc < geo_.size(); ++dc) {
    if (geo_[dc] != nullptr) {
      server->AddRecorder("geo-dc" + std::to_string(dc), geo_[dc]->events());
    }
  }
  // Static topology only: dynamic node state is owned by the sim thread.
  const ClusterOptions& opt = options_;
  server->SetStatusProvider([opt] {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"system\":\"%s\",\"dcs\":%u,\"servers_per_dc\":%u,"
                  "\"clients_per_dc\":%u,\"replication\":%u,\"k_stability\":%u,"
                  "\"durability\":%s}",
                  SystemKindName(opt.system), opt.num_dcs, opt.servers_per_dc,
                  opt.clients_per_dc, opt.replication, opt.k_stability,
                  opt.data_root.empty() ? "false" : "true");
    return std::string(buf);
  });
  server->Start();
  return server;
}

std::vector<uint64_t> Cluster::ReadsByPosition() const {
  std::vector<uint64_t> sums;
  for (const auto& dc_nodes : crx_nodes_) {
    for (const auto& node : dc_nodes) {
      const auto& per = node->reads_by_position();
      if (sums.size() < per.size()) {
        sums.resize(per.size(), 0);
      }
      for (size_t i = 0; i < per.size(); ++i) {
        sums[i] += per[i];
      }
    }
  }
  for (const auto& node : craq_nodes_) {
    const auto& per = node->reads_by_position();
    if (sums.size() < per.size()) {
      sums.resize(per.size(), 0);
    }
    for (size_t i = 0; i < per.size(); ++i) {
      sums[i] += per[i];
    }
  }
  // Trim trailing zero positions beyond R.
  while (sums.size() > options_.replication && sums.back() == 0) {
    sums.pop_back();
  }
  return sums;
}

uint64_t Cluster::TotalDepWaitMicros() const {
  uint64_t total = 0;
  for (const auto& dc_nodes : crx_nodes_) {
    for (const auto& node : dc_nodes) {
      total += node->dep_wait_total_us();
    }
  }
  return total;
}

Histogram Cluster::MergedDepWaitHist() const {
  Histogram merged;
  for (const auto& dc_nodes : crx_nodes_) {
    for (const auto& node : dc_nodes) {
      merged.Merge(node->dep_wait_hist());
    }
  }
  return merged;
}

uint64_t Cluster::TotalDepWaits() const {
  uint64_t total = 0;
  for (const auto& dc_nodes : crx_nodes_) {
    for (const auto& node : dc_nodes) {
      total += node->dep_waits();
    }
  }
  return total;
}

uint64_t Cluster::TotalWritesApplied() const {
  uint64_t total = 0;
  for (const auto& dc_nodes : crx_nodes_) {
    for (const auto& node : dc_nodes) {
      total += node->writes_applied();
    }
  }
  return total;
}

bool Cluster::CheckConvergence(std::string* diagnostic) const {
  CHAINRX_CHECK(options_.system == SystemKind::kChainReaction);
  // key -> set of distinct latest versions observed across all replicas
  // everywhere. Converged iff exactly one per key.
  std::map<Key, std::map<std::string, std::vector<NodeId>>> latest_by_key;
  for (DcId dc = 0; dc < crx_nodes_.size(); ++dc) {
    const Ring& ring = membership_[dc]->ring();
    for (const auto& node : crx_nodes_[dc]) {
      if (net_->IsCrashed(node->id())) {
        continue;
      }
      node->store().ForEachKey([&](const Key& key, const StoredVersion&) {
        // A node that dropped out of a key's chain (e.g. the chain shrank
        // back when a crashed server rejoined) keeps a leftover copy that
        // serves no reads; only current chain members count.
        if (ring.PositionOf(key, node->id()) == 0) {
          return;
        }
        // ForEachKey is metadata-only (value may be unmaterialized under a
        // disk engine); Latest() faults the bytes in for the comparison.
        const StoredVersion* latest = node->store().Latest(key);
        latest_by_key[key][latest->version.ToString() + "=" + latest->value.substr(0, 24)]
            .push_back(node->id());
      });
    }
  }
  for (const auto& [key, versions] : latest_by_key) {
    if (versions.size() != 1) {
      if (diagnostic != nullptr) {
        *diagnostic = "key '" + key + "' diverged: " + std::to_string(versions.size()) +
                      " distinct latest versions:";
        for (const auto& [version, nodes] : versions) {
          *diagnostic += " [" + version + " @ nodes";
          for (NodeId n : nodes) {
            *diagnostic += " " + std::to_string(n);
          }
          *diagnostic += "]";
        }
      }
      return false;
    }
  }
  return true;
}

}  // namespace chainreaction
