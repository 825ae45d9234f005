#include "src/core/chainreaction_node.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/storage/checkpoint.h"
#include "src/common/result.h"

namespace chainreaction {

namespace {

// Recovery replay is a real I/O cost, measured on the wall clock (the node
// may not even have an Env attached yet when it recovers).
int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

ChainReactionNode::ChainReactionNode(NodeId id, CrxConfig config, Ring initial_ring)
    : id_(id),
      config_(config),
      ring_(std::move(initial_ring)),
      reads_by_position_(config.replication, 0) {
  CHAINRX_CHECK(config_.k_stability >= 1 && config_.k_stability <= config_.replication);
  if (config_.dep_watermark) {
    store_.TrackStabilityFor(config_.local_dc);
  }
}

Status ChainReactionNode::SaveStateCheckpoint(const std::string& path) const {
  return SaveCheckpoint(store_, path);
}

Status ChainReactionNode::LoadStateCheckpoint(const std::string& path) {
  const Status status = LoadCheckpoint(path, &store_);
  if (!status.ok()) {
    return status;
  }
  RebuildRecoveredState();
  return Status::Ok();
}

void ChainReactionNode::RebuildRecoveredState() {
  // Rebuild the stability cache and unstable-head tracking from the store.
  // Metadata-only accessors keep this O(index) under a disk engine — the
  // scan never faults values in from the log.
  store_.ForEachRecord([this](KeyRecord& rec) {
    if (const StoredVersion* stable = store_.LatestStableMeta(rec)) {
      rec.slots.stable_vv.MergeMax(stable->version.vv);
    }
    if (store_.HasUnstable(rec) && ring_.PositionOf(rec.key(), id_) == 1 &&
        rec.slots.unstable_head == 0) {
      unstable_heads_.push_back(&rec);
      rec.slots.unstable_head = static_cast<uint32_t>(unstable_heads_.size());
    }
    lamport_ = std::max(lamport_, store_.LatestMeta(rec)->version.lamport);
  });
}

Status ChainReactionNode::EnsureEngine(const std::string& data_dir) {
  if (config_.engine != StorageEngineKind::kDisk ||
      store_.engine()->kind() == StorageEngineKind::kDisk) {
    return Status::Ok();
  }
  std::unique_ptr<StorageEngine> engine;
  DiskEngineOptions opts;
  opts.segment_bytes = config_.engine_segment_bytes;
  opts.compact_garbage_ratio = config_.engine_compact_garbage;
  const Status st = OpenDiskEngine(data_dir + "/vlog", opts, &engine);
  if (!st.ok()) {
    return st;
  }
  store_.AttachEngine(std::move(engine));
  store_.SetCacheBudget(config_.engine_cache_bytes);
  return Status::Ok();
}

Status ChainReactionNode::EnableDurability(const std::string& data_dir,
                                           const WalOptions& options) {
  data_dir_ = data_dir;
  const Status engine_status = EnsureEngine(data_dir);
  if (!engine_status.ok()) {
    return engine_status;
  }
  const Status status = Wal::Open(data_dir, options, &wal_);
  if (status.ok()) {
    wal_->SetRecorder(&events_);
    if (metrics_ != nullptr) {
      wal_->AttachObs(metrics_, std::to_string(id_));
    }
  }
  return status;
}

Status ChainReactionNode::RecoverFrom(const std::string& data_dir) {
  const int64_t start = WallMicros();
  const Status engine_status = EnsureEngine(data_dir);
  if (!engine_status.ok()) {
    return engine_status;
  }
  uint64_t wal_floor = 0;
  const Status ckpt = LoadCheckpoint(CheckpointPath(data_dir), &store_, &wal_floor);
  if (!ckpt.ok() && ckpt.code() != StatusCode::kNotFound) {
    return ckpt;
  }
  // Replay writes to the store directly: records are idempotent (exact
  // duplicate versions are absorbed), so overlap with the checkpoint or
  // with segments below the truncation floor is harmless.
  const Status replay = Wal::Replay(
      data_dir, wal_floor,
      [this](const WalRecord& record) {
        switch (record.type) {
          case WalRecordType::kApply:
            store_.Apply(record.key, record.value, record.version, record.deps);
            break;
          case WalRecordType::kStable:
            store_.MarkStable(record.key, record.version);
            break;
        }
      },
      &recovery_stats_);
  if (!replay.ok() && replay.code() != StatusCode::kNotFound) {
    return replay;
  }
  RebuildRecoveredState();
  recovery_replay_us_ = WallMicros() - start;
  events_.Emit(EventKind::kWalRecovery, WallMicros(),
               static_cast<int64_t>(recovery_stats_.records),
               static_cast<int64_t>(recovery_stats_.segments_replayed));
  if (metrics_ != nullptr) {
    const MetricLabels labels = {{"node", std::to_string(id_)}};
    metrics_->GetLatency("crx_wal_recovery_replay_us", labels)->Record(recovery_replay_us_);
    metrics_->GetCounter("crx_wal_recovery_records", labels)->Inc(recovery_stats_.records);
  }
  RefreshStoreGauges();
  return Status::Ok();
}

Status ChainReactionNode::CheckpointAndTruncate() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("durability not enabled");
  }
  // Rotate first: everything in segments below the new active one is
  // already applied, so the checkpoint taken now covers them. No messages
  // are processed between these steps (single-threaded actor).
  const Result<uint64_t> rotated = wal_->Rotate();
  if (!rotated.ok()) {
    return rotated.status();
  }
  const uint64_t floor_seq = *rotated;
  const Status saved = SaveCheckpoint(store_, CheckpointPath(data_dir_), floor_seq);
  if (!saved.ok()) {
    return saved;
  }
  wal_->DeleteSegmentsBelow(floor_seq);
  // The durable checkpoint just written no longer references fully-dead
  // value-log segments, so they can go too (mirrors the WAL truncation).
  store_.PurgeEngineGarbage();
  RefreshStoreGauges();
  return Status::Ok();
}

void ChainReactionNode::CrashDurability() {
  if (wal_ != nullptr) {
    wal_->AbandonPending();
  }
}

bool ChainReactionNode::DurableApply(KeyRecord& rec, std::string_view value,
                                     const Version& version,
                                     std::span<const Dependency> deps) {
  // Write-ahead: the record hits the log before the store. Versions already
  // present (retries, repair re-propagation) are already logged.
  if (wal_ != nullptr && store_.FindMeta(rec, version) == nullptr) {
    CheckWalAppend(wal_->AppendApply(rec.key(), value, version, deps));
  }
  return store_.Apply(rec, value, version, deps);
}

void ChainReactionNode::DurableMarkStable(KeyRecord& rec, const Version& version) {
  if (wal_ != nullptr) {
    const StoredVersion* sv = store_.FindMeta(rec, version);
    if (sv == nullptr || !sv->stable) {
      CheckWalAppend(wal_->AppendStable(rec.key(), version));
    }
  }
  store_.MarkStable(rec, version);
}

void ChainReactionNode::CheckWalAppend(const Status& status) {
  if (!status.ok()) {
    // A write the log cannot hold must not be applied and acked: a node
    // that lost its disk is not survivable (as for a failed vlog append).
    LOG_ERROR("node %u wal append failed: %s", static_cast<unsigned>(id_),
              status.ToString().c_str());
    std::abort();
  }
}

void ChainReactionNode::AttachEnv(Env* env) {
  env_ = env;
  if (config_.membership != 0 && config_.heartbeat_interval > 0) {
    SendHeartbeat();
  }
}

void ChainReactionNode::AttachObs(MetricsRegistry* metrics, TraceCollector* traces) {
  trace_sink_ = traces;
  metrics_ = metrics;
  if (metrics == nullptr) {
    return;
  }
  const std::string node = std::to_string(id_);
  if (wal_ != nullptr) {
    wal_->AttachObs(metrics, node);
  }
  const MetricLabels node_label = {{"node", node}};
  m_puts_head_ = metrics->GetCounter("crx_node_puts_applied", {{"node", node}, {"role", "head"}});
  m_puts_middle_ =
      metrics->GetCounter("crx_node_puts_applied", {{"node", node}, {"role", "middle"}});
  m_puts_tail_ = metrics->GetCounter("crx_node_puts_applied", {{"node", node}, {"role", "tail"}});
  m_reads_by_position_.assign(config_.replication, nullptr);
  for (uint32_t i = 0; i < config_.replication; ++i) {
    m_reads_by_position_[i] = metrics->GetCounter(
        "crx_node_reads_served", {{"node", node}, {"position", std::to_string(i + 1)}});
  }
  m_dep_checks_ = metrics->GetCounter("crx_node_dep_checks_sent", node_label);
  m_gets_forwarded_ = metrics->GetCounter("crx_node_gets_forwarded", node_label);
  m_gated_depth_ = metrics->GetGauge("crx_node_gated_puts", node_label);
  m_dep_wait_ = metrics->GetLatency("crx_node_dep_wait_us", node_label);
  m_ack_batched_ = metrics->GetCounter("crx_ack_batched", node_label);
  m_store_resident_versions_ = metrics->GetGauge("crx_store_resident_versions", node_label);
  m_store_resident_bytes_ = metrics->GetGauge("crx_store_resident_bytes", node_label);
  m_engine_log_bytes_ = metrics->GetGauge("crx_engine_log_bytes", node_label);
  m_engine_compactions_ = metrics->GetCounter("crx_engine_compactions_total", node_label);
  m_engine_cache_hit_ratio_ = metrics->GetGauge("crx_engine_cache_hit_ratio", node_label);
  m_mig_entries_out_ = metrics->GetCounter("crx_mig_entries_streamed", node_label);
  m_mig_entries_in_ = metrics->GetCounter("crx_mig_entries_applied", node_label);
  m_mig_source_active_ = metrics->GetGauge("crx_mig_source_active", node_label);
  m_mig_keys_pending_ = metrics->GetGauge("crx_mig_keys_pending", node_label);
  m_mig_inflow_sessions_ = metrics->GetGauge("crx_mig_inflow_sessions", node_label);
  m_chain_lag_ = metrics->GetGauge("crx_chain_lag_us", node_label);
  m_dep_stalls_ = metrics->GetCounter("crx_dep_stalls_total", node_label);
  RefreshStoreGauges();
}

void ChainReactionNode::RefreshStoreGauges() {
  if (m_store_resident_versions_ == nullptr) {
    return;
  }
  const StorageEngineStats es = store_.engine()->Stats();
  m_store_resident_versions_->Set(static_cast<int64_t>(store_.resident_versions()));
  m_store_resident_bytes_->Set(static_cast<int64_t>(store_.resident_bytes()));
  m_engine_log_bytes_->Set(static_cast<int64_t>(es.log_bytes));
  if (es.compactions > engine_compactions_published_) {
    m_engine_compactions_->Inc(es.compactions - engine_compactions_published_);
    engine_compactions_published_ = es.compactions;
  }
  // Hit ratio as an integer percentage (gauges are int64).
  const uint64_t lookups = store_.cache_hits() + store_.cache_misses();
  if (lookups > 0) {
    m_engine_cache_hit_ratio_->Set(
        static_cast<int64_t>(store_.cache_hits() * 100 / lookups));
  }
}

void ChainReactionNode::SendHeartbeat() {
  MemHeartbeat hb;
  hb.node = id_;
  env_->Send(config_.membership, EncodeMessage(hb));
  env_->Schedule(config_.heartbeat_interval, [this]() { SendHeartbeat(); });
}

uint64_t ChainReactionNode::NextLamport() {
  lamport_ = std::max(lamport_ + 1, static_cast<uint64_t>(env_->Now()));
  return lamport_;
}

void ChainReactionNode::OnMessage(Address from, std::string_view payload) {
  // One message, one arena epoch: by the arena's lifetime rule nothing
  // handed out while processing the previous message is still referenced.
  arena_.Reset();
  switch (PeekType(payload)) {
    // The four hot types decode into views aliasing `payload` — zero
    // copies of key/value bytes until the store takes its single owned
    // copy. `payload` outlives the handler call (transport contract), and
    // the views never escape it (parking goes through ToOwned()).
    case MsgType::kCrxPut: {
      CrxPutView m;
      bool ok;
      {
        AllocPhaseScope phase(AllocPhase::kDecode);
        ok = DecodeMessage(payload, &m);
      }
      if (ok) {
        AllocPhaseScope phase(AllocPhase::kApply);
        HandlePut(m);
      }
      break;
    }
    case MsgType::kCrxChainPut: {
      CrxChainPutView m;
      bool ok;
      {
        AllocPhaseScope phase(AllocPhase::kDecode);
        ok = DecodeMessage(payload, &m);
      }
      if (ok) {
        AllocPhaseScope phase(AllocPhase::kApply);
        HandleChainPut(m, from);
      }
      break;
    }
    case MsgType::kCrxGet: {
      CrxGetView m;
      bool ok;
      {
        AllocPhaseScope phase(AllocPhase::kDecode);
        ok = DecodeMessage(payload, &m);
      }
      if (ok) {
        AllocPhaseScope phase(AllocPhase::kApply);
        HandleGet(m, from);
      }
      break;
    }
    case MsgType::kCrxStableNotify: {
      CrxStableNotifyView m;
      bool ok;
      {
        AllocPhaseScope phase(AllocPhase::kDecode);
        ok = DecodeMessage(payload, &m);
      }
      if (ok) {
        AllocPhaseScope phase(AllocPhase::kApply);
        HandleStableNotify(m, from);
      }
      break;
    }
    case MsgType::kCrxStabilityCheck: {
      CrxStabilityCheck m;
      if (DecodeMessage(payload, &m)) {
        HandleStabilityCheck(m, from);
      }
      break;
    }
    case MsgType::kCrxStabilityConfirm: {
      CrxStabilityConfirm m;
      if (DecodeMessage(payload, &m)) {
        HandleStabilityConfirm(m);
      }
      break;
    }
    case MsgType::kCrxWatermark: {
      CrxWatermark m;
      if (DecodeMessage(payload, &m)) {
        HandleWatermark(m);
      }
      break;
    }
    case MsgType::kGeoRemotePut: {
      GeoRemotePut m;
      if (DecodeMessage(payload, &m)) {
        HandleRemotePut(std::move(m));
      }
      break;
    }
    case MsgType::kGeoLocalStableAck: {
      GeoLocalStableAck m;
      if (DecodeMessage(payload, &m)) {
        HandleGeoNotifyAck(m);
      }
      break;
    }
    case MsgType::kMemNewMembership: {
      MemNewMembership m;
      if (DecodeMessage(payload, &m)) {
        HandleNewMembership(m);
      }
      break;
    }
    case MsgType::kMemSyncKey: {
      MemSyncKey m;
      if (DecodeMessage(payload, &m)) {
        HandleSyncKey(m);
      }
      break;
    }
    case MsgType::kMemSyncDone: {
      MemSyncDone m;
      if (DecodeMessage(payload, &m)) {
        HandleSyncDone(m);
      }
      break;
    }
    case MsgType::kMigSnapshotRequest: {
      MigSnapshotRequest m;
      if (DecodeMessage(payload, &m)) {
        HandleMigSnapshotRequest(m);
      }
      break;
    }
    case MsgType::kMigKeyBatch: {
      MigKeyBatch m;
      if (DecodeMessage(payload, &m)) {
        HandleMigKeyBatch(m);
      }
      break;
    }
    case MsgType::kMigAbort: {
      MigAbort m;
      if (DecodeMessage(payload, &m)) {
        HandleMigAbort(m);
      }
      break;
    }
    default:
      LOG_WARN("node %u: unexpected message type %u", id_,
               static_cast<unsigned>(PeekType(payload)));
  }
}

bool ChainReactionNode::DepTriviallyStable(std::string_view write_key,
                                           const Dependency& dep) const {
  if (dep.version.IsNull()) {
    return true;
  }
  // The client library only marks a dependency local_stable after a node of
  // the dependency's chain reported the version DC-Write-Stable; such deps
  // are carried for geo shipping but need no gating here.
  if (dep.local_stable) {
    return true;
  }
  // A dependency on an older version of the same key needs no wait: the
  // chain applies versions of one key in order, so any node holding the
  // new version holds (or has superseded) the dependency. Note this must
  // NOT be widened to "same chain": a reader of the new value may read a
  // *different* key of that chain at any position once it reports stable,
  // but the prefix property only covers positions up to the one read.
  if (dep.key == write_key) {
    return true;
  }
  // Watermark coverage: every local-origin version at or below the cluster
  // watermark W is DC-Write-Stable on every replica (DESIGN.md §14), so no
  // remote stability check is needed. This also releases deps a stale-ring
  // client could not compress away itself.
  if (config_.dep_watermark && dep.version.origin == config_.local_dc &&
      dep.version.lamport <= ClusterWatermark()) {
    return true;
  }
  const KeyRecord* rec = store_.Lookup(dep.key);
  return rec != nullptr && rec->slots.StableCovers(dep.version.vv);
}

bool ChainReactionNode::DepStableHere(const KeyRecord* rec, const Version& v) const {
  if (rec == nullptr) {
    return false;
  }
  if (rec->slots.StableCovers(v.vv)) {
    return true;
  }
  const StoredVersion* latest_stable = store_.LatestStableMeta(*rec);
  return latest_stable != nullptr && v.LwwLess(latest_stable->version);
}

bool ChainReactionNode::ReadSatisfies(const KeyRecord* rec, const Version& v) const {
  if (v.IsNull()) {
    return true;
  }
  if (rec == nullptr) {
    return false;
  }
  if (store_.HasAtLeast(*rec, v)) {
    return true;
  }
  const StoredVersion* latest = store_.LatestMeta(*rec);
  return latest != nullptr && v.LwwLess(latest->version);
}

void ChainReactionNode::HandlePut(CrxPutView& put) {
  // The key stays a view of the frame: the record lookup takes the view,
  // and anything kept past this call uses the record's own copy.
  const std::string_view key = put.key;
  const Ring::Placement at = ring_.Locate(key, id_);
  // A client with a stale ring may address the wrong node; route onward.
  if (at.position != 1) {
    env_->Send(at.head(), Enc(put));
    return;
  }

  if (config_.dep_watermark) {
    // A client's watermark hint is a W some node already computed for this
    // epoch — a valid floor for our own (W only grows within an epoch).
    if (put.wm_epoch == ring_.epoch() && put.dep_wm > wm_client_hint_) {
      wm_client_hint_ = put.dep_wm;
    }
    NudgeWatermarkGossip();
  }

  // Arrival hop: the boundary between client->head transit and head
  // processing on the critical path. Retries and rejoin re-drives re-enter
  // here with a later timestamp; the assembler keeps the earliest.
  TraceHopAndReport(&put.trace, trace_sink_, HopKind::kHeadRecv, id_, config_.local_dc,
                    static_cast<uint32_t>(put.deps.size()), env_);

  // This node's store may be missing the newest versions of the key: it
  // either just rejoined after a crash-restart (rejoin_until_), or it just
  // became the key's head at an epoch change (IsJoinGuarded — e.g. the ring
  // successor absorbing a crashed head's slot). Assigning from a stale
  // per-key vv would fork the version order, so park puts until the repair
  // syncs land.
  if (env_->Now() < rejoin_until_ || IsJoinGuarded(key, at.position)) {
    rejoin_buffered_puts_.push_back(put.ToOwned());
    events_.Emit(EventKind::kPutParked, env_->Now(), static_cast<int64_t>(Fnv1a64(key)),
                 static_cast<int64_t>(rejoin_buffered_puts_.size()));
    return;
  }

  // Retry dedup: the version was already assigned; re-propagate it so the
  // ack (and stabilization) is regenerated, but do not assign a new version.
  KeyRecord* rec = store_.Lookup(key);
  if (const Version* seen = completed_reqs_.Find(put.client, put.req)) {
    const StoredVersion* sv = rec != nullptr ? store_.Find(*rec, *seen) : nullptr;
    if (sv != nullptr) {
      // Copy the value and version out first: re-propagation may stabilize
      // the entry and trigger store GC, which can relocate the vector
      // element a view of sv->value would dangle into.
      const Value value_copy = sv->value;
      const Version version = sv->version;
      ApplyVersion(*rec, at, value_copy, version, put.client, put.req, config_.k_stability,
                   put.deps, put.trace);
      return;
    }
  }

  // A timed-out client may retry while the original is still parked:
  // re-probe the unconfirmed dependencies (confirm messages may have been
  // lost) instead of parking — or worse, applying — a second copy. This
  // check must precede the gating shortcut below, or a retry whose deps
  // have stabilized in the meantime would assign a second version and
  // orphan the parked original.
  if (auto dup = gated_reqs_.find({put.client, put.req}); dup != gated_reqs_.end()) {
    auto parked_it = gated_puts_.find(dup->second);
    if (parked_it != gated_puts_.end()) {
      for (const Dependency& dep : parked_it->second.pending_deps) {
        CrxStabilityCheck check;
        check.key = dep.key;
        check.version = dep.version;
        check.token = dup->second;
        dep_checks_sent_++;
        if (m_dep_checks_ != nullptr) {
          m_dep_checks_->Inc();
        }
        env_->Send(ring_.TailFor(dep.key), Enc(check));
      }
    }
    return;
  }

  // Gate on dependency stability (Section 3.2 of DESIGN.md): every
  // dependency must be DC-Write-Stable before this write becomes visible.
  // Gathered in per-message arena scratch — the common all-stable case
  // abandons it for free at the next OnMessage.
  ArenaVector<const Dependency*> pending{ArenaAllocator<const Dependency*>(&arena_)};
  if (!config_.disable_dependency_gating) {
    for (const Dependency& dep : put.deps) {
      if (!DepTriviallyStable(key, dep)) {
        pending.push_back(&dep);
      }
    }
  }
  if (pending.empty()) {
    ApplyAndPropagate(put, rec != nullptr ? *rec : store_.Claim(key), at);
    return;
  }

  const uint64_t token = next_token_++;
  gated_reqs_cache_.Claim(gated_reqs_, {put.client, put.req}).first->second = token;
  PendingPut& parked = gated_puts_cache_.Claim(gated_puts_, token).first->second;
  // Park field-by-field into the (possibly recycled) slot instead of
  // building a fresh owned CrxPut: the previous occupant's string and
  // vector capacities absorb the copies. Every field is assigned — a
  // recycled node keeps its old contents otherwise.
  parked.put.req = put.req;
  parked.put.client = put.client;
  parked.put.key.assign(put.key);
  parked.put.value.assign(put.value);
  parked.put.deps.assign(put.deps.begin(), put.deps.end());
  parked.put.trace = put.trace;
  parked.put.wm_epoch = put.wm_epoch;
  parked.put.dep_wm = put.dep_wm;
  parked.pending_deps.clear();
  parked.pending_deps.reserve(pending.size());
  for (const Dependency* dep : pending) {
    parked.pending_deps.push_back(*dep);
  }
  parked.parked_at = env_->Now();
  dep_waits_++;
  TraceHopAndReport(&parked.put.trace, trace_sink_, HopKind::kHeadGated, id_, config_.local_dc,
                    static_cast<uint32_t>(pending.size()), env_);
  if (m_gated_depth_ != nullptr) {
    m_gated_depth_->Set(static_cast<int64_t>(gated_puts_.size()));
  }
  for (const Dependency& dep : parked.pending_deps) {
    CrxStabilityCheck check;
    check.key = dep.key;
    check.version = dep.version;
    check.token = token;
    dep_checks_sent_++;
    if (m_dep_checks_ != nullptr) {
      m_dep_checks_->Inc();
    }
    env_->Send(ring_.TailFor(dep.key), Enc(check));
  }
}

void ChainReactionNode::HandleStabilityConfirm(const CrxStabilityConfirm& msg) {
  auto it = gated_puts_.find(msg.token);
  if (it == gated_puts_.end()) {
    return;
  }
  auto& pending = it->second.pending_deps;
  const size_t before = pending.size();
  // The dependency this confirm releases — if it empties the pending set,
  // it is the write's LAST blocker and names the critical-path dep-wait.
  Dependency blocker;
  for (const Dependency& d : pending) {
    if (d.key == msg.key) {
      blocker = d;
      break;
    }
  }
  std::erase_if(pending, [&msg](const Dependency& d) { return d.key == msg.key; });
  if (pending.size() == before || !pending.empty()) {
    return;  // duplicate confirm, or more dependencies outstanding
  }
  const Duration waited = env_->Now() - it->second.parked_at;
  dep_wait_total_us_ += static_cast<uint64_t>(waited);
  dep_wait_hist_.Record(waited);
  if (m_dep_wait_ != nullptr) {
    m_dep_wait_->Record(waited);
  }
  CrxPut put = std::move(it->second.put);
  gated_puts_cache_.Erase(gated_puts_, it);
  gated_reqs_cache_.Erase(gated_reqs_, {put.client, put.req});
  if (m_gated_depth_ != nullptr) {
    m_gated_depth_->Set(static_cast<int64_t>(gated_puts_.size()));
  }

  // Critical-path attribution: close the dep-wait segment and name the
  // blocking dependency — key hash on the hop, full key/version/chain in a
  // collector note (notes never ride the wire).
  if (put.trace.active()) {
    const uint32_t waited_clamped = static_cast<uint32_t>(
        std::min<Duration>(waited, std::numeric_limits<uint32_t>::max()));
    TraceHopAndReport(&put.trace, trace_sink_, HopKind::kDepUnblocked, id_, config_.local_dc,
                      waited_clamped, env_, Fnv1a64(blocker.key));
    if (trace_sink_ != nullptr) {
      trace_sink_->AnnotateNote(
          put.trace.id, "blocked_by key=" + blocker.key +
                            " version=" + blocker.version.ToString() + " chain=" +
                            std::to_string(ring_.HeadFor(blocker.key)) + "->" +
                            std::to_string(ring_.TailFor(blocker.key)));
    }
  }

  // Stall watchdog: a dep-wait far beyond the typical head->tail
  // stabilization lag means the blocking chain is stuck (lost notify,
  // partitioned tail), not merely busy — flag it with the offender.
  if (config_.stall_depwait_multiple > 0 && chain_lag_ewma_us_ > 0 &&
      static_cast<double>(waited) >
          config_.stall_depwait_multiple * static_cast<double>(chain_lag_ewma_us_)) {
    events_.Emit(EventKind::kDepStall, env_->Now(),
                 static_cast<int64_t>(Fnv1a64(blocker.key)), static_cast<int64_t>(waited));
    if (m_dep_stalls_ != nullptr) {
      m_dep_stalls_->Inc();
    }
  }
  // Re-enter the view-based pipeline over the owned parked copy (it
  // outlives both calls below).
  CrxPutView view = CrxPutView::From(put);
  const Ring::Placement at = ring_.Locate(put.key, id_);
  if (at.position != 1 || env_->Now() < rejoin_until_ || IsJoinGuarded(put.key, at.position)) {
    // An epoch change while the put was gated moved the key's head away from
    // this node (or guarded it): minting here would assign a version the new
    // head never sees and propagate it past the chain prefix. Re-dispatch so
    // the put is forwarded (or parked) like any fresh arrival.
    events_.Emit(EventKind::kGatedRedispatch, env_->Now(),
                 static_cast<int64_t>(Fnv1a64(put.key)),
                 static_cast<int64_t>(ring_.epoch()));
    HandlePut(view);
    return;
  }
  ApplyAndPropagate(view, store_.Claim(put.key), at);
}

void ChainReactionNode::ApplyAndPropagate(CrxPutView& put, KeyRecord& rec,
                                          const Ring::Placement& at) {
  Version version;
  if (const VersionVector* applied = store_.AppliedVv(rec)) {
    version.vv = *applied;
  } else {
    version.vv = VersionVector(config_.num_dcs);
  }
  version.vv.Increment(config_.local_dc);
  version.lamport = NextLamport();
  version.origin = config_.local_dc;

  completed_reqs_.Record(put.client, put.req, version);

  ApplyVersion(rec, at, put.value, version, put.client, put.req, config_.k_stability,
               put.deps, std::move(put.trace));
}

bool ChainReactionNode::ApplyVersion(KeyRecord& rec, const Ring::Placement& at,
                                     std::string_view value, const Version& version,
                                     Address client, RequestId req, ChainIndex ack_at,
                                     std::span<const Dependency> deps, TraceContext trace) {
  const Key& key = rec.key();
  const bool applied = DurableApply(rec, value, version, deps);  // store keeps its own copy
  if (applied) {
    writes_applied_++;
    lamport_ = std::max(lamport_, version.lamport);
    ResolveDeferredGets(rec);
    ResolveWatchers(rec);
    if ((writes_applied_ & 0xFF) == 0) {
      RefreshStoreGauges();
    }
  }

  const ChainIndex pos = at.position;
  if (pos == 0) {
    return applied;  // no longer a replica of this key (stale traffic)
  }

  // Migration catch-up mirror: while a planned transfer is active, the head
  // forwards every applied write to the key's future replicas so the bulk
  // snapshot stays current until the epoch flips. Before the value is moved
  // down-chain below.
  if (applied && pos == 1 && mig_src_ != nullptr) {
    MirrorMigrationEntry(key, /*has_value=*/true, value, version, /*stable=*/false, deps);
    // Timeline overlap marker: this write was applied while a planned
    // migration was live at the head (E18 analysis pairs these with the
    // crx_mig_* gauges to attribute migration-window latency).
    TraceHopAndReport(&trace, trace_sink_, HopKind::kMigPhase, id_, config_.local_dc,
                      static_cast<uint32_t>(mig_src_->pending.size() - mig_src_->cursor),
                      env_, mig_src_->migration_id);
  }

  // Annotate only newly applied versions so retries and anti-entropy
  // re-propagation do not duplicate hops (the collector dedups exact
  // re-reports anyway, but a retry would carry a distinct timestamp).
  if (applied && trace.active()) {
    TraceHopAndReport(&trace, trace_sink_,
                      pos == 1 ? HopKind::kHeadApply : HopKind::kChainApply, id_,
                      config_.local_dc, pos, env_);
  }
  if (applied) {
    Counter* role = pos == 1 ? m_puts_head_
                             : (pos == config_.replication ? m_puts_tail_ : m_puts_middle_);
    if (role != nullptr) {
      role->Inc();
    }
  }

  if (pos == 1 && config_.replication > 1 && applied) {
    TrackUnstableHead(rec);
  }

  if (ack_at != 0 && pos == ack_at && client != 0) {
    CrxPutAck ack;
    ack.req = req;
    ack.key = key;
    ack.version = version;
    ack.acked_at = pos;
    if (config_.dep_watermark) {
      ack.wm_epoch = ring_.epoch();
      ack.stable_wm = ClusterWatermark();
    }
    ack.trace = trace;
    TraceHopAndReport(&ack.trace, trace_sink_, HopKind::kKAck, id_, config_.local_dc, pos,
                      env_);
    SendClientAck(std::move(ack), client);
  }

  if (pos == config_.replication) {
    StabilizeAtTail(rec, at, version, deps, version.origin == config_.local_dc, value,
                    std::move(trace));
  } else {
    const NodeId succ = at.successor();
    // Down-chain forward assembled as a view: key/value bytes flow from the
    // inbound frame (or the store) straight into the encoder — the frame is
    // encoded exactly once per link and the payload is never rematerialized.
    CrxChainPutView fwd;
    fwd.key = key;
    fwd.value = value;
    fwd.version = version;
    fwd.client = client;
    fwd.req = req;
    fwd.ack_at = ack_at;
    fwd.epoch = ring_.epoch();
    fwd.chain_seq = ++next_chain_seq_[succ];
    // Every replica stores the dependency list: the tail ships it to the
    // geo replicator, and any replica serves it to multi-get read
    // transactions.
    fwd.deps.assign(deps.begin(), deps.end());
    if (config_.dep_watermark) {
      fwd.stable_cut = StableCut();
    }
    fwd.trace = std::move(trace);
    env_->Send(succ, Enc(fwd));
  }
  return applied;
}

void ChainReactionNode::SendClientAck(CrxPutAck ack, Address client) {
  turn_acks_.emplace_back(client, std::move(ack));
  ArmTurnFlush();
}

void ChainReactionNode::ArmTurnFlush() {
  if (!turn_flush_armed_) {
    turn_flush_armed_ = true;
    env_->Schedule(0, [this]() { FlushTurn(); });
  }
}

void ChainReactionNode::FlushTurn() {
  turn_flush_armed_ = false;
  // Group the turn's acks by client, keeping each client's ack order. A
  // turn holds few acks, so a scan beats a map; a sent entry's client
  // becomes 0, which no client address is.
  for (size_t i = 0; i < turn_acks_.size(); ++i) {
    const Address client = turn_acks_[i].first;
    if (client == 0) {
      continue;
    }
    ack_batch_.acks.push_back(std::move(turn_acks_[i].second));
    for (size_t j = i + 1; j < turn_acks_.size(); ++j) {
      if (turn_acks_[j].first == client) {
        ack_batch_.acks.push_back(std::move(turn_acks_[j].second));
        turn_acks_[j].first = 0;
      }
    }
    if (ack_batch_.acks.size() == 1) {
      env_->Send(client, Enc(ack_batch_.acks.front()));
    } else {
      if (m_ack_batched_ != nullptr) {
        m_ack_batched_->Inc(ack_batch_.acks.size());
      }
      env_->Send(client, Enc(ack_batch_));
    }
    ack_batch_.acks.clear();
  }
  turn_acks_.clear();
  if (turn_notifies_.empty()) {
    return;
  }
  const uint64_t epoch = ring_.epoch();
  const uint64_t cut = config_.dep_watermark ? StableCut() : 0;
  for (PendingNotify& entry : turn_notifies_) {
    // The record outlives its entry: a pending notify is a slot, and a
    // record is erased only when every slot is empty.
    entry.rec->slots.notify_seq = 0;
    CrxStableNotifyView notify;
    notify.key = entry.rec->key();
    // An epoch change in this turn may have moved the key's predecessor.
    const NodeId pred =
        entry.epoch == epoch ? entry.pred : ring_.PredecessorFor(notify.key, id_);
    if (pred == kInvalidNode) {
      continue;
    }
    notify.version = std::move(entry.version);
    notify.epoch = epoch;
    notify.stable_cut = cut;
    env_->Send(pred, Enc(notify));
  }
  turn_notifies_.clear();
}

void ChainReactionNode::HandleChainPut(CrxChainPutView& msg, Address from) {
  if (config_.dep_watermark) {
    // Chain puts come from a peer node (predecessor, repairing head, or
    // migration-era mirror) — learn its piggybacked stable cut.
    if (from < kClientAddressBase && msg.stable_cut > 0) {
      LearnPeerCut(static_cast<NodeId>(from), msg.epoch, msg.stable_cut);
    }
    NudgeWatermarkGossip();
  }
  if (msg.epoch != ring_.epoch()) {
    // A reconfiguration happened while this write was in flight; the new
    // head re-propagates all unstable writes under the new epoch.
    return;
  }
  const Ring::Placement at = ring_.Locate(msg.key, id_);
  if (at.position == 0) {
    return;
  }
  KeyRecord& rec = store_.Claim(msg.key);
  // Arrival hop splits this link into transit (previous apply -> here) and
  // process (here -> this apply). Only for the first delivery — anti-entropy
  // re-propagation of an already-applied version is not the link's transit.
  if (msg.trace.active() && store_.FindMeta(rec, msg.version) == nullptr) {
    TraceHopAndReport(&msg.trace, trace_sink_, HopKind::kChainRecv, id_, config_.local_dc,
                      at.position, env_, msg.chain_seq);
  }
  ApplyVersion(rec, at, msg.value, msg.version, msg.client, msg.req, msg.ack_at, msg.deps,
               std::move(msg.trace));
}

void ChainReactionNode::LearnStable(KeyRecord& rec, const Version& version) {
  DurableMarkStable(rec, version);
  rec.slots.stable_vv.MergeMax(version.vv);
  ResolveWatchers(rec);
  ResolveUnstableHead(rec);
}

void ChainReactionNode::StabilizeAtTail(KeyRecord& rec, const Ring::Placement& at,
                                        const Version& version,
                                        std::span<const Dependency> deps,
                                        bool has_local_payload, std::string_view value,
                                        TraceContext trace) {
  const Key& key = rec.key();
  LearnStable(rec, version);
  TraceHopAndReport(&trace, trace_sink_, HopKind::kTailStable, id_, config_.local_dc,
                    config_.replication, env_);
  if (mig_src_ != nullptr && config_.replication == 1) {
    // Single-node chains: the head IS the tail, so the backward notify that
    // would mirror the stability mark never happens — mirror it here.
    MirrorMigrationEntry(key, /*has_value=*/false, {}, version, /*stable=*/true, {});
  }

  if (config_.replication > 1) {
    // One notify per key per turn: the merged (possibly synthetic) version
    // dominates every version stabilized in the turn, including mutually
    // concurrent geo versions, and stability is prefix-closed, so one
    // message marks them all stable upstream.
    if (rec.slots.notify_seq == 0) {
      turn_notifies_.push_back(PendingNotify{&rec, version, at.predecessor(), ring_.epoch()});
      rec.slots.notify_seq = turn_notifies_.size();
      ArmTurnFlush();
    } else {
      Version& pending = turn_notifies_[rec.slots.notify_seq - 1].version;
      pending.vv.MergeMax(version.vv);
      pending.lamport = std::max(pending.lamport, version.lamport);
    }
  }

  if (config_.geo_replicator != 0) {
    GeoLocalStable msg;
    msg.key = key;
    msg.version = version;
    msg.has_payload = has_local_payload;
    if (has_local_payload) {
      msg.value = Value(value);
      msg.deps.assign(deps.begin(), deps.end());
    }
    msg.trace = std::move(trace);
    SendGeoNotify(msg);
  }
}

void ChainReactionNode::SendGeoNotify(const GeoLocalStable& msg) {
  ByteWriter w;
  w.PutString(msg.key);
  msg.version.Encode(&w);
  // Encode exactly once; the first send and every retry share the frame.
  Payload frame = Payload::Shared(EncodeMessage(msg));
  env_->Send(config_.geo_replicator, frame);
  pending_geo_notify_[w.Take()] = std::move(frame);
  ArmGeoNotifyRetry();
}

void ChainReactionNode::HandleGeoNotifyAck(const GeoLocalStableAck& msg) {
  ByteWriter w;
  w.PutString(msg.key);
  msg.version.Encode(&w);
  pending_geo_notify_.erase(w.data());
  if (pending_geo_notify_.empty() && geo_notify_timer_ != 0) {
    env_->CancelTimer(geo_notify_timer_);
    geo_notify_timer_ = 0;
  }
}

void ChainReactionNode::ArmGeoNotifyRetry() {
  if (geo_notify_timer_ != 0 || config_.anti_entropy_interval <= 0 ||
      pending_geo_notify_.empty()) {
    return;
  }
  geo_notify_timer_ = env_->Schedule(config_.anti_entropy_interval, [this]() {
    geo_notify_timer_ = 0;
    for (const auto& [vk, frame] : pending_geo_notify_) {
      env_->Send(config_.geo_replicator, frame);
    }
    ArmGeoNotifyRetry();
  });
}

void ChainReactionNode::HandleStableNotify(CrxStableNotifyView& msg, Address from) {
  if (config_.dep_watermark) {
    if (from < kClientAddressBase && msg.stable_cut > 0) {
      LearnPeerCut(static_cast<NodeId>(from), msg.epoch, msg.stable_cut);
    }
    NudgeWatermarkGossip();
  }
  const Ring::Placement at = ring_.Locate(msg.key, id_);
  const ChainIndex pos = at.position;
  // A notify that outlived an epoch change may name a key this node no
  // longer replicates; if it holds nothing for it either, there is nothing
  // to mark, and no record is made for it.
  KeyRecord* rec = pos != 0 ? &store_.Claim(msg.key) : store_.Lookup(msg.key);
  if (rec == nullptr) {
    return;
  }
  LearnStable(*rec, msg.version);
  if (pos == 1 && mig_src_ != nullptr) {
    // Mirror the stability mark to the key's future replicas so they can
    // serve dependency checks and geo shipping right after cutover.
    MirrorMigrationEntry(msg.key, /*has_value=*/false, {}, msg.version,
                         /*stable=*/true, {});
  }
  if (pos > 1) {
    const NodeId pred = at.predecessor();
    if (pred != kInvalidNode) {
      if (config_.dep_watermark) {
        // Restamp: the receiver attributes the piggybacked cut to us.
        msg.stable_cut = StableCut();
      }
      env_->Send(pred, Enc(msg));
    }
  }
}

void ChainReactionNode::HandleStabilityCheck(const CrxStabilityCheck& msg, Address from) {
  if (DepStableHere(store_.Lookup(msg.key), msg.version)) {
    CrxStabilityConfirm confirm;
    confirm.token = msg.token;
    confirm.key = msg.key;
    env_->Send(from, Enc(confirm));
    return;
  }
  watchers_[msg.key].push_back(StabilityWatcher{msg.version, msg.token, from});
}

void ChainReactionNode::ResolveWatchers(const KeyRecord& rec) {
  if (watchers_.empty()) {
    return;
  }
  auto wit = watchers_.find(rec.key());
  if (wit == watchers_.end()) {
    return;
  }
  auto& list = wit->second;
  for (size_t i = 0; i < list.size();) {
    if (DepStableHere(&rec, list[i].version)) {
      CrxStabilityConfirm confirm;
      confirm.token = list[i].token;
      confirm.key = rec.key();
      env_->Send(list[i].reply_to, Enc(confirm));
      list[i] = list.back();
      list.pop_back();
    } else {
      ++i;
    }
  }
  if (list.empty()) {
    watchers_.erase(wit);
  }
}

void ChainReactionNode::HandleGet(const CrxGetView& get, Address /*from*/) {
  const std::string_view key = get.key;
  const Ring::Placement at = ring_.Locate(key, id_);
  const ChainIndex pos = at.position;
  if (pos == 0) {
    // Stale client ring: route to the current head.
    gets_forwarded_++;
    if (m_gets_forwarded_ != nullptr) {
      m_gets_forwarded_->Inc();
    }
    env_->Send(at.head(), Enc(get));
    return;
  }

  // This node just joined the key's chain (crash-recovery rejoin, or the
  // ring successor absorbing a failed node's chain slot): its store may
  // miss versions that are causally visible through *other* keys — the
  // all-replica stability invariant is broken until the repair sync lands,
  // and the client's per-key min_version cannot express such transitive
  // dependencies. Serve from an established replica instead: escalate
  // toward the predecessor, or — at the head — park the read until the
  // guard window closes.
  if (IsJoinGuarded(key, pos)) {
    if (pos > 1) {
      gets_forwarded_++;
      if (m_gets_forwarded_ != nullptr) {
        m_gets_forwarded_->Inc();
      }
      env_->Send(at.predecessor(), Enc(get));
    } else {
      join_guarded_gets_.push_back(get.ToOwned());
      events_.Emit(EventKind::kGetParked, env_->Now(), static_cast<int64_t>(Fnv1a64(key)),
                   static_cast<int64_t>(join_guarded_gets_.size()));
    }
    return;
  }

  const KeyRecord* rec = store_.Lookup(key);
  if (!ReadSatisfies(rec, get.min_version)) {
    if (pos > 1) {
      // This replica is behind the client's causal past (possible briefly
      // during chain repair); escalate toward the head, which applies
      // writes first.
      gets_forwarded_++;
      if (m_gets_forwarded_ != nullptr) {
        m_gets_forwarded_->Inc();
      }
      env_->Send(at.predecessor(), Enc(get));
      return;
    }
    // Even the head is behind: the required version is still in flight
    // (e.g. a remote update). Defer until it lands.
    DeferredGet deferred;
    deferred.get = get.ToOwned();
    const RequestId req = get.req;
    deferred.timeout_timer = env_->Schedule(config_.deferred_read_timeout,
                                            [this, key = deferred.get.key, req]() {
      auto it = deferred_gets_.find(key);
      if (it == deferred_gets_.end()) {
        return;
      }
      auto& list = it->second;
      for (size_t i = 0; i < list.size(); ++i) {
        if (list[i].get.req == req) {
          CrxGet g = std::move(list[i].get);
          if (i + 1 != list.size()) {
            list[i] = std::move(list.back());
          }
          list.pop_back();
          AnswerGet(CrxGetView::From(g), ring_.PositionOf(g.key, id_), store_.Lookup(g.key));
          break;
        }
      }
      if (list.empty()) {
        deferred_gets_.erase(key);
      }
    });
    deferred_gets_[deferred.get.key].push_back(std::move(deferred));
    return;
  }

  AnswerGet(get, pos, rec);
}

void ChainReactionNode::AnswerGet(const CrxGetView& get, ChainIndex position,
                                  const KeyRecord* rec) {
  // Reply assembled as a view: the answered value aliases the store entry,
  // which stays untouched until Enc() below copies it into the frame.
  CrxGetReplyView reply;
  reply.req = get.req;
  reply.key = get.key;
  reply.position = position;
  if (const StoredVersion* sv = rec != nullptr ? store_.Latest(*rec) : nullptr) {
    reply.found = true;
    reply.value = sv->value;
    reply.version = sv->version;
    reply.stable = sv->stable;
    if (get.with_deps) {
      reply.deps.assign(sv->deps.begin(), sv->deps.end());
    }
  }
  if (config_.dep_watermark) {
    reply.wm_epoch = ring_.epoch();
    reply.stable_wm = ClusterWatermark();
    NudgeWatermarkGossip();
  }
  reads_served_++;
  if (position >= 1 && position <= reads_by_position_.size()) {
    reads_by_position_[position - 1]++;
    if (position <= m_reads_by_position_.size() && m_reads_by_position_[position - 1] != nullptr) {
      m_reads_by_position_[position - 1]->Inc();
    }
  }
  env_->Send(get.client, Enc(reply));
}

void ChainReactionNode::ResolveDeferredGets(const KeyRecord& rec) {
  if (deferred_gets_.empty()) {
    return;
  }
  auto it = deferred_gets_.find(rec.key());
  if (it == deferred_gets_.end()) {
    return;
  }
  auto& list = it->second;
  for (size_t i = 0; i < list.size();) {
    if (ReadSatisfies(&rec, list[i].get.min_version)) {
      env_->CancelTimer(list[i].timeout_timer);
      CrxGet g = std::move(list[i].get);
      if (i + 1 != list.size()) {
        list[i] = std::move(list.back());
      }
      list.pop_back();
      AnswerGet(CrxGetView::From(g), ring_.PositionOf(g.key, id_), &rec);
    } else {
      ++i;
    }
  }
  if (list.empty()) {
    deferred_gets_.erase(it);
  }
}

void ChainReactionNode::TrackUnstableHead(KeyRecord& rec) {
  // Every head put lands here and the stabilization notify takes it off a
  // few ms later: a list append and a slot write, no allocation.
  if (rec.slots.unstable_head == 0) {
    unstable_heads_.push_back(&rec);
    rec.slots.unstable_head = static_cast<uint32_t>(unstable_heads_.size());
  }
  if (rec.slots.unstable_since < 0) {
    rec.slots.unstable_since = env_->Now();
  }
  ArmAntiEntropy();
}

void ChainReactionNode::DropUnstableHead(KeyRecord& rec) {
  if (rec.slots.unstable_head == 0) {
    return;
  }
  // Swap-remove: the last listed record takes this one's index.
  KeyRecord* last = unstable_heads_.back();
  unstable_heads_[rec.slots.unstable_head - 1] = last;
  last->slots.unstable_head = rec.slots.unstable_head;
  unstable_heads_.pop_back();
  rec.slots.unstable_head = 0;
  rec.slots.unstable_since = -1;
}

void ChainReactionNode::ResolveUnstableHead(KeyRecord& rec) {
  if (rec.slots.unstable_head == 0 || store_.HasUnstable(rec)) {
    return;
  }
  // Head->tail stabilization lag sample for this key, folded into the EWMA
  // the dep-stall watchdog compares against (alpha = 1/8).
  if (rec.slots.unstable_since >= 0) {
    const int64_t lag = static_cast<int64_t>(env_->Now() - rec.slots.unstable_since);
    if (lag >= 0) {
      chain_lag_ewma_us_ = chain_lag_ewma_us_ == 0 ? lag : (7 * chain_lag_ewma_us_ + lag) / 8;
      if (m_chain_lag_ != nullptr) {
        m_chain_lag_->Set(chain_lag_ewma_us_);
      }
    }
  }
  // An empty list leaves the anti-entropy timer armed: it finds nothing
  // and does not re-arm. Cancelling it here would re-arm it on the next
  // put, which at one put per stabilization fills the timer heap.
  DropUnstableHead(rec);
}

void ChainReactionNode::ArmAntiEntropy() {
  if (anti_entropy_armed_ || config_.anti_entropy_interval <= 0 ||
      unstable_heads_.empty()) {
    return;
  }
  anti_entropy_armed_ = true;
  env_->Schedule(config_.anti_entropy_interval, [this]() {
    anti_entropy_armed_ = false;
    RunAntiEntropy();
    ArmAntiEntropy();
  });
}

void ChainReactionNode::RunAntiEntropy() {
  std::vector<KeyRecord*> done;
  for (KeyRecord* rec : unstable_heads_) {
    const Ring::Placement at = ring_.Locate(rec->key(), id_);
    if (at.position != 1) {
      done.push_back(rec);  // chain moved; the new head owns re-propagation
      continue;
    }
    const std::vector<StoredVersion> unstable = store_.UnstableVersions(*rec);
    if (unstable.empty()) {
      done.push_back(rec);
      continue;
    }
    for (const StoredVersion& sv : unstable) {
      CrxChainPut fwd;
      fwd.key = rec->key();
      fwd.value = sv.value;
      fwd.version = sv.version;
      fwd.client = 0;
      fwd.req = 0;
      fwd.ack_at = 0;
      fwd.epoch = ring_.epoch();
      fwd.deps.assign(sv.deps.begin(), sv.deps.end());
      if (config_.dep_watermark) {
        fwd.stable_cut = StableCut();
      }
      env_->Send(at.successor(), Enc(fwd));
    }
  }
  for (KeyRecord* rec : done) {
    DropUnstableHead(*rec);  // ownership moved or resolved: no lag sample
  }
}

void ChainReactionNode::HandleRemotePut(GeoRemotePut msg) {
  const Ring::Placement at = ring_.Locate(msg.key, id_);
  if (at.position != 1) {
    env_->Send(at.head(), EncodeMessage(msg));
    return;
  }
  ApplyVersion(store_.Claim(msg.key), at, msg.value, msg.version, /*client=*/0, /*req=*/0,
               /*ack_at=*/0, msg.deps, std::move(msg.trace));
}

void ChainReactionNode::HandleNewMembership(const MemNewMembership& msg) {
  if (msg.epoch <= ring_.epoch()) {
    return;
  }
  const Ring old_ring = ring_;
  ring_ = Ring(msg.nodes, config_.vnodes, config_.replication, msg.epoch, msg.weights);
  events_.Emit(EventKind::kEpochChange, env_->Now(), static_cast<int64_t>(msg.epoch),
               static_cast<int64_t>(msg.nodes.size()));
  // Watermark cuts are epoch-scoped: the new membership may include nodes
  // whose cuts we never learned (W must drop to 0 until they report) and
  // client hints from the old epoch no longer name this ring.
  wm_peer_cuts_.clear();
  wm_client_hint_ = 0;
  NudgeWatermarkGossip();
  if (mig_src_ != nullptr) {
    // Any epoch change ends the catch-up mirror: either this is our
    // migration's commit (the targets are chain members now, fed by normal
    // propagation) or the plan went stale and the coordinator will abort.
    mig_src_.reset();
    if (m_mig_source_active_ != nullptr) {
      m_mig_source_active_->Set(0);
      m_mig_keys_pending_->Set(0);
    }
  }
  // Inflow sessions two epochs back can no longer receive legitimate
  // stragglers (their source's marker passed long ago); drop the bookkeeping.
  for (auto it = mig_inflows_.begin(); it != mig_inflows_.end();) {
    it = it->second.created_epoch + 1 < msg.epoch ? mig_inflows_.erase(it) : ++it;
  }
  if (m_mig_inflow_sessions_ != nullptr) {
    m_mig_inflow_sessions_->Set(static_cast<int64_t>(mig_inflows_.size()));
  }
  if (!ring_.Contains(id_)) {
    // This node was removed (drain/leave, or oracle removal while still
    // alive). Before going passive, hand unfinished headship duties to the
    // new heads: unstable versions this node minted would otherwise be
    // re-driven by nobody — anti-entropy keys off *current* headship, and
    // the new head may have received them only via migration (which does
    // not register them for re-propagation).
    store_.ForEachRecord([this, &old_ring](KeyRecord& rec) {
      const Key& key = rec.key();
      if (old_ring.PositionOf(key, id_) != 1) {
        return;
      }
      for (const StoredVersion& sv : store_.UnstableVersions(rec)) {
        CrxChainPut fwd;
        fwd.key = key;
        fwd.value = sv.value;
        fwd.version = sv.version;
        fwd.client = 0;
        fwd.req = 0;
        fwd.ack_at = 0;
        fwd.epoch = ring_.epoch();
        fwd.deps.assign(sv.deps.begin(), sv.deps.end());
        env_->Send(ring_.HeadFor(key), Enc(fwd));
      }
    });
    while (!unstable_heads_.empty()) {
      DropUnstableHead(*unstable_heads_.back());
    }
    return;  // no further traffic for this node
  }
  if (config_.rejoin_grace > 0) {
    // Guard reads of keys whose chain we just joined until repair syncs
    // have had time to land (see IsJoinGuarded).
    join_guards_.push_back({old_ring, env_->Now() + config_.rejoin_grace, msg.epoch});
    env_->Schedule(config_.rejoin_grace, [this]() { DrainGuardedGets(); });
    // Completion-based drain, every epoch and every node: each peer sends a
    // MemSyncDone marker after its repair pushes for this epoch (links are
    // FIFO, so the marker follows the pushes). Once all live peers report,
    // this epoch's guards drop without waiting out the time window — under
    // a planned migration that is the difference between a ~1 RTT cutover
    // and a quarter second of parked writes. Dead peers never report; the
    // window remains the fallback.
    rejoin_pending_peers_ = static_cast<uint32_t>(ring_.nodes().size()) - 1;
    auto early = sync_done_early_.find(ring_.epoch());
    if (early != sync_done_early_.end()) {
      rejoin_pending_peers_ -= std::min(rejoin_pending_peers_, early->second);
    }
    // Early-marker credit for this epoch is consumed; older slots are stale.
    for (auto it = sync_done_early_.begin(); it != sync_done_early_.end();) {
      it = it->first <= msg.epoch ? sync_done_early_.erase(it) : ++it;
    }
    if (!old_ring.Contains(id_)) {
      // This epoch re-adds us after a crash-restart: additionally hold ALL
      // client puts — the recovered store may be behind on any key, and
      // assigning versions from a stale per-key vv would fork the order.
      rejoin_until_ = env_->Now() + config_.rejoin_grace;
      env_->Schedule(config_.rejoin_grace, [this]() {
        if (env_->Now() < rejoin_until_) {
          return;  // a later epoch extended the window; its timer will drain
        }
        if (rejoin_pending_peers_ > 0) {
          DrainRejoin();
        }
      });
    }
    if (rejoin_pending_peers_ == 0) {
      DrainRejoin();  // every peer's marker beat our membership notification
    }
  }
  RepairChains(old_ring, msg.pre_synced);
  // Tell every peer our repair pushes for this epoch are all sent. The
  // marker bytes are identical for every peer: encode once, share the frame.
  MemSyncDone done_msg;
  done_msg.epoch = ring_.epoch();
  done_msg.from = id_;
  const Payload done_frame = Payload::Shared(EncodeMessage(done_msg));
  for (NodeId n : ring_.nodes()) {
    if (n != id_) {
      env_->Send(n, done_frame);
    }
  }
}

bool ChainReactionNode::IsJoinGuarded(std::string_view key, ChainIndex pos) const {
  const Time now = env_->Now();
  for (const ChainJoinGuard& guard : join_guards_) {
    if (now >= guard.until) {
      continue;
    }
    // Guarded if this node's chain position improved at that epoch change:
    // it joined the chain (old position 0 — every key, for a node rejoining
    // after crash-recovery), or it moved toward the head (a chain-prefix
    // position now claims data the node may only receive via repair —
    // e.g. the old tail promoted to the middle when a peer crashed).
    const ChainIndex old_pos = guard.old_ring.PositionOf(key, id_);
    if (old_pos == 0 || pos < old_pos) {
      return true;
    }
  }
  return false;
}

void ChainReactionNode::DrainGuardedGets() {
  const Time now = env_->Now();
  join_guards_.erase(
      std::remove_if(join_guards_.begin(), join_guards_.end(),
                     [now](const ChainJoinGuard& g) { return now >= g.until; }),
      join_guards_.end());
  std::vector<CrxPut> parked_puts = std::move(rejoin_buffered_puts_);
  rejoin_buffered_puts_.clear();
  for (CrxPut& put : parked_puts) {
    CrxPutView view = CrxPutView::From(put);
    HandlePut(view);  // re-parks (via ToOwned) if still guarded
  }
  std::vector<CrxGet> parked = std::move(join_guarded_gets_);
  join_guarded_gets_.clear();
  for (const CrxGet& get : parked) {
    HandleGet(CrxGetView::From(get), /*from=*/0);  // re-parks if still guarded
  }
}

void ChainReactionNode::RepairChains(const Ring& old_ring,
                                     const std::vector<NodeId>& pre_synced) {
  const auto is_pre_synced = [&pre_synced](NodeId n) {
    return std::find(pre_synced.begin(), pre_synced.end(), n) != pre_synced.end();
  };
  // Repair sends messages and clears head slots, but never adds or erases
  // a record, so the walk goes over the table directly.
  events_.Emit(EventKind::kRepairStart, env_->Now(), static_cast<int64_t>(ring_.epoch()),
               static_cast<int64_t>(store_.KeyCount()));

  uint64_t chains_touched = 0;
  store_.ForEachRecord([&](KeyRecord& rec) {
    const Key& key = rec.key();
    const ChainIndex pos = ring_.PositionOf(key, id_);

    // Headship handoff: a planned rebalance/drain can move a key's head
    // slot away from this (live) node while it holds unstable versions.
    // Nobody else re-drives those — anti-entropy keys off *current*
    // headship, and a pre-synced new head received them via migration
    // without registering them for re-propagation — so push them to the
    // new head, which propagates down-chain (idempotently) until the tail
    // stabilizes them.
    if (pos != 1 && old_ring.PositionOf(key, id_) == 1) {
      for (const StoredVersion& sv : store_.UnstableVersions(rec)) {
        CrxChainPut fwd;
        fwd.key = key;
        fwd.value = sv.value;
        fwd.version = sv.version;
        fwd.client = 0;
        fwd.req = 0;
        fwd.ack_at = 0;
        fwd.epoch = ring_.epoch();
        fwd.deps.assign(sv.deps.begin(), sv.deps.end());
        env_->Send(ring_.HeadFor(key), Enc(fwd));
      }
      DropUnstableHead(rec);
    }

    if (pos == 0) {
      return;
    }
    const std::vector<NodeId>& chain = ring_.ChainFor(key);
    chains_touched++;

    // New head re-propagates everything not yet DC-Write-Stable so that
    // in-flight writes dropped by the epoch change reach the (new) tail.
    if (pos == 1 && config_.replication > 1) {
      for (const StoredVersion& sv : store_.UnstableVersions(rec)) {
        CrxChainPut fwd;
        fwd.key = key;
        fwd.value = sv.value;
        fwd.version = sv.version;
        fwd.client = 0;
        fwd.req = 0;
        fwd.ack_at = 0;
        fwd.epoch = ring_.epoch();
        fwd.deps.assign(sv.deps.begin(), sv.deps.end());
        env_->Send(chain[1], Enc(fwd));
      }
    }

    // The predecessor of a freshly added chain member transfers the newest
    // stable version (unstable ones flow through the head re-propagation).
    // Members the migration pre-synced already hold it — skipping them is
    // what turns a planned cutover into a handful of messages instead of a
    // full repair storm.
    const std::vector<NodeId>& old_chain = old_ring.ChainFor(key);
    for (size_t i = 1; i < chain.size(); ++i) {
      const NodeId member = chain[i];
      const bool is_new =
          std::find(old_chain.begin(), old_chain.end(), member) == old_chain.end();
      if (is_new && chain[i - 1] == id_ && !is_pre_synced(member)) {
        if (const StoredVersion* stable = store_.LatestStable(rec)) {
          MemSyncKey sync;
          sync.epoch = ring_.epoch();
          sync.key = key;
          sync.value = stable->value;
          sync.version = stable->version;
          sync.stable = true;
          env_->Send(member, EncodeMessage(sync));
        }
      }
    }

    // A freshly added HEAD (a node rejoining after a crash-restart) has no
    // predecessor to pull from, and it is also the re-propagation point for
    // writes the epoch change dropped — but its own store is the stale one.
    // Its successor was the head while it was down, so it holds everything:
    // it transfers the newest stable version and re-drives its unstable
    // versions as chain puts through the new head, which propagates them
    // down the chain (idempotently) until the tail stabilizes them.
    if (chain.size() > 1 && chain[1] == id_ &&
        std::find(old_chain.begin(), old_chain.end(), chain[0]) == old_chain.end()) {
      if (const StoredVersion* stable = store_.LatestStable(rec);
          stable != nullptr && !is_pre_synced(chain[0])) {
        MemSyncKey sync;
        sync.epoch = ring_.epoch();
        sync.key = key;
        sync.value = stable->value;
        sync.version = stable->version;
        sync.stable = true;
        env_->Send(chain[0], EncodeMessage(sync));
      }
      for (const StoredVersion& sv : store_.UnstableVersions(rec)) {
        CrxChainPut fwd;
        fwd.key = key;
        fwd.value = sv.value;
        fwd.version = sv.version;
        fwd.client = 0;
        fwd.req = 0;
        fwd.ack_at = 0;
        fwd.epoch = ring_.epoch();
        fwd.deps.assign(sv.deps.begin(), sv.deps.end());
        env_->Send(chain[0], Enc(fwd));
      }
    }
  });
  events_.Emit(EventKind::kRepairDone, env_->Now(), static_cast<int64_t>(ring_.epoch()),
               static_cast<int64_t>(chains_touched));
}

void ChainReactionNode::HandleSyncKey(const MemSyncKey& msg) {
  if (msg.epoch < ring_.epoch()) {
    return;
  }
  KeyRecord& rec = store_.Claim(msg.key);
  DurableApply(rec, msg.value, msg.version, {});
  lamport_ = std::max(lamport_, msg.version.lamport);
  if (msg.stable) {
    LearnStable(rec, msg.version);
  }
  ResolveDeferredGets(rec);
}

void ChainReactionNode::HandleSyncDone(const MemSyncDone& msg) {
  if (msg.epoch > ring_.epoch()) {
    // A peer processed the membership change before our own notification
    // arrived (markers and membership travel on different links); remember
    // the marker so the rejoin branch can credit it.
    sync_done_early_[msg.epoch]++;
    return;
  }
  if (msg.epoch < ring_.epoch() || rejoin_pending_peers_ == 0) {
    return;
  }
  events_.Emit(EventKind::kSyncDone, env_->Now(), static_cast<int64_t>(msg.epoch),
               static_cast<int64_t>(rejoin_pending_peers_ - 1));
  if (--rejoin_pending_peers_ == 0) {
    DrainRejoin();
  }
}

void ChainReactionNode::DrainRejoin() {
  rejoin_pending_peers_ = 0;
  rejoin_until_ = env_->Now();  // expire the fallback window
  events_.Emit(EventKind::kGuardDrain, env_->Now(),
               static_cast<int64_t>(rejoin_buffered_puts_.size() + join_guarded_gets_.size()),
               static_cast<int64_t>(ring_.epoch()));
  // Drop the guards repair completion covers: the current epoch's guard
  // (every live peer reported its pushes sent — FIFO links mean the pushes
  // arrived first, and a peer's current-epoch marker also follows its
  // pushes for every earlier epoch on the same link), plus any rejoin
  // guard (old ring lacked this node). Other old-epoch guards keep their
  // time fallback: their membership may have included peers that are gone.
  join_guards_.erase(std::remove_if(join_guards_.begin(), join_guards_.end(),
                                    [this](const ChainJoinGuard& g) {
                                      return g.epoch == ring_.epoch() ||
                                             !g.old_ring.Contains(id_);
                                    }),
                     join_guards_.end());
  std::vector<CrxPut> parked = std::move(rejoin_buffered_puts_);
  rejoin_buffered_puts_.clear();
  for (CrxPut& put : parked) {
    CrxPutView view = CrxPutView::From(put);
    HandlePut(view);
  }
  DrainGuardedGets();
}

std::vector<NodeId> ChainReactionNode::MigrationTargetsFor(std::string_view key) const {
  std::vector<NodeId> targets;
  if (mig_src_ == nullptr || ring_.PositionOf(key, id_) != 1) {
    return targets;
  }
  const std::vector<NodeId>& current = ring_.ChainFor(key);
  for (NodeId member : mig_src_->planned_ring.ChainFor(key)) {
    if (std::find(current.begin(), current.end(), member) == current.end()) {
      targets.push_back(member);
    }
  }
  return targets;
}

void ChainReactionNode::HandleMigSnapshotRequest(const MigSnapshotRequest& msg) {
  if (msg.epoch != ring_.epoch() || msg.planned_epoch <= ring_.epoch()) {
    // Stale plan: the ring moved after the coordinator drew it up. Refuse,
    // so the coordinator aborts instead of committing a layout that nobody
    // actually streamed data for.
    MigSnapshotDone done;
    done.migration_id = msg.migration_id;
    done.from = id_;
    done.aborted = true;
    env_->Send(msg.coordinator, EncodeMessage(done));
    return;
  }
  mig_src_ = std::make_unique<MigrationSource>();
  mig_src_->migration_id = msg.migration_id;
  mig_src_->epoch = msg.epoch;
  mig_src_->planned_epoch = msg.planned_epoch;
  mig_src_->planned_ring = Ring(msg.planned_nodes, config_.vnodes, config_.replication,
                                msg.planned_epoch, msg.planned_weights);
  mig_src_->coordinator = msg.coordinator;
  mig_src_->batch_keys = std::max<uint32_t>(1, msg.batch_keys);
  mig_src_->batch_interval = static_cast<Duration>(msg.batch_interval);
  // Snapshot queue: every key this node heads whose planned chain gains
  // members. Keys written after this scan are covered by the live mirror.
  store_.ForEachKey([this](const Key& key, const StoredVersion&) {
    if (!MigrationTargetsFor(key).empty()) {
      mig_src_->pending.push_back(key);
    }
  });
  if (m_mig_source_active_ != nullptr) {
    m_mig_source_active_->Set(1);
    m_mig_keys_pending_->Set(static_cast<int64_t>(mig_src_->pending.size()));
  }
  events_.Emit(EventKind::kMigSnapshot, env_->Now(),
               static_cast<int64_t>(msg.migration_id),
               static_cast<int64_t>(mig_src_->pending.size()));
  StreamMigrationBatch();
}

void ChainReactionNode::StreamMigrationBatch() {
  if (mig_src_ == nullptr || mig_src_->snapshot_done) {
    return;
  }
  MigrationSource& src = *mig_src_;
  do {
    std::map<NodeId, MigKeyBatch> per_target;
    uint32_t scanned = 0;
    while (src.cursor < src.pending.size() && scanned < src.batch_keys) {
      const Key& key = src.pending[src.cursor++];
      scanned++;
      const std::vector<NodeId> targets = MigrationTargetsFor(key);
      if (targets.empty()) {
        continue;  // re-checked live: chain ownership may have shifted
      }
      // Newest stable version (serves reads, dep checks, and geo shipping
      // at the target) plus every unstable version with its dependency
      // list (they may still stabilize or gate writes after cutover).
      std::vector<MigEntry> entries;
      if (const StoredVersion* stable = store_.LatestStable(key)) {
        MigEntry e;
        e.key = key;
        e.value = stable->value;
        e.version = stable->version;
        e.stable = true;
        e.deps.assign(stable->deps.begin(), stable->deps.end());
        entries.push_back(std::move(e));
      }
      for (const StoredVersion& sv : store_.UnstableVersions(key)) {
        MigEntry e;
        e.key = key;
        e.value = sv.value;
        e.version = sv.version;
        e.stable = false;
        e.deps.assign(sv.deps.begin(), sv.deps.end());
        entries.push_back(std::move(e));
      }
      if (entries.empty()) {
        continue;
      }
      src.keys_streamed++;
      for (NodeId target : targets) {
        MigKeyBatch& batch = per_target[target];
        batch.entries.insert(batch.entries.end(), entries.begin(), entries.end());
      }
    }
    for (auto& [target, batch] : per_target) {
      batch.migration_id = src.migration_id;
      batch.epoch = ring_.epoch();
      batch.source = id_;
      batch.target = target;
      batch.coordinator = src.coordinator;
      batch.seq = ++src.next_seq[target];
      src.targets.insert(target);
      src.entries_streamed += batch.entries.size();
      mig_entries_out_ += batch.entries.size();
      if (m_mig_entries_out_ != nullptr) {
        m_mig_entries_out_->Inc(static_cast<uint64_t>(batch.entries.size()));
      }
      env_->Send(target, EncodeMessage(batch));
    }
  } while (src.batch_interval <= 0 && src.cursor < src.pending.size());

  if (m_mig_keys_pending_ != nullptr) {
    m_mig_keys_pending_->Set(static_cast<int64_t>(src.pending.size() - src.cursor));
  }
  if (src.cursor < src.pending.size()) {
    const uint64_t id = src.migration_id;
    env_->Schedule(src.batch_interval, [this, id]() {
      if (mig_src_ != nullptr && mig_src_->migration_id == id) {
        StreamMigrationBatch();
      }
    });
    return;
  }

  // Bulk scan complete: close each stream with an (empty) `last` batch so
  // the target seals it, then report to the coordinator. The mirror keeps
  // feeding these targets until the epoch flips.
  src.snapshot_done = true;
  for (NodeId target : src.targets) {
    MigKeyBatch batch;
    batch.migration_id = src.migration_id;
    batch.epoch = ring_.epoch();
    batch.source = id_;
    batch.target = target;
    batch.coordinator = src.coordinator;
    batch.seq = ++src.next_seq[target];
    batch.last = true;
    env_->Send(target, EncodeMessage(batch));
  }
  MigSnapshotDone done;
  done.migration_id = src.migration_id;
  done.from = id_;
  done.keys_streamed = src.keys_streamed;
  done.targets.assign(src.targets.begin(), src.targets.end());
  env_->Send(src.coordinator, EncodeMessage(done));
  events_.Emit(EventKind::kMigStreamDone, env_->Now(),
               static_cast<int64_t>(src.migration_id),
               static_cast<int64_t>(src.entries_streamed));
}

void ChainReactionNode::MirrorMigrationEntry(std::string_view key, bool has_value,
                                             std::string_view value, const Version& version,
                                             bool stable, std::span<const Dependency> deps) {
  const std::vector<NodeId> targets = MigrationTargetsFor(key);
  if (targets.empty()) {
    return;
  }
  MigEntry entry;
  entry.key = Key(key);
  entry.has_value = has_value;
  entry.value = Value(value);
  entry.version = version;
  entry.stable = stable;
  entry.deps.assign(deps.begin(), deps.end());
  for (NodeId target : targets) {
    MigKeyBatch batch;
    batch.migration_id = mig_src_->migration_id;
    batch.epoch = ring_.epoch();
    batch.source = id_;
    batch.target = target;
    batch.coordinator = mig_src_->coordinator;
    batch.seq = ++mig_src_->next_seq[target];
    batch.entries.push_back(entry);
    mig_src_->entries_mirrored++;
    mig_entries_out_++;
    if (m_mig_entries_out_ != nullptr) {
      m_mig_entries_out_->Inc();
    }
    env_->Send(target, EncodeMessage(batch));
  }
}

void ChainReactionNode::HandleMigKeyBatch(const MigKeyBatch& msg) {
  const auto session_key = std::make_pair(msg.migration_id, msg.source);
  auto it = mig_inflows_.find(session_key);
  if (it == mig_inflows_.end()) {
    if (msg.epoch < ring_.epoch()) {
      // A stream this node never admitted, stamped with an epoch that has
      // already passed (e.g. a plan that predates a crash-driven
      // reconfiguration): drop it. Known sessions, by contrast, accept
      // stragglers across the flip — on the FIFO source link they precede
      // the source's MemSyncDone marker, so they are part of the barrier.
      return;
    }
    it = mig_inflows_.emplace(session_key, MigrationInflow{ring_.epoch(), 0, false}).first;
    if (m_mig_inflow_sessions_ != nullptr) {
      m_mig_inflow_sessions_->Set(static_cast<int64_t>(mig_inflows_.size()));
    }
  }
  MigrationInflow& inflow = it->second;
  for (const MigEntry& entry : msg.entries) {
    KeyRecord& rec = store_.Claim(entry.key);
    if (entry.has_value) {
      DurableApply(rec, entry.value, entry.version, entry.deps);
      lamport_ = std::max(lamport_, entry.version.lamport);
    }
    if (entry.stable) {
      DurableMarkStable(rec, entry.version);
      rec.slots.stable_vv.MergeMax(entry.version.vv);
      ResolveWatchers(rec);
    }
    ResolveDeferredGets(rec);
    inflow.entries_applied++;
    mig_entries_in_++;
    if (m_mig_entries_in_ != nullptr) {
      m_mig_entries_in_->Inc();
    }
  }
  if (msg.last && !inflow.sealed) {
    inflow.sealed = true;
    MigRangeSealed sealed;
    sealed.migration_id = msg.migration_id;
    sealed.source = msg.source;
    sealed.target = id_;
    sealed.entries_applied = inflow.entries_applied;
    env_->Send(msg.coordinator, EncodeMessage(sealed));
    events_.Emit(EventKind::kMigSealed, env_->Now(),
                 static_cast<int64_t>(msg.migration_id),
                 static_cast<int64_t>(inflow.entries_applied));
  }
}

void ChainReactionNode::HandleMigAbort(const MigAbort& msg) {
  // migration_id 0 is the wildcard a restarted coordinator sends to clear
  // sessions it no longer knows about.
  if (mig_src_ != nullptr &&
      (msg.migration_id == 0 || mig_src_->migration_id == msg.migration_id)) {
    LOG_INFO("node %u: migration %llu aborted (%s)", id_,
             static_cast<unsigned long long>(msg.migration_id), msg.reason.c_str());
    mig_src_.reset();
    if (m_mig_source_active_ != nullptr) {
      m_mig_source_active_->Set(0);
      m_mig_keys_pending_->Set(0);
    }
    events_.Emit(EventKind::kMigAborted, env_->Now(),
                 static_cast<int64_t>(msg.migration_id), 0);
  }
  // Inflow bookkeeping goes; the applied entries stay — they are real,
  // idempotent versions, harmless outside the chain.
  for (auto it = mig_inflows_.begin(); it != mig_inflows_.end();) {
    const bool match = msg.migration_id == 0 || it->first.first == msg.migration_id;
    it = match ? mig_inflows_.erase(it) : ++it;
  }
  if (m_mig_inflow_sessions_ != nullptr) {
    m_mig_inflow_sessions_->Set(static_cast<int64_t>(mig_inflows_.size()));
  }
}

std::string ChainReactionNode::StatusJson() const {
  // Chain role across the ring: how many segments this node heads, serves
  // as middle for, or tails — the /status summary of "who am I right now".
  uint64_t head = 0, middle = 0, tail = 0;
  for (const std::vector<NodeId>& chain : ring_.SegmentChains()) {
    if (chain.empty()) {
      continue;
    }
    if (chain.front() == id_) {
      head++;
    } else if (chain.back() == id_) {
      tail++;
    } else if (std::find(chain.begin(), chain.end(), id_) != chain.end()) {
      middle++;
    }
  }
  const StorageEngineStats es = store_.engine()->Stats();
  const uint64_t lookups = store_.cache_hits() + store_.cache_misses();
  // Per-range migration state: what the source still has queued vs already
  // shipped, and how much this node absorbed as a target.
  const size_t mig_pending =
      mig_src_ != nullptr ? mig_src_->pending.size() - mig_src_->cursor : 0;
  char buf[1152];
  std::snprintf(
      buf, sizeof(buf),
      "{\"node\":%u,\"dc\":%u,\"epoch\":%llu,"
      "\"segments\":{\"head\":%llu,\"middle\":%llu,\"tail\":%llu},"
      "\"wal\":{\"enabled\":%s,\"active_seq\":%llu,\"appends\":%llu},"
      "\"rejoin\":{\"pending_peers\":%u,\"buffered_puts\":%zu,"
      "\"guarded_gets\":%zu,\"join_guards\":%zu},"
      "\"migration\":{\"source_active\":%s,\"keys_pending\":%zu,"
      "\"entries_out\":%llu,\"entries_in\":%llu,\"inflows\":%zu},"
      "\"store\":{\"engine\":\"%s\",\"resident_versions\":%llu,"
      "\"resident_bytes\":%llu,\"log_bytes\":%llu,\"compactions\":%llu,"
      "\"cache_hit_pct\":%llu},"
      "\"store_keys\":%zu,\"gated_puts\":%zu,\"deferred_gets\":%zu,"
      "\"events_emitted\":%llu}",
      id_, config_.local_dc, static_cast<unsigned long long>(ring_.epoch()),
      static_cast<unsigned long long>(head), static_cast<unsigned long long>(middle),
      static_cast<unsigned long long>(tail), wal_ != nullptr ? "true" : "false",
      static_cast<unsigned long long>(wal_ != nullptr ? wal_->active_seq() : 0),
      static_cast<unsigned long long>(wal_ != nullptr ? wal_->appends() : 0),
      rejoin_pending_peers_, rejoin_buffered_puts_.size(), join_guarded_gets_.size(),
      join_guards_.size(), mig_src_ != nullptr ? "true" : "false", mig_pending,
      static_cast<unsigned long long>(mig_entries_out_),
      static_cast<unsigned long long>(mig_entries_in_), mig_inflows_.size(),
      StorageEngineKindName(store_.engine()->kind()),
      static_cast<unsigned long long>(store_.resident_versions()),
      static_cast<unsigned long long>(store_.resident_bytes()),
      static_cast<unsigned long long>(es.log_bytes),
      static_cast<unsigned long long>(es.compactions),
      static_cast<unsigned long long>(lookups == 0 ? 0 : store_.cache_hits() * 100 / lookups),
      store_.KeyCount(), gated_puts_.size(), deferred_gets_.size(),
      static_cast<unsigned long long>(events_.emitted()));
  return buf;
}

// Watermark machinery (dep_watermark; DESIGN.md §14) ------------------------

uint64_t ChainReactionNode::StableCut() const {
  // Clock cap: NextLamport() returns max(lamport_+1, Now()), so this node
  // never mints a version at or below max(lamport_, Now()-1) again. The cap
  // also advances the cut on idle nodes, letting a quiescent cluster's
  // watermark pass recently stabilized versions.
  const uint64_t now = static_cast<uint64_t>(env_->Now());
  uint64_t cut = std::max(lamport_, now > 0 ? now - 1 : 0);
  if (store_.HasTrackedUnstable()) {
    // Any not-yet-stable local-origin version held HERE caps the cut — even
    // ones minted by other nodes (their replicas bound the cluster minimum
    // when the minting head dies).
    const uint64_t oldest = store_.MinTrackedUnstableLamport();
    cut = std::min(cut, oldest > 0 ? oldest - 1 : 0);
  }
  return cut;
}

uint64_t ChainReactionNode::ClusterWatermark() const {
  if (!config_.dep_watermark) {
    return 0;
  }
  uint64_t w = StableCut();
  for (const NodeId n : ring_.nodes()) {
    if (n == id_) {
      continue;
    }
    const uint64_t cut = n < wm_peer_cuts_.size() ? wm_peer_cuts_[n] : kUnknownCut;
    if (cut == kUnknownCut) {
      w = 0;  // unknown peer: no claim about cluster-wide stability
      break;
    }
    w = std::min(w, cut);
  }
  // A same-epoch client hint is a W some node already proved; W only grows
  // within an epoch, so it is a valid floor.
  return std::max(w, wm_client_hint_);
}

void ChainReactionNode::LearnPeerCut(NodeId node, uint64_t epoch, uint64_t cut) {
  // Only ring members are read back, and only they may size the array.
  if (!config_.dep_watermark || epoch != ring_.epoch() || node == id_ || !ring_.Contains(node)) {
    return;
  }
  if (node >= wm_peer_cuts_.size()) {
    wm_peer_cuts_.resize(node + 1, kUnknownCut);
  }
  uint64_t& slot = wm_peer_cuts_[node];
  cut = std::min(cut, kUnknownCut - 1);
  slot = slot == kUnknownCut ? cut : std::max(slot, cut);
}

void ChainReactionNode::HandleWatermark(const CrxWatermark& msg) {
  LearnPeerCut(msg.node, msg.epoch, msg.cut);
}

void ChainReactionNode::NudgeWatermarkGossip() {
  if (!config_.dep_watermark || config_.wm_gossip_interval <= 0) {
    return;
  }
  wm_rounds_left_ = 2;
  ArmWatermarkGossip();
}

void ChainReactionNode::ArmWatermarkGossip() {
  if (wm_gossip_timer_ != 0 || wm_rounds_left_ == 0 || env_ == nullptr) {
    return;
  }
  wm_gossip_timer_ = env_->Schedule(config_.wm_gossip_interval, [this]() {
    wm_gossip_timer_ = 0;
    BroadcastWatermark();
    wm_rounds_left_--;
    ArmWatermarkGossip();
  });
}

void ChainReactionNode::BroadcastWatermark() {
  if (!ring_.Contains(id_)) {
    return;
  }
  CrxWatermark wm;
  wm.node = id_;
  wm.epoch = ring_.epoch();
  wm.cut = StableCut();
  // One encode, N-1 refcount bumps: the gossip frame is shared across the
  // whole ring fan-out.
  const Payload payload = Payload::Shared(Enc(wm));
  for (const NodeId n : ring_.nodes()) {
    if (n != id_) {
      env_->Send(n, payload);
    }
  }
}

}  // namespace chainreaction
