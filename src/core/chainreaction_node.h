// ChainReaction server node.
//
// One node participates in many chains (one per key, derived from the ring).
// Per chain role it implements:
//   head  — assigns versions, gates writes on the DC-Write-Stability of
//           their causal dependencies, starts down-chain propagation, and
//           re-propagates unstable writes after chain reconfigurations;
//   middle— applies and forwards; the node at position k acknowledges the
//           client (k-stability);
//   tail  — marks versions DC-Write-Stable, answers stability checks, sends
//           backward stability notifications, and feeds the geo replicator.
// Every node serves reads for the chains it belongs to (the paper's read
// distribution), forwarding toward the head when it is behind the version
// the client causally requires.
#ifndef SRC_CORE_CHAINREACTION_NODE_H_
#define SRC_CORE_CHAINREACTION_NODE_H_

#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/arena.h"
#include "src/common/histogram.h"
#include "src/common/node_cache.h"
#include "src/common/payload.h"
#include "src/common/types.h"
#include "src/common/version.h"
#include "src/core/config.h"
#include "src/core/request_window.h"
#include "src/msg/message.h"
#include "src/obs/alloc_phase.h"
#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/ring/ring.h"
#include "src/sim/env.h"
#include "src/storage/versioned_store.h"
#include "src/wal/wal.h"

namespace chainreaction {

class ChainReactionNode : public Actor {
 public:
  // How many recently versioned client requests a head remembers for retry
  // dedup: a retry arriving after this many newer puts at the same head is
  // treated as a new put.
  static constexpr size_t kCompletedReqCap = 8192;

  ChainReactionNode(NodeId id, CrxConfig config, Ring initial_ring);

  // Attaches the runtime environment; starts the heartbeat loop when the
  // config names a membership service.
  void AttachEnv(Env* env);

  // Optional observability: registers this node's instruments (labeled by
  // node id / chain role / position) and the sink for trace-hop reports.
  // Either argument may be null. Call before the node starts serving.
  void AttachObs(MetricsRegistry* metrics, TraceCollector* traces);

  void OnMessage(Address from, std::string_view payload) override;

  // Recovery: persist / restore this node's store. Restore must happen
  // before the node starts serving (typically right after construction);
  // chain repair then re-propagates anything missed while down.
  Status SaveStateCheckpoint(const std::string& path) const;
  Status LoadStateCheckpoint(const std::string& path);

  // Durability -----------------------------------------------------------
  // Opens (creating) the write-ahead log in `data_dir`. From then on every
  // version and stability mark is logged before it mutates the store, so a
  // crashed node can be rebuilt from local state via RecoverFrom. Call
  // before the node starts serving; order relative to AttachObs does not
  // matter (whichever runs second hooks the WAL's instruments up).
  Status EnableDurability(const std::string& data_dir, const WalOptions& options = {});

  // Crash recovery: loads the newest valid checkpoint in `data_dir` (if
  // any) and replays the WAL tail over it — a torn final record is
  // truncated, not fatal — then rebuilds the causal bookkeeping. Call
  // BEFORE EnableDurability (torn-tail repair applies to the newest
  // segment; opening the WAL creates a fresh one) and before the node
  // starts serving; chain repair re-propagates only the delta the node
  // missed while down.
  Status RecoverFrom(const std::string& data_dir);

  // Atomically checkpoints the store and deletes the WAL segments the
  // checkpoint covers, bounding future recovery replay work. Requires
  // EnableDurability.
  Status CheckpointAndTruncate();

  // Crash simulation (harness): drops WAL records still in the group-commit
  // buffer, exactly as a process crash would, and closes the log files so a
  // successor node can recover from them.
  void CrashDurability();

  Wal* wal() { return wal_.get(); }
  const WalReplayStats& last_recovery_stats() const { return recovery_stats_; }
  // Wall-clock replay cost of the last RecoverFrom (real microseconds).
  int64_t last_recovery_replay_us() const { return recovery_replay_us_; }

  // Introspection for tests and benchmarks -------------------------------
  const VersionedStore& store() const { return store_; }
  NodeId id() const { return id_; }
  uint64_t epoch() const { return ring_.epoch(); }
  uint64_t reads_served() const { return reads_served_; }
  // reads_by_position()[i] = reads this node answered while at chain
  // position i+1 for the requested key (E5: read load distribution).
  const std::vector<uint64_t>& reads_by_position() const { return reads_by_position_; }
  uint64_t writes_applied() const { return writes_applied_; }
  uint64_t dep_checks_sent() const { return dep_checks_sent_; }
  uint64_t dep_wait_total_us() const { return dep_wait_total_us_; }
  const Histogram& dep_wait_hist() const { return dep_wait_hist_; }
  uint64_t dep_waits() const { return dep_waits_; }
  uint64_t gets_forwarded() const { return gets_forwarded_; }
  size_t gated_puts_pending() const { return gated_puts_.size(); }
  // Debug/tests: (client, req, remaining dep keys) of each parked write.
  std::vector<std::string> GatedPutsInfo() const {
    std::vector<std::string> out;
    for (const auto& [token, pp] : gated_puts_) {
      std::string s = "req=" + std::to_string(pp.put.req) + " client=" +
                      std::to_string(pp.put.client) + " key=" + pp.put.key + " deps:";
      for (const auto& d : pp.pending_deps) {
        s += " " + d.key + "@" + d.version.ToString();
      }
      out.push_back(s);
    }
    return out;
  }
  size_t deferred_gets_pending() const { return deferred_gets_.size(); }
  size_t unstable_head_keys_count() const { return unstable_heads_.size(); }
  std::string StableVvOf(const Key& key) const {
    const KeyRecord* rec = store_.Lookup(key);
    return rec == nullptr || rec->slots.stable_vv.size() == 0 ? "(none)"
                                                              : rec->slots.stable_vv.ToString();
  }
  size_t watchers_count() const { return watchers_.size(); }
  size_t stable_notifies_pending() const { return turn_notifies_.size(); }

  // Watermark introspection (dep_watermark; DESIGN.md §14) ----------------
  // This node's stable cut: every locally-originated version with
  // lamport <= StableCut() that this node has ever applied is
  // DC-Write-Stable here, and this node will never mint a version at or
  // below the cut again.
  uint64_t StableCut() const;
  // The cluster-wide watermark W: min of the stable cuts this node has
  // learned for every current-epoch ring peer (0 while any peer's cut is
  // unknown). Every local-origin version with lamport <= W is
  // DC-Write-Stable everywhere.
  uint64_t ClusterWatermark() const;

  // Telemetry ------------------------------------------------------------
  // The node's flight recorder: a ring of recent control-plane events
  // (epoch changes, repairs, guard parks/drains, WAL rotations). Always
  // live — Emit is lock-free and cheap enough to leave on.
  FlightRecorder* events() { return &events_; }
  const FlightRecorder* events() const { return &events_; }

  // Node status as a JSON object: id, epoch, chain role per ring segment,
  // WAL seq / checkpoint floor, rejoin/guard state, store + engine state.
  // Reads loop-thread-owned state: call on the actor's thread (the TCP
  // runtime posts to the loop; the simulator is single-threaded).
  std::string StatusJson() const;

  // Publishes store/engine gauges (resident versions/bytes, log bytes,
  // compactions, cache hit ratio) to the registry. Runs automatically every
  // few hundred writes and after recovery/checkpoints; exposed so tests and
  // shells can force a fresh sample.
  void RefreshStoreGauges();

 private:
  // A write parked at the head until its dependencies are DC-Write-Stable.
  struct PendingPut {
    CrxPut put;
    std::vector<Dependency> pending_deps;  // not yet confirmed stable
    Time parked_at = 0;
  };

  // A read parked because this node has not yet applied the version the
  // client causally requires (possible transiently during chain repair).
  struct DeferredGet {
    CrxGet get;
    uint64_t timeout_timer = 0;
  };

  // A stability watcher registered at this (tail) node by some head.
  struct StabilityWatcher {
    Version version;
    uint64_t token = 0;
    Address reply_to = 0;
  };

  // Hot-path handlers take decoded *views* whose string fields alias the
  // transport receive buffer (valid only for the current OnMessage call;
  // DESIGN.md §15). Parking a request past the call materializes it with
  // ToOwned(); replay re-enters through a From() view so there is a single
  // code path. Mutable refs because handlers append trace hops in place.
  //
  // Each key-bearing handler resolves its key once: one ring lookup
  // (Ring::Placement) and one store lookup (the KeyRecord handle), both
  // passed down the call chain.
  void HandlePut(CrxPutView& put);
  void HandleChainPut(CrxChainPutView& msg, Address from);
  void HandleGet(const CrxGetView& get, Address from);
  void HandleStableNotify(CrxStableNotifyView& msg, Address from);
  void HandleStabilityCheck(const CrxStabilityCheck& msg, Address from);
  void HandleStabilityConfirm(const CrxStabilityConfirm& msg);
  void HandleWatermark(const CrxWatermark& msg);
  void HandleRemotePut(GeoRemotePut msg);
  void HandleNewMembership(const MemNewMembership& msg);
  void HandleSyncKey(const MemSyncKey& msg);
  void HandleSyncDone(const MemSyncDone& msg);

  // Planned-migration duties (key-range transfer, see src/admin/): the
  // source streams a snapshot of the keys it heads that gain replicas in
  // the planned ring, then mirrors live writes and stability marks to those
  // targets (CATCHUP) until the epoch flips or the coordinator aborts.
  void HandleMigSnapshotRequest(const MigSnapshotRequest& msg);
  void HandleMigKeyBatch(const MigKeyBatch& msg);
  void HandleMigAbort(const MigAbort& msg);
  void StreamMigrationBatch();
  // Planned-chain members that are not in the key's current chain (i.e.
  // would miss the data without a transfer). Empty when no migration is
  // active or this node does not head the key.
  std::vector<NodeId> MigrationTargetsFor(std::string_view key) const;
  void MirrorMigrationEntry(std::string_view key, bool has_value, std::string_view value,
                            const Version& version, bool stable,
                            std::span<const Dependency> deps);

  // Assigns a version to a gated client write and starts propagation.
  void ApplyAndPropagate(CrxPutView& put, KeyRecord& rec, const Ring::Placement& at);

  // Common apply path for a concrete (key, value, version); handles the
  // single-node-chain and tail special cases. Returns true if newly applied.
  // `value` may alias the inbound frame: the store makes the single owned
  // copy, and the down-chain forward / tail geo notification re-encode
  // straight from the view, so the payload is copied at most once end to
  // end. `deps` is borrowed for the call.
  bool ApplyVersion(KeyRecord& rec, const Ring::Placement& at, std::string_view value,
                    const Version& version, Address client, RequestId req, ChainIndex ack_at,
                    std::span<const Dependency> deps, TraceContext trace);

  // Everything the tail must do when a version reaches it.
  void StabilizeAtTail(KeyRecord& rec, const Ring::Placement& at, const Version& version,
                       std::span<const Dependency> deps, bool has_local_payload,
                       std::string_view value, TraceContext trace);
  // Stability learned for `rec` (tail, backward notify, repair sync or
  // migration): log and mark it, merge the stability cache, and release
  // what waited on it.
  void LearnStable(KeyRecord& rec, const Version& version);

  // End-of-turn coalescing (DESIGN.md §10): client acks and backward
  // stability notifies wait only for the end of the event that produced
  // them. The first of them arms one zero-delay flush per turn, which sends
  // each client's acks as one frame (a lone ack as a plain CrxPutAck) and
  // one notify per key.
  void SendClientAck(CrxPutAck ack, Address client);
  void ArmTurnFlush();
  void FlushTurn();

  void ResolveWatchers(const KeyRecord& rec);
  void TrackUnstableHead(KeyRecord& rec);
  void ResolveUnstableHead(KeyRecord& rec);
  // Takes `rec` off the unstable-head list (no lag sample).
  void DropUnstableHead(KeyRecord& rec);
  void ArmAntiEntropy();
  void RunAntiEntropy();
  void SendGeoNotify(const GeoLocalStable& msg);
  void SendHeartbeat();
  void HandleGeoNotifyAck(const GeoLocalStableAck& msg);
  void ArmGeoNotifyRetry();
  void ResolveDeferredGets(const KeyRecord& rec);
  // Answers from `rec` (nullptr: the key holds nothing here).
  void AnswerGet(const CrxGetView& get, ChainIndex position, const KeyRecord* rec);

  // True if the dependency does not need a remote stability confirmation:
  // null versions, and dependencies living on this exact chain (the FIFO
  // down-chain link already serializes them before the new write).
  bool DepTriviallyStable(std::string_view write_key, const Dependency& dep) const;

  // Causal+ stability predicate: `v` is marked stable here, OR a stable
  // LWW-newer version supersedes it (convergent conflict handling lets the
  // LWW winner stand in for a concurrent loser, which may even have been
  // garbage-collected).
  bool DepStableHere(const KeyRecord* rec, const Version& v) const;

  // Read-freshness predicate: this node can answer a read that causally
  // requires `v` (it applied v's causal past, or holds an LWW-newer
  // version that convergence resolves to).
  bool ReadSatisfies(const KeyRecord* rec, const Version& v) const;

  // Chain-repair duties after a membership change. `pre_synced` lists
  // nodes a planned migration already streamed data to; stable-version
  // pushes to them are skipped (the unstable re-drives still flow — they
  // carry the propagation duty, and they are idempotent).
  void RepairChains(const Ring& old_ring, const std::vector<NodeId>& pre_synced);

  // Write-ahead wrappers around the store: log the mutation (when it is not
  // already durable) before applying it. All protocol-path mutations go
  // through these; recovery replays write to store_ directly.
  bool DurableApply(KeyRecord& rec, std::string_view value, const Version& version,
                    std::span<const Dependency> deps);
  void DurableMarkStable(KeyRecord& rec, const Version& version);
  // Aborts on a failed WAL append (sticky disk error).
  void CheckWalAppend(const Status& status);

  // Rebuilds stability cache, unstable-head tracking, and the lamport clock
  // from a freshly restored store (checkpoint load or WAL replay). Metadata
  // only — never materializes values, so disk-engine recovery is O(index).
  void RebuildRecoveredState();

  // Attaches the configured storage engine to the store (idempotent). The
  // disk engine lives in `<data_dir>/vlog`; called from both RecoverFrom
  // and EnableDurability, whichever runs first.
  Status EnsureEngine(const std::string& data_dir);

  static std::string CheckpointPath(const std::string& data_dir) {
    return data_dir + "/checkpoint.crx";
  }

  uint64_t NextLamport();

  // Encodes a hot-path message, charging its allocations to the encode
  // phase.
  template <typename M>
  std::string Enc(const M& m) const {
    AllocPhaseScope phase(AllocPhase::kEncode);
    return EncodeMessage(m);
  }

  // Watermark gossip (dep_watermark) -------------------------------------
  // Records a peer's stable cut if it is stamped with the current epoch.
  void LearnPeerCut(NodeId node, uint64_t epoch, uint64_t cut);
  // Requests a couple of direct CrxWatermark broadcast rounds; called on
  // protocol traffic so the gossip is activity-gated (quiescent clusters
  // stay quiescent and sim()->Run() still reaches quiescence).
  void NudgeWatermarkGossip();
  void ArmWatermarkGossip();
  void BroadcastWatermark();

  NodeId id_;
  CrxConfig config_;
  Env* env_ = nullptr;
  Ring ring_;
  VersionedStore store_;
  uint64_t lamport_ = 0;

  // Per-message scratch space, reset at the top of OnMessage. Nothing that
  // survives the current message may live here (see src/common/arena.h).
  Arena arena_;

  // Durability (null/empty until EnableDurability).
  std::string data_dir_;
  std::unique_ptr<Wal> wal_;
  WalReplayStats recovery_stats_;
  int64_t recovery_replay_us_ = 0;

  // Head state.
  uint64_t next_token_ = 1;
  std::unordered_map<uint64_t, PendingPut> gated_puts_;  // token -> parked put
  // Requests already assigned a version (client retry dedup): the last
  // kCompletedReqCap of them, in a flat FIFO window that does not allocate
  // once full.
  RequestWindow completed_reqs_{kCompletedReqCap};
  // Requests currently parked behind dependency gating, mapped to their
  // gating token so client retries can re-probe instead of re-parking.
  std::unordered_map<std::pair<Address, RequestId>, uint64_t, RequestKeyHash> gated_reqs_;
  // Node recyclers for the parked-put churn above (insert on park, erase on
  // confirm — one heap node per gated put without them).
  MapNodeCache<std::unordered_map<uint64_t, PendingPut>> gated_puts_cache_;
  MapNodeCache<std::unordered_map<std::pair<Address, RequestId>, uint64_t, RequestKeyHash>>
      gated_reqs_cache_;
  // Records of keys this node heads whose newest version is not yet
  // DC-Write-Stable; re-propagated by the anti-entropy timer if stability
  // stalls (lost chain messages). Timer is armed iff the list is non-empty.
  // Each record's slots.unstable_head is its index + 1, and its
  // slots.unstable_since (when it went unstable) feeds the chain-lag EWMA
  // that the dep-stall watchdog compares dep-waits against (a dep-wait far
  // beyond the typical head->tail stabilization time means the blocking
  // chain is stuck, not merely busy).
  std::vector<KeyRecord*> unstable_heads_;
  int64_t chain_lag_ewma_us_ = 0;
  bool anti_entropy_armed_ = false;
  // Rejoin barrier: after an epoch re-adds this node, client puts are
  // buffered until every established peer's MemSyncDone marker arrives
  // (repair pushes complete — links are FIFO), so chain-repair syncs can
  // catch the recovered store up before it assigns versions again. The
  // time window (see CrxConfig::rejoin_grace) is only a fallback against
  // lost markers.
  Time rejoin_until_ = 0;
  uint32_t rejoin_pending_peers_ = 0;
  // Markers that arrived before our own membership notification, by epoch.
  std::unordered_map<uint64_t, uint32_t> sync_done_early_;
  std::vector<CrxPut> rejoin_buffered_puts_;
  void DrainRejoin();
  // Chain-join read guard: for `rejoin_grace` after an epoch change, reads
  // of keys whose chain this node just joined (old position 0 — including
  // every key, for a node rejoining after crash-recovery) are escalated to
  // an established replica or parked: until the repair sync lands this node
  // would answer stale or not-found.
  struct ChainJoinGuard {
    Ring old_ring;
    Time until;
    uint64_t epoch = 0;  // the epoch whose change installed this guard
  };
  std::vector<ChainJoinGuard> join_guards_;
  std::vector<CrxGet> join_guarded_gets_;
  // `pos` is this node's position in the key's current chain.
  bool IsJoinGuarded(std::string_view key, ChainIndex pos) const;
  void DrainGuardedGets();

  // Watermark state (dep_watermark): newest stable cut learned per ring
  // peer in the current epoch, indexed by node id, kUnknownCut where none
  // was learned (cleared on epoch change — cuts are epoch-scoped so a node
  // re-added with an empty store cannot resurrect a stale high cut), plus
  // the best same-epoch cluster watermark any client hinted at us (a floor
  // for our own computation). A flat array: ClusterWatermark walks every
  // peer on each k-ack, read reply and uncovered dependency.
  static constexpr uint64_t kUnknownCut = ~uint64_t{0};
  std::vector<uint64_t> wm_peer_cuts_;
  uint64_t wm_client_hint_ = 0;
  uint32_t wm_rounds_left_ = 0;
  uint64_t wm_gossip_timer_ = 0;

  // Migration source state: set while this node streams/mirrors key ranges
  // for a planned topology change. Cleared when the epoch flips (commit) or
  // on MigAbort.
  struct MigrationSource {
    uint64_t migration_id = 0;
    uint64_t epoch = 0;          // ring epoch the request was issued under
    uint64_t planned_epoch = 0;
    Ring planned_ring;
    Address coordinator = 0;
    uint32_t batch_keys = 64;
    Duration batch_interval = 0;
    std::vector<Key> pending;    // snapshot queue (keys left to stream)
    size_t cursor = 0;
    std::set<NodeId> targets;    // every target that received a stream
    std::map<NodeId, uint64_t> next_seq;  // per-target batch sequence
    uint64_t keys_streamed = 0;
    uint64_t entries_streamed = 0;
    uint64_t entries_mirrored = 0;
    bool snapshot_done = false;
  };
  std::unique_ptr<MigrationSource> mig_src_;

  // Migration inflow sessions keyed by (migration_id, source): entries
  // applied ahead of the epoch flip. A session must START in the epoch its
  // first batch was stamped with; stragglers of a known session are then
  // accepted across the flip (FIFO links put them before the source's
  // MemSyncDone marker), while unknown stale-epoch batches are dropped.
  struct MigrationInflow {
    uint64_t created_epoch = 0;
    uint64_t entries_applied = 0;
    bool sealed = false;
  };
  std::map<std::pair<uint64_t, NodeId>, MigrationInflow> mig_inflows_;
  uint64_t mig_entries_in_ = 0;
  uint64_t mig_entries_out_ = 0;

 public:
  // Migration introspection for tests / benches / status.
  bool migration_source_active() const { return mig_src_ != nullptr; }
  uint64_t mig_entries_in() const { return mig_entries_in_; }
  uint64_t mig_entries_out() const { return mig_entries_out_; }

 private:

  // Tail state.
  std::unordered_map<Key, std::vector<StabilityWatcher>> watchers_;
  // Backward stability notifications produced this turn, one per key. A
  // record's slots.notify_seq is its entry's index + 1, so a later
  // stabilization in the same turn merges into it in place.
  struct PendingNotify {
    KeyRecord* rec = nullptr;
    // Merged (possibly synthetic) version: dominates every version
    // stabilized in the turn.
    Version version;
    NodeId pred = kInvalidNode;  // the key's predecessor in `epoch`
    uint64_t epoch = 0;
  };
  std::vector<PendingNotify> turn_notifies_;
  bool turn_flush_armed_ = false;
  // Geo notifications not yet acknowledged by the local replicator,
  // resent periodically — a lost notification would otherwise silently
  // prevent an update from ever being shipped or acknowledged. Keyed by
  // encoded (key, version); the value is the shared frame encoded exactly
  // once at stabilization time, so every retry is a refcount bump.
  std::unordered_map<std::string, Payload> pending_geo_notify_;
  uint64_t geo_notify_timer_ = 0;

  std::unordered_map<Key, std::vector<DeferredGet>> deferred_gets_;

  // Chain pipelining: next sequence number per down-chain successor link.
  // Stamped on every in-band CrxChainPut forward; 0 marks out-of-band
  // re-propagation (anti-entropy, repair).
  std::unordered_map<NodeId, uint64_t> next_chain_seq_;

  // Client acks produced this turn, with their clients, in ack order.
  // Both vectors keep their capacity across turns.
  std::vector<std::pair<Address, CrxPutAck>> turn_acks_;
  CrxPutAckBatch ack_batch_;  // scratch for a client with several acks

  // Stats.
  uint64_t reads_served_ = 0;
  std::vector<uint64_t> reads_by_position_;
  uint64_t writes_applied_ = 0;
  uint64_t dep_checks_sent_ = 0;
  uint64_t dep_waits_ = 0;
  uint64_t dep_wait_total_us_ = 0;
  Histogram dep_wait_hist_;
  uint64_t gets_forwarded_ = 0;

  // Observability (all null until AttachObs; hot paths test one pointer).
  MetricsRegistry* metrics_ = nullptr;
  TraceCollector* trace_sink_ = nullptr;
  Counter* m_puts_head_ = nullptr;
  Counter* m_puts_middle_ = nullptr;
  Counter* m_puts_tail_ = nullptr;
  std::vector<Counter*> m_reads_by_position_;
  Counter* m_dep_checks_ = nullptr;
  Counter* m_gets_forwarded_ = nullptr;
  Gauge* m_gated_depth_ = nullptr;
  LatencyMetric* m_dep_wait_ = nullptr;
  Counter* m_ack_batched_ = nullptr;
  Gauge* m_store_resident_versions_ = nullptr;
  Gauge* m_store_resident_bytes_ = nullptr;
  Gauge* m_engine_log_bytes_ = nullptr;
  Counter* m_engine_compactions_ = nullptr;
  Gauge* m_engine_cache_hit_ratio_ = nullptr;
  Counter* m_mig_entries_out_ = nullptr;
  Counter* m_mig_entries_in_ = nullptr;
  Gauge* m_mig_source_active_ = nullptr;
  Gauge* m_mig_keys_pending_ = nullptr;
  Gauge* m_mig_inflow_sessions_ = nullptr;
  Gauge* m_chain_lag_ = nullptr;
  Counter* m_dep_stalls_ = nullptr;
  uint64_t engine_compactions_published_ = 0;
  FlightRecorder events_;
};

}  // namespace chainreaction

#endif  // SRC_CORE_CHAINREACTION_NODE_H_
