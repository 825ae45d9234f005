// ChainReaction client library.
//
// The client library is where half of the paper's protocol lives:
//   * Per-key metadata (version, chain_index): the newest version of the key
//     this session causally depends on, and how many chain-prefix nodes are
//     known to have applied it. Reads are load-balanced uniformly over that
//     prefix. A key with no entry is read from any chain node, which is
//     exactly what a DC-Write-Stable version allows: a read reply carrying
//     a stable version records nothing (and drops an entry it supersedes),
//     and an entry known stable (an ack at position R, or covered by the
//     cluster watermark) is forgotten at the next sweep, so the map bounds
//     itself by the unstable window instead of by the session's history.
//   * The accessed-set: COPS-style nearest dependencies — every key
//     read/written since the session's last write. It is attached to the
//     next put and collapses to {written key} once that put is acked
//     (causal transitivity).
//
// The client is an Actor like everything else, so it runs unchanged on the
// simulator and on the TCP transport. Operations are asynchronous with
// completion callbacks; a session must keep operations sequential for
// session guarantees to be meaningful (the YCSB driver does).
#ifndef SRC_CORE_CHAINREACTION_CLIENT_H_
#define SRC_CORE_CHAINREACTION_CLIENT_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/common/node_cache.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/version.h"
#include "src/core/config.h"
#include "src/msg/message.h"
#include "src/obs/alloc_phase.h"
#include "src/obs/metrics.h"
#include "src/obs/sampling.h"
#include "src/obs/trace.h"
#include "src/ring/ring.h"
#include "src/sim/env.h"

namespace chainreaction {

class ChainReactionClient : public Actor {
 public:
  struct PutResult {
    Status status;
    Version version;
    // The dependency set the write carried (for consistency checkers).
    std::vector<Dependency> deps;
  };
  struct GetResult {
    Status status;
    bool found = false;
    Value value;
    Version version;
    ChainIndex answered_by_position = 0;
    // Write-time dependencies of the returned version (multi-get only).
    std::vector<Dependency> deps;
  };
  // A causally consistent multi-key snapshot (COPS-GT-style read
  // transaction, DESIGN.md §3.8): no returned version is causally older
  // than a dependency of another returned version.
  struct MultiGetResult {
    Status status;
    std::vector<GetResult> results;  // parallel to the requested keys
    uint32_t rounds = 1;             // 1 if the first round was consistent
  };
  using PutCallback = std::function<void(const PutResult&)>;
  using GetCallback = std::function<void(const GetResult&)>;
  using MultiGetCallback = std::function<void(const MultiGetResult&)>;

  ChainReactionClient(Address address, CrxConfig config, Ring ring, uint64_t seed);

  void AttachEnv(Env* env) { env_ = env; }

  // Optional observability: op latency histograms, metadata-size gauges, and
  // the sink traced puts report their client-side hops to. The client starts
  // a trace on every config.trace_sample_every-th put (0 = never).
  void AttachObs(MetricsRegistry* metrics, TraceCollector* traces);

  void Put(const Key& key, Value value, PutCallback cb);
  void Get(const Key& key, GetCallback cb);

  // Reads a causally consistent snapshot of `keys` in at most two rounds:
  // round one reads every key (with dependency lists); if some returned
  // version is strictly dominated by a dependency of another, those keys
  // are re-read constrained to the required minimum versions.
  void MultiGet(std::vector<Key> keys, MultiGetCallback cb);

  uint64_t multiget_second_rounds() const { return multiget_second_rounds_; }

  void OnMessage(Address from, std::string_view payload) override;

  // Introspection (E8 metadata experiment, tests) -------------------------
  size_t metadata_entries() const { return metadata_.size(); }
  size_t accessed_set_size() const { return accessed_.size(); }
  // Wire bytes of the accessed set's dependency entries (the list's count
  // prefix excluded); equals what the next put's deps add to its frame
  // unless stable or watermark-covered entries are dropped.
  size_t AccessedSetBytes() const;
  uint64_t retries() const { return retries_; }
  Address address() const { return address_; }
  // Watermark introspection (dep_watermark): the highest cluster watermark
  // W this client has learned from any ack/reply. Every local-origin
  // version with lamport <= W is DC-Write-Stable (stability is monotone, so
  // W from a past epoch stays valid for dependency coverage).
  uint64_t watermark() const { return wm_cover_; }

  // Tests only: exposes the per-key metadata pair (version, chain_index).
  bool LookupMetadata(const Key& key, Version* version, ChainIndex* index) const {
    auto it = metadata_.find(key);
    if (it == metadata_.end()) {
      return false;
    }
    if (version != nullptr) {
      *version = it->second.version;
    }
    if (index != nullptr) {
      *index = it->second.chain_index;
    }
    return true;
  }

  // Tests only: forget all session state.
  void ResetSession() {
    metadata_.clear();
    metadata_sweep_at_ = kMetadataSweepFloor;
    accessed_.clear();
  }

 private:
  struct KeyMetadata {
    Version version;
    ChainIndex chain_index = 0;
  };

  struct PendingOp {
    bool is_put = false;
    Key key;
    Value value;  // puts only
    std::vector<Dependency> deps;  // puts only; echoed to the caller
    PutCallback put_cb;
    GetCallback get_cb;
    uint64_t timer = 0;
    uint32_t attempts = 0;
    Time started_at = 0;
    TraceContext trace;  // active iff this put carries a trace context
    bool head_sampled = false;  // head decision; tail capture may still retain
    // Gets issued by a read transaction:
    bool with_deps = false;
    bool has_min_override = false;
    Version min_override;
  };

  struct PendingMultiGet {
    std::vector<Key> keys;
    std::vector<GetResult> results;
    size_t outstanding = 0;
    uint32_t round = 1;
    MultiGetCallback cb;
  };

  void SendPut(RequestId req);
  void SendGet(RequestId req);
  void StartTxnGet(uint64_t txn_id, size_t index, bool has_min, const Version& min);
  void FinishMultiGetRound(uint64_t txn_id);
  void ArmTimer(RequestId req);
  // Inserts `req` into pending_ (recycling the node the last completed op
  // freed) and resets every PendingOp field, keeping buffer capacities.
  PendingOp& ClaimPending(RequestId req);
  void HandlePutAck(const CrxPutAck& ack);
  // The view aliases the transport buffer; every field the client keeps
  // (value, deps, metadata) is copied into owned state inside the call.
  void HandleGetReply(const CrxGetReplyView& reply);
  // Called after every metadata_ insert: once the map has doubled since the
  // last sweep (floor kMetadataSweepFloor), erases every entry known
  // DC-Write-Stable. Each sweep is paid for by the inserts since the last
  // one, so the cost per op is amortised O(1).
  void MaybeSweepMetadata();

  ChainIndex AllowedPrefix(const Key& key) const;
  // Fills `out` (cleared first) so a caller-owned vector's capacity is
  // reused across puts instead of allocating a fresh list per op.
  void BuildDeps(std::vector<Dependency>* out) const;

  // Watermark compression (dep_watermark; DESIGN.md §14) ------------------
  // Records a cluster watermark piggybacked on a v2 ack/reply.
  void LearnWatermark(uint64_t epoch, uint64_t wm);
  // True iff the watermark proves `v` DC-Write-Stable everywhere.
  bool WatermarkCovers(const Version& v) const {
    return config_.dep_watermark && !v.IsNull() && v.origin == config_.local_dc &&
           v.lamport <= wm_cover_;
  }

  template <typename M>
  std::string Enc(const M& m) const {
    AllocPhaseScope phase(AllocPhase::kEncode);
    return EncodeMessage(m);
  }

  Address address_;
  CrxConfig config_;
  Env* env_ = nullptr;
  Ring ring_;
  Rng rng_;

  RequestId next_req_ = 1;
  std::unordered_map<RequestId, PendingOp> pending_;
  MapNodeCache<std::unordered_map<RequestId, PendingOp>> pending_cache_;
  // Dependency buffer reclaimed from the last delivered PutResult; the next
  // SendPut fills it in place instead of allocating a fresh vector.
  std::vector<Dependency> spare_result_deps_;
  std::unordered_map<Key, KeyMetadata> metadata_;
  static constexpr size_t kMetadataSweepFloor = 64;
  size_t metadata_sweep_at_ = kMetadataSweepFloor;
  // Nearest dependencies accumulated since the last write. `stable` marks
  // versions the client knows to be DC-Write-Stable (read replies say so);
  // those need no stability gating and, in single-DC deployments, are not
  // sent at all.
  struct AccessedEntry {
    Version version;
    bool stable = false;
  };
  std::unordered_map<Key, AccessedEntry> accessed_;
  uint64_t next_txn_id_ = 1;
  std::unordered_map<uint64_t, PendingMultiGet> multigets_;
  uint64_t multiget_second_rounds_ = 0;
  uint64_t retries_ = 0;

  // Watermark state (dep_watermark): wm_cover_ is the max W ever learned
  // (monotone — used for dependency coverage); (wm_epoch_, wm_hint_) is the
  // newest-epoch W, echoed on puts as a floor for the head's own
  // computation (heads only accept same-epoch hints).
  uint64_t wm_cover_ = 0;
  uint64_t wm_epoch_ = 0;
  uint64_t wm_hint_ = 0;

  // Observability (all null until AttachObs).
  TraceCollector* trace_sink_ = nullptr;
  LatencyMetric* m_put_latency_ = nullptr;
  LatencyMetric* m_get_latency_ = nullptr;
  Gauge* m_deps_bytes_ = nullptr;
  Gauge* m_accessed_keys_ = nullptr;
  Gauge* m_metadata_keys_ = nullptr;
  Counter* m_retries_ = nullptr;
  Counter* m_slow_traces_ = nullptr;  // tail-retained slow puts
  TraceSamplingPolicy sampling_;      // derived from config in the ctor
  uint64_t puts_started_ = 0;  // trace sampling counter
  uint64_t trace_rng_ = 1;     // xorshift state for probabilistic sampling
};

}  // namespace chainreaction

#endif  // SRC_CORE_CHAINREACTION_CLIENT_H_
