// Configuration shared by ChainReaction nodes and clients.
#ifndef SRC_CORE_CONFIG_H_
#define SRC_CORE_CONFIG_H_

#include <cstdint>

#include "src/common/bytes.h"
#include "src/common/types.h"
#include "src/engine/storage_engine.h"

namespace chainreaction {

// How a client picks the chain position of a read within its allowed
// prefix. kUniformPrefix is the paper's policy and the default; the others
// exist for ablations and for validating the consistency checker.
enum class ReadPolicy {
  kUniformPrefix,  // uniform over [1, chain_index] — the paper's policy
  kHeadOnly,       // always position 1 (trivially causal, no distribution)
  kAnyNodeUnsafe,  // uniform over [1, R] ignoring metadata — VIOLATES
                   // causality; used only to prove the checker catches it
};

struct CrxConfig {
  uint32_t replication = 3;  // chain length R
  uint32_t k_stability = 2;  // ack after the first k nodes applied (1 <= k <= R)
  uint32_t vnodes = 16;      // virtual nodes per server on the ring

  DcId local_dc = 0;
  uint16_t num_dcs = 1;

  // Address of this DC's geo replicator; 0 disables geo shipping.
  Address geo_replicator = 0;

  // Heartbeat target and period for membership failure detection; 0
  // disables heartbeats (oracle membership). NOTE: enabling this keeps a
  // periodic timer alive forever — drive such clusters with RunUntil.
  Address membership = 0;
  Duration heartbeat_interval = 0;

  // Failure-detection tuning. The service sweeps for silent nodes every
  // fd_sweep_interval and declares a node dead after fd_timeout without a
  // heartbeat. 0 picks the defaults derived from heartbeat_interval (sweep
  // every heartbeat_interval, timeout at 4x — the pre-knob behavior).
  Duration fd_sweep_interval = 0;
  Duration fd_timeout = 0;

  // When > 0, the membership service re-broadcasts the current epoch on
  // this period even without topology changes, so listeners that missed an
  // epoch announcement (or joined late) converge without waiting for the
  // next change. 0 (the default) broadcasts only on change.
  Duration membership_rebroadcast_interval = 0;

  // Retry timeout for client requests.
  Duration client_timeout = 500 * kMillisecond;

  // Tails coalesce backward stability notifications per key for this long
  // (hot keys stabilize many versions per notification instead of one
  // message each). 0 sends immediately.
  Duration stable_notify_delay = 100;  // microseconds

  // Nodes at the k-stability position coalesce client acks per client for
  // this long and reply with one cumulative CrxPutAckBatch per window
  // instead of one CrxPutAck per put. 0 (the default) sends each ack
  // immediately — the pre-batching wire behavior.
  Duration ack_batch_window = 0;  // microseconds

  // Geo replicators coalesce outgoing GeoShips per peer DC for this long
  // and send one GeoShipBatch per window. 0 (the default) ships each
  // stable version in its own frame.
  Duration geo_ship_batch_window = 0;  // microseconds

  ReadPolicy read_policy = ReadPolicy::kUniformPrefix;

  // Watermark dependency compression. Nodes track the oldest
  // non-DC-Write-Stable locally-minted version in their store and gossip
  // per-node stable cuts; the cluster-wide minimum W guarantees
  // every local-origin version with lamport <= W is DC-Write-Stable.
  // Clients drop (single-DC) or pre-mark local_stable (multi-DC) any
  // dependency covered by W, so the common-case put ships one scalar
  // instead of a dep list, and heads skip stability checks for covered
  // deps. Off by default: explicit COPS-style dep lists are the paper's
  // protocol and the bench baseline.
  bool dep_watermark = false;

  // Period of the direct stable-cut broadcast between ring peers while
  // dep_watermark is on. Piggybacked cuts on chain traffic only reach
  // chain-adjacent peers; the broadcast closes the gap. Activity-gated: a
  // node broadcasts for a couple of rounds after protocol traffic and then
  // goes silent, so quiescent clusters stay quiescent.
  Duration wm_gossip_interval = 5 * kMillisecond;

  // Value-storage engine. kMem keeps values inline in the store (the
  // historical behavior). kDisk stores values in an append-only log under
  // the node's data dir (requires durability to be enabled with a data
  // dir); the store keeps at most ~engine_cache_bytes of hot values
  // materialized in memory.
  StorageEngineKind engine = StorageEngineKind::kMem;
  uint64_t engine_cache_bytes = 64u << 20;
  uint64_t engine_segment_bytes = 8u << 20;
  // A sealed value-log segment is compacted once this fraction is garbage.
  double engine_compact_garbage = 0.5;

  // Safety valve for reads deferred at the head waiting for a version that
  // never arrives (should not happen in correct configurations).
  Duration deferred_read_timeout = 1 * kSecond;

  // Heads re-propagate versions that have not become DC-Write-Stable after
  // this long — the anti-entropy that restores chain liveness when chain
  // messages are lost. The timer only runs while unstable head versions
  // exist, so quiescent clusters stay quiescent.
  Duration anti_entropy_interval = 500 * kMillisecond;

  // A node rejoining after a crash-restart buffers client puts (and guards
  // reads of chains it just joined) after the epoch that re-adds it: its
  // recovered store may be behind, and assigning versions from a stale
  // per-key version vector would fork the version order. The primary drain
  // trigger is completion-based — one MemSyncDone marker per established
  // peer, sent after that peer's repair pushes — because under load the
  // repair storm can take hundreds of milliseconds. This duration is the
  // fallback window against lost markers; 0 disables the barrier entirely.
  Duration rejoin_grace = 250 * kMillisecond;

  // TESTING ONLY: disable the dependency-stability gating at the head. With
  // this off, the causal+ checker must detect violations (see tests).
  bool disable_dependency_gating = false;

  // Clients attach a trace header to every Nth put (0 disables tracing).
  // Traced puts accumulate per-hop annotations end-to-end; see src/obs/.
  uint32_t trace_sample_every = 0;

  // Probabilistic head sampling: additionally trace each put with this
  // probability (0 disables). Combines with trace_sample_every.
  double trace_probability = 0.0;

  // Tail-based capture: when > 0, EVERY put carries a trace context, and on
  // ack the client retains the trace iff the observed latency was >= this
  // many microseconds (or the put was head-sampled anyway); other traces
  // are discarded. Slow requests thus always keep their full hop trace.
  int64_t slow_trace_us = 0;

  // Dep-stall watchdog: flag (flight-recorder kDepStall + crx_dep_stalls_total)
  // any gated write whose dep-wait exceeds this multiple of the node's
  // chain-lag EWMA (crx_chain_lag_us, the typical head->tail stabilization
  // time). Such waits mean the blocking chain is stuck, not merely busy.
  // 0 disables the watchdog.
  double stall_depwait_multiple = 8.0;
};

}  // namespace chainreaction

#endif  // SRC_CORE_CONFIG_H_
