// Per-datacenter geo replicator.
//
// One replicator runs in each DC. Chain tails notify it whenever a version
// becomes DC-Write-Stable locally (GeoLocalStable). The replicator then:
//   * ships locally-originated updates (value + causal dependency list) to
//     every peer DC over a FIFO channel, exactly once per version;
//   * holds incoming remote updates until all of their dependencies are
//     applied in this DC, then injects them at the local chain head
//     (GeoRemotePut) — COPS-style dependency checking;
//   * acknowledges a remote update back to its origin once it is applied
//     and locally stable here; the origin declares the write
//     Global-Write-Stable when every peer has acknowledged.
//
// Convergent conflict handling (the "+" of causal+) happens in the nodes'
// versioned stores via last-writer-wins ordering; the replicator never
// reorders or suppresses conflicting versions.
#ifndef SRC_GEO_GEO_REPLICATOR_H_
#define SRC_GEO_GEO_REPLICATOR_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/types.h"
#include "src/common/version.h"
#include "src/core/config.h"
#include "src/msg/message.h"
#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/ring/ring.h"
#include "src/sim/env.h"

namespace chainreaction {

class GeoReplicator : public Actor {
 public:
  GeoReplicator(DcId dc, CrxConfig config, Ring local_ring);

  void AttachEnv(Env* env) { env_ = env; }

  // Optional observability: replication-lag / visibility-delay histograms
  // and ship/receive counters, labeled by DC; traced updates report their
  // geo hops (ship, inject, remote visibility) to `traces`.
  void AttachObs(MetricsRegistry* metrics, TraceCollector* traces);

  // peer_by_dc[d] = address of DC d's replicator; the local slot is ignored.
  void SetPeers(std::vector<Address> peer_by_dc);

  void OnMessage(Address from, std::string_view payload) override;

  // Hooks for experiments/tests ------------------------------------------
  // A remote-origin update became visible (applied & stable) in this DC.
  std::function<void(const Key&, const Version&, Time now)> on_remote_visible;
  // A locally-originated update became Global-Write-Stable.
  std::function<void(const Key&, const Version&, Time shipped_at, Time now)> on_global_stable;

  // Stats -----------------------------------------------------------------
  uint64_t updates_shipped() const { return updates_shipped_; }
  uint64_t retransmissions() const { return retransmissions_; }
  uint64_t updates_received() const { return updates_received_; }
  uint64_t updates_applied() const { return updates_applied_; }
  uint64_t updates_parked() const { return updates_parked_; }
  size_t waiting_now() const { return waiting_.size() - free_slots_.size(); }
  size_t unacked_shipments() const { return pending_global_.size(); }
  size_t pending_acks() const { return pending_acks_.size(); }
  const Histogram& global_stable_delay() const { return global_stable_delay_; }

  // Flight recorder of this replicator's ship/inject activity.
  FlightRecorder* events() { return &events_; }
  const FlightRecorder* events() const { return &events_; }

 private:
  struct PendingRemote {
    GeoShip ship;
    uint32_t unmet_deps = 0;
    bool live = false;
  };
  struct PendingGlobal {
    GeoShip ship;                    // kept for retransmission
    std::vector<DcId> unacked;       // peers that have not confirmed apply
    Time shipped_at = 0;
  };

  static std::string VersionKey(const Key& key, const Version& v);

  void HandleLocalStable(const GeoLocalStable& msg);
  void HandleShip(GeoShip msg);
  void HandleApplied(const GeoApplied& msg);
  void HandleNewMembership(const MemNewMembership& msg);

  bool DepSatisfied(const Dependency& dep) const;
  void Inject(const GeoShip& ship);
  void RecheckWaiters(const Key& key);

  // Inter-DC channels are made reliable over a lossy network by resending
  // unacknowledged shipments; receivers deduplicate.
  void ArmRetransmitTimer();
  void RetransmitUnacked();

  // Reliable dependency resolution: GeoLocalStable notifications are the
  // fast path, but they can be lost; for every unmet dependency of a parked
  // update the replicator also registers a stability check at the local
  // tail (re-sent periodically until confirmed).
  void ProbeDependency(const Dependency& dep);
  void HandleStabilityConfirm(const CrxStabilityConfirm& msg);
  void ArmCheckTimer();

  DcId dc_;
  CrxConfig config_;
  Env* env_ = nullptr;
  Ring local_ring_;
  std::vector<Address> peer_by_dc_;

  // Causal knowledge: merged vv of every version known applied-and-stable
  // in this DC, per key.
  std::unordered_map<Key, VersionVector> applied_vv_;

  // Outbound.
  uint64_t next_channel_seq_ = 1;
  std::unordered_set<std::string> shipped_;  // dedup by (key, version)
  std::unordered_map<uint64_t, PendingGlobal> pending_global_;

  // Inbound.
  std::vector<PendingRemote> waiting_;
  std::vector<size_t> free_slots_;
  std::unordered_map<Key, std::vector<size_t>> waiters_by_dep_;
  // Remote updates accepted but not yet locally stable, keyed by
  // (key, version). `parked` distinguishes dependency-parked updates from
  // injected ones (a retransmitted duplicate of an injected update is
  // re-injected; the chain deduplicates).
  struct PendingAck {
    DcId origin = 0;
    uint64_t channel_seq = 0;
    bool parked = false;
    // When the shipment arrived here; visibility delay = stable time - this.
    Time received_at = 0;
  };
  std::unordered_map<std::string, PendingAck> pending_acks_;

  Duration retransmit_interval_ = 250 * kMillisecond;
  bool retransmit_armed_ = false;
  Address notify_from_ = 0;  // tail that sent the notification being handled

  // Outstanding dependency stability probes: token -> dependency.
  std::unordered_map<uint64_t, Dependency> pending_checks_;
  uint64_t next_check_token_ = 1;
  bool check_timer_armed_ = false;

  uint64_t updates_shipped_ = 0;
  uint64_t retransmissions_ = 0;
  uint64_t updates_received_ = 0;
  uint64_t updates_applied_ = 0;
  uint64_t updates_parked_ = 0;
  Histogram global_stable_delay_;

  // Observability (all null until AttachObs).
  TraceCollector* trace_sink_ = nullptr;
  Counter* m_shipped_ = nullptr;
  Counter* m_received_ = nullptr;
  Counter* m_applied_ = nullptr;
  Counter* m_retransmissions_ = nullptr;
  Gauge* m_parked_depth_ = nullptr;
  LatencyMetric* m_replication_lag_ = nullptr;
  LatencyMetric* m_visibility_delay_ = nullptr;
  FlightRecorder events_;
};

}  // namespace chainreaction

#endif  // SRC_GEO_GEO_REPLICATOR_H_
