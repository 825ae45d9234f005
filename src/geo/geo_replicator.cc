#include "src/geo/geo_replicator.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/result.h"

namespace chainreaction {

GeoReplicator::GeoReplicator(DcId dc, CrxConfig config, Ring local_ring)
    : dc_(dc), config_(config), local_ring_(std::move(local_ring)) {}

void GeoReplicator::SetPeers(std::vector<Address> peer_by_dc) {
  peer_by_dc_ = std::move(peer_by_dc);
}

void GeoReplicator::AttachObs(MetricsRegistry* metrics, TraceCollector* traces) {
  trace_sink_ = traces;
  if (metrics == nullptr) {
    return;
  }
  const MetricLabels labels = {{"dc", std::to_string(dc_)}};
  m_shipped_ = metrics->GetCounter("crx_geo_updates_shipped", labels);
  m_received_ = metrics->GetCounter("crx_geo_updates_received", labels);
  m_applied_ = metrics->GetCounter("crx_geo_updates_applied", labels);
  m_retransmissions_ = metrics->GetCounter("crx_geo_retransmissions", labels);
  m_parked_depth_ = metrics->GetGauge("crx_geo_parked_updates", labels);
  m_replication_lag_ = metrics->GetLatency("crx_geo_replication_lag_us", labels);
  m_visibility_delay_ = metrics->GetLatency("crx_geo_visibility_delay_us", labels);
}

std::string GeoReplicator::VersionKey(const Key& key, const Version& v) {
  ByteWriter w;
  w.PutString(key);
  w.PutVarU64(v.lamport);
  w.PutU16(v.origin);
  return w.Take();
}

void GeoReplicator::OnMessage(Address from, std::string_view payload) {
  (void)from;
  switch (PeekType(payload)) {
    case MsgType::kGeoLocalStable: {
      GeoLocalStable m;
      if (DecodeMessage(payload, &m)) {
        notify_from_ = from;
        HandleLocalStable(m);
      }
      break;
    }
    case MsgType::kGeoShip: {
      GeoShip m;
      if (DecodeMessage(payload, &m)) {
        HandleShip(std::move(m));
      }
      break;
    }
    case MsgType::kGeoApplied: {
      GeoApplied m;
      if (DecodeMessage(payload, &m)) {
        HandleApplied(m);
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
    case MsgType::kMemNewMembership: {
      MemNewMembership m;
      if (DecodeMessage(payload, &m)) {
        HandleNewMembership(m);
      }
      break;
    }
    default:
      LOG_WARN("geo replicator dc%u: unexpected message", dc_);
  }
}

void GeoReplicator::HandleLocalStable(const GeoLocalStable& msg) {
  // Ack to the tail so it stops retrying this notification.
  {
    GeoLocalStableAck ack;
    ack.key = msg.key;
    ack.version = msg.version;
    env_->Send(notify_from_, EncodeMessage(ack));
  }
  applied_vv_[msg.key].MergeMax(msg.version.vv);

  // Ack a remote update we injected, now that it is stable here.
  const std::string vk = VersionKey(msg.key, msg.version);
  auto ack_it = pending_acks_.find(vk);
  if (ack_it != pending_acks_.end()) {
    const DcId origin = ack_it->second.origin;
    const uint64_t seq = ack_it->second.channel_seq;
    if (m_visibility_delay_ != nullptr && ack_it->second.received_at != 0) {
      m_visibility_delay_->Record(env_->Now() - ack_it->second.received_at);
    }
    if (msg.trace.active()) {
      TraceContext visible = msg.trace;
      TraceHopAndReport(&visible, trace_sink_, HopKind::kRemoteVisible, dc_, dc_, origin,
                        env_);
    }
    pending_acks_.erase(ack_it);
    updates_applied_++;
    if (m_applied_ != nullptr) {
      m_applied_->Inc();
    }
    GeoApplied applied;
    applied.dest_dc = dc_;
    applied.channel_seq = seq;
    if (origin < peer_by_dc_.size() && peer_by_dc_[origin] != 0) {
      env_->Send(peer_by_dc_[origin], EncodeMessage(applied));
    }
    if (on_remote_visible) {
      on_remote_visible(msg.key, msg.version, env_->Now());
    }
  }

  // Ship locally-originated writes to every peer, exactly once (plus
  // retransmissions until acknowledged).
  if (msg.has_payload && msg.version.origin == dc_ && !shipped_.contains(vk)) {
    shipped_.insert(vk);
    GeoShip ship;
    ship.origin_dc = dc_;
    ship.channel_seq = next_channel_seq_++;
    ship.key = msg.key;
    ship.value = msg.value;
    ship.version = msg.version;
    ship.deps = msg.deps;
    ship.trace = msg.trace;
    uint32_t peer_count = 0;
    for (DcId d = 0; d < peer_by_dc_.size(); ++d) {
      if (d != dc_ && peer_by_dc_[d] != 0) {
        peer_count++;
      }
    }
    TraceHopAndReport(&ship.trace, trace_sink_, HopKind::kGeoShip, dc_, dc_, peer_count,
                      env_);
    std::vector<DcId> peers;
    for (DcId d = 0; d < peer_by_dc_.size(); ++d) {
      if (d != dc_ && peer_by_dc_[d] != 0) {
        env_->Send(peer_by_dc_[d], EncodeMessage(ship));
        peers.push_back(d);
      }
    }
    if (!peers.empty()) {
      updates_shipped_++;
      if (m_shipped_ != nullptr) {
        m_shipped_->Inc();
      }
      events_.Emit(EventKind::kGeoShip, env_->Now(), static_cast<int64_t>(peers.size()),
                   static_cast<int64_t>(dc_));
      PendingGlobal& pg = pending_global_[ship.channel_seq];
      pg.ship = std::move(ship);
      pg.unacked = std::move(peers);
      pg.shipped_at = env_->Now();
      ArmRetransmitTimer();
    } else if (on_global_stable) {
      on_global_stable(msg.key, msg.version, env_->Now(), env_->Now());
    }
  }

  RecheckWaiters(msg.key);
}

bool GeoReplicator::DepSatisfied(const Dependency& dep) const {
  if (dep.version.IsNull()) {
    return true;
  }
  auto it = applied_vv_.find(dep.key);
  return it != applied_vv_.end() && it->second.Dominates(dep.version.vv);
}

void GeoReplicator::HandleShip(GeoShip msg) {
  updates_received_++;
  if (m_received_ != nullptr) {
    m_received_->Inc();
  }
  const std::string vk = VersionKey(msg.key, msg.version);

  // Duplicate or already-applied update: ack immediately.
  auto avit = applied_vv_.find(msg.key);
  if (avit != applied_vv_.end() && avit->second.Dominates(msg.version.vv)) {
    pending_acks_.erase(vk);  // the ack below supersedes any pending one
    GeoApplied applied;
    applied.dest_dc = dc_;
    applied.channel_seq = msg.channel_seq;
    if (msg.origin_dc < peer_by_dc_.size() && peer_by_dc_[msg.origin_dc] != 0) {
      env_->Send(peer_by_dc_[msg.origin_dc], EncodeMessage(applied));
    }
    return;
  }

  // Retransmitted duplicate still in flight locally: if it was already
  // injected (e.g. the injection raced a chain reconfiguration), re-inject
  // — the chain deduplicates; if it is dependency-parked, the parked copy
  // will be injected when its dependencies land.
  if (auto dup = pending_acks_.find(vk); dup != pending_acks_.end()) {
    if (!dup->second.parked) {
      Inject(msg);
    }
    return;
  }
  pending_acks_[vk] = PendingAck{msg.origin_dc, msg.channel_seq, false, env_->Now()};

  // A dependency on an older version of the same key is carried by the
  // update itself (its version vector causally includes it); drop such
  // deps so they can never deadlock the update against itself.
  std::erase_if(msg.deps, [&msg](const Dependency& dep) {
    return dep.key == msg.key && msg.version.vv.Dominates(dep.version.vv);
  });

  uint32_t unmet = 0;
  for (const Dependency& dep : msg.deps) {
    if (!DepSatisfied(dep)) {
      unmet++;
    }
  }
  if (unmet == 0) {
    Inject(msg);
    return;
  }

  updates_parked_++;
  pending_acks_[vk].parked = true;
  if (m_parked_depth_ != nullptr) {
    m_parked_depth_->Add(1);
  }
  size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = waiting_.size();
    waiting_.emplace_back();
  }
  PendingRemote& pr = waiting_[slot];
  pr.unmet_deps = unmet;
  pr.live = true;
  for (const Dependency& dep : msg.deps) {
    if (!DepSatisfied(dep)) {
      waiters_by_dep_[dep.key].push_back(slot);
      ProbeDependency(dep);
    }
  }
  pr.ship = std::move(msg);
}

void GeoReplicator::ProbeDependency(const Dependency& dep) {
  LOG_DEBUG("geo dc%u probing dep %s %s to tail %u", dc_, dep.key.c_str(),
            dep.version.ToString().c_str(), local_ring_.TailFor(dep.key));
  const uint64_t token = next_check_token_++;
  pending_checks_[token] = dep;
  CrxStabilityCheck check;
  check.key = dep.key;
  check.version = dep.version;
  check.token = token;
  env_->Send(local_ring_.TailFor(dep.key), EncodeMessage(check));
  ArmCheckTimer();
}

void GeoReplicator::HandleStabilityConfirm(const CrxStabilityConfirm& msg) {
  LOG_DEBUG("geo dc%u got confirm token=%llu key=%s", dc_,
            (unsigned long long)msg.token, msg.key.c_str());
  auto it = pending_checks_.find(msg.token);
  if (it == pending_checks_.end()) {
    return;
  }
  const Dependency dep = it->second;
  pending_checks_.erase(it);
  applied_vv_[dep.key].MergeMax(dep.version.vv);
  RecheckWaiters(dep.key);
}

void GeoReplicator::ArmCheckTimer() {
  if (check_timer_armed_ || retransmit_interval_ <= 0) {
    return;
  }
  check_timer_armed_ = true;
  env_->Schedule(retransmit_interval_, [this]() {
    check_timer_armed_ = false;
    // Drop probes whose waiters already resolved through the fast path.
    std::erase_if(pending_checks_, [this](const auto& entry) {
      return DepSatisfied(entry.second);
    });
    for (const auto& [token, dep] : pending_checks_) {
      CrxStabilityCheck check;
      check.key = dep.key;
      check.version = dep.version;
      check.token = token;
      env_->Send(local_ring_.TailFor(dep.key), EncodeMessage(check));
    }
    if (!pending_checks_.empty()) {
      ArmCheckTimer();
    }
  });
}

void GeoReplicator::Inject(const GeoShip& ship) {
  auto it = pending_acks_.find(VersionKey(ship.key, ship.version));
  if (it != pending_acks_.end()) {
    it->second.parked = false;
  }
  GeoRemotePut put;
  put.key = ship.key;
  put.value = ship.value;
  put.version = ship.version;
  put.deps = ship.deps;
  put.trace = ship.trace;
  TraceHopAndReport(&put.trace, trace_sink_, HopKind::kGeoInject, dc_, dc_, ship.origin_dc,
                    env_);
  events_.Emit(EventKind::kGeoInject, env_->Now(), 1, static_cast<int64_t>(ship.origin_dc));
  env_->Send(local_ring_.HeadFor(ship.key), EncodeMessage(put));
}

void GeoReplicator::RecheckWaiters(const Key& key) {
  auto it = waiters_by_dep_.find(key);
  if (it == waiters_by_dep_.end()) {
    return;
  }
  std::vector<size_t> slots = std::move(it->second);
  waiters_by_dep_.erase(it);
  std::vector<size_t> still_waiting;
  for (size_t slot : slots) {
    PendingRemote& pr = waiting_[slot];
    if (!pr.live) {
      continue;
    }
    // Conservative recheck: this waiter had >= 1 unmet dep on `key`.
    bool dep_on_key_met = true;
    for (const Dependency& dep : pr.ship.deps) {
      if (dep.key == key && !DepSatisfied(dep)) {
        dep_on_key_met = false;
        break;
      }
    }
    if (!dep_on_key_met) {
      still_waiting.push_back(slot);
      continue;
    }
    if (--pr.unmet_deps == 0) {
      pr.live = false;
      free_slots_.push_back(slot);
      if (m_parked_depth_ != nullptr) {
        m_parked_depth_->Add(-1);
      }
      Inject(pr.ship);
      pr.ship = GeoShip{};  // release memory
    }
  }
  if (!still_waiting.empty()) {
    auto& list = waiters_by_dep_[key];
    list.insert(list.end(), still_waiting.begin(), still_waiting.end());
  }
}

void GeoReplicator::HandleApplied(const GeoApplied& msg) {
  auto it = pending_global_.find(msg.channel_seq);
  if (it == pending_global_.end()) {
    return;
  }
  auto& unacked = it->second.unacked;
  std::erase(unacked, msg.dest_dc);
  if (!unacked.empty()) {
    return;
  }
  const Time now = env_->Now();
  global_stable_delay_.Record(now - it->second.shipped_at);
  if (m_replication_lag_ != nullptr) {
    m_replication_lag_->Record(now - it->second.shipped_at);
  }
  if (on_global_stable) {
    on_global_stable(it->second.ship.key, it->second.ship.version, it->second.shipped_at, now);
  }
  pending_global_.erase(it);
}

void GeoReplicator::ArmRetransmitTimer() {
  if (retransmit_armed_ || retransmit_interval_ <= 0) {
    return;
  }
  retransmit_armed_ = true;
  env_->Schedule(retransmit_interval_, [this]() {
    retransmit_armed_ = false;
    RetransmitUnacked();
    if (!pending_global_.empty()) {
      ArmRetransmitTimer();
    }
  });
}

void GeoReplicator::RetransmitUnacked() {
  for (const auto& [seq, pg] : pending_global_) {
    for (DcId d : pg.unacked) {
      if (d < peer_by_dc_.size() && peer_by_dc_[d] != 0) {
        retransmissions_++;
        if (m_retransmissions_ != nullptr) {
          m_retransmissions_->Inc();
        }
        env_->Send(peer_by_dc_[d], EncodeMessage(pg.ship));
      }
    }
  }
}

void GeoReplicator::HandleNewMembership(const MemNewMembership& msg) {
  if (msg.epoch > local_ring_.epoch()) {
    local_ring_ = Ring(msg.nodes, config_.vnodes, config_.replication, msg.epoch, msg.weights);
  }
}

}  // namespace chainreaction
