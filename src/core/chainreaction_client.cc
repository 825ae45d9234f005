#include "src/core/chainreaction_client.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace chainreaction {

ChainReactionClient::ChainReactionClient(Address address, CrxConfig config, Ring ring,
                                         uint64_t seed)
    : address_(address), config_(config), ring_(std::move(ring)), rng_(seed) {
  sampling_.sample_every = config_.trace_sample_every;
  sampling_.probability = config_.trace_probability;
  sampling_.slow_trace_us = config_.slow_trace_us;
  trace_rng_ = (seed ^ (static_cast<uint64_t>(address) << 32)) | 1;
}

void ChainReactionClient::AttachObs(MetricsRegistry* metrics, TraceCollector* traces) {
  trace_sink_ = traces;
  if (metrics == nullptr) {
    return;
  }
  const MetricLabels labels = {{"client", std::to_string(address_)}};
  m_put_latency_ = metrics->GetLatency("crx_client_put_latency_us", labels);
  m_get_latency_ = metrics->GetLatency("crx_client_get_latency_us", labels);
  m_deps_bytes_ = metrics->GetGauge("crx_client_deps_bytes", labels);
  m_accessed_keys_ = metrics->GetGauge("crx_client_accessed_keys", labels);
  m_metadata_keys_ = metrics->GetGauge("crx_client_metadata_keys", labels);
  m_retries_ = metrics->GetCounter("crx_client_retries", labels);
  m_slow_traces_ = metrics->GetCounter("crx_client_slow_traces", labels);
}

void ChainReactionClient::BuildDeps(std::vector<Dependency>* out) const {
  std::vector<Dependency>& deps = *out;
  deps.clear();
  deps.reserve(accessed_.size());
  for (const auto& [key, entry] : accessed_) {
    // A dependency is known DC-Write-Stable either because a reply said so
    // or because the cluster watermark covers it.
    const bool covered = WatermarkCovers(entry.version);
    const bool stable = entry.stable || covered;
    if (stable && config_.num_dcs <= 1) {
      // Already on every replica of its chain; with no remote DCs nobody
      // ever needs this dependency again.
      continue;
    }
    if (covered && config_.num_dcs > 1) {
      // Watermark compression, multi-DC: the cluster watermark proved this
      // version DC-Write-Stable at least a gossip round before now, so its
      // geo notification left the tail well before the write we are about
      // to issue can stabilize and ship — FIFO geo channels then deliver it
      // first, and remote DCs never need the explicit entry. Deps that are
      // merely reply-stable stay on the wire: they can be arbitrarily
      // fresh, and remote apply still gates on them.
      continue;
    }
    deps.push_back(Dependency{key, entry.version, stable});
  }
}

void ChainReactionClient::LearnWatermark(uint64_t epoch, uint64_t wm) {
  if (!config_.dep_watermark || wm == 0) {
    return;
  }
  wm_cover_ = std::max(wm_cover_, wm);
  if (epoch > wm_epoch_) {
    wm_epoch_ = epoch;
    wm_hint_ = wm;
  } else if (epoch == wm_epoch_) {
    wm_hint_ = std::max(wm_hint_, wm);
  }
}

size_t ChainReactionClient::AccessedSetBytes() const {
  // Pure arithmetic (Dependency::EncodedSizeV2 without building the
  // Dependency): this runs on every put when a metrics registry is
  // attached, so it must not serialize or copy keys.
  size_t bytes = 0;
  for (const auto& [key, entry] : accessed_) {
    bytes += VarStringSize(key) + entry.version.EncodedSizeV2() + 1;
  }
  return bytes;
}

ChainReactionClient::PendingOp& ChainReactionClient::ClaimPending(RequestId req) {
  PendingOp& op = pending_cache_.Claim(pending_, req).first->second;
  // A recycled node carries the previous op's state: reset every field, but
  // through clear() so key/value/deps keep their heap capacity.
  op.is_put = false;
  op.key.clear();
  op.value.clear();
  op.deps.clear();
  op.put_cb = nullptr;
  op.get_cb = nullptr;
  op.timer = 0;
  op.attempts = 0;
  op.started_at = 0;
  op.trace = TraceContext{};
  op.head_sampled = false;
  op.with_deps = false;
  op.has_min_override = false;
  op.min_override = Version{};
  return op;
}

void ChainReactionClient::Put(const Key& key, Value value, PutCallback cb) {
  const RequestId req = next_req_++;
  PendingOp& op = ClaimPending(req);
  op.is_put = true;
  op.key = key;
  op.value = std::move(value);
  op.put_cb = std::move(cb);
  SendPut(req);
}

void ChainReactionClient::SendPut(RequestId req) {
  auto it = pending_.find(req);
  if (it == pending_.end()) {
    return;
  }
  PendingOp& op = it->second;
  if (op.attempts == 0) {
    // Snapshot the dependency set once; retries must resend the same deps
    // even if other (pipelined) operations changed the accessed-set since.
    // The deps vector was handed off to the last PutResult; take back the
    // buffer reclaimed after that callback so the fill below reuses it.
    if (op.deps.capacity() == 0) {
      op.deps.swap(spare_result_deps_);
    }
    BuildDeps(&op.deps);
    op.started_at = env_->Now();
    if (m_deps_bytes_ != nullptr) {
      m_deps_bytes_->Set(static_cast<int64_t>(AccessedSetBytes()));
      m_accessed_keys_->Set(static_cast<int64_t>(accessed_.size()));
      m_metadata_keys_->Set(static_cast<int64_t>(metadata_.size()));
    }
    // Head sampling decides up front; with tail capture on, every put is
    // traced and the keep/drop decision happens at ack time.
    op.head_sampled = sampling_.HeadSample(puts_started_++, &trace_rng_);
    if (op.head_sampled || sampling_.capture_all()) {
      op.trace.id = MakeTraceId(address_, req);
      TraceHopAndReport(&op.trace, trace_sink_, HopKind::kClientPut, address_, config_.local_dc,
                        static_cast<uint32_t>(op.deps.size()), env_);
    }
  }
  op.attempts++;
  // Encode through a view over the pending op's own fields: no owned CrxPut
  // is built just to serialize it. The view dies before Send returns.
  CrxPutView msg;
  msg.req = req;
  msg.client = address_;
  msg.key = op.key;
  msg.value = op.value;
  msg.deps.assign(op.deps.begin(), op.deps.end());
  if (config_.dep_watermark) {
    msg.wm_epoch = wm_epoch_;
    msg.dep_wm = wm_hint_;
  }
  msg.trace = op.trace;
  env_->Send(ring_.HeadFor(op.key), Enc(msg));
  ArmTimer(req);
}

ChainIndex ChainReactionClient::AllowedPrefix(const Key& key) const {
  switch (config_.read_policy) {
    case ReadPolicy::kHeadOnly:
      return 1;
    case ReadPolicy::kAnyNodeUnsafe:
      return config_.replication;
    case ReadPolicy::kUniformPrefix:
      break;
  }
  auto it = metadata_.find(key);
  if (it == metadata_.end()) {
    // No constraint on this key: anything it could transitively depend on
    // was made DC-Write-Stable by the write gating, so the whole chain is
    // safe to read.
    return config_.replication;
  }
  // Watermark coverage proves the version DC-Write-Stable on every replica —
  // the same condition under which a stable read reply widens the prefix.
  if (WatermarkCovers(it->second.version)) {
    return config_.replication;
  }
  return it->second.chain_index;
}

void ChainReactionClient::Get(const Key& key, GetCallback cb) {
  const RequestId req = next_req_++;
  PendingOp& op = ClaimPending(req);
  op.key = key;
  op.get_cb = std::move(cb);
  SendGet(req);
}

void ChainReactionClient::SendGet(RequestId req) {
  auto it = pending_.find(req);
  if (it == pending_.end()) {
    return;
  }
  PendingOp& op = it->second;
  if (op.attempts == 0) {
    op.started_at = env_->Now();
  }
  op.attempts++;

  CrxGet msg;
  msg.req = req;
  msg.client = address_;
  msg.key = op.key;
  msg.with_deps = op.with_deps;
  if (op.has_min_override) {
    msg.min_version = op.min_override;
  } else if (config_.read_policy != ReadPolicy::kAnyNodeUnsafe) {
    auto md = metadata_.find(op.key);
    if (md != metadata_.end()) {
      msg.min_version = md->second.version;
    }
  }

  const ChainIndex allowed = std::max<ChainIndex>(1, AllowedPrefix(op.key));
  const ChainIndex pos = 1 + static_cast<ChainIndex>(rng_.NextBelow(allowed));
  const NodeId target = ring_.ChainFor(op.key)[pos - 1];
  env_->Send(target, Enc(msg));
  ArmTimer(req);
}

void ChainReactionClient::ArmTimer(RequestId req) {
  auto it = pending_.find(req);
  if (it == pending_.end()) {
    return;
  }
  it->second.timer = env_->Schedule(config_.client_timeout, [this, req]() {
    auto pit = pending_.find(req);
    if (pit == pending_.end()) {
      return;
    }
    retries_++;
    if (m_retries_ != nullptr) {
      m_retries_->Inc();
    }
    if (pit->second.is_put) {
      SendPut(req);
    } else {
      SendGet(req);
    }
  });
}

void ChainReactionClient::OnMessage(Address /*from*/, std::string_view payload) {
  switch (PeekType(payload)) {
    case MsgType::kCrxPutAck: {
      CrxPutAck m;
      bool ok;
      {
        AllocPhaseScope phase(AllocPhase::kDecode);
        ok = DecodeMessage(payload, &m);
      }
      if (ok) {
        HandlePutAck(m);
      }
      break;
    }
    case MsgType::kCrxPutAckBatch: {
      // Cumulative ack: entries are in ack order, so processing them
      // sequentially is identical to receiving individual CrxPutAcks.
      CrxPutAckBatch m;
      bool ok;
      {
        AllocPhaseScope phase(AllocPhase::kDecode);
        ok = DecodeMessage(payload, &m);
      }
      if (ok) {
        for (const CrxPutAck& ack : m.acks) {
          HandlePutAck(ack);
        }
      }
      break;
    }
    case MsgType::kCrxGetReply: {
      // Hot path: the view's key/value alias `payload` and stay valid for
      // the duration of this call only.
      CrxGetReplyView m;
      bool ok;
      {
        AllocPhaseScope phase(AllocPhase::kDecode);
        ok = DecodeMessage(payload, &m);
      }
      if (ok) {
        HandleGetReply(m);
      }
      break;
    }
    case MsgType::kMemNewMembership: {
      MemNewMembership m;
      if (DecodeMessage(payload, &m) && m.epoch > ring_.epoch()) {
        ring_ = Ring(m.nodes, config_.vnodes, config_.replication, m.epoch, m.weights);
      }
      break;
    }
    default:
      LOG_WARN("client %u: unexpected message type %u", address_,
               static_cast<unsigned>(PeekType(payload)));
  }
}

void ChainReactionClient::HandlePutAck(const CrxPutAck& ack) {
  auto it = pending_.find(ack.req);
  if (it == pending_.end() || !it->second.is_put) {
    return;  // duplicate ack after retry
  }
  env_->CancelTimer(it->second.timer);
  LearnWatermark(ack.wm_epoch, ack.stable_wm);
  const int64_t latency = env_->Now() - it->second.started_at;
  if (m_put_latency_ != nullptr) {
    // Traced puts attach their id as a histogram exemplar, linking the
    // latency bucket to the retained trace.
    m_put_latency_->RecordWithExemplar(latency, ack.trace.id);
  }
  if (ack.trace.active()) {
    TraceContext done = ack.trace;
    TraceHopAndReport(&done, trace_sink_, HopKind::kClientAck, address_, config_.local_dc,
                      ack.acked_at, env_);
    // Tail decision: slow puts are always retained (never lost to the
    // sampler); fast ones survive only if head-sampled.
    if (sampling_.capture_all() && trace_sink_ != nullptr) {
      if (latency >= sampling_.slow_trace_us) {
        trace_sink_->Retain(done.id);
        if (m_slow_traces_ != nullptr) {
          m_slow_traces_->Inc();
        }
      } else if (!it->second.head_sampled) {
        trace_sink_->Discard(done.id);
      }
    }
  }

  const bool stable = ack.acked_at >= config_.replication;
  metadata_[ack.key] = KeyMetadata{ack.version, ack.acked_at};
  MaybeSweepMetadata();
  // The new write causally subsumes everything accessed before it. In the
  // steady put stream the set holds exactly one entry, so rewrite that node
  // in place instead of freeing and reallocating it on every ack.
  if (accessed_.size() == 1) {
    auto node = accessed_.extract(accessed_.begin());
    node.key() = ack.key;
    node.mapped() = AccessedEntry{ack.version, stable};
    accessed_.insert(std::move(node));
  } else {
    accessed_.clear();
    accessed_[ack.key] = AccessedEntry{ack.version, stable};
  }

  PutCallback cb = std::move(it->second.put_cb);
  std::vector<Dependency> deps = std::move(it->second.deps);
  pending_cache_.Erase(pending_, it);
  if (cb) {
    AllocPhaseScope phase(AllocPhase::kCallback);
    PutResult result{Status::Ok(), ack.version, std::move(deps)};
    cb(result);
    // The callback sees the result by const ref, so the deps buffer is
    // intact afterwards; keep it for the next SendPut's dependency fill.
    result.deps.clear();
    spare_result_deps_ = std::move(result.deps);
  }
}

void ChainReactionClient::HandleGetReply(const CrxGetReplyView& reply) {
  auto it = pending_.find(reply.req);
  if (it == pending_.end() || it->second.is_put) {
    return;
  }
  env_->CancelTimer(it->second.timer);
  LearnWatermark(reply.wm_epoch, reply.stable_wm);
  if (m_get_latency_ != nullptr) {
    m_get_latency_->Record(env_->Now() - it->second.started_at);
  }

  if (reply.found) {
    const Key key(reply.key);  // materialized once; the view dies with the call
    auto md = metadata_.find(key);
    if (reply.stable) {
      // A DC-Write-Stable version is on every replica, so the no-metadata
      // rule (read any chain node) already returns it or something newer:
      // record nothing, and drop an entry this version supersedes.
      if (md != metadata_.end() && !reply.version.LwwLess(md->second.version)) {
        metadata_.erase(md);
      }
    } else if (md == metadata_.end()) {
      metadata_[key] = KeyMetadata{reply.version, reply.position};
      MaybeSweepMetadata();
    } else if (md->second.version == reply.version) {
      md->second.chain_index = std::max(md->second.chain_index, reply.position);
    } else if (md->second.version.LwwLess(reply.version)) {
      md->second = KeyMetadata{reply.version, reply.position};
    }
    // else: the node answered with an older version than our causal past —
    // only possible in kAnyNodeUnsafe mode; keep the stronger metadata.

    auto acc = accessed_.find(key);
    if (acc == accessed_.end() || acc->second.version.LwwLess(reply.version)) {
      accessed_[key] = AccessedEntry{reply.version, reply.stable};
    } else if (acc->second.version == reply.version && reply.stable) {
      acc->second.stable = true;
    }
  }

  GetCallback cb = std::move(it->second.get_cb);
  GetResult result;
  result.status = Status::Ok();
  result.found = reply.found;
  result.value = Value(reply.value);  // the result owns its copy
  result.version = reply.version;
  result.answered_by_position = reply.position;
  result.deps.assign(reply.deps.begin(), reply.deps.end());
  pending_cache_.Erase(pending_, it);
  if (cb) {
    AllocPhaseScope phase(AllocPhase::kCallback);
    cb(result);
  }
}

void ChainReactionClient::MaybeSweepMetadata() {
  if (metadata_.size() < metadata_sweep_at_) {
    return;
  }
  // Safe to forget: a stable version is on every replica of its chain, so
  // the no-metadata read rule (any chain node) returns it or something
  // newer. Remote-origin versions are never watermark-covered; they go
  // only once a local read reply reported them DC-Write-Stable.
  for (auto it = metadata_.begin(); it != metadata_.end();) {
    if (it->second.chain_index >= config_.replication || WatermarkCovers(it->second.version)) {
      it = metadata_.erase(it);
    } else {
      ++it;
    }
  }
  metadata_sweep_at_ = std::max(kMetadataSweepFloor, 2 * metadata_.size());
}

void ChainReactionClient::MultiGet(std::vector<Key> keys, MultiGetCallback cb) {
  const uint64_t txn_id = next_txn_id_++;
  PendingMultiGet& txn = multigets_[txn_id];
  txn.keys = std::move(keys);
  txn.results.resize(txn.keys.size());
  txn.outstanding = txn.keys.size();
  txn.cb = std::move(cb);
  if (txn.keys.empty()) {
    MultiGetResult out;
    out.status = Status::Ok();
    MultiGetCallback done = std::move(txn.cb);
    multigets_.erase(txn_id);
    done(out);
    return;
  }
  for (size_t i = 0; i < multigets_[txn_id].keys.size(); ++i) {
    StartTxnGet(txn_id, i, /*has_min=*/false, Version{});
  }
}

void ChainReactionClient::StartTxnGet(uint64_t txn_id, size_t index, bool has_min,
                                      const Version& min) {
  const Key key = multigets_[txn_id].keys[index];
  const RequestId req = next_req_++;
  PendingOp& op = ClaimPending(req);
  op.key = key;
  op.with_deps = true;
  op.has_min_override = has_min;
  op.min_override = min;
  op.get_cb = [this, txn_id, index](const GetResult& r) {
    auto it = multigets_.find(txn_id);
    if (it == multigets_.end()) {
      return;
    }
    it->second.results[index] = r;
    if (--it->second.outstanding == 0) {
      FinishMultiGetRound(txn_id);
    }
  };
  SendGet(req);
}

void ChainReactionClient::FinishMultiGetRound(uint64_t txn_id) {
  PendingMultiGet& txn = multigets_[txn_id];

  if (txn.round == 1) {
    // Collect, per requested key, the dependency versions that co-read
    // results require of it.
    std::unordered_map<size_t, std::vector<Version>> required;
    for (const GetResult& r : txn.results) {
      if (!r.found) {
        continue;
      }
      for (const Dependency& dep : r.deps) {
        for (size_t i = 0; i < txn.keys.size(); ++i) {
          if (txn.keys[i] == dep.key) {
            required[i].push_back(dep.version);
          }
        }
      }
    }

    // A result violates the snapshot iff some *single* co-read dependency
    // strictly causally dominates it. (Testing against a merged vector
    // would over-flag: the componentwise max of concurrent dependencies
    // corresponds to no real write, and concurrent LWW winners are
    // acceptable under causal+ convergence.) The refetch floor merges
    // exactly the dominating dependencies; any replica satisfies it once
    // it has applied them all.
    std::vector<std::pair<size_t, Version>> refetch;
    for (const auto& [i, needs] : required) {
      const GetResult& r = txn.results[i];
      Version floor;
      bool stale = false;
      for (const Version& need : needs) {
        const bool dominates =
            need.vv.Dominates(r.version.vv) && !(need.vv == r.version.vv);
        if (!r.found || dominates) {
          stale = true;
          floor.vv.MergeMax(need.vv);
          if (floor.lamport < need.lamport) {
            floor.lamport = need.lamport;
            floor.origin = need.origin;
          }
        }
      }
      if (stale) {
        refetch.push_back({i, floor});
      }
    }
    if (!refetch.empty()) {
      txn.round = 2;
      multiget_second_rounds_++;
      txn.outstanding = refetch.size();
      for (const auto& [i, need] : refetch) {
        StartTxnGet(txn_id, i, /*has_min=*/true, need);
      }
      return;
    }
  }

  MultiGetResult out;
  out.status = Status::Ok();
  out.rounds = txn.round;
  out.results = std::move(txn.results);
  MultiGetCallback done = std::move(txn.cb);
  multigets_.erase(txn_id);
  if (done) {
    done(out);
  }
}

}  // namespace chainreaction
