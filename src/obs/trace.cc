#include "src/obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "src/obs/metrics.h"

namespace chainreaction {

const char* HopKindName(HopKind kind) {
  switch (kind) {
    case HopKind::kInvalid:
      return "invalid";
    case HopKind::kClientPut:
      return "client_put";
    case HopKind::kHeadGated:
      return "head_gated";
    case HopKind::kHeadApply:
      return "head_apply";
    case HopKind::kChainApply:
      return "chain_apply";
    case HopKind::kKAck:
      return "k_ack";
    case HopKind::kClientAck:
      return "client_ack";
    case HopKind::kTailStable:
      return "tail_stable";
    case HopKind::kGeoShip:
      return "geo_ship";
    case HopKind::kGeoInject:
      return "geo_inject";
    case HopKind::kRemoteVisible:
      return "remote_visible";
    case HopKind::kHeadRecv:
      return "head_recv";
    case HopKind::kDepUnblocked:
      return "dep_unblocked";
    case HopKind::kChainRecv:
      return "chain_recv";
    case HopKind::kMigPhase:
      return "mig_phase";
  }
  return "?";
}

void TraceContext::EncodeV2(ByteWriter* w) const {
  w->PutVarU64(id);
  if (id == 0) {
    return;  // untraced: one byte on the wire
  }
  w->PutVarU64(hops.size());
  for (const TraceHop& h : hops) {
    w->PutU8(static_cast<uint8_t>(h.kind));
    w->PutVarU64(h.node);
    w->PutVarU64(h.dc);
    w->PutVarU64(h.detail);
    w->PutVarI64(h.at);
    w->PutVarU64(h.aux);
  }
}

bool TraceContext::DecodeV2(ByteReader* r) {
  hops.clear();
  if (!r->GetVarU64(&id)) {
    return false;
  }
  if (id == 0) {
    return true;
  }
  uint64_t n = 0;
  if (!r->GetVarU64(&n) || n > 4096) {
    return false;
  }
  hops.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t kind = 0;
    uint64_t node = 0, dc = 0, detail = 0;
    TraceHop& h = hops[i];
    if (!r->GetU8(&kind) || !r->GetVarU64(&node) || !r->GetVarU64(&dc) ||
        !r->GetVarU64(&detail) || !r->GetVarI64(&h.at) || !r->GetVarU64(&h.aux) ||
        node > UINT32_MAX || dc > UINT16_MAX || detail > UINT32_MAX) {
      return false;
    }
    h.kind = static_cast<HopKind>(kind);
    h.node = static_cast<uint32_t>(node);
    h.dc = static_cast<uint16_t>(dc);
    h.detail = static_cast<uint32_t>(detail);
  }
  return true;
}

void TraceCollector::Report(const TraceContext& trace) {
  if (!trace.active()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = traces_.try_emplace(trace.id);
  if (inserted) {
    order_.push_back(trace.id);
    if (order_.size() > kMaxTraces) {
      EvictOneLocked();
    }
  }
  std::vector<TraceHop>& merged = it->second;
  if (merged.empty()) {
    merged.reserve(TraceContext::kInlineHops);
  }
  // Fast path: a context reported at hop N carries hops 0..N-1 of the same
  // path, so most reports are prefix-extensions of what the collector
  // already merged — skip the already-known prefix and only run the
  // quadratic dedup on hops past it (divergent branches, e.g. the ack path
  // racing the tail-stability path, land there).
  size_t start = 0;
  while (start < merged.size() && start < trace.hops.size() &&
         merged[start] == trace.hops[start]) {
    ++start;
  }
  for (size_t i = start; i < trace.hops.size(); ++i) {
    const TraceHop& hop = trace.hops[i];
    if (merged.size() >= kMaxHopsPerTrace) {
      break;
    }
    if (std::find(merged.begin(), merged.end(), hop) == merged.end()) {
      merged.push_back(hop);
    }
  }
}

void TraceCollector::AnnotateNote(uint64_t id, const std::string& note) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!traces_.contains(id)) {
    return;
  }
  std::vector<std::string>& notes = notes_[id];
  if (notes.size() >= kMaxNotesPerTrace ||
      std::find(notes.begin(), notes.end(), note) != notes.end()) {
    return;
  }
  notes.push_back(note);
}

void TraceCollector::EvictOneLocked() {
  // Prefer the oldest unretained trace; fall back to the oldest retained
  // one only when everything is pinned.
  for (auto it = order_.begin(); it != order_.end(); ++it) {
    if (!retained_.contains(*it)) {
      traces_.erase(*it);
      notes_.erase(*it);
      order_.erase(it);
      return;
    }
  }
  if (!order_.empty()) {
    retained_.erase(order_.front());
    traces_.erase(order_.front());
    notes_.erase(order_.front());
    order_.erase(order_.begin());
  }
}

void TraceCollector::Retain(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (traces_.contains(id)) {
    retained_.insert(id);
  }
}

void TraceCollector::Discard(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (traces_.erase(id) > 0) {
    retained_.erase(id);
    notes_.erase(id);
    order_.erase(std::remove(order_.begin(), order_.end(), id), order_.end());
  }
}

bool TraceCollector::IsRetained(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return retained_.contains(id);
}

size_t TraceCollector::retained_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retained_.size();
}

std::vector<uint64_t> TraceCollector::RetainedIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> out;
  out.reserve(retained_.size());
  for (uint64_t id : order_) {
    if (retained_.contains(id)) {
      out.push_back(id);
    }
  }
  return out;
}

size_t TraceCollector::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_.size();
}

std::vector<uint64_t> TraceCollector::TraceIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return order_;
}

namespace {
void SortHops(std::vector<TraceHop>* hops) {
  std::sort(hops->begin(), hops->end(), [](const TraceHop& a, const TraceHop& b) {
    if (a.at != b.at) {
      return a.at < b.at;
    }
    if (a.kind != b.kind) {
      return static_cast<uint8_t>(a.kind) < static_cast<uint8_t>(b.kind);
    }
    return a.detail < b.detail;
  });
}
}  // namespace

bool TraceCollector::Find(uint64_t id, Trace* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = traces_.find(id);
  if (it == traces_.end()) {
    return false;
  }
  out->id = id;
  out->hops = it->second;
  SortHops(&out->hops);
  auto nit = notes_.find(id);
  out->notes = nit == notes_.end() ? std::vector<std::string>{} : nit->second;
  return true;
}

bool TraceCollector::Latest(Trace* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (order_.empty()) {
    return false;
  }
  const uint64_t id = order_.back();
  out->id = id;
  out->hops = traces_.at(id);
  SortHops(&out->hops);
  auto nit = notes_.find(id);
  out->notes = nit == notes_.end() ? std::vector<std::string>{} : nit->second;
  return true;
}

void TraceCollector::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  traces_.clear();
  notes_.clear();
  order_.clear();
  retained_.clear();
}

std::string TraceCollector::Render(const Trace& trace) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "trace %016llx (%zu hops)\n",
                static_cast<unsigned long long>(trace.id), trace.hops.size());
  std::string out = buf;
  const Time t0 = trace.hops.empty() ? 0 : trace.hops.front().at;
  for (const TraceHop& h : trace.hops) {
    std::snprintf(buf, sizeof(buf), "  +%-8lld %-14s node=%u dc=%u detail=%u",
                  static_cast<long long>(h.at - t0), HopKindName(h.kind), h.node, h.dc,
                  h.detail);
    out += buf;
    if (h.aux != 0) {
      std::snprintf(buf, sizeof(buf), " aux=%llx", static_cast<unsigned long long>(h.aux));
      out += buf;
    }
    out += "\n";
  }
  for (const std::string& note : trace.notes) {
    out += "  note " + note + "\n";
  }
  return out;
}

std::string TraceCollector::RenderJson(const Trace& trace) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "{\"id\":\"%016llx\",\"hops\":[",
                static_cast<unsigned long long>(trace.id));
  std::string out = buf;
  bool first = true;
  for (const TraceHop& h : trace.hops) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"kind\":\"%s\",\"node\":%u,\"dc\":%u,\"detail\":%u,\"at\":%lld,"
                  "\"aux\":%llu}",
                  first ? "" : ",", HopKindName(h.kind), h.node, h.dc, h.detail,
                  static_cast<long long>(h.at), static_cast<unsigned long long>(h.aux));
    out += buf;
    first = false;
  }
  out += "],\"notes\":[";
  first = true;
  for (const std::string& note : trace.notes) {
    if (!first) {
      out += ",";
    }
    AppendJsonString(&out, note);
    first = false;
  }
  out += "]}";
  return out;
}

}  // namespace chainreaction
