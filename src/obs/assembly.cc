#include "src/obs/assembly.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "src/net/http_client.h"

namespace chainreaction {

namespace {

// First hop of `kind` in sorted order; nullptr when absent.
const TraceHop* FirstHop(const TraceCollector::Trace& trace, HopKind kind) {
  for (const TraceHop& h : trace.hops) {
    if (h.kind == kind) {
      return &h;
    }
  }
  return nullptr;
}

const TraceHop* LastHop(const TraceCollector::Trace& trace, HopKind kind) {
  const TraceHop* found = nullptr;
  for (const TraceHop& h : trace.hops) {
    if (h.kind == kind) {
      found = &h;
    }
  }
  return found;
}

Time NonNeg(Time v) { return v < 0 ? 0 : v; }

void AddSegment(CriticalPath* cp, const std::string& name, Time begin, Time end) {
  if (end < begin) {
    return;
  }
  cp->segments.push_back(CpSegment{name, begin, end});
}

}  // namespace

CriticalPath ComputeCriticalPath(const TraceCollector::Trace& trace) {
  CriticalPath cp;
  cp.id = trace.id;

  const TraceHop* client_put = FirstHop(trace, HopKind::kClientPut);
  const TraceHop* head_recv = FirstHop(trace, HopKind::kHeadRecv);
  const TraceHop* gated = FirstHop(trace, HopKind::kHeadGated);
  const TraceHop* unblocked = LastHop(trace, HopKind::kDepUnblocked);
  const TraceHop* head_apply = FirstHop(trace, HopKind::kHeadApply);
  const TraceHop* k_ack = FirstHop(trace, HopKind::kKAck);
  const TraceHop* client_ack = FirstHop(trace, HopKind::kClientAck);
  const TraceHop* geo_ship = FirstHop(trace, HopKind::kGeoShip);
  const TraceHop* remote_visible = LastHop(trace, HopKind::kRemoteVisible);
  const TraceHop* mig = FirstHop(trace, HopKind::kMigPhase);

  cp.complete = client_put != nullptr && head_apply != nullptr && k_ack != nullptr &&
                client_ack != nullptr;
  if (client_put != nullptr && client_ack != nullptr) {
    cp.e2e_us = NonNeg(client_ack->at - client_put->at);
  }

  // Client -> head transit. Pre-PR-7 traces lack head_recv; the gap then
  // stays unattributed and shows up as coverage < 1 rather than a guess.
  if (client_put != nullptr && head_recv != nullptr) {
    cp.net_us += NonNeg(head_recv->at - client_put->at);
    AddSegment(&cp, "net:client->head", client_put->at, head_recv->at);
  }

  // Head processing, split around the dep-wait park when the write gated.
  if (head_recv != nullptr && gated != nullptr && unblocked != nullptr) {
    cp.encode_us += NonNeg(gated->at - head_recv->at);
    AddSegment(&cp, "head:gate_check", head_recv->at, gated->at);
  } else if (head_recv != nullptr && gated == nullptr && head_apply != nullptr) {
    cp.encode_us += NonNeg(head_apply->at - head_recv->at);
    AddSegment(&cp, "head:encode", head_recv->at, head_apply->at);
  }
  if (gated != nullptr && unblocked != nullptr) {
    cp.depwait_us = NonNeg(unblocked->at - gated->at);
    AddSegment(&cp, "dep_wait", gated->at, unblocked->at);
    if (head_apply != nullptr) {
      cp.encode_us += NonNeg(head_apply->at - unblocked->at);
      AddSegment(&cp, "head:encode", unblocked->at, head_apply->at);
    }
  }

  // Chain links: pair each position's frame arrival with its apply. The
  // head (position 1) anchors position 2's transit, and so on down-chain.
  std::map<uint32_t, Time> apply_at;
  if (head_apply != nullptr) {
    apply_at[1] = head_apply->at;
  }
  for (const TraceHop& h : trace.hops) {
    if (h.kind == HopKind::kChainApply && !apply_at.contains(h.detail)) {
      apply_at[h.detail] = h.at;
    }
  }
  for (const TraceHop& h : trace.hops) {
    if (h.kind != HopKind::kChainRecv || h.detail < 2) {
      continue;
    }
    char name[48];
    auto prev = apply_at.find(h.detail - 1);
    if (prev != apply_at.end()) {
      std::snprintf(name, sizeof(name), "link%u:net", h.detail);
      AddSegment(&cp, name, prev->second, h.at);
    }
    auto self = apply_at.find(h.detail);
    if (self != apply_at.end()) {
      std::snprintf(name, sizeof(name), "link%u:process", h.detail);
      AddSegment(&cp, name, h.at, self->second);
    }
  }

  // Waiting for the position-k ack, then the ack's transit back.
  if (head_apply != nullptr && k_ack != nullptr) {
    cp.kack_us = NonNeg(k_ack->at - head_apply->at);
    AddSegment(&cp, "k_ack_wait", head_apply->at, k_ack->at);
  }
  if (k_ack != nullptr && client_ack != nullptr) {
    cp.net_us += NonNeg(client_ack->at - k_ack->at);
    AddSegment(&cp, "net:ack->client", k_ack->at, client_ack->at);
  }

  // Trailing lag: DC-Write-Stability and geo visibility land after the
  // client ack on this protocol, so they are reported, not summed.
  if (head_apply != nullptr) {
    const TraceHop* tail_stable = nullptr;
    for (const TraceHop& h : trace.hops) {
      if (h.kind == HopKind::kTailStable && h.dc == head_apply->dc) {
        tail_stable = &h;
        break;
      }
    }
    if (tail_stable != nullptr) {
      cp.stability_us = NonNeg(tail_stable->at - head_apply->at);
      AddSegment(&cp, "stability_lag", head_apply->at, tail_stable->at);
    }
  }
  if (geo_ship != nullptr && remote_visible != nullptr) {
    cp.geo_us = NonNeg(remote_visible->at - geo_ship->at);
    AddSegment(&cp, "geo_lag", geo_ship->at, remote_visible->at);
  }

  cp.migration_overlap = mig != nullptr;

  for (const std::string& note : trace.notes) {
    if (note.compare(0, 11, "blocked_by ") == 0) {
      cp.blocked_by = note.substr(11);
      break;
    }
  }

  if (cp.e2e_us > 0) {
    const Time attributed = cp.net_us + cp.encode_us + cp.depwait_us + cp.kack_us;
    cp.coverage = static_cast<double>(attributed) / static_cast<double>(cp.e2e_us);
  }

  std::sort(cp.segments.begin(), cp.segments.end(),
            [](const CpSegment& a, const CpSegment& b) {
              if (a.begin != b.begin) {
                return a.begin < b.begin;
              }
              return a.end < b.end;
            });
  return cp;
}

std::string RenderCriticalPath(const CriticalPath& cp) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "criticalpath %016llx e2e=%lldus coverage=%.1f%%%s\n",
                static_cast<unsigned long long>(cp.id),
                static_cast<long long>(cp.e2e_us), cp.coverage * 100.0,
                cp.complete ? "" : " [incomplete]");
  std::string out = buf;
  const Time t0 = cp.segments.empty() ? 0 : cp.segments.front().begin;
  for (const CpSegment& s : cp.segments) {
    std::snprintf(buf, sizeof(buf), "  %-18s +%-8lld +%-8lld %8lldus\n", s.name.c_str(),
                  static_cast<long long>(s.begin - t0),
                  static_cast<long long>(s.end - t0),
                  static_cast<long long>(s.duration()));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  attribution: encode=%lldus net=%lldus dep_wait=%lldus k_ack=%lldus\n",
                static_cast<long long>(cp.encode_us), static_cast<long long>(cp.net_us),
                static_cast<long long>(cp.depwait_us), static_cast<long long>(cp.kack_us));
  out += buf;
  if (cp.stability_us >= 0 || cp.geo_us >= 0) {
    std::snprintf(buf, sizeof(buf), "  post-ack: stability_lag=%lldus geo_lag=%lldus\n",
                  static_cast<long long>(cp.stability_us),
                  static_cast<long long>(cp.geo_us));
    out += buf;
  }
  if (!cp.blocked_by.empty()) {
    out += "  blocked_by " + cp.blocked_by + "\n";
  }
  if (cp.migration_overlap) {
    out += "  migration_overlap\n";
  }
  return out;
}

std::string RenderCriticalPathJson(const CriticalPath& cp) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"id\":\"%016llx\",\"complete\":%s,\"e2e_us\":%lld,\"net_us\":%lld,"
                "\"encode_us\":%lld,\"depwait_us\":%lld,\"kack_us\":%lld,"
                "\"stability_us\":%lld,\"geo_us\":%lld,\"coverage\":%.4f,"
                "\"migration_overlap\":%s,\"blocked_by\":",
                static_cast<unsigned long long>(cp.id), cp.complete ? "true" : "false",
                static_cast<long long>(cp.e2e_us), static_cast<long long>(cp.net_us),
                static_cast<long long>(cp.encode_us),
                static_cast<long long>(cp.depwait_us),
                static_cast<long long>(cp.kack_us),
                static_cast<long long>(cp.stability_us),
                static_cast<long long>(cp.geo_us), cp.coverage,
                cp.migration_overlap ? "true" : "false");
  std::string out = buf;
  AppendJsonString(&out, cp.blocked_by);
  out += ",\"segments\":[";
  bool first = true;
  for (const CpSegment& s : cp.segments) {
    if (!first) {
      out += ',';
    }
    out += "{\"name\":";
    AppendJsonString(&out, s.name);
    std::snprintf(buf, sizeof(buf), ",\"begin\":%lld,\"end\":%lld}",
                  static_cast<long long>(s.begin), static_cast<long long>(s.end));
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

namespace {

// Cursor over RenderJson output. The input is machine-generated by our own
// renderer, so the scanner is strict: any shape mismatch fails the parse.
struct JsonCursor {
  const std::string& text;
  size_t pos = 0;

  bool Literal(const char* lit) {
    const size_t n = std::char_traits<char>::length(lit);
    if (text.compare(pos, n, lit) != 0) {
      return false;
    }
    pos += n;
    return true;
  }

  bool Peek(char c) const { return pos < text.size() && text[pos] == c; }

  bool String(std::string* out) {
    out->clear();
    if (!Literal("\"")) {
      return false;
    }
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos >= text.size()) {
        return false;
      }
      const char esc = text[pos++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos + 4 > text.size()) {
            return false;
          }
          const unsigned long code = std::strtoul(text.substr(pos, 4).c_str(), nullptr, 16);
          pos += 4;
          // Our escaper only emits \u00XX for control bytes.
          out->push_back(static_cast<char>(code & 0xff));
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool Number(int64_t* out) {
    const size_t start = pos;
    if (Peek('-')) {
      ++pos;
    }
    while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    if (pos == start) {
      return false;
    }
    *out = std::strtoll(text.substr(start, pos - start).c_str(), nullptr, 10);
    return true;
  }

  bool NumberU64(uint64_t* out) {
    const size_t start = pos;
    while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    if (pos == start) {
      return false;
    }
    *out = std::strtoull(text.substr(start, pos - start).c_str(), nullptr, 10);
    return true;
  }
};

bool HopKindFromName(const std::string& name, HopKind* out) {
  for (uint8_t k = 1; k <= static_cast<uint8_t>(HopKind::kMigPhase); ++k) {
    if (name == HopKindName(static_cast<HopKind>(k))) {
      *out = static_cast<HopKind>(k);
      return true;
    }
  }
  return false;
}

}  // namespace

bool ParseTraceJson(const std::string& json, TraceCollector::Trace* out) {
  out->id = 0;
  out->hops.clear();
  out->notes.clear();
  JsonCursor c{json};
  std::string id_text;
  if (!c.Literal("{\"id\":") || !c.String(&id_text) || !c.Literal(",\"hops\":[")) {
    return false;
  }
  char* end = nullptr;
  out->id = std::strtoull(id_text.c_str(), &end, 16);
  if (end == nullptr || *end != '\0' || out->id == 0) {
    return false;
  }
  while (!c.Peek(']')) {
    if (!out->hops.empty() && !c.Literal(",")) {
      return false;
    }
    TraceHop hop;
    std::string kind_name;
    int64_t node = 0, dc = 0, detail = 0, at = 0;
    if (!c.Literal("{\"kind\":") || !c.String(&kind_name) ||
        !c.Literal(",\"node\":") || !c.Number(&node) || !c.Literal(",\"dc\":") ||
        !c.Number(&dc) || !c.Literal(",\"detail\":") || !c.Number(&detail) ||
        !c.Literal(",\"at\":") || !c.Number(&at)) {
      return false;
    }
    if (c.Literal(",\"aux\":")) {  // absent in pre-PR-7 payloads
      if (!c.NumberU64(&hop.aux)) {
        return false;
      }
    }
    if (!c.Literal("}") || !HopKindFromName(kind_name, &hop.kind)) {
      return false;
    }
    hop.node = static_cast<uint32_t>(node);
    hop.dc = static_cast<uint16_t>(dc);
    hop.detail = static_cast<uint32_t>(detail);
    hop.at = at;
    out->hops.push_back(hop);
    if (out->hops.size() > 4096) {
      return false;
    }
  }
  c.pos++;  // ']'
  if (c.Literal(",\"notes\":[")) {
    while (!c.Peek(']')) {
      if (!out->notes.empty() && !c.Literal(",")) {
        return false;
      }
      std::string note;
      if (!c.String(&note)) {
        return false;
      }
      out->notes.push_back(std::move(note));
      if (out->notes.size() > 64) {
        return false;
      }
    }
    c.pos++;
  }
  return c.Literal("}");
}

size_t TraceAssembler::MergeFrom(const TraceCollector& src) {
  size_t merged = 0;
  for (uint64_t id : src.TraceIds()) {
    TraceCollector::Trace trace;
    if (!src.Find(id, &trace)) {
      continue;  // evicted between TraceIds() and Find()
    }
    TraceContext ctx;
    ctx.id = trace.id;
    ctx.hops.assign(trace.hops.begin(), trace.hops.end());
    collector_.Report(ctx);
    for (const std::string& note : trace.notes) {
      collector_.AnnotateNote(trace.id, note);
    }
    ++merged;
  }
  return merged;
}

int TraceAssembler::PullHttp(uint16_t port) {
  HttpClientResponse index = HttpGet(port, "/traces");
  if (!index.ok || index.status != 200) {
    return -1;
  }
  int merged = 0;
  size_t start = 0;
  while (start < index.body.size()) {
    size_t eol = index.body.find('\n', start);
    if (eol == std::string::npos) {
      eol = index.body.size();
    }
    std::string line = index.body.substr(start, eol - start);
    start = eol + 1;
    const size_t space = line.find(' ');  // strip " retained" suffix
    if (space != std::string::npos) {
      line.resize(space);
    }
    if (line.empty()) {
      continue;
    }
    // Once the assembly is full, a partial for an id it does not hold would
    // evict the oldest trace it does, and a run with more traced requests
    // than that would lose every partial merged before the pulls (the
    // client sides): keep what is being assembled and skip the newcomer.
    TraceCollector::Trace held;
    if (collector_.size() >= TraceCollector::kMaxTraces &&
        !collector_.Find(std::strtoull(line.c_str(), nullptr, 16), &held)) {
      continue;
    }
    HttpClientResponse resp = HttpGet(port, "/traces/" + line + "?format=json");
    if (!resp.ok || resp.status != 200) {
      continue;
    }
    TraceCollector::Trace trace;
    if (!ParseTraceJson(resp.body, &trace)) {
      continue;
    }
    TraceContext ctx;
    ctx.id = trace.id;
    ctx.hops.assign(trace.hops.begin(), trace.hops.end());
    collector_.Report(ctx);
    for (const std::string& note : trace.notes) {
      collector_.AnnotateNote(trace.id, note);
    }
    ++merged;
  }
  return merged;
}

std::vector<CriticalPath> TraceAssembler::Assemble() const {
  std::vector<CriticalPath> out;
  for (uint64_t id : collector_.TraceIds()) {
    TraceCollector::Trace trace;
    if (collector_.Find(id, &trace)) {
      out.push_back(ComputeCriticalPath(trace));
    }
  }
  return out;
}

bool TraceAssembler::AssembleOne(uint64_t id, CriticalPath* out) const {
  TraceCollector::Trace trace;
  if (!collector_.Find(id, &trace)) {
    return false;
  }
  *out = ComputeCriticalPath(trace);
  return true;
}

std::vector<CriticalPath> TraceAssembler::PublishAggregates(MetricsRegistry* metrics) const {
  std::vector<CriticalPath> paths = Assemble();
  if (metrics == nullptr) {
    return paths;
  }
  LatencyMetric* encode = metrics->GetLatency("crx_cp_encode_us");
  LatencyMetric* net = metrics->GetLatency("crx_cp_net_us");
  LatencyMetric* depwait = metrics->GetLatency("crx_cp_depwait_us");
  LatencyMetric* kack = metrics->GetLatency("crx_cp_kack_us");
  LatencyMetric* stability = metrics->GetLatency("crx_cp_stability_us");
  Counter* assembled = metrics->GetCounter("crx_cp_assembled_total");
  Counter* incomplete = metrics->GetCounter("crx_cp_incomplete_total");
  double coverage_sum = 0.0;
  size_t coverage_n = 0;
  for (const CriticalPath& cp : paths) {
    if (!cp.complete) {
      incomplete->Inc();
      continue;
    }
    assembled->Inc();
    encode->RecordWithExemplar(cp.encode_us, cp.id);
    net->RecordWithExemplar(cp.net_us, cp.id);
    depwait->RecordWithExemplar(cp.depwait_us, cp.id);
    kack->RecordWithExemplar(cp.kack_us, cp.id);
    if (cp.stability_us >= 0) {
      stability->RecordWithExemplar(cp.stability_us, cp.id);
    }
    coverage_sum += cp.coverage;
    ++coverage_n;
  }
  if (coverage_n > 0) {
    metrics->GetGauge("crx_cp_coverage_pct")
        ->Set(static_cast<int64_t>(coverage_sum / coverage_n * 100.0));
  }
  return paths;
}

}  // namespace chainreaction
