// Per-request distributed tracing.
//
// A traced put carries a TraceContext in its message header: a nonzero
// trace id plus the hop annotations accumulated so far. Every instrumented
// component appends a timestamped hop (from Env::Now(), so traces are
// deterministic under the simulator) and reports the context to a
// TraceCollector, which union-merges partial reports into one record per
// trace id. A single put is thereby reconstructible end-to-end:
//
//   client put -> head apply -> down-chain applies -> k-stability ack ->
//   client ack, tail DC-Write-Stable -> geo ship -> remote inject ->
//   remote chain applies -> remote tail stable -> remote visibility.
//
// Untraced messages (trace id 0) pay one byte on the wire and no hops.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/small_vector.h"
#include "src/common/types.h"

namespace chainreaction {

enum class HopKind : uint8_t {
  kInvalid = 0,
  kClientPut = 1,      // client sent the put           (node=client addr)
  kHeadGated = 2,      // head parked the write          (detail=unmet deps)
  kHeadApply = 3,      // head applied + started chain   (detail=1)
  kChainApply = 4,     // non-head replica applied       (detail=position)
  kKAck = 5,           // position-k replica acked       (detail=k)
  kClientAck = 6,      // client received the ack        (detail=acked_at)
  kTailStable = 7,     // tail marked DC-Write-Stable    (detail=R)
  kGeoShip = 8,        // origin replicator shipped      (detail=#peers)
  kGeoInject = 9,      // remote replicator injected     (detail=origin dc)
  kRemoteVisible = 10, // applied + stable in remote DC  (detail=origin dc)
  kHeadRecv = 11,      // head received the fresh put    (detail=dep count)
  kDepUnblocked = 12,  // last gating dep confirmed      (detail=waited us,
                       //   aux=FNV-1a of the blocking key; the head also
                       //   files a collector note naming key/version/chain)
  kChainRecv = 13,     // replica received a chain put   (detail=position,
                       //   aux=chain_seq) — splits a link into net+process
  kMigPhase = 14,      // head applied while a planned migration was live
                       //   (detail=keys still queued, aux=migration id)
};

const char* HopKindName(HopKind kind);

struct TraceHop {
  HopKind kind = HopKind::kInvalid;
  uint32_t node = 0;   // NodeId / client address / replicator DC
  uint16_t dc = 0;     // datacenter of the annotating component
  uint32_t detail = 0; // kind-specific (chain position, dep count, ...)
  Time at = 0;         // Env::Now() at annotation
  uint64_t aux = 0;    // kind-specific wide payload (key hash, chain_seq);
                       // varint on the wire, so 0 costs one byte

  bool operator==(const TraceHop& other) const {
    return kind == other.kind && node == other.node && dc == other.dc &&
           detail == other.detail && at == other.at && aux == other.aux;
  }
};

struct TraceContext {
  // Preallocated span slots: a full intra-DC put trace is 9–12 hops
  // (client put → head recv/apply → chain recv/apply per link → k-ack →
  // client ack), so hop capture along the hot path never allocates. Geo
  // traces can exceed the inline capacity and spill — they are rare and
  // already pay WAN latency.
  static constexpr size_t kInlineHops = 12;

  uint64_t id = 0;  // 0 = not traced
  SmallVector<TraceHop, kInlineHops> hops;

  bool active() const { return id != 0; }

  void Annotate(HopKind kind, uint32_t node, uint16_t dc, uint32_t detail, Time at,
                uint64_t aux = 0) {
    hops.push_back(TraceHop{kind, node, dc, detail, at, aux});
  }

  // Wire encoding: hop fields are varints and the timestamp is a zig-zag
  // signed varint. An untraced context is one zero byte.
  void EncodeV2(ByteWriter* w) const;
  bool DecodeV2(ByteReader* r);

  size_t EncodedSizeV2() const {
    if (id == 0) {
      return 1;
    }
    size_t n = VarU64Size(id) + VarU64Size(hops.size());
    for (const TraceHop& hop : hops) {
      n += 1 + VarU64Size(hop.node) + VarU64Size(hop.dc) + VarU64Size(hop.detail) +
           VarI64Size(hop.at) + VarU64Size(hop.aux);
    }
    return n;
  }
};

// Deterministic trace id for a client operation; nonzero for any real
// (address, req) pair since client addresses start at kClientAddressBase.
inline uint64_t MakeTraceId(Address client, RequestId req) {
  return (static_cast<uint64_t>(client) << 32) | (req & 0xffffffffULL);
}

// Merges partial trace reports into one hop set per trace id. Thread-safe;
// reports are union-merged (exact-duplicate hops collapse, so re-reports
// along the message path are idempotent) and returned sorted by timestamp.
class TraceCollector {
 public:
  struct Trace {
    uint64_t id = 0;
    std::vector<TraceHop> hops;  // sorted by (at, kind, detail)
    std::vector<std::string> notes;  // free-form annotations, insertion order
  };

  void Report(const TraceContext& trace);

  // Attaches a free-form annotation (e.g. the dep-wait blocker's
  // key/version/chain) to an already-reported trace. Notes live only in the
  // collector — they never ride the wire. Duplicate notes collapse; at most
  // kMaxNotesPerTrace are kept. No-op for unknown ids.
  void AnnotateNote(uint64_t id, const std::string& note);

  // Tail-based capture support. Retain(id) pins a trace: eviction under
  // kMaxTraces pressure prefers unretained traces, so retained slow traces
  // survive high-throughput runs. Discard(id) drops a trace immediately
  // (the tail sampler rejecting a fast, unsampled request).
  void Retain(uint64_t id);
  void Discard(uint64_t id);
  bool IsRetained(uint64_t id) const;
  size_t retained_count() const;
  std::vector<uint64_t> RetainedIds() const;  // insertion-ordered

  size_t size() const;
  std::vector<uint64_t> TraceIds() const;  // insertion-ordered
  bool Find(uint64_t id, Trace* out) const;
  bool Latest(Trace* out) const;  // most recently first-reported trace
  void Clear();

  // "hop  +12us  chain_apply node=3 dc=0 pos=2" style multi-line rendering.
  static std::string Render(const Trace& trace);
  static std::string RenderJson(const Trace& trace);

 private:
  static constexpr size_t kMaxTraces = 4096;   // oldest evicted beyond this
  static constexpr size_t kMaxHopsPerTrace = 512;
  static constexpr size_t kMaxNotesPerTrace = 8;

  void EvictOneLocked();

  mutable std::mutex mu_;
  std::map<uint64_t, std::vector<TraceHop>> traces_;
  std::map<uint64_t, std::vector<std::string>> notes_;  // sparse: noted ids only
  std::vector<uint64_t> order_;  // insertion order, for eviction + Latest()
  std::set<uint64_t> retained_;  // ids pinned by the tail sampler
};

// Appends a hop and reports the running context to `sink` (if any), so the
// collector holds a usable partial trace even if a downstream message is
// lost. No-op for untraced contexts.
inline void TraceHopAndReport(TraceContext* trace, TraceCollector* sink, HopKind kind,
                              uint32_t node, uint16_t dc, uint32_t detail, Time at,
                              uint64_t aux = 0) {
  if (trace == nullptr || !trace->active()) {
    return;
  }
  trace->Annotate(kind, node, dc, detail, at, aux);
  if (sink != nullptr) {
    sink->Report(*trace);
  }
}

}  // namespace chainreaction

#endif  // SRC_OBS_TRACE_H_
