// Wire messages for every protocol in the repository.
//
// Each message is a plain struct with a static kType tag and one static
// Fields() function that lists its fields in wire order. A serialized
// message is `u16 type` followed by the fields, encoded by the schema-driven
// codec below; the same bytes flow through the simulated network and the
// TCP transport. There is one frame layout for every message (DESIGN.md
// §14).
//
// Naming convention by protocol:
//   Crx*   — ChainReaction (the paper's system)
//   Cr*    — classic Chain Replication baseline (FAWN-KV-style)
//   Craq*  — CRAQ baseline
//   Ev*    — eventual/quorum baseline (Cassandra stand-in)
//   Geo*   — inter-datacenter replication
//   Mem*   — membership / chain repair
//   Mig*   — key-range migration
#ifndef SRC_MSG_MESSAGE_H_
#define SRC_MSG_MESSAGE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/types.h"
#include "src/common/version.h"
#include "src/obs/trace.h"

namespace chainreaction {

enum class MsgType : uint16_t {
  kInvalid = 0,

  // ChainReaction client <-> node.
  kCrxPut = 10,
  kCrxPutAck = 11,
  kCrxGet = 12,
  kCrxGetReply = 13,
  kCrxPutAckBatch = 14,

  // ChainReaction intra-chain.
  kCrxChainPut = 20,
  kCrxStableNotify = 21,
  kCrxStabilityCheck = 22,
  kCrxStabilityConfirm = 23,
  kCrxWatermark = 24,

  // Classic chain replication baseline.
  kCrPut = 30,
  kCrChainPut = 31,
  kCrPutAck = 32,
  kCrGet = 33,
  kCrGetReply = 34,
  kCrChainAck = 35,

  // CRAQ baseline.
  kCraqPut = 40,
  kCraqChainPut = 41,
  kCraqCommit = 42,
  kCraqPutAck = 43,
  kCraqGet = 44,
  kCraqGetReply = 45,
  kCraqVersionQuery = 46,
  kCraqVersionReply = 47,

  // Eventual / quorum baseline.
  kEvPut = 50,
  kEvReplicate = 51,
  kEvReplicateAck = 52,
  kEvPutAck = 53,
  kEvGet = 54,
  kEvGetReply = 55,
  kEvReadQuery = 56,
  kEvReadReply = 57,

  // Geo-replication.
  kGeoLocalStable = 60,
  kGeoShip = 61,
  kGeoApplied = 62,
  kGeoRemotePut = 63,
  kGeoLocalStableAck = 64,

  // Membership / chain repair.
  kMemNewMembership = 70,
  kMemSyncKey = 71,
  kMemHeartbeat = 72,
  kMemSyncDone = 73,

  // Key-range migration (planned topology changes; src/admin/).
  kMigSnapshotRequest = 80,
  kMigKeyBatch = 81,
  kMigSnapshotDone = 82,
  kMigRangeSealed = 83,
  kMigCommit = 84,
  kMigAbort = 85,
};

// Returns the type tag of a serialized message (kInvalid if too short).
MsgType PeekType(std::string_view payload);

// ---------------------------------------------------------------------------
// Schema-driven codec
// ---------------------------------------------------------------------------
//
// A message struct lists its fields once, in wire order:
//
//   template <class S, class F>
//   static auto Fields(S& m, F&& f) { return f(m.req, m.key, ...); }
//
// `S` is the struct itself (const or not) or one of its zero-copy views,
// whose field names are the same (see ViewOf). Size, Write and Read walk
// that list; a field's encoding follows its C++ type:
//   bool                        1 byte
//   unsigned integer            LEB128 varint; decode rejects a value that
//                               does not fit the field's type
//   std::string / string_view   varint length + bytes (a decoded view
//                               aliases the frame)
//   Version, Dependency,        their EncodeV2/DecodeV2/EncodedSizeV2
//   TraceContext
//   list (std::vector,          varint count + elements; decode rejects a
//   SmallVector)                count above the bytes left in the frame
//                               (every element takes at least one byte) or
//                               above kMaxListCount, and grows the list as
//                               elements arrive (see ReadList)
//   message struct              its own Fields, recursively
// Everything is resolved at compile time: a message's Size/Write/Read
// inline to the same straight-line code a hand-written codec would be.
namespace wire {

// Largest list count any decoder accepts, wire or storage record.
inline constexpr uint64_t kMaxListCount = 1u << 20;
// Elements sized up front (the common short list decodes in place); a
// longer list grows only as its elements actually decode, so the memory a
// frame claims follows what it carries.
inline constexpr size_t kListReserve = 1024;

// The one list reader: varint count, then `read_one(&element)` per
// element. Both count bounds are checked before anything is allocated.
template <class L, class ReadOne>
bool ReadList(ByteReader* r, L* v, ReadOne&& read_one) {
  uint64_t n = 0;
  if (!r->GetVarU64(&n) || n > std::min<uint64_t>(r->remaining(), kMaxListCount)) {
    return false;
  }
  v->resize(std::min<size_t>(static_cast<size_t>(n), kListReserve));
  for (auto& e : *v) {
    if (!read_one(&e)) {
      return false;
    }
  }
  for (uint64_t i = v->size(); i < n; ++i) {
    if (!read_one(&v->emplace_back())) {
      return false;
    }
  }
  return true;
}

template <class M, class F>
decltype(auto) VisitFields(M& m, F&& f) {
  using T = std::remove_const_t<M>;
  if constexpr (requires { typename T::Owned; }) {
    return T::Owned::Fields(m, std::forward<F>(f));
  } else {
    return T::Fields(m, std::forward<F>(f));
  }
}

template <class T>
concept StringLike = std::is_convertible_v<const T&, std::string_view>;

template <class T>
concept HasCodec = requires(const T& v, ByteWriter* w) {
  v.EncodeV2(w);
  v.EncodedSizeV2();
};

template <class T>
concept List = !StringLike<T> && requires(const T& v) {
  typename T::value_type;
  v.begin();
  v.size();
};

template <class T>
size_t Size(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return 1;
  } else if constexpr (std::is_unsigned_v<T>) {
    return VarU64Size(v);
  } else if constexpr (StringLike<T>) {
    return VarStringSize(v);
  } else if constexpr (HasCodec<T>) {
    return v.EncodedSizeV2();
  } else if constexpr (List<T>) {
    size_t n = VarU64Size(v.size());
    for (const auto& e : v) {
      n += Size(e);
    }
    return n;
  } else {
    return VisitFields(v, [](const auto&... f) { return (size_t{0} + ... + Size(f)); });
  }
}

template <class T>
void Write(ByteWriter* w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w->PutBool(v);
  } else if constexpr (std::is_unsigned_v<T>) {
    w->PutVarU64(v);
  } else if constexpr (StringLike<T>) {
    w->PutStringViewVar(v);
  } else if constexpr (HasCodec<T>) {
    v.EncodeV2(w);
  } else if constexpr (List<T>) {
    w->PutVarU64(v.size());
    for (const auto& e : v) {
      Write(w, e);
    }
  } else {
    VisitFields(v, [w](const auto&... f) { (Write(w, f), ...); });
  }
}

template <class T>
bool Read(ByteReader* r, T* v) {
  if constexpr (std::is_same_v<T, bool>) {
    return r->GetBool(v);
  } else if constexpr (std::is_unsigned_v<T>) {
    uint64_t x = 0;
    if (!r->GetVarU64(&x)) {
      return false;
    }
    if constexpr (sizeof(T) < sizeof(uint64_t)) {
      if (x > std::numeric_limits<T>::max()) {
        return false;
      }
    }
    *v = static_cast<T>(x);
    return true;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return r->GetStringVar(v);
  } else if constexpr (std::is_same_v<T, std::string_view>) {
    return r->GetStringViewVar(v);
  } else if constexpr (HasCodec<T>) {
    return v->DecodeV2(r);
  } else if constexpr (List<T>) {
    return ReadList(r, v, [r](auto* e) { return Read(r, e); });
  } else {
    return VisitFields(*v, [r](auto&... f) { return (Read(r, &f) && ...); });
  }
}

// Field-by-field copy between a message and its view: strings to and from
// string_views, std::vector to and from DepList, everything else as is.
template <class D, class S>
void AssignField(D& to, const S& from) {
  if constexpr (std::is_assignable_v<D&, const S&>) {
    to = from;
  } else {
    to.assign(from.begin(), from.end());
  }
}

template <class To, class From>
To Convert(const From& src) {
  To dst;
  VisitFields(dst, [&src](auto&... d) {
    VisitFields(src, [&](const auto&... s) { (AssignField(d, s), ...); });
  });
  return dst;
}

}  // namespace wire

template <typename M>
std::string EncodeMessage(const M& m) {
  ByteWriter w;
  w.Reserve(2 + wire::Size(m));  // one exact-sized allocation per frame
  w.PutU16(static_cast<uint16_t>(M::kType));
  wire::Write(&w, m);
  return w.Take();
}

// Decodes `payload` into `out`; fails on type mismatch, truncation or an
// out-of-range field. Also accepts the *View structs below: their string
// fields then alias `payload`, so the decoded message is valid only while
// the frame buffer is — i.e. within the current OnMessage call.
template <typename M>
bool DecodeMessage(std::string_view payload, M* out) {
  ByteReader r(payload.data(), payload.size());
  uint16_t type = 0;
  return r.GetU16(&type) && type == static_cast<uint16_t>(M::kType) && wire::Read(&r, out);
}

// The benchmark under perfbench/ was written when two frame layouts
// existed and names the one it wants. Only that one is left: the tag is
// accepted and ignored so those call sites keep compiling.
enum class WireFormat : uint8_t { kV2 = 1 };

template <typename M>
std::string EncodeMessage(const M& m, WireFormat /*only one layout*/) {
  return EncodeMessage(m);
}

// Storage-record dependency lists (WAL records, checkpoints): fixed-width
// entries through Dependency::Encode. Not a wire format; generic over the
// container.
template <typename List>
void EncodeDeps(const List& deps, ByteWriter* w) {
  w->PutVarU64(deps.size());
  for (const Dependency& d : deps) {
    d.Encode(w);
  }
}

template <typename List>
bool DecodeDeps(ByteReader* r, List* deps) {
  return wire::ReadList(r, deps, [r](Dependency* d) { return d->Decode(r); });
}

template <typename List>
size_t EncodedDepsSize(const List& deps) {
  size_t n = VarU64Size(deps.size());
  for (const Dependency& d : deps) {
    n += d.EncodedSize();
  }
  return n;
}

// Base of the zero-copy view structs: names the owned twin whose Fields
// the view shares, and generates the conversions between the two.
template <class View, class OwnedT>
struct ViewOf {
  using Owned = OwnedT;
  static constexpr MsgType kType = OwnedT::kType;

  // Materializes an owned copy (for parking past the view's lifetime).
  OwnedT ToOwned() const { return wire::Convert<OwnedT>(static_cast<const View&>(*this)); }
  // Views into an owned message (single code path for park-and-replay).
  static View From(const OwnedT& m) { return wire::Convert<View>(m); }
};

// ---------------------------------------------------------------------------
// ChainReaction
// ---------------------------------------------------------------------------

// Client -> head: write request with the client's causal dependencies
// (COPS-style nearest dependencies: everything accessed since its last
// write). The head defers the write until all deps are DC-Write-Stable.
struct CrxPut {
  static constexpr MsgType kType = MsgType::kCrxPut;
  RequestId req = 0;
  Address client = 0;
  Key key;
  Value value;
  std::vector<Dependency> deps;
  // Observability header: nonzero id marks a sampled request; hops
  // accumulate along the write path (src/obs/trace.h).
  TraceContext trace;
  // Watermark dep compression: the cluster stable watermark the client
  // compressed `deps` against, and the membership epoch it is valid for.
  // Deps covered by the watermark were dropped (single-DC) or pre-marked
  // local_stable (multi-DC) before sending.
  uint64_t wm_epoch = 0;
  uint64_t dep_wm = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) {
    return f(m.req, m.client, m.key, m.value, m.deps, m.trace, m.wm_epoch, m.dep_wm);
  }
};

// Node at position k -> client: the write is k-stable.
struct CrxPutAck {
  static constexpr MsgType kType = MsgType::kCrxPutAck;
  RequestId req = 0;
  Key key;
  Version version;
  ChainIndex acked_at = 0;  // chain position that acknowledged (== k)
  TraceContext trace;       // hops up to (and including) the acking node
  // The acking node's cluster stable-watermark estimate (and the epoch it
  // is valid for), piggybacked so the client can compress future deps.
  uint64_t wm_epoch = 0;
  uint64_t stable_wm = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) {
    return f(m.req, m.key, m.version, m.acked_at, m.trace, m.wm_epoch, m.stable_wm);
  }
};

// Node at position k -> client: the acks for one client produced in one
// event-loop turn, when there are two or more (a lone ack goes out as a
// plain CrxPutAck). Entries are in ack order, so processing them
// sequentially is identical to receiving individual acks.
struct CrxPutAckBatch {
  static constexpr MsgType kType = MsgType::kCrxPutAckBatch;
  std::vector<CrxPutAck> acks;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.acks); }
};

// Client -> any node in its allowed chain prefix.
struct CrxGet {
  static constexpr MsgType kType = MsgType::kCrxGet;
  RequestId req = 0;
  Address client = 0;
  Key key;
  // The newest version of `key` the client causally depends on (null if
  // none). Nodes that are behind it forward the request toward the head.
  Version min_version;
  // Multi-get read transactions ask for the returned version's write-time
  // dependency list (to compute the causal snapshot; DESIGN.md §3.8).
  bool with_deps = false;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.req, m.client, m.key, m.min_version, m.with_deps); }
};

struct CrxGetReply {
  static constexpr MsgType kType = MsgType::kCrxGetReply;
  RequestId req = 0;
  Key key;
  bool found = false;
  Value value;
  Version version;
  ChainIndex position = 0;  // chain position of the answering node
  bool stable = false;      // version is DC-Write-Stable
  std::vector<Dependency> deps;  // filled iff the get asked with_deps
  // The answering node's cluster watermark estimate, piggybacked.
  uint64_t wm_epoch = 0;
  uint64_t stable_wm = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) {
    return f(m.req, m.key, m.found, m.value, m.version, m.position, m.stable, m.deps, m.wm_epoch,
             m.stable_wm);
  }
};

// Head -> successor -> ...: down-chain propagation of one write. The node at
// position == ack_at replies to the client; the tail marks the version
// DC-Write-Stable and starts the backward stability notification.
struct CrxChainPut {
  static constexpr MsgType kType = MsgType::kCrxChainPut;
  Key key;
  Value value;
  Version version;
  Address client = 0;     // 0 for remote (geo) updates: no client ack needed
  RequestId req = 0;
  ChainIndex ack_at = 0;  // k; 0 = never ack (remote update)
  uint64_t epoch = 0;     // membership epoch the sender believed in
  // Pipelining sequence number, monotone per (sender, successor) link; 0
  // for out-of-band re-propagation (anti-entropy, chain repair). Receivers
  // record it on the kChainRecv trace hop.
  uint64_t chain_seq = 0;
  std::vector<Dependency> deps;  // shipped to the geo replicator at the tail
  TraceContext trace;     // per-hop annotations of the traced write
  // The sender's own stable cut (valid for `epoch`), piggybacked so
  // chain neighbors learn each other's watermark from hot-path traffic.
  uint64_t stable_cut = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) {
    return f(m.key, m.value, m.version, m.client, m.req, m.ack_at, m.epoch, m.chain_seq, m.deps,
             m.trace, m.stable_cut);
  }
};

// Tail -> predecessor -> ... -> head: version became DC-Write-Stable.
struct CrxStableNotify {
  static constexpr MsgType kType = MsgType::kCrxStableNotify;
  Key key;
  Version version;
  uint64_t epoch = 0;
  // The sender's own stable cut (valid for `epoch`), piggybacked.
  uint64_t stable_cut = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.key, m.version, m.epoch, m.stable_cut); }
};

// Head of a writing chain -> tail of a dependency's chain: "tell me when
// `key` reaches `version` (DC-Write-Stable)".
struct CrxStabilityCheck {
  static constexpr MsgType kType = MsgType::kCrxStabilityCheck;
  Key key;
  Version version;
  uint64_t token = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.key, m.version, m.token); }
};

struct CrxStabilityConfirm {
  static constexpr MsgType kType = MsgType::kCrxStabilityConfirm;
  uint64_t token = 0;
  Key key;  // which dependency this confirms (idempotent per-dep tracking)

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.token, m.key); }
};

// Node -> every ring peer: low-rate direct gossip of the sender's stable
// cut. Piggybacked cuts on chain traffic only reach ring neighbors that
// happen to share a chain link; this broadcast closes the gap so the
// cluster minimum converges on every node. Sent only while dep_watermark is
// enabled and the node has recently processed protocol traffic (quiescent
// clusters stay quiescent).
struct CrxWatermark {
  static constexpr MsgType kType = MsgType::kCrxWatermark;
  NodeId node = 0;      // sender
  uint64_t epoch = 0;   // membership epoch the cut is valid for
  uint64_t cut = 0;     // all local-origin versions with lamport <= cut are
                        // DC-Write-Stable at the sender

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.node, m.epoch, m.cut); }
};

// ---------------------------------------------------------------------------
// Zero-copy view decoding for the hot-path Crx structs
// ---------------------------------------------------------------------------
//
// The *View structs mirror their owned counterparts field for field, but
// key/value are std::string_view aliases into the frame buffer and the
// dependency list is an inline-capacity DepList — decoding a common put
// touches the allocator zero times. Each view shares its owned twin's
// Fields list (ViewOf), so it decodes the same frames and encodes
// byte-identically to the owned struct, which is what lets a chain node
// re-encode its forward frame straight from the inbound views without
// materializing the value.
//
// LIFETIME RULES (DESIGN.md §15):
//   * A decoded view is valid only while the source buffer is alive and
//     unmodified — in practice, only within the OnMessage call that decoded
//     it. Both transports guarantee the receive buffer outlives the call.
//   * Anything that must survive the call (parked puts, rejoin buffers,
//     deferred retries) materializes via ToOwned() at the park boundary.
//   * Encoding a view (chain forward, get reply) copies the viewed bytes
//     into the new frame, so the encoded frame never aliases the source.

struct CrxPutView : ViewOf<CrxPutView, CrxPut> {
  RequestId req = 0;
  Address client = 0;
  std::string_view key;
  std::string_view value;
  DepList deps;
  TraceContext trace;
  uint64_t wm_epoch = 0;
  uint64_t dep_wm = 0;
};

struct CrxChainPutView : ViewOf<CrxChainPutView, CrxChainPut> {
  std::string_view key;
  std::string_view value;
  Version version;
  Address client = 0;
  RequestId req = 0;
  ChainIndex ack_at = 0;
  uint64_t epoch = 0;
  uint64_t chain_seq = 0;
  DepList deps;
  TraceContext trace;
  uint64_t stable_cut = 0;
};

struct CrxStableNotifyView : ViewOf<CrxStableNotifyView, CrxStableNotify> {
  std::string_view key;
  Version version;
  uint64_t epoch = 0;
  uint64_t stable_cut = 0;
};

struct CrxGetView : ViewOf<CrxGetView, CrxGet> {
  RequestId req = 0;
  Address client = 0;
  std::string_view key;
  Version min_version;
  bool with_deps = false;
};

struct CrxGetReplyView : ViewOf<CrxGetReplyView, CrxGetReply> {
  RequestId req = 0;
  std::string_view key;
  bool found = false;
  std::string_view value;  // may alias the answering node's store
  Version version;
  ChainIndex position = 0;
  bool stable = false;
  DepList deps;
  uint64_t wm_epoch = 0;
  uint64_t stable_wm = 0;
};

// ---------------------------------------------------------------------------
// Classic chain replication (linearizable; FAWN-KV baseline)
// ---------------------------------------------------------------------------

struct CrPut {
  static constexpr MsgType kType = MsgType::kCrPut;
  RequestId req = 0;
  Address client = 0;
  Key key;
  Value value;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.req, m.client, m.key, m.value); }
};

struct CrChainPut {
  static constexpr MsgType kType = MsgType::kCrChainPut;
  Key key;
  Value value;
  uint64_t seq = 0;
  Address client = 0;
  RequestId req = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.key, m.value, m.seq, m.client, m.req); }
};

struct CrPutAck {
  static constexpr MsgType kType = MsgType::kCrPutAck;
  RequestId req = 0;
  Key key;
  uint64_t seq = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.req, m.key, m.seq); }
};

// Tail -> ... -> head: FAWN-KV propagates write acks back up the chain (the
// head answers the client), which is the extra write latency the paper's
// baseline pays.
struct CrChainAck {
  static constexpr MsgType kType = MsgType::kCrChainAck;
  Key key;
  uint64_t seq = 0;
  Address client = 0;
  RequestId req = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.key, m.seq, m.client, m.req); }
};

struct CrGet {
  static constexpr MsgType kType = MsgType::kCrGet;
  RequestId req = 0;
  Address client = 0;
  Key key;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.req, m.client, m.key); }
};

struct CrGetReply {
  static constexpr MsgType kType = MsgType::kCrGetReply;
  RequestId req = 0;
  Key key;
  bool found = false;
  Value value;
  uint64_t seq = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.req, m.key, m.found, m.value, m.seq); }
};

// ---------------------------------------------------------------------------
// CRAQ
// ---------------------------------------------------------------------------

struct CraqPut {
  static constexpr MsgType kType = MsgType::kCraqPut;
  RequestId req = 0;
  Address client = 0;
  Key key;
  Value value;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.req, m.client, m.key, m.value); }
};

struct CraqChainPut {
  static constexpr MsgType kType = MsgType::kCraqChainPut;
  Key key;
  Value value;
  uint64_t seq = 0;
  Address client = 0;
  RequestId req = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.key, m.value, m.seq, m.client, m.req); }
};

// Tail -> ... -> head after commit so nodes can mark the version clean.
struct CraqCommit {
  static constexpr MsgType kType = MsgType::kCraqCommit;
  Key key;
  uint64_t seq = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.key, m.seq); }
};

struct CraqPutAck {
  static constexpr MsgType kType = MsgType::kCraqPutAck;
  RequestId req = 0;
  Key key;
  uint64_t seq = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.req, m.key, m.seq); }
};

struct CraqGet {
  static constexpr MsgType kType = MsgType::kCraqGet;
  RequestId req = 0;
  Address client = 0;
  Key key;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.req, m.client, m.key); }
};

struct CraqGetReply {
  static constexpr MsgType kType = MsgType::kCraqGetReply;
  RequestId req = 0;
  Key key;
  bool found = false;
  Value value;
  uint64_t seq = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.req, m.key, m.found, m.value, m.seq); }
};

// Non-tail node with a dirty version -> tail: which seq is committed?
struct CraqVersionQuery {
  static constexpr MsgType kType = MsgType::kCraqVersionQuery;
  Key key;
  RequestId req = 0;    // original client request, echoed in the reply
  Address client = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.key, m.req, m.client); }
};

struct CraqVersionReply {
  static constexpr MsgType kType = MsgType::kCraqVersionReply;
  Key key;
  uint64_t committed_seq = 0;
  RequestId req = 0;
  Address client = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.key, m.committed_seq, m.req, m.client); }
};

// ---------------------------------------------------------------------------
// Eventual / quorum baseline (Cassandra stand-in)
// ---------------------------------------------------------------------------

struct EvPut {
  static constexpr MsgType kType = MsgType::kEvPut;
  RequestId req = 0;
  Address client = 0;
  Key key;
  Value value;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.req, m.client, m.key, m.value); }
};

struct EvReplicate {
  static constexpr MsgType kType = MsgType::kEvReplicate;
  Key key;
  Value value;
  Version version;
  uint64_t token = 0;  // nonzero when the coordinator counts acks (quorum)

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.key, m.value, m.version, m.token); }
};

struct EvReplicateAck {
  static constexpr MsgType kType = MsgType::kEvReplicateAck;
  uint64_t token = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.token); }
};

struct EvPutAck {
  static constexpr MsgType kType = MsgType::kEvPutAck;
  RequestId req = 0;
  Key key;
  Version version;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.req, m.key, m.version); }
};

struct EvGet {
  static constexpr MsgType kType = MsgType::kEvGet;
  RequestId req = 0;
  Address client = 0;
  Key key;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.req, m.client, m.key); }
};

struct EvGetReply {
  static constexpr MsgType kType = MsgType::kEvGetReply;
  RequestId req = 0;
  Key key;
  bool found = false;
  Value value;
  Version version;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.req, m.key, m.found, m.value, m.version); }
};

struct EvReadQuery {
  static constexpr MsgType kType = MsgType::kEvReadQuery;
  uint64_t token = 0;
  Key key;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.token, m.key); }
};

struct EvReadReply {
  static constexpr MsgType kType = MsgType::kEvReadReply;
  uint64_t token = 0;
  Key key;
  bool found = false;
  Value value;
  Version version;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.token, m.key, m.found, m.value, m.version); }
};

// ---------------------------------------------------------------------------
// Geo-replication
// ---------------------------------------------------------------------------

// Tail -> local geo replicator: a version became DC-Write-Stable here.
// Carries the value and deps only for locally-originated writes (those must
// be shipped to peers); remote-origin notifications resolve dependency waits
// and produce GeoApplied acks.
struct GeoLocalStable {
  static constexpr MsgType kType = MsgType::kGeoLocalStable;
  Key key;
  Version version;
  bool has_payload = false;
  Value value;
  std::vector<Dependency> deps;
  TraceContext trace;  // carried so geo shipping extends the put's trace

  template <class S, class F>
  static auto Fields(S& m, F&& f) {
    return f(m.key, m.version, m.has_payload, m.value, m.deps, m.trace);
  }
};

// Replicator -> tail: the GeoLocalStable notification for (key, version)
// was processed; the tail stops resending it.
struct GeoLocalStableAck {
  static constexpr MsgType kType = MsgType::kGeoLocalStableAck;
  Key key;
  Version version;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.key, m.version); }
};

// Origin replicator -> peer replicator, FIFO per channel.
struct GeoShip {
  static constexpr MsgType kType = MsgType::kGeoShip;
  DcId origin_dc = 0;
  uint64_t channel_seq = 0;
  Key key;
  Value value;
  Version version;
  std::vector<Dependency> deps;
  TraceContext trace;

  template <class S, class F>
  static auto Fields(S& m, F&& f) {
    return f(m.origin_dc, m.channel_seq, m.key, m.value, m.version, m.deps, m.trace);
  }
};

// Peer replicator -> origin replicator: the update is applied (and locally
// stable) at dest_dc. Origin marks Global-Write-Stable when all peers acked.
struct GeoApplied {
  static constexpr MsgType kType = MsgType::kGeoApplied;
  DcId dest_dc = 0;
  uint64_t channel_seq = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.dest_dc, m.channel_seq); }
};

// Remote replicator -> local chain head: inject a dependency-cleared remote
// update into the local chain.
struct GeoRemotePut {
  static constexpr MsgType kType = MsgType::kGeoRemotePut;
  Key key;
  Value value;
  Version version;
  std::vector<Dependency> deps;  // preserved for multi-get snapshots
  TraceContext trace;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.key, m.value, m.version, m.deps, m.trace); }
};

// ---------------------------------------------------------------------------
// Membership / chain repair
// ---------------------------------------------------------------------------

// Membership service -> every node: the ring changed.
struct MemNewMembership {
  static constexpr MsgType kType = MsgType::kMemNewMembership;
  uint64_t epoch = 0;
  std::vector<NodeId> nodes;  // live nodes, ring placement derived from ids
  // Per-node vnode counts, parallel to `nodes`. Empty means every node uses
  // the configured default — the pre-rebalance wire behavior.
  std::vector<uint32_t> weights;
  // Nodes whose new key ranges were pre-streamed by a planned migration
  // before this epoch was committed: chain repair skips the per-key
  // MemSyncKey pushes to them (the migration already transferred the data).
  std::vector<NodeId> pre_synced;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.epoch, m.nodes, m.weights, m.pre_synced); }
};

// Node -> membership service: liveness heartbeat (when failure detection
// is enabled; by default the membership service is an oracle).
struct MemHeartbeat {
  static constexpr MsgType kType = MsgType::kMemHeartbeat;
  NodeId node = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.node); }
};

// Chain predecessor -> newly added chain member: state transfer of one key.
struct MemSyncKey {
  static constexpr MsgType kType = MsgType::kMemSyncKey;
  uint64_t epoch = 0;
  Key key;
  Value value;
  Version version;
  bool stable = false;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.epoch, m.key, m.value, m.version, m.stable); }
};

// Established node -> node added in `epoch`: all repair pushes for that
// epoch have been sent (links are FIFO, so this arrives after them). A
// rejoining node holds client traffic until every established peer's marker
// arrives — completion-based, because under load the repair sync storm can
// far outlast any fixed grace window.
struct MemSyncDone {
  static constexpr MsgType kType = MsgType::kMemSyncDone;
  uint64_t epoch = 0;
  NodeId from = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.epoch, m.from); }
};

// ---------------------------------------------------------------------------
// Key-range migration (src/admin/ — planned join / drain / rebalance)
// ---------------------------------------------------------------------------

// Coordinator -> source node: start streaming the key ranges that change
// hands under the planned ring. The source computes the planned ring locally
// from (planned_nodes, planned_weights) and, for every key it currently
// heads, streams the key's versions to each node that is in the planned
// chain but not the current one. Until the planned epoch commits (or the
// migration aborts) the source also mirrors new writes to those targets —
// the CATCHUP window that ships the WAL tail.
struct MigSnapshotRequest {
  static constexpr MsgType kType = MsgType::kMigSnapshotRequest;
  uint64_t migration_id = 0;
  uint64_t epoch = 0;          // ring epoch the plan was made against
  uint64_t planned_epoch = 0;  // epoch the coordinator will commit
  std::vector<NodeId> planned_nodes;
  std::vector<uint32_t> planned_weights;  // parallel to planned_nodes; may be empty
  Address coordinator = 0;
  uint32_t batch_keys = 64;      // keys streamed per self-scheduled tick
  uint64_t batch_interval = 0;   // microseconds between ticks (0 = back-to-back)

  template <class S, class F>
  static auto Fields(S& m, F&& f) {
    return f(m.migration_id, m.epoch, m.planned_epoch, m.planned_nodes, m.planned_weights,
             m.coordinator, m.batch_keys, m.batch_interval);
  }
};

// One migrated version: full causal metadata (version, stability, write-time
// dependency list) so the target can serve reads and geo shipping exactly as
// the source would. has_value=false carries a pure stability mark for a
// version the target already holds.
struct MigEntry {
  Key key;
  bool has_value = true;
  Value value;
  Version version;
  bool stable = false;
  std::vector<Dependency> deps;

  template <class S, class F>
  static auto Fields(S& m, F&& f) {
    return f(m.key, m.has_value, m.value, m.version, m.stable, m.deps);
  }
};

// Source -> target: a batch of migrated versions. `last` marks the end of
// the bulk snapshot for this (source, target) stream; the target then acks
// the seal to the coordinator. Catchup mirror entries keep flowing after
// `last` until the epoch flips (links are FIFO, so everything mirrored
// before the source observes the flip lands before the source's
// MemSyncDone marker).
struct MigKeyBatch {
  static constexpr MsgType kType = MsgType::kMigKeyBatch;
  uint64_t migration_id = 0;
  uint64_t epoch = 0;  // source's ring epoch at send time
  NodeId source = 0;
  NodeId target = 0;
  Address coordinator = 0;
  uint64_t seq = 0;  // per-(source,target) batch sequence
  bool last = false;
  std::vector<MigEntry> entries;

  template <class S, class F>
  static auto Fields(S& m, F&& f) {
    return f(m.migration_id, m.epoch, m.source, m.target, m.coordinator, m.seq, m.last, m.entries);
  }
};

// Source -> coordinator: the bulk snapshot scan finished (`targets` lists
// the nodes this source streamed to), or the request was refused
// (aborted=true, e.g. stale epoch).
struct MigSnapshotDone {
  static constexpr MsgType kType = MsgType::kMigSnapshotDone;
  uint64_t migration_id = 0;
  NodeId from = 0;
  uint64_t keys_streamed = 0;
  std::vector<NodeId> targets;
  bool aborted = false;

  template <class S, class F>
  static auto Fields(S& m, F&& f) {
    return f(m.migration_id, m.from, m.keys_streamed, m.targets, m.aborted);
  }
};

// Target -> coordinator: every batch of one (source, target) stream up to
// and including the `last` one has been applied; the stream is SEALED.
struct MigRangeSealed {
  static constexpr MsgType kType = MsgType::kMigRangeSealed;
  uint64_t migration_id = 0;
  NodeId source = 0;
  NodeId target = 0;
  uint64_t entries_applied = 0;

  template <class S, class F>
  static auto Fields(S& m, F&& f) {
    return f(m.migration_id, m.source, m.target, m.entries_applied);
  }
};

// Coordinator -> membership service: every stream is sealed; commit the
// planned topology as `planned_epoch` and broadcast it (with `pre_synced`
// so chain repair skips re-pushing what the migration already moved).
struct MigCommit {
  static constexpr MsgType kType = MsgType::kMigCommit;
  uint64_t migration_id = 0;
  uint64_t planned_epoch = 0;
  std::vector<NodeId> nodes;
  std::vector<uint32_t> weights;
  std::vector<NodeId> pre_synced;

  template <class S, class F>
  static auto Fields(S& m, F&& f) {
    return f(m.migration_id, m.planned_epoch, m.nodes, m.weights, m.pre_synced);
  }
};

// Coordinator -> sources: stop streaming/mirroring for this migration (a
// node died mid-transfer, the epoch moved underneath the plan, or the
// migration timed out). Targets keep whatever they already applied — the
// entries are real versions, idempotent and harmless outside the chain.
struct MigAbort {
  static constexpr MsgType kType = MsgType::kMigAbort;
  uint64_t migration_id = 0;
  std::string reason;

  template <class S, class F>
  static auto Fields(S& m, F&& f) { return f(m.migration_id, m.reason); }
};

}  // namespace chainreaction

#endif  // SRC_MSG_MESSAGE_H_
