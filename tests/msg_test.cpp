// Wire-codec tests: schema-level fuzz of every message struct, golden Crx
// frames, list-count and integer-range bounds, and the zero-copy views.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/common/rng.h"
#include "src/msg/message.h"

namespace chainreaction {
namespace {

TEST(Message, PeekType) {
  CrxPut put;
  put.key = "k";
  const std::string payload = EncodeMessage(put);
  EXPECT_EQ(PeekType(payload), MsgType::kCrxPut);
  EXPECT_EQ(PeekType(""), MsgType::kInvalid);
  EXPECT_EQ(PeekType("x"), MsgType::kInvalid);
}

TEST(Message, TypeMismatchRejected) {
  CrxPut put;
  put.key = "k";
  const std::string payload = EncodeMessage(put);
  CrxGet get;
  EXPECT_FALSE(DecodeMessage(payload, &get));
}

// ---------------------------------------------------------------------------
// Schema-level fuzz. Every message struct gets a check that its Fields list
// names each declared member exactly once, then, on random contents:
//   (a) a byte-stable round trip — encode, decode, re-encode, compare bytes
//       (stronger than field equality: catches lossy or non-canonical
//       encodings that would defeat dedup and retransmission comparison);
//   (b) decode failure at every truncation point (all fields are mandatory
//       sequential reads, so no strict prefix may parse);
//   (c) crash-free handling of single-byte corruptions — if a mutated
//       payload happens to decode, the result must re-encode cleanly;
//   (d) crash-free handling of random garbage behind the right type tag.
// Structs with a zero-copy view run the same properties through the view
// decoder, whose re-encode (and ToOwned() re-encode) must match byte for
// byte.
// ---------------------------------------------------------------------------

Key FuzzKey(Rng* rng) {
  Key k = "fk";
  const size_t len = rng->NextBelow(24);
  for (size_t i = 0; i < len; ++i) {
    k.push_back(static_cast<char>('a' + rng->NextBelow(26)));
  }
  return k;
}

Value FuzzValue(Rng* rng) {
  Value v;
  const size_t len = rng->NextBelow(300);
  for (size_t i = 0; i < len; ++i) {
    v.push_back(static_cast<char>(rng->NextBelow(256)));
  }
  return v;
}

Version FuzzVersion(Rng* rng) {
  Version v;
  if (rng->NextBelow(8) == 0) {
    return v;  // null version
  }
  const uint32_t n = 1 + static_cast<uint32_t>(rng->NextBelow(4));
  v.vv = VersionVector(n);
  for (uint32_t i = 0; i < n; ++i) {
    v.vv.Set(i, rng->NextBelow(1u << 20));
  }
  v.lamport = rng->NextBelow(1ull << 40);
  v.origin = static_cast<DcId>(rng->NextBelow(4));
  return v;
}

std::vector<Dependency> FuzzDeps(Rng* rng) {
  std::vector<Dependency> deps;
  const size_t n = rng->NextBelow(4);
  for (size_t i = 0; i < n; ++i) {
    deps.push_back(Dependency{FuzzKey(rng), FuzzVersion(rng), rng->NextBool(0.3)});
  }
  return deps;
}

TraceContext FuzzTrace(Rng* rng) {
  TraceContext t;
  if (rng->NextBool(0.5)) {
    return t;  // untraced request
  }
  t.id = rng->Next() | 1;
  const size_t n = rng->NextBelow(5);
  for (size_t i = 0; i < n; ++i) {
    t.Annotate(static_cast<HopKind>(1 + rng->NextBelow(10)),
               static_cast<uint32_t>(rng->Next()), static_cast<uint16_t>(rng->Next()),
               static_cast<uint32_t>(rng->Next()),
               static_cast<Time>(rng->NextBelow(1ull << 40)));
  }
  return t;
}

template <typename M>
void CheckFrame(const char* name, const std::string& payload, Rng* rng) {
  M out;
  ASSERT_TRUE(DecodeMessage(payload, &out)) << name;
  EXPECT_EQ(EncodeMessage(out), payload) << name;
  if constexpr (requires { out.ToOwned(); }) {
    EXPECT_EQ(EncodeMessage(out.ToOwned()), payload) << name;
  }
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    M t;
    EXPECT_FALSE(DecodeMessage(std::string_view(payload.data(), cut), &t))
        << name << " cut=" << cut;
  }
  for (int mut = 0; mut < 10; ++mut) {
    std::string corrupted = payload;
    const size_t pos = rng->NextBelow(corrupted.size());
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ static_cast<char>(1 + rng->NextBelow(255)));
    M c;
    if (DecodeMessage(corrupted, &c)) {
      (void)EncodeMessage(c);
    }
  }
  std::string garbage = payload.substr(0, 2);
  const size_t len = rng->NextBelow(64);
  for (size_t i = 0; i < len; ++i) {
    garbage.push_back(static_cast<char>(rng->NextBelow(256)));
  }
  M g;
  if (DecodeMessage(garbage, &g)) {
    (void)EncodeMessage(g);
  }
}

// Aggregate member count of M: the longest brace-init list of
// convert-to-anything placeholders M accepts.
struct AnyField {
  template <class T>
  operator T() const;
};

template <class M, class... A>
constexpr size_t MemberCount() {
  if constexpr (requires { M{A{}..., AnyField{}}; }) {
    return MemberCount<M, A..., AnyField>();
  } else {
    return sizeof...(A);
  }
}

// Fields() lists every declared member once: as many distinct members as
// the struct has (a view's ViewOf base is one more aggregate element). With
// that, a byte-stable round trip implies every field value survives it.
template <typename M>
void ExpectEveryFieldListedOnce(const char* name) {
  M m;
  std::vector<const void*> listed;
  wire::VisitFields(m, [&](const auto&... f) { (listed.push_back(&f), ...); });
  std::sort(listed.begin(), listed.end());
  EXPECT_EQ(std::adjacent_find(listed.begin(), listed.end()), listed.end())
      << name << ": a member is listed twice";
  constexpr size_t kBases = requires { typename M::Owned; } ? 1 : 0;
  EXPECT_EQ(listed.size() + kBases, MemberCount<M>()) << name << ": a member is not listed";
}

template <typename M, typename View = void, typename FillFn>
void FuzzStruct(const char* name, uint64_t seed, FillFn fill) {
  ExpectEveryFieldListedOnce<M>(name);
  if constexpr (!std::is_void_v<View>) {
    ExpectEveryFieldListedOnce<View>(name);
  }
  Rng rng(seed);
  for (int trial = 0; trial < 15; ++trial) {
    M m;
    fill(&m, &rng);
    const std::string payload = EncodeMessage(m);
    CheckFrame<M>(name, payload, &rng);
    if constexpr (!std::is_void_v<View>) {
      CheckFrame<View>(name, payload, &rng);
    }
  }
}

Address FuzzAddress(Rng* rng) { return static_cast<Address>(rng->Next()); }
NodeId FuzzNode(Rng* rng) { return static_cast<NodeId>(rng->NextBelow(256)); }
ChainIndex FuzzIndex(Rng* rng) { return static_cast<ChainIndex>(rng->NextBelow(8)); }

CrxPutAck FuzzAck(Rng* rng) {
  CrxPutAck a;
  a.req = rng->Next();
  a.key = FuzzKey(rng);
  a.version = FuzzVersion(rng);
  a.acked_at = FuzzIndex(rng);
  a.trace = FuzzTrace(rng);
  a.wm_epoch = rng->NextBelow(100);
  a.stable_wm = rng->NextBelow(1ull << 40);
  return a;
}

GeoShip FuzzShip(Rng* rng) {
  GeoShip s;
  s.origin_dc = static_cast<DcId>(rng->NextBelow(4));
  s.channel_seq = rng->NextBelow(1ull << 40);
  s.key = FuzzKey(rng);
  s.value = FuzzValue(rng);
  s.version = FuzzVersion(rng);
  s.deps = FuzzDeps(rng);
  s.trace = FuzzTrace(rng);
  return s;
}

MigEntry FuzzEntry(Rng* rng) {
  MigEntry e;
  e.key = FuzzKey(rng);
  e.has_value = rng->NextBool(0.7);
  e.value = e.has_value ? FuzzValue(rng) : Value();
  e.version = FuzzVersion(rng);
  e.stable = rng->NextBool(0.5);
  e.deps = FuzzDeps(rng);
  return e;
}

std::vector<NodeId> FuzzNodes(Rng* rng, size_t max) {
  std::vector<NodeId> v(rng->NextBelow(max));
  for (NodeId& n : v) {
    n = FuzzNode(rng);
  }
  return v;
}

std::vector<uint32_t> FuzzWeights(Rng* rng, size_t n) {
  std::vector<uint32_t> v(n);
  for (uint32_t& w : v) {
    w = 1 + static_cast<uint32_t>(rng->NextBelow(64));
  }
  return v;
}

TEST(MessageFuzz, EveryStruct) {
  // ChainReaction (views: the decoders the hot path runs).
  FuzzStruct<CrxPut, CrxPutView>("CrxPut", 101, [](CrxPut* m, Rng* rng) {
    m->req = rng->Next();
    m->client = FuzzAddress(rng);
    m->key = FuzzKey(rng);
    m->value = FuzzValue(rng);
    m->deps = FuzzDeps(rng);
    m->trace = FuzzTrace(rng);
    m->wm_epoch = rng->NextBelow(100);
    m->dep_wm = rng->NextBelow(1ull << 40);
  });
  FuzzStruct<CrxPutAck>("CrxPutAck", 102, [](CrxPutAck* m, Rng* rng) { *m = FuzzAck(rng); });
  FuzzStruct<CrxPutAckBatch>("CrxPutAckBatch", 103, [](CrxPutAckBatch* m, Rng* rng) {
    m->up_to_seq = rng->NextBelow(1ull << 40);
    const size_t n = rng->NextBelow(5);
    for (size_t i = 0; i < n; ++i) {
      m->acks.push_back(FuzzAck(rng));
    }
  });
  FuzzStruct<CrxGet, CrxGetView>("CrxGet", 104, [](CrxGet* m, Rng* rng) {
    m->req = rng->Next();
    m->client = FuzzAddress(rng);
    m->key = FuzzKey(rng);
    m->min_version = FuzzVersion(rng);
    m->with_deps = rng->NextBool(0.5);
  });
  FuzzStruct<CrxGetReply, CrxGetReplyView>("CrxGetReply", 105, [](CrxGetReply* m, Rng* rng) {
    m->req = rng->Next();
    m->key = FuzzKey(rng);
    m->found = rng->NextBool(0.5);
    m->value = FuzzValue(rng);
    m->version = FuzzVersion(rng);
    m->position = FuzzIndex(rng);
    m->stable = rng->NextBool(0.5);
    m->deps = FuzzDeps(rng);
    m->wm_epoch = rng->NextBelow(100);
    m->stable_wm = rng->NextBelow(1ull << 40);
  });
  FuzzStruct<CrxChainPut, CrxChainPutView>("CrxChainPut", 106, [](CrxChainPut* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->value = FuzzValue(rng);
    m->version = FuzzVersion(rng);
    m->client = FuzzAddress(rng);
    m->req = rng->Next();
    m->ack_at = FuzzIndex(rng);
    m->epoch = rng->NextBelow(100);
    m->chain_seq = rng->NextBelow(1ull << 40);
    m->deps = FuzzDeps(rng);
    m->trace = FuzzTrace(rng);
    m->stable_cut = rng->NextBelow(1ull << 40);
  });
  FuzzStruct<CrxStableNotify>("CrxStableNotify", 107, [](CrxStableNotify* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->version = FuzzVersion(rng);
    m->epoch = rng->NextBelow(100);
    m->stable_cut = rng->NextBelow(1ull << 40);
  });
  FuzzStruct<CrxStabilityCheck>("CrxStabilityCheck", 108, [](CrxStabilityCheck* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->version = FuzzVersion(rng);
    m->token = rng->Next();
  });
  FuzzStruct<CrxStabilityConfirm>("CrxStabilityConfirm", 109,
                                  [](CrxStabilityConfirm* m, Rng* rng) {
                                    m->token = rng->Next();
                                    m->key = FuzzKey(rng);
                                  });
  FuzzStruct<CrxWatermark>("CrxWatermark", 110, [](CrxWatermark* m, Rng* rng) {
    m->node = static_cast<NodeId>(rng->Next());
    m->epoch = rng->NextBelow(100);
    m->cut = rng->NextBelow(1ull << 40);
  });

  // Classic chain replication.
  FuzzStruct<CrPut>("CrPut", 201, [](CrPut* m, Rng* rng) {
    m->req = rng->Next();
    m->client = FuzzAddress(rng);
    m->key = FuzzKey(rng);
    m->value = FuzzValue(rng);
  });
  FuzzStruct<CrChainPut>("CrChainPut", 202, [](CrChainPut* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->value = FuzzValue(rng);
    m->seq = rng->Next();
    m->client = FuzzAddress(rng);
    m->req = rng->Next();
  });
  FuzzStruct<CrPutAck>("CrPutAck", 203, [](CrPutAck* m, Rng* rng) {
    m->req = rng->Next();
    m->key = FuzzKey(rng);
    m->seq = rng->Next();
  });
  FuzzStruct<CrChainAck>("CrChainAck", 204, [](CrChainAck* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->seq = rng->Next();
    m->client = FuzzAddress(rng);
    m->req = rng->Next();
  });
  FuzzStruct<CrGet>("CrGet", 205, [](CrGet* m, Rng* rng) {
    m->req = rng->Next();
    m->client = FuzzAddress(rng);
    m->key = FuzzKey(rng);
  });
  FuzzStruct<CrGetReply>("CrGetReply", 206, [](CrGetReply* m, Rng* rng) {
    m->req = rng->Next();
    m->key = FuzzKey(rng);
    m->found = rng->NextBool(0.5);
    m->value = FuzzValue(rng);
    m->seq = rng->Next();
  });

  // CRAQ.
  FuzzStruct<CraqPut>("CraqPut", 301, [](CraqPut* m, Rng* rng) {
    m->req = rng->Next();
    m->client = FuzzAddress(rng);
    m->key = FuzzKey(rng);
    m->value = FuzzValue(rng);
  });
  FuzzStruct<CraqChainPut>("CraqChainPut", 302, [](CraqChainPut* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->value = FuzzValue(rng);
    m->seq = rng->Next();
    m->client = FuzzAddress(rng);
    m->req = rng->Next();
  });
  FuzzStruct<CraqCommit>("CraqCommit", 303, [](CraqCommit* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->seq = rng->Next();
  });
  FuzzStruct<CraqPutAck>("CraqPutAck", 304, [](CraqPutAck* m, Rng* rng) {
    m->req = rng->Next();
    m->key = FuzzKey(rng);
    m->seq = rng->Next();
  });
  FuzzStruct<CraqGet>("CraqGet", 305, [](CraqGet* m, Rng* rng) {
    m->req = rng->Next();
    m->client = FuzzAddress(rng);
    m->key = FuzzKey(rng);
  });
  FuzzStruct<CraqGetReply>("CraqGetReply", 306, [](CraqGetReply* m, Rng* rng) {
    m->req = rng->Next();
    m->key = FuzzKey(rng);
    m->found = rng->NextBool(0.5);
    m->value = FuzzValue(rng);
    m->seq = rng->Next();
  });
  FuzzStruct<CraqVersionQuery>("CraqVersionQuery", 307, [](CraqVersionQuery* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->req = rng->Next();
    m->client = FuzzAddress(rng);
  });
  FuzzStruct<CraqVersionReply>("CraqVersionReply", 308, [](CraqVersionReply* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->committed_seq = rng->Next();
    m->req = rng->Next();
    m->client = FuzzAddress(rng);
  });

  // Eventual / quorum.
  FuzzStruct<EvPut>("EvPut", 401, [](EvPut* m, Rng* rng) {
    m->req = rng->Next();
    m->client = FuzzAddress(rng);
    m->key = FuzzKey(rng);
    m->value = FuzzValue(rng);
  });
  FuzzStruct<EvReplicate>("EvReplicate", 402, [](EvReplicate* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->value = FuzzValue(rng);
    m->version = FuzzVersion(rng);
    m->token = rng->Next();
  });
  FuzzStruct<EvReplicateAck>("EvReplicateAck", 403,
                             [](EvReplicateAck* m, Rng* rng) { m->token = rng->Next(); });
  FuzzStruct<EvPutAck>("EvPutAck", 404, [](EvPutAck* m, Rng* rng) {
    m->req = rng->Next();
    m->key = FuzzKey(rng);
    m->version = FuzzVersion(rng);
  });
  FuzzStruct<EvGet>("EvGet", 405, [](EvGet* m, Rng* rng) {
    m->req = rng->Next();
    m->client = FuzzAddress(rng);
    m->key = FuzzKey(rng);
  });
  FuzzStruct<EvGetReply>("EvGetReply", 406, [](EvGetReply* m, Rng* rng) {
    m->req = rng->Next();
    m->key = FuzzKey(rng);
    m->found = rng->NextBool(0.5);
    m->value = FuzzValue(rng);
    m->version = FuzzVersion(rng);
  });
  FuzzStruct<EvReadQuery>("EvReadQuery", 407, [](EvReadQuery* m, Rng* rng) {
    m->token = rng->Next();
    m->key = FuzzKey(rng);
  });
  FuzzStruct<EvReadReply>("EvReadReply", 408, [](EvReadReply* m, Rng* rng) {
    m->token = rng->Next();
    m->key = FuzzKey(rng);
    m->found = rng->NextBool(0.5);
    m->value = FuzzValue(rng);
    m->version = FuzzVersion(rng);
  });

  // Geo-replication.
  FuzzStruct<GeoLocalStable>("GeoLocalStable", 501, [](GeoLocalStable* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->version = FuzzVersion(rng);
    m->has_payload = rng->NextBool(0.5);
    if (m->has_payload) {
      m->value = FuzzValue(rng);
      m->deps = FuzzDeps(rng);
    }
    m->trace = FuzzTrace(rng);
  });
  FuzzStruct<GeoLocalStableAck>("GeoLocalStableAck", 502, [](GeoLocalStableAck* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->version = FuzzVersion(rng);
  });
  FuzzStruct<GeoShip>("GeoShip", 503, [](GeoShip* m, Rng* rng) { *m = FuzzShip(rng); });
  FuzzStruct<GeoShipBatch>("GeoShipBatch", 504, [](GeoShipBatch* m, Rng* rng) {
    const size_t n = rng->NextBelow(4);
    for (size_t i = 0; i < n; ++i) {
      m->ships.push_back(FuzzShip(rng));
    }
  });
  FuzzStruct<GeoApplied>("GeoApplied", 505, [](GeoApplied* m, Rng* rng) {
    m->dest_dc = static_cast<DcId>(rng->NextBelow(4));
    m->channel_seq = rng->NextBelow(1ull << 40);
  });
  FuzzStruct<GeoRemotePut>("GeoRemotePut", 506, [](GeoRemotePut* m, Rng* rng) {
    m->key = FuzzKey(rng);
    m->value = FuzzValue(rng);
    m->version = FuzzVersion(rng);
    m->deps = FuzzDeps(rng);
    m->trace = FuzzTrace(rng);
  });

  // Membership.
  FuzzStruct<MemNewMembership>("MemNewMembership", 601, [](MemNewMembership* m, Rng* rng) {
    m->epoch = rng->NextBelow(100);
    m->nodes = FuzzNodes(rng, 12);
    m->weights = FuzzWeights(rng, rng->NextBool(0.8) ? m->nodes.size() : 0);
    m->pre_synced = FuzzNodes(rng, 4);
  });
  FuzzStruct<MemHeartbeat>("MemHeartbeat", 602,
                           [](MemHeartbeat* m, Rng* rng) { m->node = FuzzNode(rng); });
  FuzzStruct<MemSyncKey>("MemSyncKey", 603, [](MemSyncKey* m, Rng* rng) {
    m->epoch = rng->NextBelow(100);
    m->key = FuzzKey(rng);
    m->value = FuzzValue(rng);
    m->version = FuzzVersion(rng);
    m->stable = rng->NextBool(0.5);
  });
  FuzzStruct<MemSyncDone>("MemSyncDone", 604, [](MemSyncDone* m, Rng* rng) {
    m->epoch = rng->NextBelow(100);
    m->from = FuzzNode(rng);
  });

  // Key-range migration.
  FuzzStruct<MigSnapshotRequest>("MigSnapshotRequest", 701, [](MigSnapshotRequest* m, Rng* rng) {
    m->migration_id = rng->Next();
    m->epoch = rng->NextBelow(100);
    m->planned_epoch = m->epoch + 1;
    m->planned_nodes = FuzzNodes(rng, 12);
    m->planned_weights = FuzzWeights(rng, m->planned_nodes.size());
    m->coordinator = FuzzAddress(rng);
    m->batch_keys = 1 + static_cast<uint32_t>(rng->NextBelow(256));
    m->batch_interval = rng->NextBelow(1ull << 30);
  });
  ExpectEveryFieldListedOnce<MigEntry>("MigEntry");
  FuzzStruct<MigKeyBatch>("MigKeyBatch", 702, [](MigKeyBatch* m, Rng* rng) {
    m->migration_id = rng->Next();
    m->epoch = rng->NextBelow(100);
    m->source = FuzzNode(rng);
    m->target = FuzzNode(rng);
    m->coordinator = FuzzAddress(rng);
    m->seq = rng->NextBelow(1ull << 30);
    m->last = rng->NextBool(0.3);
    const size_t n = rng->NextBelow(5);
    for (size_t i = 0; i < n; ++i) {
      m->entries.push_back(FuzzEntry(rng));
    }
  });
  FuzzStruct<MigSnapshotDone>("MigSnapshotDone", 703, [](MigSnapshotDone* m, Rng* rng) {
    m->migration_id = rng->Next();
    m->from = FuzzNode(rng);
    m->keys_streamed = rng->NextBelow(1ull << 30);
    m->targets = FuzzNodes(rng, 6);
    m->aborted = rng->NextBool(0.2);
  });
  FuzzStruct<MigRangeSealed>("MigRangeSealed", 704, [](MigRangeSealed* m, Rng* rng) {
    m->migration_id = rng->Next();
    m->source = FuzzNode(rng);
    m->target = FuzzNode(rng);
    m->entries_applied = rng->NextBelow(1ull << 30);
  });
  FuzzStruct<MigCommit>("MigCommit", 705, [](MigCommit* m, Rng* rng) {
    m->migration_id = rng->Next();
    m->planned_epoch = rng->NextBelow(100);
    m->nodes = FuzzNodes(rng, 12);
    m->weights = FuzzWeights(rng, m->nodes.size());
    m->pre_synced = FuzzNodes(rng, 4);
  });
  FuzzStruct<MigAbort>("MigAbort", 706, [](MigAbort* m, Rng* rng) {
    m->migration_id = rng->NextBool(0.2) ? 0 : rng->Next();  // 0 = wildcard
    m->reason = FuzzKey(rng);
  });
}

// An integer field whose varint exceeds the C++ type is rejected, not
// truncated: a u32 `client` of 2^32.
TEST(MessageDecode, OutOfRangeIntegerRejected) {
  ByteWriter w;
  w.PutU16(static_cast<uint16_t>(MsgType::kCrGet));
  w.PutVarU64(1);                // req
  w.PutVarU64(1ull << 32);       // client: one past UINT32_MAX
  w.PutStringViewVar("k");       // key
  CrGet m;
  EXPECT_FALSE(DecodeMessage(w.data(), &m));
}

// ---------------------------------------------------------------------------
// List counts. A frame that claims 2^20 list elements and carries none must
// fail before the decoder sizes the list: otherwise a six-byte frame from
// any TCP peer makes it allocate hundreds of MiB (2^20 * sizeof(CrxPutAck)).
// ---------------------------------------------------------------------------

// Frame for `M` whose fields before `list` hold default values, followed by
// a 2^20 count for `list` and nothing else.
template <typename M, typename L>
std::string ClaimHugeList(L M::*list) {
  M m;
  ByteWriter w;
  w.PutU16(static_cast<uint16_t>(M::kType));
  bool claimed = false;
  wire::VisitFields(m, [&](const auto&... field) {
    auto one = [&](const auto& f) {
      if (claimed) {
        return;
      }
      if (static_cast<const void*>(&f) == static_cast<const void*>(&(m.*list))) {
        w.PutVarU64(1u << 20);
        claimed = true;
      } else {
        wire::Write(&w, f);
      }
    };
    (one(field), ...);
  });
  EXPECT_TRUE(claimed);
  return w.Take();
}

template <typename M, typename L>
void ExpectHugeListRejected(const char* name, L M::*list) {
  const std::string frame = ClaimHugeList(list);
  M out;
  EXPECT_FALSE(DecodeMessage(frame, &out)) << name;
  EXPECT_LT((out.*list).capacity(), 64u) << name << ": list sized before its elements arrived";
}

TEST(MessageDecode, HugeListCountRejectedBeforeAllocating) {
  ExpectHugeListRejected("CrxPut.deps", &CrxPut::deps);
  ExpectHugeListRejected("CrxPutView.deps", &CrxPutView::deps);
  ExpectHugeListRejected("CrxPutAckBatch.acks", &CrxPutAckBatch::acks);
  ExpectHugeListRejected("CrxGetReply.deps", &CrxGetReply::deps);
  ExpectHugeListRejected("CrxGetReplyView.deps", &CrxGetReplyView::deps);
  ExpectHugeListRejected("CrxChainPut.deps", &CrxChainPut::deps);
  ExpectHugeListRejected("CrxChainPutView.deps", &CrxChainPutView::deps);
  ExpectHugeListRejected("GeoLocalStable.deps", &GeoLocalStable::deps);
  ExpectHugeListRejected("GeoShip.deps", &GeoShip::deps);
  ExpectHugeListRejected("GeoShipBatch.ships", &GeoShipBatch::ships);
  ExpectHugeListRejected("GeoRemotePut.deps", &GeoRemotePut::deps);
  ExpectHugeListRejected("MemNewMembership.nodes", &MemNewMembership::nodes);
  ExpectHugeListRejected("MemNewMembership.weights", &MemNewMembership::weights);
  ExpectHugeListRejected("MemNewMembership.pre_synced", &MemNewMembership::pre_synced);
  ExpectHugeListRejected("MigSnapshotRequest.planned_nodes", &MigSnapshotRequest::planned_nodes);
  ExpectHugeListRejected("MigSnapshotRequest.planned_weights",
                         &MigSnapshotRequest::planned_weights);
  ExpectHugeListRejected("MigKeyBatch.entries", &MigKeyBatch::entries);
  ExpectHugeListRejected("MigSnapshotDone.targets", &MigSnapshotDone::targets);
  ExpectHugeListRejected("MigCommit.nodes", &MigCommit::nodes);
  ExpectHugeListRejected("MigCommit.weights", &MigCommit::weights);
  ExpectHugeListRejected("MigCommit.pre_synced", &MigCommit::pre_synced);
}

// A list nested in a list element is bounded the same way.
TEST(MessageDecode, HugeNestedListCountRejected) {
  ByteWriter w;
  w.PutU16(static_cast<uint16_t>(MsgType::kMigKeyBatch));
  for (int i = 0; i < 7; ++i) {
    w.PutVarU64(0);  // migration_id .. last
  }
  w.PutVarU64(1);  // one entry
  w.PutStringViewVar("k");
  w.PutBool(true);
  w.PutStringViewVar("v");
  Version{}.EncodeV2(&w);
  w.PutBool(false);
  w.PutVarU64(1u << 20);  // entry deps
  MigKeyBatch out;
  EXPECT_FALSE(DecodeMessage(w.data(), &out));
  ASSERT_EQ(out.entries.size(), 1u);
  EXPECT_LT(out.entries[0].deps.capacity(), 64u);
}

// A count above kMaxListCount fails before allocation even when the frame
// is long enough to hold that many one-byte elements. A bound on the bytes
// left alone would let one 2 MiB frame make the decoder allocate
// 2^21 * sizeof(CrxPutAck), about 1.1 GiB.
TEST(MessageDecode, ListCountAboveCapRejectedWhateverTheFrameLength) {
  ByteWriter w;
  w.PutU16(static_cast<uint16_t>(MsgType::kCrxPutAckBatch));
  w.PutVarU64(0);        // up_to_seq
  w.PutVarU64(1u << 21);  // acks
  const std::string frame = w.Take() + std::string(1u << 21, '\0');
  CrxPutAckBatch out;
  EXPECT_FALSE(DecodeMessage(frame, &out));
  EXPECT_LT(out.acks.capacity(), 64u);
}

// Within the cap, a list grows as its elements decode rather than to the
// claimed count: 2^20 bytes of all-zero acks (several bytes each) are
// decoded until the bytes run out, and the list never reaches the claim.
TEST(MessageDecode, ListGrowsWithDecodedElementsNotTheClaim) {
  ByteWriter w;
  w.PutU16(static_cast<uint16_t>(MsgType::kCrxPutAckBatch));
  w.PutVarU64(0);
  w.PutVarU64(wire::kMaxListCount);
  const std::string frame = w.Take() + std::string(wire::kMaxListCount, '\0');
  CrxPutAckBatch out;
  EXPECT_FALSE(DecodeMessage(frame, &out));
  EXPECT_GT(out.acks.size(), wire::kListReserve);  // zero bytes are valid acks
  EXPECT_LE(out.acks.capacity(), wire::kMaxListCount / 2);
}

// The storage-record dependency codec shares the list reader and its bounds.
TEST(MessageDecode, StorageDepsCountBounded) {
  ByteWriter w;
  w.PutVarU64(1u << 21);
  const std::string record = w.Take() + std::string(1u << 21, '\0');
  ByteReader r(record);
  std::vector<Dependency> deps;
  EXPECT_FALSE(DecodeDeps(&r, &deps));
  EXPECT_LT(deps.capacity(), 64u);
}

// ---------------------------------------------------------------------------
// Varint edge cases: maximal encodings, overlong (non-canonical) encodings,
// and truncated continuation chains. The decoder must never crash, must
// reject every strict prefix, and must accept the 10-byte maximum.
// ---------------------------------------------------------------------------

TEST(Varint, MaximalTenByteEncoding) {
  ByteWriter w;
  w.PutVarU64(UINT64_MAX);
  EXPECT_EQ(w.size(), 10u);
  EXPECT_EQ(VarU64Size(UINT64_MAX), 10u);
  ByteReader r(w.data());
  uint64_t v = 0;
  ASSERT_TRUE(r.GetVarU64(&v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_EQ(r.remaining(), 0u);

  // Every power of two hits a distinct length bucket.
  for (int shift = 0; shift < 64; ++shift) {
    const uint64_t x = 1ull << shift;
    ByteWriter w2;
    w2.PutVarU64(x);
    EXPECT_EQ(w2.size(), VarU64Size(x)) << "shift=" << shift;
    ByteReader r2(w2.data());
    uint64_t y = 0;
    ASSERT_TRUE(r2.GetVarU64(&y)) << "shift=" << shift;
    EXPECT_EQ(y, x) << "shift=" << shift;
  }
}

TEST(Varint, TruncatedContinuationAlwaysFails) {
  // A continuation bit with no following byte must fail, at every length.
  for (size_t len = 1; len <= 9; ++len) {
    std::string buf(len, static_cast<char>(0x80));
    ByteReader r(buf);
    uint64_t v = 0;
    EXPECT_FALSE(r.GetVarU64(&v)) << "len=" << len;
  }
  // Same through the full varint encoding of a large value.
  ByteWriter w;
  w.PutVarU64(UINT64_MAX);
  const std::string full(w.data());
  for (size_t cut = 0; cut < full.size(); ++cut) {
    ByteReader r(full.data(), cut);
    uint64_t v = 0;
    EXPECT_FALSE(r.GetVarU64(&v)) << "cut=" << cut;
  }
}

TEST(Varint, ContinuationPastTenBytesFails) {
  // 10 continuation bytes followed by a terminator would need shift >= 70:
  // the decoder must reject rather than silently wrap.
  std::string buf(10, static_cast<char>(0xFF));
  buf.push_back(0x01);
  ByteReader r(buf);
  uint64_t v = 0;
  EXPECT_FALSE(r.GetVarU64(&v));
}

TEST(Varint, OverlongEncodingDecodesWithoutCrashing) {
  // Non-canonical (overlong) encodings of small values: {0x80, 0x00} is a
  // two-byte zero. The decoder accepts them (receivers are liberal); the
  // byte-stability fuzz property separately guarantees our own encoder
  // never produces them.
  const std::string two_byte_zero("\x80\x00", 2);
  ByteReader r(two_byte_zero);
  uint64_t v = 99;
  ASSERT_TRUE(r.GetVarU64(&v));
  EXPECT_EQ(v, 0u);

  // Maximal overlong zero: nine 0x80 bytes + 0x00.
  std::string long_zero(9, static_cast<char>(0x80));
  long_zero.push_back(0x00);
  ByteReader r2(long_zero);
  v = 99;
  ASSERT_TRUE(r2.GetVarU64(&v));
  EXPECT_EQ(v, 0u);
}

TEST(Varint, ZigZagRoundTrip) {
  const int64_t cases[] = {0, -1, 1, -2, 2, INT64_MAX, INT64_MIN, -123456789, 123456789};
  for (const int64_t x : cases) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(x)), x);
    ByteWriter w;
    w.PutVarI64(x);
    EXPECT_EQ(w.size(), VarI64Size(x));
    ByteReader r(w.data());
    int64_t y = 0;
    ASSERT_TRUE(r.GetVarI64(&y));
    EXPECT_EQ(y, x);
  }
  // Small magnitudes stay small on the wire regardless of sign.
  EXPECT_EQ(VarI64Size(-1), 1u);
  EXPECT_EQ(VarI64Size(63), 1u);
  EXPECT_EQ(VarI64Size(-64), 1u);
}

// ---------------------------------------------------------------------------
// Golden frames. Bodies recorded from the last build that still had two
// frame layouts (its varint layout, for fixed inputs): every Crx frame the
// hot path sends must stay byte-identical, owned and view alike. The tag is
// the plain message type.
// ---------------------------------------------------------------------------

// Fixed inputs for the golden Crx frames. Multi-byte varints on purpose:
// values > 127 bytes, a 3-DC version, a traced context with hops.
Version GoldenVersion() {
  Version v;
  v.vv = VersionVector(3);
  v.vv.Set(0, 300);
  v.vv.Set(1, 1);
  v.vv.Set(2, 70000);
  v.lamport = 1234567;
  v.origin = 2;
  return v;
}

std::vector<Dependency> GoldenDeps() {
  return {Dependency{"dep-a", GoldenVersion(), false}, Dependency{"dep-b", Version{}, true}};
}

TraceContext GoldenTrace() {
  TraceContext t;
  t.id = 0x1234567890ull;
  t.Annotate(HopKind::kClientPut, 7, 0, 2, 1000);
  t.Annotate(HopKind::kHeadRecv, 300, 1, 70000, -5, 1ull << 40);
  return t;
}

CrxPut GoldenCrxPut() {
  CrxPut m;
  m.req = 1ull << 33;
  m.client = 0x10000005;
  m.key = "golden-put";
  m.value = std::string(130, 'p');
  m.deps = GoldenDeps();
  m.trace = GoldenTrace();
  m.wm_epoch = 9;
  m.dep_wm = 1000000;
  return m;
}

CrxPutAck GoldenCrxPutAck() {
  CrxPutAck m;
  m.req = 77;
  m.key = "golden-ack";
  m.version = GoldenVersion();
  m.acked_at = 2;
  m.trace = GoldenTrace();
  m.wm_epoch = 3;
  m.stable_wm = 4000;
  return m;
}

CrxPutAckBatch GoldenCrxPutAckBatch() {
  CrxPutAckBatch m;
  m.up_to_seq = 5000;
  m.acks.push_back(GoldenCrxPutAck());
  CrxPutAck second;
  second.req = 78;
  second.key = "k2";
  m.acks.push_back(second);
  return m;
}

CrxGet GoldenCrxGet() {
  CrxGet m;
  m.req = 555;
  m.client = 0x10000006;
  m.key = "golden-get";
  m.min_version = GoldenVersion();
  m.with_deps = true;
  return m;
}

CrxGetReply GoldenCrxGetReply() {
  CrxGetReply m;
  m.req = 556;
  m.key = "golden-get";
  m.found = true;
  m.value = std::string(130, 'r');
  m.version = GoldenVersion();
  m.position = 3;
  m.stable = true;
  m.deps = GoldenDeps();
  m.wm_epoch = 2;
  m.stable_wm = 129;
  return m;
}

CrxChainPut GoldenCrxChainPut() {
  CrxChainPut m;
  m.key = "golden-chain";
  m.value = std::string(128, 'c');
  m.version = GoldenVersion();
  m.client = 0x10000007;
  m.req = 99999;
  m.ack_at = 2;
  m.epoch = 12;
  m.chain_seq = 1ull << 20;
  m.deps = GoldenDeps();
  m.trace = GoldenTrace();
  m.stable_cut = 888;
  return m;
}

CrxStableNotify GoldenCrxStableNotify() {
  CrxStableNotify m;
  m.key = "golden-stable";
  m.version = GoldenVersion();
  m.epoch = 12;
  m.stable_cut = 1ull << 35;
  return m;
}

CrxStabilityCheck GoldenCrxStabilityCheck() {
  CrxStabilityCheck m;
  m.key = "golden-check";
  m.version = GoldenVersion();
  m.token = 0xfeedface;
  return m;
}

CrxStabilityConfirm GoldenCrxStabilityConfirm() {
  CrxStabilityConfirm m;
  m.token = 0xfeedface;
  m.key = "golden-check";
  return m;
}

CrxWatermark GoldenCrxWatermark() {
  CrxWatermark m;
  m.node = 4000000000u;
  m.epoch = 12;
  m.cut = 1ull << 50;
  return m;
}

CrxGetReplyView GoldenCrxGetReplyView(const CrxGetReply& r) {
  CrxGetReplyView v;
  v.req = r.req;
  v.key = r.key;
  v.found = r.found;
  v.value = r.value;
  v.version = r.version;
  v.position = r.position;
  v.stable = r.stable;
  v.deps.assign(r.deps.begin(), r.deps.end());
  v.wm_epoch = r.wm_epoch;
  v.stable_wm = r.stable_wm;
  return v;
}

struct GoldenFrame {
  const char* name;
  uint16_t type;
  const char* body_hex;
};

const GoldenFrame kGoldenFrames[] = {
    {"CrxPut", 10,
     "808080802085808080010a676f6c64656e2d7075748201707070707070707070707070707070707070707070"
     "7070707070707070707070707070707070707070707070707070707070707070707070707070707070707070"
     "7070707070707070707070707070707070707070707070707070707070707070707070707070707070707070"
     "70707070707070707070707070707070707070707002056465702d6103ac0201f0a20487ad4b020005646570"
     "2d620000000190f1d9a2a3020201070002d00f000bac0201f0a2040980808080802009c0843d"},
    {"CrxPutAck", 11,
     "4d0a676f6c64656e2d61636b03ac0201f0a20487ad4b020290f1d9a2a3020201070002d00f000bac0201f0a2"
     "040980808080802003a01f"},
    {"CrxPutAckBatch", 14,
     "8827024d0a676f6c64656e2d61636b03ac0201f0a20487ad4b020290f1d9a2a3020201070002d00f000bac02"
     "01f0a2040980808080802003a01f4e026b3200000000000000"},
    {"CrxGet", 12,
     "ab0486808080010a676f6c64656e2d67657403ac0201f0a20487ad4b0201"},
    {"CrxGetReply", 13,
     "ac040a676f6c64656e2d67657401820172727272727272727272727272727272727272727272727272727272"
     "7272727272727272727272727272727272727272727272727272727272727272727272727272727272727272"
     "7272727272727272727272727272727272727272727272727272727272727272727272727272727272727272"
     "727272727272727272727272727203ac0201f0a20487ad4b02030102056465702d6103ac0201f0a20487ad4b"
     "0200056465702d6200000001028101"},
    {"CrxChainPut", 20,
     "0c676f6c64656e2d636861696e80016363636363636363636363636363636363636363636363636363636363"
     "6363636363636363636363636363636363636363636363636363636363636363636363636363636363636363"
     "6363636363636363636363636363636363636363636363636363636363636363636363636363636363636363"
     "636363636363636363636303ac0201f0a20487ad4b0287808080019f8d06020c80804002056465702d6103ac"
     "0201f0a20487ad4b0200056465702d620000000190f1d9a2a3020201070002d00f000bac0201f0a204098080"
     "80808020f806"},
    {"CrxStableNotify", 21,
     "0d676f6c64656e2d737461626c6503ac0201f0a20487ad4b020c808080808001"},
    {"CrxStabilityCheck", 22,
     "0c676f6c64656e2d636865636b03ac0201f0a20487ad4b02cef5b7f70f"},
    {"CrxStabilityConfirm", 23,
     "cef5b7f70f0c676f6c64656e2d636865636b"},
    {"CrxWatermark", 24,
     "80d0acf30e0c8080808080808002"},
};

std::string Hex(std::string_view s) {
  static const char* kDigits = "0123456789abcdef";
  std::string h;
  for (const unsigned char c : s) {
    h.push_back(kDigits[c >> 4]);
    h.push_back(kDigits[c & 15]);
  }
  return h;
}

const GoldenFrame& Golden(const std::string& name) {
  for (const GoldenFrame& g : kGoldenFrames) {
    if (name == g.name) {
      return g;
    }
  }
  ADD_FAILURE() << "no golden frame " << name;
  return kGoldenFrames[0];
}

template <typename M>
void ExpectGolden(const std::string& name, const M& m) {
  const GoldenFrame& g = Golden(name);
  const std::string frame = EncodeMessage(m);
  // The tag is the bare message type: no format bit.
  uint16_t tag = 0;
  ByteReader r(frame);
  ASSERT_TRUE(r.GetU16(&tag));
  EXPECT_EQ(tag, static_cast<uint16_t>(M::kType)) << name;
  EXPECT_EQ(tag, g.type) << name;
  EXPECT_EQ(Hex(std::string_view(frame).substr(2)), g.body_hex) << name;
}

TEST(WireGolden, OwnedCrxFramesMatchRecordedBodies) {
  ExpectGolden("CrxPut", GoldenCrxPut());
  ExpectGolden("CrxPutAck", GoldenCrxPutAck());
  ExpectGolden("CrxPutAckBatch", GoldenCrxPutAckBatch());
  ExpectGolden("CrxGet", GoldenCrxGet());
  ExpectGolden("CrxGetReply", GoldenCrxGetReply());
  ExpectGolden("CrxChainPut", GoldenCrxChainPut());
  ExpectGolden("CrxStableNotify", GoldenCrxStableNotify());
  ExpectGolden("CrxStabilityCheck", GoldenCrxStabilityCheck());
  ExpectGolden("CrxStabilityConfirm", GoldenCrxStabilityConfirm());
  ExpectGolden("CrxWatermark", GoldenCrxWatermark());
}

TEST(WireGolden, ViewCrxFramesMatchRecordedBodies) {
  const CrxPut put = GoldenCrxPut();
  const CrxChainPut chain = GoldenCrxChainPut();
  const CrxGet get = GoldenCrxGet();
  const CrxGetReply reply = GoldenCrxGetReply();
  ExpectGolden("CrxPut", CrxPutView::From(put));
  ExpectGolden("CrxChainPut", CrxChainPutView::From(chain));
  ExpectGolden("CrxGet", CrxGetView::From(get));
  ExpectGolden("CrxGetReply", GoldenCrxGetReplyView(reply));
}

// ---------------------------------------------------------------------------
// Zero-copy views: aliasing and buffer-lifetime discipline.
// ---------------------------------------------------------------------------

// The view's string fields alias the frame (zero-copy, not a copy that
// happens to compare equal), and ToOwned() round-trips every field.
TEST(MessageView, DecodedViewAliasesFrame) {
  const std::string frame = EncodeMessage(GoldenCrxChainPut());
  CrxChainPutView view;
  ASSERT_TRUE(DecodeMessage(frame, &view));
  const char* lo = frame.data();
  const char* hi = frame.data() + frame.size();
  EXPECT_TRUE(view.key.data() >= lo && view.key.data() + view.key.size() <= hi);
  EXPECT_TRUE(view.value.data() >= lo && view.value.data() + view.value.size() <= hi);
  const CrxChainPut owned = view.ToOwned();
  EXPECT_EQ(owned.key, GoldenCrxChainPut().key);
  EXPECT_EQ(owned.value, GoldenCrxChainPut().value);
  EXPECT_TRUE(owned.version == GoldenCrxChainPut().version);
  EXPECT_EQ(owned.chain_seq, GoldenCrxChainPut().chain_seq);
  EXPECT_EQ(owned.stable_cut, GoldenCrxChainPut().stable_cut);
  ASSERT_EQ(owned.deps.size(), 2u);
  EXPECT_EQ(owned.deps[1].key, "dep-b");
  EXPECT_TRUE(owned.deps[1].local_stable);
}

TEST(MessageView, FromOwnedMatchesDecodedView) {
  const CrxChainPut m = GoldenCrxChainPut();
  const CrxChainPutView v = CrxChainPutView::From(m);
  EXPECT_EQ(v.key, m.key);
  EXPECT_EQ(v.value, m.value);
  EXPECT_EQ(v.chain_seq, m.chain_seq);
  EXPECT_EQ(v.deps.size(), m.deps.size());
  // From() aliases the owned struct's strings — same zero-copy contract.
  EXPECT_EQ(v.key.data(), m.key.data());
  EXPECT_EQ(v.value.data(), m.value.data());
}

// Lifetime rule: a view dies with its buffer; anything that must outlive
// the buffer goes through ToOwned() *before* the buffer is mutated or
// freed. Under ASan this test additionally proves ToOwned() shares no
// storage with the frame: the frame is heap-freed and every owned byte is
// then read.
TEST(MessageView, ToOwnedSurvivesBufferDestruction) {
  const CrxPut original = GoldenCrxPut();
  auto frame = std::make_unique<std::string>(EncodeMessage(original));
  CrxPutView view;
  ASSERT_TRUE(DecodeMessage(*frame, &view));
  CrxPut owned = view.ToOwned();
  frame.reset();  // view is now dangling; owned must not be
  EXPECT_EQ(owned.key, original.key);
  EXPECT_EQ(owned.value, original.value);
  ASSERT_EQ(owned.deps.size(), original.deps.size());
  EXPECT_EQ(owned.deps[0].key, original.deps[0].key);
  EXPECT_TRUE(owned.trace.id == original.trace.id);
}

// Mutating the buffer after decode changes what the view reads (it aliases,
// never snapshots) — while a pre-mutation ToOwned() copy is unaffected.
// This pins the aliasing contract the node relies on: all view reads happen
// before any store GC or buffer reuse can touch the frame.
TEST(MessageView, ViewAliasesMutatedBufferButOwnedCopyDoesNot) {
  std::string frame = EncodeMessage(GoldenCrxChainPut());
  CrxChainPutView view;
  ASSERT_TRUE(DecodeMessage(frame, &view));
  const CrxChainPut owned = view.ToOwned();
  ASSERT_FALSE(view.value.empty());
  const size_t value_off = static_cast<size_t>(view.value.data() - frame.data());
  frame[value_off] = 'X';  // in-place mutation, no reallocation
  EXPECT_EQ(view.value[0], 'X');            // the view tracks the buffer
  EXPECT_EQ(owned.value[0], 'c');           // the owned copy does not
}

}  // namespace
}  // namespace chainreaction
