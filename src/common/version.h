// Version identifiers for key-value updates.
//
// Within one datacenter the updates to a key form a total order decided by
// the key's chain head. Across datacenters updates are only partially
// ordered; each version therefore carries
//   * a per-key version vector (one entry per DC) capturing the causal past
//     of the key at the moment of the write,
//   * a Lamport timestamp and the origin DC, which provide the convergent
//     total order used for last-writer-wins conflict resolution (the "+"
//     in causal+).
#ifndef SRC_COMMON_VERSION_H_
#define SRC_COMMON_VERSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/small_vector.h"
#include "src/common/types.h"

namespace chainreaction {

class VersionVector {
 public:
  VersionVector() = default;
  explicit VersionVector(size_t num_dcs) : counts_(num_dcs, 0) {}

  uint64_t Get(DcId dc) const { return dc < counts_.size() ? counts_[dc] : 0; }

  void Set(DcId dc, uint64_t v) {
    if (dc >= counts_.size()) {
      counts_.resize(dc + 1, 0);
    }
    counts_[dc] = v;
  }

  void Increment(DcId dc) { Set(dc, Get(dc) + 1); }

  // Componentwise maximum; grows to the larger dimension.
  void MergeMax(const VersionVector& other);

  // True if every component of this vector is >= other's.
  bool Dominates(const VersionVector& other) const;

  // Neither dominates the other and they differ.
  bool ConcurrentWith(const VersionVector& other) const {
    return !Dominates(other) && !other.Dominates(*this);
  }

  bool operator==(const VersionVector& other) const;

  size_t size() const { return counts_.size(); }
  uint64_t Sum() const;

  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);

  // Exact number of bytes Encode() appends (for writer pre-sizing).
  size_t EncodedSize() const;

  std::string ToString() const;

 private:
  // Inline up to 4 DCs: deployments are 1–3 DCs, so version vectors — which
  // ride every message, dependency, and store entry — never touch the heap.
  SmallVector<uint64_t, 4> counts_;
};

struct Version {
  VersionVector vv;
  uint64_t lamport = 0;
  DcId origin = 0;

  // The null version precedes every real version; a key that was never
  // written has the null version.
  bool IsNull() const { return lamport == 0 && vv.Sum() == 0; }

  // Convergent total order used for LWW conflict resolution and for storage
  // ordering: by Lamport timestamp, ties broken by origin DC.
  bool LwwLess(const Version& other) const {
    if (lamport != other.lamport) {
      return lamport < other.lamport;
    }
    return origin < other.origin;
  }

  // Causal dominance between two versions of the *same key*.
  bool CausallyIncludes(const Version& other) const { return vv.Dominates(other.vv); }

  bool operator==(const Version& other) const {
    return lamport == other.lamport && origin == other.origin && vv == other.vv;
  }

  // Storage-record encoding (WAL, checkpoint, value log): fixed u16 origin.
  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  size_t EncodedSize() const { return vv.EncodedSize() + VarU64Size(lamport) + 2; }

  // Wire encoding (every message, src/msg/message.h): the origin DC is a
  // varint (1 byte for < 128 DCs). The vv and lamport are varints in both.
  void EncodeV2(ByteWriter* w) const;
  bool DecodeV2(ByteReader* r);
  size_t EncodedSizeV2() const {
    return vv.EncodedSize() + VarU64Size(lamport) + VarU64Size(origin);
  }

  std::string ToString() const;
};

// A causal dependency carried by writes: "key must have version >= version
// (in the key's per-DC order) before this write may become visible".
//
// `local_stable` is the client-metadata optimization: the client learned
// (from a read reply) that the version is already DC-Write-Stable in its
// DC, so the head can skip the stability check. The dependency must still
// be shipped with geo updates — stability here says nothing about remote
// DCs. In single-DC deployments clients drop such deps entirely.
struct Dependency {
  Key key;
  Version version;
  bool local_stable = false;

  // Storage-record encoding (EncodeDeps): u32 key-length prefix.
  void Encode(ByteWriter* w) const;
  bool Decode(ByteReader* r);
  size_t EncodedSize() const { return 4 + key.size() + version.EncodedSize() + 1; }

  // Wire encoding: varint key-length prefix + wire-encoded version.
  void EncodeV2(ByteWriter* w) const;
  bool DecodeV2(ByteReader* r);
  size_t EncodedSizeV2() const {
    return VarStringSize(key) + version.EncodedSizeV2() + 1;
  }
};

// Per-request dependency list with inline capacity matching the measured
// post-watermark dep-count p50 (7–8): the common put decodes and gates its
// whole dependency set without touching the allocator. Used by the hot-path
// view structs and transient node/client request state; durable containers
// (store entries, parked puts) keep std::vector to bound their footprint.
using DepList = SmallVector<Dependency, 8>;

}  // namespace chainreaction

#endif  // SRC_COMMON_VERSION_H_
