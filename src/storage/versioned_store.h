// Per-node multi-version key-value store over a pluggable value engine.
//
// Each key holds a small list of versions ordered by the convergent LWW
// order (lamport, origin). Nodes apply versions idempotently (duplicates
// from chain-repair re-propagation are absorbed), track which versions are
// DC-Write-Stable, and keep the componentwise-max version vector of all
// applied versions per key — the predicate used for causal dependency
// checks ("has this node applied at least version v of key k?").
//
// Version garbage collection keeps the newest stable version and anything
// newer, bounding per-key memory.
//
// Value storage is delegated to a StorageEngine (src/engine/). The default
// mem engine keeps values inline in the index entries — the historical
// behavior, byte for byte. With a disk engine attached, values live in an
// append-only log and index entries carry a ValueHandle; a bounded LRU
// residency cache keeps hot values materialized in memory, so Latest/Find/
// LatestStable still hand out `const StoredVersion*` with a filled `value`.
//
// One record per key: a KeyRecord holds the key's versions and the per-key
// bookkeeping its caller keeps next to them (KeySlots: stability knowledge,
// unstable-head membership, a pending stability notify). A message handler
// resolves its key once — Lookup() or Claim() — and passes the record down;
// every handle-taking call then works on that record without hashing the
// key again. A record is erased only when it holds no version and every
// slot is empty; records without a version are invisible to KeyCount,
// ForEachKey and every version iteration (so to checkpoints).
//
// Pointer lifetime with a disk engine: a materialized value stays resident
// at least until eight further values are materialized (the most recent
// materializations are pinned against eviction), so the usual pattern —
// look up, read fields, drop the pointer before the next store call — is
// safe. Callers that only need version metadata should use the *Meta
// accessors, which never touch the engine or the cache.
#ifndef SRC_STORAGE_VERSIONED_STORE_H_
#define SRC_STORAGE_VERSIONED_STORE_H_

#include <cstring>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/node_cache.h"
#include "src/common/small_vector.h"
#include "src/common/types.h"
#include "src/common/version.h"
#include "src/engine/storage_engine.h"

namespace chainreaction {

class KeyRecord;

struct StoredVersion {
  Value value;  // empty when a disk engine holds the bytes and !resident
  Version version;
  bool stable = false;
  // Write-time dependency list (served to multi-get read transactions).
  // Inline capacity 2: the client's accessed-set collapses to one entry per
  // acked write, so nearly every stored list fits without a heap block —
  // the apply path stays at one allocation (the value copy) per replica.
  SmallVector<Dependency, 2> deps;

  // Engine bookkeeping (disk engine only; dormant under the mem engine).
  ValueHandle handle;
  bool resident = true;  // `value` holds the bytes
  bool cached = false;   // on the store's LRU list
  std::list<std::pair<KeyRecord*, Version>>::iterator lru_it{};
};

// Per-key state the chain node keeps in the key's record (DESIGN.md §3.9).
// The store never reads these slots except to decide when a record may be
// erased.
struct KeySlots {
  // Merged version vector known DC-Write-Stable here (the stability
  // cache); size 0 until the first stability mark.
  VersionVector stable_vv;
  // When the key went unstable at this head (< 0: unknown, e.g. rebuilt
  // after recovery). Meaningful only while unstable_head != 0.
  Time unstable_since = -1;
  // 1 + the key's index in the node's unstable-head list; 0 = not listed.
  uint32_t unstable_head = 0;
  // 1 + the index of the key's entry in the node's per-turn stable-notify
  // vector; 0 = no coalesced notify pending. The coalesced version rides
  // the entry.
  uint64_t notify_seq = 0;

  bool StableCovers(const VersionVector& vv) const {
    return stable_vv.size() > 0 && stable_vv.Dominates(vv);
  }
  bool empty() const {
    return stable_vv.size() == 0 && unstable_head == 0 && notify_seq == 0;
  }
};

// One key's record: its versions, their merged version vector, and the
// caller's slots. Handles (KeyRecord*) stay valid until the record is
// erased: the table is node-based, so rehashing never moves a record.
class KeyRecord {
 public:
  const Key& key() const { return *key_; }
  bool has_versions() const { return !versions_.empty(); }

  KeySlots slots;

 private:
  friend class VersionedStore;

  // A short key's bytes are also kept here, in the record itself: a lookup
  // compares them without reading the key string's heap buffer, which for
  // keys past the small-string size is one more cache miss per lookup.
  static constexpr size_t kInlineKey = 23;
  static constexpr uint8_t kLongKey = 0xFF;

  void SetKey(const Key* key);
  bool KeyEquals(std::string_view key) const {
    if (key_len_ == kLongKey) {
      return *key_ == key;
    }
    return key.size() == key_len_ && std::memcmp(key_inline_, key.data(), key_len_) == 0;
  }

  uint8_t key_len_ = kLongKey;  // kLongKey: longer than kInlineKey
  char key_inline_[kInlineKey] = {};
  const Key* key_ = nullptr;  // the table's own copy of the key
  std::vector<StoredVersion> versions_;  // ascending LWW order
  VersionVector applied_vv_;
};

class VersionedStore {
 public:
  VersionedStore();
  ~VersionedStore();
  VersionedStore(const VersionedStore&) = delete;
  VersionedStore& operator=(const VersionedStore&) = delete;

  // Replaces the default mem engine. Must be called before any data is
  // applied; calling with data present aborts.
  void AttachEngine(std::unique_ptr<StorageEngine> engine);
  StorageEngine* engine() const { return engine_.get(); }

  // Residency-cache budget (disk engine only): total bytes of materialized
  // values kept in memory. The most recently materialized entries are
  // pinned regardless of budget (see file comment).
  void SetCacheBudget(uint64_t bytes) { cache_budget_ = bytes; }
  uint64_t cache_budget() const { return cache_budget_; }

  // Records -------------------------------------------------------------
  // The key's record, or nullptr. Never inserts.
  KeyRecord* Lookup(std::string_view key);
  const KeyRecord* Lookup(std::string_view key) const;
  // The key's record, inserting an empty one (no version, empty slots) if
  // absent.
  KeyRecord& Claim(std::string_view key);
  // Erases `rec` if it holds no version and every slot is empty; returns
  // true if it did (the handle is then dangling).
  bool ReleaseIfEmpty(KeyRecord* rec);
  // Records that hold at least one version, in table order.
  void ForEachRecord(const std::function<void(KeyRecord&)>& fn);
  // Every record, with or without versions (tests: no record leaks).
  size_t RecordCount() const { return table_.size(); }

  // Inserts (value, version) for key. Returns true if newly applied, false
  // if this exact version was already present. `value` may alias a transport
  // receive buffer (the zero-copy put path): the store makes its own copy —
  // the only one on the apply path — before returning. `deps` is borrowed
  // for the call (any contiguous Dependency range: vector or DepList).
  bool Apply(KeyRecord& rec, std::string_view value, const Version& version,
             std::span<const Dependency> deps = {});
  bool Apply(const Key& key, std::string_view value, const Version& version,
             std::span<const Dependency> deps = {}) {
    return Apply(Claim(key), value, version, deps);
  }

  // Re-registers an already-logged version during checkpoint recovery: the
  // engine holds the bytes at `handle`; nothing is written. Returns false
  // if the handle cannot be adopted (log/checkpoint mismatch).
  bool Adopt(const Key& key, const Version& version, std::vector<Dependency> deps,
             const ValueHandle& handle);

  // Marks `version` (and every older version of the key) stable. Returns
  // true if the key/version exists.
  bool MarkStable(KeyRecord& rec, const Version& version);
  bool MarkStable(const Key& key, const Version& version) {
    KeyRecord* rec = Lookup(key);
    return rec != nullptr && MarkStable(*rec, version);
  }

  // Each lookup below comes in two forms: on a record handle, and on a key
  // (one table lookup, then the handle form; an absent key reads as a
  // record without versions).

  // Newest version in LWW order, or nullptr if the key is absent. The
  // returned entry has `value` materialized (engine read on cache miss).
  const StoredVersion* Latest(const KeyRecord& rec) const;
  const StoredVersion* Latest(const Key& key) const { return OnKey(key, &VersionedStore::Latest); }

  // Exact version lookup, or nullptr. Value materialized.
  const StoredVersion* Find(const KeyRecord& rec, const Version& version) const;
  const StoredVersion* Find(const Key& key, const Version& version) const {
    const KeyRecord* rec = Lookup(key);
    return rec == nullptr ? nullptr : Find(*rec, version);
  }

  // Newest stable version, or nullptr. Value materialized.
  const StoredVersion* LatestStable(const KeyRecord& rec) const;
  const StoredVersion* LatestStable(const Key& key) const {
    return OnKey(key, &VersionedStore::LatestStable);
  }

  // Metadata-only variants: same lookups, but `value` may be empty (never
  // materialized, never an engine read). For callers that only need the
  // version / stable bit / deps.
  const StoredVersion* LatestMeta(const KeyRecord& rec) const;
  const StoredVersion* LatestMeta(const Key& key) const {
    return OnKey(key, &VersionedStore::LatestMeta);
  }
  const StoredVersion* FindMeta(const KeyRecord& rec, const Version& version) const;
  const StoredVersion* FindMeta(const Key& key, const Version& version) const {
    const KeyRecord* rec = Lookup(key);
    return rec == nullptr ? nullptr : FindMeta(*rec, version);
  }
  const StoredVersion* LatestStableMeta(const KeyRecord& rec) const;
  const StoredVersion* LatestStableMeta(const Key& key) const {
    return OnKey(key, &VersionedStore::LatestStableMeta);
  }

  // True iff the key has at least one not-yet-stable version.
  bool HasUnstable(const KeyRecord& rec) const;
  bool HasUnstable(const Key& key) const {
    const KeyRecord* rec = Lookup(key);
    return rec != nullptr && HasUnstable(*rec);
  }

  // True iff this node has applied versions of `key` whose merged version
  // vector dominates `min.vv` — i.e. it has the causal past `min` denotes.
  bool HasAtLeast(const KeyRecord& rec, const Version& min) const;
  bool HasAtLeast(const Key& key, const Version& min) const {
    const KeyRecord* rec = Lookup(key);
    return rec != nullptr ? HasAtLeast(*rec, min) : min.IsNull();
  }

  // Merged version vector of all versions of `key` ever applied here, or
  // nullptr if none was.
  const VersionVector* AppliedVv(const KeyRecord& rec) const {
    return rec.has_versions() ? &rec.applied_vv_ : nullptr;
  }
  const VersionVector* AppliedVv(const Key& key) const {
    const KeyRecord* rec = Lookup(key);
    return rec == nullptr ? nullptr : AppliedVv(*rec);
  }

  // Keys holding at least one version.
  size_t KeyCount() const { return live_keys_; }
  size_t VersionCount(const Key& key) const {
    const KeyRecord* rec = Lookup(key);
    return rec == nullptr ? 0 : rec->versions_.size();
  }
  uint64_t total_versions() const { return total_versions_; }

  // Iterates all keys that hold a version. Metadata only: `latest.value`
  // may be empty under a disk engine (used for chain-repair key discovery
  // and recovery scans).
  void ForEachKey(const std::function<void(const Key&, const StoredVersion& latest)>& fn) const;

  // Iterates every retained version of every key with values materialized
  // (mem-engine checkpointing; O(data) under a disk engine).
  void ForEachVersion(const std::function<void(const Key&, const StoredVersion&)>& fn) const;

  // Same iteration, metadata + handles only — no engine reads. This is what
  // an incremental (index-only) checkpoint walks.
  void ForEachVersionRaw(
      const std::function<void(const Key&, const StoredVersion&)>& fn) const;

  // Versions of `key` that are not yet stable (oldest first), values
  // materialized; used by chain heads to re-propagate after a
  // reconfiguration.
  std::vector<StoredVersion> UnstableVersions(const KeyRecord& rec) const;
  std::vector<StoredVersion> UnstableVersions(const Key& key) const {
    const KeyRecord* rec = Lookup(key);
    return rec == nullptr ? std::vector<StoredVersion>{} : UnstableVersions(*rec);
  }

  // Runs one engine compaction round if the garbage threshold is met,
  // repointing index handles at moved records. Returns true if a segment
  // was compacted.
  bool CompactEngine();

  // Deletes fully-dead log segments. Call only after a checkpoint that no
  // longer references them has been durably written.
  void PurgeEngineGarbage() { engine_->PurgeDeadSegments(); }

  // Stable-watermark tracking (dep_watermark; DESIGN.md §14) --------------
  // Tracks the multiset of lamport timestamps of not-yet-stable versions
  // whose origin DC is `origin`, across ALL keys. A node's stable cut is
  // bounded by MinTrackedUnstableLamport() - 1: every replica holding an
  // unstable copy of a locally-minted version caps the cluster watermark,
  // so the minimum over the ring never admits an unstable dependency even
  // if the version's head died. Enable before applying data.
  void TrackStabilityFor(DcId origin) {
    wm_tracking_ = true;
    wm_origin_ = origin;
  }
  bool HasTrackedUnstable() const { return !unstable_lamports_.empty(); }
  // Smallest tracked unstable lamport; only meaningful if HasTrackedUnstable().
  uint64_t MinTrackedUnstableLamport() const {
    return unstable_lamports_.begin()->first;
  }

  // Residency stats. Under the mem engine, resident == everything.
  uint64_t resident_versions() const;
  uint64_t resident_bytes() const { return inline_bytes_; }
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }

 private:
  // The index hashes the string_view a handler decoded, so looking up an
  // existing key materializes no Key.
  static uint64_t HashKey(std::string_view key) { return std::hash<std::string_view>{}(key); }
  // One slot of the lookup index: the key's full hash and its record.
  struct IndexSlot {
    uint64_t hash = 0;
    KeyRecord* rec = nullptr;
  };

  const StoredVersion* OnKey(const Key& key,
                             const StoredVersion* (VersionedStore::*fn)(const KeyRecord&)
                                 const) const {
    const KeyRecord* rec = Lookup(key);
    return rec == nullptr ? nullptr : (this->*fn)(*rec);
  }
  KeyRecord& Insert(std::string_view key);
  void IndexInsert(KeyRecord* rec, uint64_t hash);
  void IndexErase(const KeyRecord* rec);
  void Trim(KeyRecord* rec);
  void DropEntry(StoredVersion* sv);  // cache + engine accounting on erase
  void TrackUnstable(const Version& v);
  void UntrackUnstable(const Version& v);
  StoredVersion* Materialize(KeyRecord& rec, StoredVersion* sv);
  void TouchLru(KeyRecord& rec, StoredVersion* sv);
  void EvictOverBudget();
  static StoredVersion* FindEntry(KeyRecord& rec, const Version& version);

  // table_ owns the records (node-based, so handles stay valid) and fixes
  // iteration order. Lookups go through index_ instead: an open-addressed
  // array of (hash, record) slots, power-of-two sized and at most half
  // full, probed linearly. A lookup reads one slot and compares the key
  // only on a full-hash match, where the node table would walk a bucket
  // chain through the previous node and pay a division for every node.
  std::unordered_map<Key, KeyRecord> table_;
  std::vector<IndexSlot> index_;
  size_t live_keys_ = 0;  // records holding at least one version
  uint64_t total_versions_ = 0;

  // Watermark tracking: lamport -> count of unstable versions carrying it
  // (distinct keys may collide on a lamport).
  bool wm_tracking_ = false;
  DcId wm_origin_ = 0;
  std::map<uint64_t, uint32_t> unstable_lamports_;
  // Every apply inserts a lamport here and every stabilization erases one;
  // recycling the map node keeps watermark tracking off the allocator.
  MapNodeCache<std::map<uint64_t, uint32_t>> unstable_lamports_cache_;

  std::unique_ptr<StorageEngine> engine_;
  uint64_t cache_budget_ = 64u << 20;
  uint64_t ops_since_compact_ = 0;

  // Residency cache (disk engine): MRU-first list of materialized entries,
  // each named by its record and version (a record with versions is never
  // erased, so the handle outlives the entry). Mutable because
  // materialization happens inside const accessors.
  mutable std::list<std::pair<KeyRecord*, Version>> lru_;
  mutable uint64_t inline_bytes_ = 0;  // bytes held in resident `value`s
  mutable uint64_t cache_hits_ = 0;
  mutable uint64_t cache_misses_ = 0;
};

}  // namespace chainreaction

#endif  // SRC_STORAGE_VERSIONED_STORE_H_
