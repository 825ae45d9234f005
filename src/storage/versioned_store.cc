#include "src/storage/versioned_store.h"

#include <algorithm>
#include <cstdlib>

#include "src/common/logging.h"

namespace chainreaction {

namespace {
// Materialized entries newer than this many materializations are never
// evicted, so a caller-held `const StoredVersion*` stays valid across the
// handful of store calls a single message handler makes.
constexpr size_t kPinnedRecent = 8;
// Apply()s between opportunistic compaction checks.
constexpr uint64_t kCompactCheckInterval = 512;
}  // namespace

VersionedStore::VersionedStore() : engine_(MakeMemEngine()) {}

VersionedStore::~VersionedStore() = default;

void VersionedStore::AttachEngine(std::unique_ptr<StorageEngine> engine) {
  if (!table_.empty()) {
    LOG_ERROR("AttachEngine on a non-empty store");
    std::abort();
  }
  engine_ = std::move(engine);
}

void KeyRecord::SetKey(const Key* key) {
  key_ = key;
  if (key->size() <= kInlineKey) {
    key_len_ = static_cast<uint8_t>(key->size());
    std::memcpy(key_inline_, key->data(), key->size());
  }
}

KeyRecord* VersionedStore::Lookup(std::string_view key) {
  if (index_.empty()) {
    return nullptr;
  }
  const uint64_t hash = HashKey(key);
  const size_t mask = index_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const IndexSlot& slot = index_[i];
    if (slot.rec == nullptr) {
      return nullptr;
    }
    if (slot.hash == hash && slot.rec->KeyEquals(key)) {
      return slot.rec;
    }
  }
}

const KeyRecord* VersionedStore::Lookup(std::string_view key) const {
  return const_cast<VersionedStore*>(this)->Lookup(key);
}

KeyRecord& VersionedStore::Claim(std::string_view key) {
  KeyRecord* rec = Lookup(key);
  return rec != nullptr ? *rec : Insert(key);
}

KeyRecord& VersionedStore::Insert(std::string_view key) {
  auto [it, inserted] = table_.try_emplace(Key(key));
  KeyRecord& rec = it->second;
  rec.SetKey(&it->first);
  IndexInsert(&rec, HashKey(key));
  return rec;
}

void VersionedStore::IndexInsert(KeyRecord* rec, uint64_t hash) {
  if (2 * table_.size() > index_.size()) {
    // Grow to keep the index at most half full: rehash every slot.
    std::vector<IndexSlot> old = std::move(index_);
    index_.assign(std::max<size_t>(64, 2 * old.size()), IndexSlot{});
    for (const IndexSlot& slot : old) {
      if (slot.rec != nullptr) {
        IndexInsert(slot.rec, slot.hash);
      }
    }
  }
  const size_t mask = index_.size() - 1;
  size_t i = hash & mask;
  while (index_[i].rec != nullptr) {
    i = (i + 1) & mask;
  }
  index_[i] = IndexSlot{hash, rec};
}

void VersionedStore::IndexErase(const KeyRecord* rec) {
  const size_t mask = index_.size() - 1;
  size_t hole = HashKey(rec->key()) & mask;
  while (index_[hole].rec != rec) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull later members of the probe run into the
  // hole, so every lookup still stops at the first empty slot.
  for (size_t j = (hole + 1) & mask; index_[j].rec != nullptr; j = (j + 1) & mask) {
    const size_t home = index_[j].hash & mask;
    // Movable iff its home is not in the cyclic range (hole, j].
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = IndexSlot{};
}

bool VersionedStore::ReleaseIfEmpty(KeyRecord* rec) {
  if (rec->has_versions() || !rec->slots.empty()) {
    return false;
  }
  IndexErase(rec);
  const Key key = rec->key();
  table_.erase(key);
  return true;
}

void VersionedStore::ForEachRecord(const std::function<void(KeyRecord&)>& fn) {
  for (auto& [key, rec] : table_) {
    if (rec.has_versions()) {
      fn(rec);
    }
  }
}

bool VersionedStore::Apply(KeyRecord& rec, std::string_view value, const Version& version,
                           std::span<const Dependency> deps) {
  // Insertion point in ascending LWW order.
  auto& versions = rec.versions_;
  auto it = std::lower_bound(
      versions.begin(), versions.end(), version,
      [](const StoredVersion& sv, const Version& v) { return sv.version.LwwLess(v); });
  if (it != versions.end() && it->version == version) {
    return false;  // duplicate (e.g. repair re-propagation)
  }
  if (versions.empty()) {
    live_keys_++;
  }
  StoredVersion sv;
  sv.version = version;
  sv.deps.assign(deps.begin(), deps.end());
  TrackUnstable(version);
  if (!engine_->inline_values()) {
    sv.handle = engine_->Append(rec.key(), version, value);
  }
  const size_t value_bytes = value.size();
  sv.value.assign(value.data(), value.size());  // the single owned copy
  sv.resident = true;
  auto inserted = versions.insert(it, std::move(sv));
  inline_bytes_ += value_bytes;
  if (!engine_->inline_values()) {
    TouchLru(rec, &*inserted);
  }
  rec.applied_vv_.MergeMax(version.vv);
  total_versions_++;
  Trim(&rec);
  if (!engine_->inline_values()) {
    EvictOverBudget();
    if (++ops_since_compact_ >= kCompactCheckInterval) {
      ops_since_compact_ = 0;
      CompactEngine();
    }
  }
  return true;
}

bool VersionedStore::Adopt(const Key& key, const Version& version,
                           std::vector<Dependency> deps, const ValueHandle& handle) {
  KeyRecord& rec = Claim(key);
  auto& versions = rec.versions_;
  auto it = std::lower_bound(
      versions.begin(), versions.end(), version,
      [](const StoredVersion& sv, const Version& v) { return sv.version.LwwLess(v); });
  if (it != versions.end() && it->version == version) {
    return true;  // idempotent
  }
  if (!engine_->AdoptLive(handle)) {
    ReleaseIfEmpty(&rec);
    return false;
  }
  if (versions.empty()) {
    live_keys_++;
  }
  StoredVersion sv;
  sv.version = version;
  sv.deps.assign(deps.begin(), deps.end());  // recovery path; copy is cold
  TrackUnstable(version);
  sv.handle = handle;
  sv.resident = false;
  versions.insert(it, std::move(sv));
  rec.applied_vv_.MergeMax(version.vv);
  total_versions_++;
  return true;
}

bool VersionedStore::MarkStable(KeyRecord& rec, const Version& version) {
  bool found = false;
  for (StoredVersion& sv : rec.versions_) {
    if (sv.version == version || version.CausallyIncludes(sv.version)) {
      // Stability is prefix-closed along the chain: everything the stable
      // version causally includes is stable too.
      if (!sv.stable) {
        sv.stable = true;
        UntrackUnstable(sv.version);
      }
      found = found || sv.version == version;
    }
  }
  if (found) {
    Trim(&rec);
  }
  return found;
}

StoredVersion* VersionedStore::FindEntry(KeyRecord& rec, const Version& version) {
  for (StoredVersion& sv : rec.versions_) {
    if (sv.version == version) {
      return &sv;
    }
  }
  return nullptr;
}

StoredVersion* VersionedStore::Materialize(KeyRecord& rec, StoredVersion* sv) {
  if (engine_->inline_values()) {
    return sv;
  }
  if (sv->resident) {
    cache_hits_++;
    TouchLru(rec, sv);
    return sv;
  }
  cache_misses_++;
  const Status st = engine_->Read(sv->handle, &sv->value);
  if (!st.ok()) {
    // The index says this version exists but its log record is unreadable:
    // the value log is corrupt, which is not survivable.
    LOG_ERROR("value log read failed for key '%s': %s", rec.key().c_str(),
              st.ToString().c_str());
    std::abort();
  }
  sv->resident = true;
  inline_bytes_ += sv->value.size();
  TouchLru(rec, sv);
  EvictOverBudget();
  return sv;
}

void VersionedStore::TouchLru(KeyRecord& rec, StoredVersion* sv) {
  if (sv->cached) {
    lru_.splice(lru_.begin(), lru_, sv->lru_it);
  } else {
    lru_.emplace_front(&rec, sv->version);
    sv->lru_it = lru_.begin();
    sv->cached = true;
  }
}

void VersionedStore::EvictOverBudget() {
  while (inline_bytes_ > cache_budget_ && lru_.size() > kPinnedRecent) {
    const auto& [rec, version] = lru_.back();
    StoredVersion* sv = FindEntry(*rec, version);
    if (sv != nullptr && sv->resident) {
      inline_bytes_ -= sv->value.size();
      sv->value.clear();
      sv->value.shrink_to_fit();
      sv->resident = false;
      sv->cached = false;
    }
    lru_.pop_back();
  }
}

const StoredVersion* VersionedStore::Latest(const KeyRecord& rec) const {
  auto& mut = const_cast<KeyRecord&>(rec);
  if (mut.versions_.empty()) {
    return nullptr;
  }
  return const_cast<VersionedStore*>(this)->Materialize(mut, &mut.versions_.back());
}

const StoredVersion* VersionedStore::Find(const KeyRecord& rec, const Version& version) const {
  auto& mut = const_cast<KeyRecord&>(rec);
  StoredVersion* sv = FindEntry(mut, version);
  return sv == nullptr ? nullptr : const_cast<VersionedStore*>(this)->Materialize(mut, sv);
}

const StoredVersion* VersionedStore::LatestStable(const KeyRecord& rec) const {
  auto& mut = const_cast<KeyRecord&>(rec);
  for (auto rit = mut.versions_.rbegin(); rit != mut.versions_.rend(); ++rit) {
    if (rit->stable) {
      return const_cast<VersionedStore*>(this)->Materialize(mut, &*rit);
    }
  }
  return nullptr;
}

const StoredVersion* VersionedStore::LatestMeta(const KeyRecord& rec) const {
  return rec.versions_.empty() ? nullptr : &rec.versions_.back();
}

const StoredVersion* VersionedStore::FindMeta(const KeyRecord& rec,
                                              const Version& version) const {
  for (const StoredVersion& sv : rec.versions_) {
    if (sv.version == version) {
      return &sv;
    }
  }
  return nullptr;
}

const StoredVersion* VersionedStore::LatestStableMeta(const KeyRecord& rec) const {
  for (auto rit = rec.versions_.rbegin(); rit != rec.versions_.rend(); ++rit) {
    if (rit->stable) {
      return &*rit;
    }
  }
  return nullptr;
}

bool VersionedStore::HasUnstable(const KeyRecord& rec) const {
  for (const StoredVersion& sv : rec.versions_) {
    if (!sv.stable) {
      return true;
    }
  }
  return false;
}

bool VersionedStore::HasAtLeast(const KeyRecord& rec, const Version& min) const {
  if (min.IsNull()) {
    return true;
  }
  return rec.has_versions() && rec.applied_vv_.Dominates(min.vv);
}

void VersionedStore::ForEachKey(
    const std::function<void(const Key&, const StoredVersion&)>& fn) const {
  for (const auto& [key, rec] : table_) {
    if (!rec.versions_.empty()) {
      fn(key, rec.versions_.back());
    }
  }
}

void VersionedStore::ForEachVersion(
    const std::function<void(const Key&, const StoredVersion&)>& fn) const {
  auto* self = const_cast<VersionedStore*>(this);
  for (auto& [key, rec] : self->table_) {
    for (StoredVersion& sv : rec.versions_) {
      fn(key, *self->Materialize(rec, &sv));
    }
  }
}

void VersionedStore::ForEachVersionRaw(
    const std::function<void(const Key&, const StoredVersion&)>& fn) const {
  for (const auto& [key, rec] : table_) {
    for (const StoredVersion& sv : rec.versions_) {
      fn(key, sv);
    }
  }
}

std::vector<StoredVersion> VersionedStore::UnstableVersions(const KeyRecord& rec) const {
  auto& mut = const_cast<KeyRecord&>(rec);
  std::vector<StoredVersion> out;
  for (StoredVersion& sv : mut.versions_) {
    if (!sv.stable) {
      out.push_back(*const_cast<VersionedStore*>(this)->Materialize(mut, &sv));
    }
  }
  return out;
}

bool VersionedStore::CompactEngine() {
  return engine_->MaybeCompact(
      [this](const Key& key, const Version& version, const ValueHandle& old_handle,
             const ValueHandle& new_handle) {
        KeyRecord* rec = Lookup(key);
        StoredVersion* sv = rec == nullptr ? nullptr : FindEntry(*rec, version);
        if (sv != nullptr && sv->handle.segment == old_handle.segment &&
            sv->handle.offset == old_handle.offset) {
          sv->handle = new_handle;
        }
      });
}

uint64_t VersionedStore::resident_versions() const {
  return engine_->inline_values() ? total_versions_ : lru_.size();
}

void VersionedStore::TrackUnstable(const Version& v) {
  if (wm_tracking_ && v.origin == wm_origin_) {
    auto [it, fresh] = unstable_lamports_cache_.Claim(unstable_lamports_, v.lamport);
    if (fresh) {
      it->second = 1;  // recycled nodes keep the old count; reset it
    } else {
      it->second++;
    }
  }
}

void VersionedStore::UntrackUnstable(const Version& v) {
  if (!wm_tracking_ || v.origin != wm_origin_) {
    return;
  }
  auto it = unstable_lamports_.find(v.lamport);
  if (it != unstable_lamports_.end() && --it->second == 0) {
    unstable_lamports_cache_.Erase(unstable_lamports_, it);
  }
}

void VersionedStore::DropEntry(StoredVersion* sv) {
  // An unstable version dropped by GC is causally included by a stable
  // one, so it is stable by prefix closure and stops capping the watermark.
  if (!sv->stable) {
    UntrackUnstable(sv->version);
  }
  if (sv->resident) {
    inline_bytes_ -= sv->value.size();
  }
  if (sv->cached) {
    lru_.erase(sv->lru_it);
    sv->cached = false;
  }
  if (sv->handle.valid()) {
    engine_->Release(sv->handle);
  }
}

void VersionedStore::Trim(KeyRecord* rec) {
  // Drop the versions older than the newest stable one, except those it
  // does not causally include: such a version is concurrent with it (a
  // remote write), and while unstable it stays until it stabilizes, since
  // the head keeps re-propagating it and versions elsewhere may depend on
  // it. A causally included one is stable by prefix closure, even if it
  // was (re-)applied after the newest stable version was marked.
  auto& versions = rec->versions_;
  size_t newest_stable = versions.size();
  for (size_t i = versions.size(); i-- > 0;) {
    if (versions[i].stable) {
      newest_stable = i;
      break;
    }
  }
  if (newest_stable == versions.size() || newest_stable == 0) {
    return;
  }
  const Version& stable = versions[newest_stable].version;
  const auto older_end = versions.begin() + static_cast<long>(newest_stable);
  const auto kept = std::remove_if(versions.begin(), older_end, [&](StoredVersion& sv) {
    if (!sv.stable && !stable.CausallyIncludes(sv.version)) {
      return false;
    }
    DropEntry(&sv);
    return true;
  });
  total_versions_ -= static_cast<size_t>(older_end - kept);
  versions.erase(kept, older_end);
}

}  // namespace chainreaction
