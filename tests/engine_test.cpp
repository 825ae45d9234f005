// Storage-engine tests: value-log record framing in the msg_test fuzz-lite
// idiom (round trip, truncation always fails, mutation never crashes,
// garbage rejected), disk-engine mechanics (append/read/release, sealing,
// compaction with remap, purge, manifest truncation), and the VersionedStore
// integration (residency cache eviction, metadata accessors, adoption).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/engine/disk_engine.h"
#include "src/engine/log_record.h"
#include "src/engine/storage_engine.h"
#include "src/storage/checkpoint.h"
#include "src/storage/versioned_store.h"

namespace chainreaction {
namespace {

Version V(uint64_t lamport, DcId origin, std::initializer_list<uint64_t> vv) {
  Version v;
  v.lamport = lamport;
  v.origin = origin;
  v.vv = VersionVector(vv.size());
  size_t i = 0;
  for (uint64_t c : vv) {
    v.vv.Set(static_cast<DcId>(i++), c);
  }
  return v;
}

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    path_ = ::testing::TempDir() + "crx_engine_" + tag + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::unique_ptr<StorageEngine> OpenDisk(const std::string& dir,
                                        uint64_t segment_bytes = 1u << 20,
                                        double garbage_ratio = 0.5) {
  DiskEngineOptions opts;
  opts.segment_bytes = segment_bytes;
  opts.compact_garbage_ratio = garbage_ratio;
  std::unique_ptr<StorageEngine> engine;
  const Status st = OpenDiskEngine(dir, opts, &engine);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return engine;
}

// --- record framing (fuzz-lite) -----------------------------------------

TEST(VlogRecord, RoundTripIsByteStable) {
  std::string a, b;
  const Version v = V(7, 1, {3, 9});
  EncodeVlogRecord("user42", v, "payload-bytes", &a);
  EncodeVlogRecord("user42", v, "payload-bytes", &b);
  EXPECT_EQ(a, b);  // deterministic encoding

  VlogRecord rec;
  ASSERT_TRUE(DecodeVlogRecord(a, &rec));
  EXPECT_EQ(rec.key, "user42");
  EXPECT_TRUE(rec.version == v);
  EXPECT_EQ(rec.value, "payload-bytes");
}

TEST(VlogRecord, EmptyValueRoundTrips) {
  std::string bytes;
  const uint32_t len = EncodeVlogRecord("k", V(1, 0, {1}), "", &bytes);
  EXPECT_EQ(len, bytes.size());
  EXPECT_GT(len, 0u);  // frame + crc + payload: never zero-length
  VlogRecord rec;
  ASSERT_TRUE(DecodeVlogRecord(bytes, &rec));
  EXPECT_TRUE(rec.value.empty());
}

TEST(VlogRecord, EveryTruncationFails) {
  std::string bytes;
  EncodeVlogRecord("key", V(5, 0, {5}), std::string(64, 'x'), &bytes);
  VlogRecord rec;
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeVlogRecord(bytes.substr(0, cut), &rec)) << "cut=" << cut;
  }
}

TEST(VlogRecord, SingleByteMutationsAreDetected) {
  std::string bytes;
  EncodeVlogRecord("key", V(5, 0, {5}), "value-value-value", &bytes);
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (const uint8_t flip : {0x01, 0x80}) {
      std::string mutated = bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ flip);
      VlogRecord rec;
      // Must never crash; a flip anywhere (length, crc, payload) must be
      // rejected because the crc covers the payload and the frame length
      // must match the buffer exactly.
      EXPECT_FALSE(DecodeVlogRecord(mutated, &rec)) << "i=" << i;
    }
  }
}

TEST(VlogRecord, GarbageNeverCrashes) {
  Rng rng(0xE17);
  VlogRecord rec;
  for (int round = 0; round < 2000; ++round) {
    const size_t len = rng.NextBelow(128);
    std::string garbage(len, '\0');
    for (size_t i = 0; i < len; ++i) {
      garbage[i] = static_cast<char>(rng.NextBelow(256));
    }
    DecodeVlogRecord(garbage, &rec);  // outcome irrelevant; must not crash
  }
  EXPECT_FALSE(DecodeVlogRecord("definitely not a record", &rec));
}

TEST(VlogRecord, OldTagRecordIsCorruption) {
  // A tag-1 record as written before the Checksum64 format (FNV-1a crc).
  ByteWriter payload;
  payload.PutU8(1);
  payload.PutString("key");
  V(5, 0, {5}).Encode(&payload);
  payload.PutString("old-value");
  ByteWriter record;
  record.PutU32(static_cast<uint32_t>(8 + payload.size()));
  record.PutU64(Fnv1a64(payload.data()));
  const std::string bytes = record.data() + payload.data();
  VlogRecord rec;
  EXPECT_FALSE(DecodeVlogRecord(bytes, &rec));

  // Read back through the engine: kCorruption, not a value.
  ScratchDir dir("oldtag");
  FILE* f = std::fopen((dir.path() + "/" + DiskEngine::SegmentFileName(1)).c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  auto engine = OpenDisk(dir.path());
  ASSERT_NE(engine, nullptr);
  const ValueHandle handle{1, 0, static_cast<uint32_t>(bytes.size())};
  ASSERT_TRUE(engine->AdoptLive(handle));
  Value value;
  EXPECT_EQ(engine->Read(handle, &value).code(), StatusCode::kCorruption);
}

// --- disk engine --------------------------------------------------------

TEST(DiskEngine, AppendReadRoundTrip) {
  ScratchDir dir("rt");
  auto engine = OpenDisk(dir.path());
  const ValueHandle h = engine->Append("k", V(1, 0, {1}), "hello-disk");
  ASSERT_TRUE(h.valid());
  Value out;
  ASSERT_TRUE(engine->Read(h, &out).ok());
  EXPECT_EQ(out, "hello-disk");
  const StorageEngineStats s = engine->Stats();
  EXPECT_EQ(s.appends, 1u);
  EXPECT_EQ(s.live_bytes, h.length);
  EXPECT_GE(s.log_bytes, static_cast<uint64_t>(h.length));
}

TEST(DiskEngine, SealsAndRotatesSegments) {
  ScratchDir dir("seal");
  auto engine = OpenDisk(dir.path(), /*segment_bytes=*/4096);
  std::vector<ValueHandle> handles;
  for (int i = 0; i < 64; ++i) {
    handles.push_back(engine->Append("k" + std::to_string(i), V(i + 1, 0, {0}),
                                     std::string(256, 'v')));
  }
  EXPECT_GT(engine->Stats().segments, 1u);
  // Every handle still readable across seals.
  for (int i = 0; i < 64; ++i) {
    Value out;
    ASSERT_TRUE(engine->Read(handles[i], &out).ok()) << i;
    EXPECT_EQ(out, std::string(256, 'v'));
  }
}

TEST(DiskEngine, CompactionMovesOnlyLiveRecordsAndRemaps) {
  ScratchDir dir("compact");
  auto engine = OpenDisk(dir.path(), /*segment_bytes=*/4096, /*garbage_ratio=*/0.5);
  std::vector<std::pair<Version, ValueHandle>> live;
  for (int i = 0; i < 64; ++i) {
    const Version v = V(i + 1, 0, {0});
    const ValueHandle h = engine->Append("k" + std::to_string(i), v, std::string(200, 'a' + i % 26));
    if (i % 4 == 0) {
      live.emplace_back(v, h);
    } else {
      engine->Release(h);  // 75% garbage in sealed segments
    }
  }
  uint64_t remapped = 0;
  std::vector<std::pair<Version, ValueHandle>> updated = live;
  while (engine->MaybeCompact([&](const Key&, const Version&, const ValueHandle& oldh,
                                  const ValueHandle& newh) {
    remapped++;
    for (auto& [v, h] : updated) {
      if (h.segment == oldh.segment && h.offset == oldh.offset) {
        h = newh;
      }
    }
  })) {
  }
  EXPECT_GT(remapped, 0u);
  EXPECT_GT(engine->Stats().compactions, 0u);
  // All live values still readable through their remapped handles.
  for (size_t i = 0; i < updated.size(); ++i) {
    Value out;
    ASSERT_TRUE(engine->Read(updated[i].second, &out).ok()) << i;
    EXPECT_EQ(out.size(), 200u);
  }
  // Purge drops the fully-dead victims and shrinks the log.
  const uint64_t before = engine->Stats().log_bytes;
  engine->PurgeDeadSegments();
  const StorageEngineStats after = engine->Stats();
  EXPECT_GT(after.purged_segments, 0u);
  EXPECT_LT(after.log_bytes, before);
  for (size_t i = 0; i < updated.size(); ++i) {
    Value out;
    ASSERT_TRUE(engine->Read(updated[i].second, &out).ok()) << i;
  }
}

TEST(DiskEngine, ReopenAdoptTruncateRoundTrip) {
  ScratchDir dir("reopen");
  ValueHandle h1, h2;
  uint64_t manifest_seg = 0, manifest_size = 0;
  {
    auto engine = OpenDisk(dir.path());
    h1 = engine->Append("a", V(1, 0, {1}), "first");
    h2 = engine->Append("b", V(2, 0, {2}), "second");
    ASSERT_TRUE(engine->Flush().ok());
    engine->GetManifest(&manifest_seg, &manifest_size);
    // A post-"checkpoint" append that a recovery should discard.
    engine->Append("c", V(3, 0, {3}), "post-manifest");
  }
  auto engine = OpenDisk(dir.path());
  ASSERT_TRUE(engine->TruncateTo(manifest_seg, manifest_size).ok());
  EXPECT_TRUE(engine->AdoptLive(h1));
  EXPECT_TRUE(engine->AdoptLive(h2));
  // The discarded tail is beyond the truncated size now.
  ValueHandle past;
  past.segment = manifest_seg;
  past.offset = manifest_size;
  past.length = 16;
  EXPECT_FALSE(engine->AdoptLive(past));
  Value out;
  ASSERT_TRUE(engine->Read(h1, &out).ok());
  EXPECT_EQ(out, "first");
  ASSERT_TRUE(engine->Read(h2, &out).ok());
  EXPECT_EQ(out, "second");
}

TEST(DiskEngine, AdoptRejectsMissingSegment) {
  ScratchDir dir("badadopt");
  auto engine = OpenDisk(dir.path());
  ValueHandle bogus;
  bogus.segment = 999;
  bogus.offset = 0;
  bogus.length = 8;
  EXPECT_FALSE(engine->AdoptLive(bogus));
}

// --- store integration --------------------------------------------------

TEST(StoreWithDiskEngine, ServesDatasetBeyondCacheBudget) {
  ScratchDir dir("beyond");
  VersionedStore store;
  store.AttachEngine(OpenDisk(dir.path()));
  store.SetCacheBudget(8 * 1024);  // ~8 values of 1 KiB

  const std::string value(1024, 'v');
  for (int i = 0; i < 200; ++i) {
    const Key key = "key-" + std::to_string(i);
    store.Apply(key, value + std::to_string(i), V(i + 1, 0, {static_cast<uint64_t>(i + 1)}));
  }
  // Dataset is ~200 KiB against an 8 KiB budget: most values are evicted.
  EXPECT_LT(store.resident_bytes(), 32u * 1024);
  EXPECT_LT(store.resident_versions(), 32u);
  EXPECT_EQ(store.total_versions(), 200u);

  // Every value still correct (faulted in from the log on demand).
  for (int i = 0; i < 200; ++i) {
    const Key key = "key-" + std::to_string(i);
    const StoredVersion* sv = store.Latest(key);
    ASSERT_NE(sv, nullptr) << key;
    EXPECT_EQ(sv->value, value + std::to_string(i)) << key;
  }
  EXPECT_GT(store.cache_misses(), 0u);

  // Re-reading a small hot set is all cache hits (after one warm-up round
  // faults the four keys back in).
  for (int i = 0; i < 4; ++i) {
    store.Latest("key-" + std::to_string(i));
  }
  const uint64_t misses_before = store.cache_misses();
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 4; ++i) {
      store.Latest("key-" + std::to_string(i));
    }
  }
  EXPECT_EQ(store.cache_misses(), misses_before);
  EXPECT_GT(store.cache_hits(), 0u);
}

TEST(StoreWithDiskEngine, MetaAccessorsDoNotMaterialize) {
  ScratchDir dir("meta");
  VersionedStore store;
  store.AttachEngine(OpenDisk(dir.path()));
  store.SetCacheBudget(0);  // evict everything evictable

  for (int i = 0; i < 64; ++i) {
    const Key key = "key-" + std::to_string(i);
    const Version v = V(i + 1, 0, {static_cast<uint64_t>(i + 1)});
    store.Apply(key, std::string(512, 'x'), v);
    store.MarkStable(key, v);
  }
  const uint64_t misses_before = store.cache_misses();
  const uint64_t reads_before = store.engine()->Stats().reads;
  for (int i = 0; i < 64; ++i) {
    const Key key = "key-" + std::to_string(i);
    const Version v = V(i + 1, 0, {static_cast<uint64_t>(i + 1)});
    ASSERT_NE(store.LatestMeta(key), nullptr);
    EXPECT_TRUE(store.LatestMeta(key)->version == v);
    ASSERT_NE(store.FindMeta(key, v), nullptr);
    ASSERT_NE(store.LatestStableMeta(key), nullptr);
    EXPECT_FALSE(store.HasUnstable(key));
  }
  EXPECT_EQ(store.cache_misses(), misses_before);
  EXPECT_EQ(store.engine()->Stats().reads, reads_before);
}

TEST(StoreWithDiskEngine, GcReleasesLogSpaceAndCompactionReclaimsIt) {
  ScratchDir dir("gc");
  VersionedStore store;
  DiskEngineOptions opts;
  opts.segment_bytes = 16 * 1024;
  opts.compact_garbage_ratio = 0.5;
  std::unique_ptr<StorageEngine> engine;
  ASSERT_TRUE(OpenDiskEngine(dir.path(), opts, &engine).ok());
  store.AttachEngine(std::move(engine));
  store.SetCacheBudget(4 * 1024);

  // Many versions of few keys; stabilization trims all but the newest.
  for (int round = 0; round < 40; ++round) {
    for (int k = 0; k < 4; ++k) {
      const Key key = "hot-" + std::to_string(k);
      const uint64_t lam = static_cast<uint64_t>(round * 4 + k + 1);
      const Version v = V(lam, 0, {lam});
      store.Apply(key, std::string(1024, 'd'), v);
      store.MarkStable(key, v);
    }
  }
  EXPECT_EQ(store.total_versions(), 4u);
  const StorageEngineStats before = store.engine()->Stats();
  EXPECT_LT(before.live_bytes, before.log_bytes);  // GC'd versions are dead

  while (store.CompactEngine()) {
  }
  store.PurgeEngineGarbage();
  const StorageEngineStats after = store.engine()->Stats();
  EXPECT_GT(after.compactions, 0u);
  EXPECT_LT(after.log_bytes, before.log_bytes);
  // Live values survive compaction + purge.
  for (int k = 0; k < 4; ++k) {
    const StoredVersion* sv = store.Latest("hot-" + std::to_string(k));
    ASSERT_NE(sv, nullptr);
    EXPECT_EQ(sv->value, std::string(1024, 'd'));
  }
}

TEST(StoreWithDiskEngine, CheckpointAdoptRecoversWithoutRewritingValues) {
  ScratchDir dir("adopt");
  const std::string ckpt = dir.path() + "/checkpoint.crx";
  const std::string vlog = dir.path() + "/vlog";
  {
    VersionedStore store;
    store.AttachEngine(OpenDisk(vlog));
    for (int i = 0; i < 50; ++i) {
      const Key key = "key-" + std::to_string(i);
      const Version v = V(i + 1, 0, {static_cast<uint64_t>(i + 1)});
      store.Apply(key, "value-" + std::to_string(i), v);
      if (i % 2 == 0) {
        store.MarkStable(key, v);
      }
    }
    ASSERT_TRUE(SaveCheckpoint(store, ckpt, /*wal_seq=*/5).ok());
  }
  VersionedStore restored;
  restored.AttachEngine(OpenDisk(vlog));
  uint64_t wal_seq = 0;
  const uint64_t appends_before = restored.engine()->Stats().appends;
  ASSERT_TRUE(LoadCheckpoint(ckpt, &restored, &wal_seq).ok());
  EXPECT_EQ(wal_seq, 5u);
  EXPECT_EQ(restored.engine()->Stats().appends, appends_before);  // no rewrites
  EXPECT_EQ(restored.total_versions(), 50u);
  for (int i = 0; i < 50; ++i) {
    const Key key = "key-" + std::to_string(i);
    const StoredVersion* sv = restored.Latest(key);
    ASSERT_NE(sv, nullptr) << key;
    EXPECT_EQ(sv->value, "value-" + std::to_string(i));
    EXPECT_EQ(sv->stable, i % 2 == 0);
  }
}

TEST(StoreWithMemEngine, BehaviorUnchanged) {
  // The default engine is mem: no handles, everything resident.
  VersionedStore store;
  EXPECT_EQ(store.engine()->kind(), StorageEngineKind::kMem);
  store.Apply("k", "v1", V(1, 0, {1}));
  store.Apply("k", "v2", V(2, 0, {2}));
  EXPECT_EQ(store.Latest("k")->value, "v2");
  EXPECT_FALSE(store.Latest("k")->handle.valid());
  EXPECT_EQ(store.resident_versions(), 2u);
  EXPECT_EQ(store.resident_bytes(), 4u);
  store.MarkStable("k", V(2, 0, {2}));
  EXPECT_EQ(store.resident_bytes(), 2u);  // v1 trimmed
}

TEST(EngineKind, ParseAndName) {
  StorageEngineKind kind;
  EXPECT_TRUE(ParseStorageEngineKind("mem", &kind));
  EXPECT_EQ(kind, StorageEngineKind::kMem);
  EXPECT_TRUE(ParseStorageEngineKind("disk", &kind));
  EXPECT_EQ(kind, StorageEngineKind::kDisk);
  EXPECT_FALSE(ParseStorageEngineKind("flash", &kind));
  EXPECT_STREQ(StorageEngineKindName(StorageEngineKind::kDisk), "disk");
}

}  // namespace
}  // namespace chainreaction
