// Segmented write-ahead log: append/replay round trips, group-commit fsync
// accounting, segment rotation and checkpoint-coordinated truncation, the
// corruption taxonomy (torn tail recoverable, everything else fatal), sticky
// I/O errors, and flushing off the appending thread (order, shutdown and
// crash safety with a flush in flight).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/obs/metrics.h"
#include "src/storage/checkpoint.h"
#include "src/storage/versioned_store.h"
#include "src/wal/wal.h"

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

class WalTest : public ::testing::Test {
 protected:
  WalTest() {
    dir_ = ::testing::TempDir() + "crx_wal_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
  }
  ~WalTest() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  // Synchronous options: no background flusher, deterministic fsyncs.
  static WalOptions Opts(FsyncPolicy policy, uint32_t batch = 4) {
    WalOptions o;
    o.policy = policy;
    o.batch_max_records = batch;
    o.start_flusher_thread = false;
    return o;
  }

  std::vector<WalRecord> ReplayAll(uint64_t min_seq = 0, WalReplayStats* stats = nullptr,
                                   Status* status = nullptr) {
    std::vector<WalRecord> records;
    const Status s = Wal::Replay(
        dir_, min_seq, [&records](const WalRecord& r) { records.push_back(r); }, stats);
    if (status != nullptr) {
      *status = s;
    } else {
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    return records;
  }

  std::string SegmentPath(uint64_t seq) const { return dir_ + "/" + Wal::SegmentFileName(seq); }

  // Background-flusher options: batches are written off the appending
  // thread, every `window_us` or when `batch` records are pending.
  static WalOptions FlusherOpts(uint32_t batch, Duration window_us) {
    WalOptions o;
    o.policy = FsyncPolicy::kBatch;
    o.batch_max_records = batch;
    o.batch_window_us = window_us;
    o.start_flusher_thread = true;
    return o;
  }

  // Record i of an ordered stream: its lamport is i + 1.
  static WalRecord Nth(uint64_t i) {
    return WalRecord::Apply("k" + std::to_string(i % 97), std::string(40, 'v'),
                            V(i + 1, 0, {i + 1}), {});
  }

  // Asserts `records` is exactly records 0..n-1 of the Nth() stream.
  static void ExpectPrefix(const std::vector<WalRecord>& records, size_t n) {
    ASSERT_EQ(records.size(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(records[i].version.lamport, i + 1) << "record " << i;
    }
  }

  std::string dir_;
};

TEST_F(WalTest, AppendReplayRoundTrip) {
  {
    std::unique_ptr<Wal> wal;
    ASSERT_TRUE(Wal::Open(dir_, Opts(FsyncPolicy::kAlways), &wal).ok());
    ASSERT_TRUE(wal->Append(WalRecord::Apply("a", "va", V(1, 0, {1, 0}),
                                             {Dependency{"z", V(9, 1, {0, 3}), true}}))
                    .ok());
    ASSERT_TRUE(wal->Append(WalRecord::Stable("a", V(1, 0, {1, 0}))).ok());
    ASSERT_TRUE(wal->Append(WalRecord::Apply("b", "vb", V(5, 1, {0, 1}), {})).ok());
  }

  WalReplayStats stats;
  const std::vector<WalRecord> records = ReplayAll(0, &stats);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_FALSE(stats.tail_truncated);

  EXPECT_EQ(records[0].type, WalRecordType::kApply);
  EXPECT_EQ(records[0].key, "a");
  EXPECT_EQ(records[0].value, "va");
  EXPECT_TRUE(records[0].version == V(1, 0, {1, 0}));
  ASSERT_EQ(records[0].deps.size(), 1u);
  EXPECT_EQ(records[0].deps[0].key, "z");
  EXPECT_TRUE(records[0].deps[0].local_stable);

  EXPECT_EQ(records[1].type, WalRecordType::kStable);
  EXPECT_EQ(records[1].key, "a");
  EXPECT_TRUE(records[1].value.empty());

  EXPECT_EQ(records[2].type, WalRecordType::kApply);
  EXPECT_EQ(records[2].key, "b");
}

TEST_F(WalTest, EmptyLogReplaysToNothing) {
  {
    std::unique_ptr<Wal> wal;
    ASSERT_TRUE(Wal::Open(dir_, Opts(FsyncPolicy::kNone), &wal).ok());
  }
  WalReplayStats stats;
  EXPECT_TRUE(ReplayAll(0, &stats).empty());
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.segments_replayed, 1u);  // the header-only active segment
}

TEST_F(WalTest, MissingDirIsNotFound) {
  Status status;
  ReplayAll(0, nullptr, &status);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(WalTest, GroupCommitFsyncsPerBatchNotPerAppend) {
  std::unique_ptr<Wal> wal;
  ASSERT_TRUE(Wal::Open(dir_, Opts(FsyncPolicy::kBatch, /*batch=*/8), &wal).ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        wal->Append(WalRecord::Apply("k" + std::to_string(i), "v",
                                     V(static_cast<uint64_t>(i + 1), 0,
                                       {static_cast<uint64_t>(i + 1)}),
                                     {}))
            .ok());
  }
  EXPECT_EQ(wal->appends(), 32u);
  EXPECT_EQ(wal->fsyncs(), 4u);  // 32 appends / batch of 8

  // always-mode: one fsync per append.
  std::unique_ptr<Wal> always;
  const std::string dir2 = dir_ + "-always";
  ASSERT_TRUE(Wal::Open(dir2, Opts(FsyncPolicy::kAlways), &always).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(always->Append(WalRecord::Stable("k", V(1, 0, {1}))).ok());
  }
  EXPECT_EQ(always->fsyncs(), 5u);
  always.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir2, ec);

  // none-mode: zero fsyncs ever.
  wal.reset();
  std::unique_ptr<Wal> none;
  ASSERT_TRUE(Wal::Open(dir_, Opts(FsyncPolicy::kNone), &none).ok());
  ASSERT_TRUE(none->Append(WalRecord::Stable("k", V(1, 0, {1}))).ok());
  EXPECT_EQ(none->fsyncs(), 0u);
}

TEST_F(WalTest, AbandonPendingDropsUnflushedBatch) {
  std::unique_ptr<Wal> wal;
  ASSERT_TRUE(Wal::Open(dir_, Opts(FsyncPolicy::kBatch, /*batch=*/100), &wal).ok());
  // First 3 records flushed explicitly; the next 2 stay in the batch buffer.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal->Append(WalRecord::Stable("flushed", V(1, 0, {1}))).ok());
  }
  ASSERT_TRUE(wal->Flush().ok());
  ASSERT_TRUE(wal->Append(WalRecord::Stable("lost", V(2, 0, {2}))).ok());
  ASSERT_TRUE(wal->Append(WalRecord::Stable("lost", V(3, 0, {3}))).ok());
  wal->AbandonPending();  // crash: the un-flushed batch never hits the OS
  wal.reset();

  const std::vector<WalRecord> records = ReplayAll();
  ASSERT_EQ(records.size(), 3u);
  for (const WalRecord& r : records) {
    EXPECT_EQ(r.key, "flushed");
  }
}

TEST_F(WalTest, RotationAndTruncation) {
  std::unique_ptr<Wal> wal;
  ASSERT_TRUE(Wal::Open(dir_, Opts(FsyncPolicy::kAlways), &wal).ok());
  ASSERT_TRUE(wal->Append(WalRecord::Stable("seg1", V(1, 0, {1}))).ok());
  const uint64_t floor1 = wal->Rotate().value();
  EXPECT_EQ(floor1, wal->active_seq());
  ASSERT_TRUE(wal->Append(WalRecord::Stable("seg2", V(2, 0, {2}))).ok());

  // Both segments replay before truncation; only the newer one after.
  EXPECT_EQ(ReplayAll().size(), 2u);
  wal->DeleteSegmentsBelow(floor1);
  const std::vector<WalRecord> records = ReplayAll();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "seg2");
}

TEST_F(WalTest, ReplayFloorSkipsCoveredSegments) {
  std::unique_ptr<Wal> wal;
  ASSERT_TRUE(Wal::Open(dir_, Opts(FsyncPolicy::kAlways), &wal).ok());
  ASSERT_TRUE(wal->Append(WalRecord::Stable("old", V(1, 0, {1}))).ok());
  const uint64_t floor_seq = wal->Rotate().value();
  ASSERT_TRUE(wal->Append(WalRecord::Stable("new", V(2, 0, {2}))).ok());
  wal.reset();

  // A checkpoint taken at the rotation covers everything below floor_seq:
  // replay from the floor sees only the tail.
  WalReplayStats stats;
  const std::vector<WalRecord> records = ReplayAll(floor_seq, &stats);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "new");
  EXPECT_EQ(stats.segments_skipped, 1u);
}

TEST_F(WalTest, SegmentRotatesAtSizeLimit) {
  WalOptions opts = Opts(FsyncPolicy::kNone);
  opts.segment_bytes = 256;  // tiny, to force rotation
  std::unique_ptr<Wal> wal;
  ASSERT_TRUE(Wal::Open(dir_, opts, &wal).ok());
  const uint64_t first = wal->active_seq();
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(wal->Append(WalRecord::Apply("key", std::string(64, 'x'),
                                             V(static_cast<uint64_t>(i + 1), 0,
                                               {static_cast<uint64_t>(i + 1)}),
                                             {}))
                    .ok());
  }
  EXPECT_GT(wal->active_seq(), first);
  wal.reset();
  EXPECT_EQ(ReplayAll().size(), 32u);  // nothing lost across rotations
}

TEST_F(WalTest, TornTailTruncatedNotFatal) {
  {
    std::unique_ptr<Wal> wal;
    ASSERT_TRUE(Wal::Open(dir_, Opts(FsyncPolicy::kAlways), &wal).ok());
    ASSERT_TRUE(wal->Append(WalRecord::Stable("good", V(1, 0, {1}))).ok());
    ASSERT_TRUE(wal->Append(WalRecord::Apply("torn", std::string(100, 'y'), V(2, 0, {2}), {}))
                    .ok());
  }
  // Chop the final record in half: a crash mid-append.
  const std::string path = SegmentPath(Wal::NewestSegmentSeq(dir_));
  const auto size = std::filesystem::file_size(path);
  ASSERT_EQ(truncate(path.c_str(), static_cast<off_t>(size - 60)), 0);

  WalReplayStats stats;
  const std::vector<WalRecord> records = ReplayAll(0, &stats);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "good");
  EXPECT_TRUE(stats.tail_truncated);

  // The torn bytes are gone from disk: a second replay is clean.
  WalReplayStats again;
  ReplayAll(0, &again);
  EXPECT_FALSE(again.tail_truncated);
  EXPECT_EQ(again.records, 1u);
}

TEST_F(WalTest, TruncationMidLogIsCorruption) {
  std::unique_ptr<Wal> wal;
  ASSERT_TRUE(Wal::Open(dir_, Opts(FsyncPolicy::kAlways), &wal).ok());
  ASSERT_TRUE(wal->Append(WalRecord::Stable("one", V(1, 0, {1}))).ok());
  const uint64_t old_seq = wal->active_seq();
  ASSERT_TRUE(wal->Rotate().ok());
  ASSERT_TRUE(wal->Append(WalRecord::Stable("two", V(2, 0, {2}))).ok());
  wal.reset();

  // Truncating an OLDER segment is not a torn tail — bytes vanished from
  // the middle of the log.
  const std::string path = SegmentPath(old_seq);
  const auto size = std::filesystem::file_size(path);
  ASSERT_EQ(truncate(path.c_str(), static_cast<off_t>(size - 3)), 0);

  Status status;
  ReplayAll(0, nullptr, &status);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

TEST_F(WalTest, BitFlipIsCorruption) {
  {
    std::unique_ptr<Wal> wal;
    ASSERT_TRUE(Wal::Open(dir_, Opts(FsyncPolicy::kAlways), &wal).ok());
    ASSERT_TRUE(wal->Append(WalRecord::Apply("k", "payload-payload", V(1, 0, {1}), {})).ok());
    ASSERT_TRUE(wal->Append(WalRecord::Stable("k", V(1, 0, {1}))).ok());
  }
  // Flip a bit inside the first record's payload (not the tail record, so
  // torn-tail handling cannot paper over it).
  const std::string path = SegmentPath(Wal::NewestSegmentSeq(dir_));
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 16 + 12 + 4, SEEK_SET);  // segment header + record frame + a bit in
  const int c = std::fgetc(f);
  std::fseek(f, 16 + 12 + 4, SEEK_SET);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);

  Status status;
  ReplayAll(0, nullptr, &status);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_NE(status.ToString().find("checksum"), std::string::npos);
}

TEST_F(WalTest, CheckpointNewerThanLogReplaysNothing) {
  // A checkpoint can cover WAL segments that were then truncated, leaving a
  // floor above every surviving segment: replay must be an empty no-op, and
  // recovery must rely on the checkpoint alone.
  std::unique_ptr<Wal> wal;
  ASSERT_TRUE(Wal::Open(dir_, Opts(FsyncPolicy::kAlways), &wal).ok());
  VersionedStore store;
  store.Apply("k", "v", V(1, 0, {1}));
  ASSERT_TRUE(wal->Append(WalRecord::Apply("k", "v", V(1, 0, {1}), {})).ok());

  const uint64_t floor_seq = wal->Rotate().value();
  const std::string ckpt = dir_ + "/checkpoint.crx";
  ASSERT_TRUE(SaveCheckpoint(store, ckpt, floor_seq).ok());
  wal->DeleteSegmentsBelow(floor_seq);
  wal.reset();

  VersionedStore restored;
  uint64_t restored_floor = 0;
  ASSERT_TRUE(LoadCheckpoint(ckpt, &restored, &restored_floor).ok());
  EXPECT_EQ(restored_floor, floor_seq);

  WalReplayStats stats;
  const std::vector<WalRecord> records = ReplayAll(restored_floor, &stats);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(restored.Latest("k")->value, "v");
}

TEST_F(WalTest, ReopenAppendsNewSegment) {
  {
    std::unique_ptr<Wal> wal;
    ASSERT_TRUE(Wal::Open(dir_, Opts(FsyncPolicy::kAlways), &wal).ok());
    ASSERT_TRUE(wal->Append(WalRecord::Stable("first-run", V(1, 0, {1}))).ok());
  }
  uint64_t first_newest = Wal::NewestSegmentSeq(dir_);
  {
    std::unique_ptr<Wal> wal;
    ASSERT_TRUE(Wal::Open(dir_, Opts(FsyncPolicy::kAlways), &wal).ok());
    EXPECT_GT(wal->active_seq(), first_newest);
    ASSERT_TRUE(wal->Append(WalRecord::Stable("second-run", V(2, 0, {2}))).ok());
  }
  const std::vector<WalRecord> records = ReplayAll();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].key, "first-run");
  EXPECT_EQ(records[1].key, "second-run");
}

TEST_F(WalTest, AppendApplyFramesLikeAppend) {
  const std::vector<Dependency> deps = {Dependency{"z", V(9, 1, {0, 3}), true},
                                        Dependency{"y", V(4, 0, {4, 0}), false}};
  {
    std::unique_ptr<Wal> wal;
    ASSERT_TRUE(Wal::Open(dir_, Opts(FsyncPolicy::kBatch), &wal).ok());
    ASSERT_TRUE(wal->AppendApply("a", "value-a", V(1, 0, {1, 0}), deps).ok());
    ASSERT_TRUE(wal->AppendStable("a", V(1, 0, {1, 0})).ok());
    ASSERT_TRUE(wal->Append(WalRecord::Apply("a", "value-a", V(1, 0, {1, 0}), deps)).ok());
  }
  const std::vector<WalRecord> records = ReplayAll();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].type, WalRecordType::kStable);
  for (const size_t i : {0u, 2u}) {
    EXPECT_EQ(records[i].type, WalRecordType::kApply);
    EXPECT_EQ(records[i].key, "a");
    EXPECT_EQ(records[i].value, "value-a");
    EXPECT_TRUE(records[i].version == V(1, 0, {1, 0}));
    ASSERT_EQ(records[i].deps.size(), 2u);
    EXPECT_EQ(records[i].deps[1].key, "y");
    EXPECT_FALSE(records[i].deps[1].local_stable);
  }
}

TEST_F(WalTest, IoErrorIsStickyAfterFailedRotation) {
  WalOptions opts = Opts(FsyncPolicy::kNone);
  opts.segment_bytes = 256;  // tiny: an append soon forces a rotation
  std::unique_ptr<Wal> wal;
  ASSERT_TRUE(Wal::Open(dir_, opts, &wal).ok());
  // With the directory gone the open segment stays writable, but the next
  // segment cannot be created (this works even for root, unlike chmod).
  std::filesystem::remove_all(dir_);
  Status failed;
  for (uint64_t i = 0; i < 32 && failed.ok(); ++i) {
    failed = wal->Append(Nth(i));
  }
  ASSERT_FALSE(failed.ok()) << "rotation into a removed directory never failed";
  EXPECT_EQ(failed.code(), StatusCode::kInternal);
  // Every later operation reports the first error.
  EXPECT_EQ(wal->Append(Nth(99)).code(), failed.code());
  EXPECT_EQ(wal->AppendStable("k", V(1, 0, {1})).code(), failed.code());
  EXPECT_EQ(wal->Flush().code(), failed.code());
  EXPECT_EQ(wal->Rotate().status().code(), failed.code());
  EXPECT_EQ(wal->Flush().ToString(), failed.ToString());
}

TEST_F(WalTest, BackgroundFlushErrorReachesNextAppend) {
  WalOptions opts = FlusherOpts(/*batch=*/1, /*window_us=*/50);
  opts.segment_bytes = 256;
  std::unique_ptr<Wal> wal;
  ASSERT_TRUE(Wal::Open(dir_, opts, &wal).ok());
  std::filesystem::remove_all(dir_);
  // The flusher fails the rotation; appends start failing soon after.
  Status failed;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (uint64_t i = 0; failed.ok() && std::chrono::steady_clock::now() < deadline; ++i) {
    failed = wal->Append(Nth(i));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(wal->Flush().code(), failed.code());
}

TEST_F(WalTest, ConcurrentFlushAndRotateKeepAppendOrder) {
  WalOptions opts = FlusherOpts(/*batch=*/8, /*window_us=*/50);
  opts.segment_bytes = 4096;  // the flusher rotates too
  std::unique_ptr<Wal> wal;
  ASSERT_TRUE(Wal::Open(dir_, opts, &wal).ok());
  constexpr uint64_t kRecords = 600;
  std::atomic<bool> done{false};
  std::thread appender([&] {
    for (uint64_t i = 0; i < kRecords; ++i) {
      EXPECT_TRUE(wal->Append(Nth(i)).ok());
    }
    done = true;
  });
  uint64_t rotations = 0;
  while (!done) {
    EXPECT_TRUE(wal->Flush().ok());
    EXPECT_TRUE(wal->Rotate().ok());
    rotations++;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  appender.join();
  wal.reset();
  EXPECT_GT(rotations, 0u);
  ExpectPrefix(ReplayAll(), kRecords);  // every record once, in append order
}

TEST_F(WalTest, DestroyWithFlushInFlightKeepsEverything) {
  for (int round = 0; round < 20; ++round) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    constexpr uint64_t kRecords = 200;
    {
      std::unique_ptr<Wal> wal;
      ASSERT_TRUE(Wal::Open(dir_, FlusherOpts(/*batch=*/4, /*window_us=*/50), &wal).ok());
      for (uint64_t i = 0; i < kRecords; ++i) {
        ASSERT_TRUE(wal->Append(Nth(i)).ok());
      }
    }  // the flusher is usually mid-batch here: clean shutdown waits for it
    ExpectPrefix(ReplayAll(), kRecords);
  }
}

TEST_F(WalTest, AbandonWithFlushInFlightKeepsAPrefix) {
  for (int round = 0; round < 20; ++round) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::unique_ptr<Wal> wal;
    ASSERT_TRUE(Wal::Open(dir_, FlusherOpts(/*batch=*/4, /*window_us=*/50), &wal).ok());
    std::atomic<uint64_t> appended{0};
    std::thread appender([&] {
      // Appends racing the crash are dropped, never an error.
      for (uint64_t i = 0; i < 400; ++i) {
        EXPECT_TRUE(wal->Append(Nth(i)).ok());
        appended = i + 1;
      }
    });
    while (appended < 50) {
      std::this_thread::yield();
    }
    wal->AbandonPending();
    appender.join();
    wal.reset();
    // A crash keeps some prefix of the appends: batches reach the file in
    // order, and nothing after the crash lands.
    const std::vector<WalRecord> records = ReplayAll();
    ASSERT_LE(records.size(), 400u);
    ExpectPrefix(records, records.size());
  }
}

TEST_F(WalTest, AppendBelowBoundNeverWaitsOrWrites) {
  // A window far longer than the test: only a full batch wakes the flusher.
  std::unique_ptr<Wal> wal;
  ASSERT_TRUE(Wal::Open(dir_, FlusherOpts(/*batch=*/16, /*window_us=*/60'000'000), &wal).ok());
  MetricsRegistry metrics;
  wal->AttachObs(&metrics, "0");
  for (uint64_t i = 0; i < 15; ++i) {
    ASSERT_TRUE(wal->Append(Nth(i)).ok());
  }
  // Appends with a flusher never write or fsync themselves.
  EXPECT_EQ(wal->bytes_written(), 0u);
  EXPECT_EQ(wal->fsyncs(), 0u);
  // The batch-filling append hands off to the flusher, which fsyncs it.
  ASSERT_TRUE(wal->Append(Nth(15)).ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (wal->fsyncs() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(wal->fsyncs(), 1u);
  const Histogram waits = metrics.GetLatency("crx_wal_append_wait_us", {{"node", "0"}})->Snapshot();
  EXPECT_EQ(waits.count(), 16u);
  EXPECT_EQ(waits.max(), 0);
  wal.reset();
  ExpectPrefix(ReplayAll(), 16);
}

TEST_F(WalTest, FormatOneSegmentIsCorruption) {
  // A segment written before the Checksum64 format: header format 1, one
  // record framed with the FNV-1a checksum.
  std::filesystem::create_directories(dir_);
  ByteWriter payload;
  payload.PutU8(static_cast<uint8_t>(WalRecordType::kStable));
  payload.PutString("k");
  V(1, 0, {1}).Encode(&payload);
  ByteWriter file;
  file.PutU32(0x4C575843);  // "CXWL"
  file.PutU32(1);
  file.PutU64(1);
  file.PutU32(static_cast<uint32_t>(payload.size()));
  file.PutU64(Fnv1a64(payload.data()));
  FILE* f = std::fopen(SegmentPath(1).c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(file.data().data(), 1, file.size(), f);
  std::fwrite(payload.data().data(), 1, payload.size(), f);
  std::fclose(f);

  Status status;
  ReplayAll(0, nullptr, &status);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_NE(status.ToString().find("format 1"), std::string::npos) << status.ToString();
}

}  // namespace
}  // namespace chainreaction
