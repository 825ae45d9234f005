// Segmented write-ahead log with group commit — the durability layer under
// each chain node.
//
// The log is a directory of segment files `wal-<seq>.log`, each a fixed
// header (magic, format version, segment sequence number) followed by
// length-prefixed records carrying a per-record Checksum64
// (src/common/hash.h). Format 2 is the Checksum64 format; format-1 segments
// (FNV-1a) are rejected as kCorruption — there is no second reader. Appends
// go to the newest (active) segment; when it exceeds `segment_bytes` the
// log rotates to a fresh segment. Checkpoint-coordinated truncation
// (`DeleteSegmentsBelow`) drops segments fully covered by a durable
// checkpoint, bounding recovery replay work.
//
// Durability cost is governed by the fsync policy:
//   * kAlways — every append is written and fsynced before returning
//     (one syscall pair per record; the slow, maximally durable mode);
//   * kBatch  — appends are framed into a pending buffer and a background
//     flusher writes and fsyncs the whole batch once per window, or as soon
//     as `batch_max_records` accumulate: group commit, one fsync per batch.
//     Acks never wait for the fsync, so a crash loses at most the pending
//     batch plus the one being flushed;
//   * kNone   — appends are written to the OS immediately but never
//     fsynced (survives process crash, not power loss).
//
// Replay walks segments in sequence order, verifies each record's checksum,
// and hands decoded records to a callback. A final record cut short by a
// crash (fewer bytes on disk than its length prefix claims, at the tail of
// the last segment) is truncated away and replay succeeds; a checksum
// mismatch on a fully present record is kCorruption.
//
// I/O errors are sticky: the first failed write, fsync or segment open is
// recorded and returned by every later Append/Flush/Rotate.
//
// Thread safety: Append/Flush/Rotate/AbandonPending may be called from any
// thread, concurrently with the internal flusher. `mu_` guards the pending
// buffer and the segment state, but is released for the write()+fsync() of
// a batch: one flush at a time is in flight (`flushing_`), so batches reach
// the file in append order, and everything that touches `fd_` first waits
// for the in-flight flush. With a flusher thread, Append never writes or
// fsyncs: a full batch wakes the flusher, and Append blocks only when the
// pending buffer exceeds kPendingBatches full batches (an fsync slower than
// the append rate), timed by crx_wal_append_wait_us. Without a flusher
// thread (the simulator, deterministic tests) a full batch is flushed
// inline, exactly at `batch_max_records`. The recovery path (Replay) is
// static and touches no live Wal state.
#ifndef SRC_WAL_WAL_H_
#define SRC_WAL_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/common/types.h"
#include "src/common/version.h"
#include "src/obs/events.h"
#include "src/obs/metrics.h"

namespace chainreaction {

enum class FsyncPolicy {
  kAlways,  // fsync per append
  kBatch,   // group commit: one fsync per batch window
  kNone,    // write-through to the OS, never fsync
};

const char* FsyncPolicyName(FsyncPolicy policy);
// Parses "always" | "batch" | "none" (as used by --fsync-mode flags).
bool ParseFsyncPolicy(const std::string& s, FsyncPolicy* out);

struct WalOptions {
  FsyncPolicy policy = FsyncPolicy::kBatch;
  // Group-commit batch bounds (kBatch only): a batch is flushed when it
  // holds this many records, or when the window elapses, whichever first.
  uint32_t batch_max_records = 64;
  Duration batch_window_us = 2000;  // real time, not simulated
  // Start a background flusher thread for kBatch. Tests that want
  // deterministic batch boundaries disable it and call Flush() directly.
  bool start_flusher_thread = true;
  uint64_t segment_bytes = 8u << 20;
};

enum class WalRecordType : uint8_t {
  kApply = 1,   // a version applied to the store (key, value, version, deps)
  kStable = 2,  // a version marked DC-Write-Stable (key, version)
};

struct WalRecord {
  WalRecordType type = WalRecordType::kApply;
  Key key;
  Value value;                    // kApply only
  Version version;
  std::vector<Dependency> deps;   // kApply only

  static WalRecord Apply(Key key, Value value, const Version& version,
                         std::vector<Dependency> deps);
  static WalRecord Stable(Key key, const Version& version);

  bool DecodePayload(ByteReader* r);
};

struct WalReplayStats {
  uint64_t segments_replayed = 0;
  uint64_t segments_skipped = 0;  // below the checkpoint's sequence floor
  uint64_t records = 0;
  uint64_t bytes = 0;
  bool tail_truncated = false;    // a torn final record was cut away
};

class Wal {
 public:
  // Opens (creating if needed) the log in `dir` and starts a fresh active
  // segment numbered one past the newest on disk. Returns kInternal if the
  // directory or segment cannot be created.
  static Status Open(const std::string& dir, const WalOptions& options,
                     std::unique_ptr<Wal>* out);

  ~Wal();  // clean shutdown: flushes pending records, stops the flusher
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Appends one record. Durability on return depends on the policy (see
  // file comment); the record is always in the in-process batch, so a clean
  // shutdown never loses it — only a crash can. Returns the sticky I/O error
  // once one occurred. Appends after AbandonPending are dropped (the
  // simulated process is dead).
  Status Append(const WalRecord& record);
  // The same for a kApply record, framed straight from views into the
  // pending buffer: the value is copied once and checksummed once.
  Status AppendApply(std::string_view key, std::string_view value, const Version& version,
                     std::span<const Dependency> deps);
  Status AppendStable(std::string_view key, const Version& version);

  // Writes and (policy != kNone) fsyncs everything pending, after waiting
  // for any in-flight flush.
  Status Flush();

  // Closes the active segment (flushing it) and opens the next one.
  // Returns the new active sequence number — the truncation floor a
  // checkpoint taken *after* this call may safely use.
  Result<uint64_t> Rotate();

  // Deletes segments with sequence < `seq` (those fully covered by a
  // durable checkpoint taken after Rotate() returned `seq`).
  void DeleteSegmentsBelow(uint64_t seq);

  // Crash simulation: waits for the in-flight flush, discards records
  // still in the group-commit buffer, as a real process crash would, and
  // closes the file without flushing. Later appends are dropped; the Wal is
  // unusable afterwards except for destruction.
  void AbandonPending();

  // Registers this log's instruments, labeled {node=<node>}.
  void AttachObs(MetricsRegistry* metrics, const std::string& node);

  // Flight-recorder sink for rotation/truncation events (may be null).
  // Internal rotations happen on WAL threads, so timestamps are wall-clock.
  void SetRecorder(FlightRecorder* recorder);

  const std::string& dir() const { return dir_; }
  uint64_t active_seq() const { return active_seq_.load(std::memory_order_relaxed); }
  uint64_t appends() const { return appends_.load(std::memory_order_relaxed); }
  uint64_t fsyncs() const { return fsyncs_.load(std::memory_order_relaxed); }
  uint64_t bytes_written() const { return bytes_written_.load(std::memory_order_relaxed); }

  // Replays every segment in `dir` with sequence >= `min_seq` through `fn`,
  // in append order. Returns kNotFound if the directory does not exist,
  // kCorruption on a bad header or a checksum mismatch; a torn final record
  // in the last segment is truncated off the file and reported via `stats`,
  // not an error. `stats` may be null.
  static Status Replay(const std::string& dir, uint64_t min_seq,
                       const std::function<void(const WalRecord&)>& fn, WalReplayStats* stats);

  // Newest segment sequence present in `dir`, 0 if none.
  static uint64_t NewestSegmentSeq(const std::string& dir);

  static std::string SegmentFileName(uint64_t seq);

 private:
  // Append blocks once this many full batches are pending (flusher only).
  static constexpr size_t kPendingBatches = 8;

  Wal(std::string dir, WalOptions options);

  // Waits out the buffer bound, frames the record into `pending_`, then
  // writes it through, flushes the full batch or hands it to the flusher.
  Status AppendRecord(WalRecordType type, std::string_view key, const Version& version,
                      std::string_view value, std::span<const Dependency> deps);
  // Waits for the in-flight flush, then writes (and, policy != kNone,
  // fsyncs) everything pending with `mu_` released. Returns with `mu_` held
  // and no flush in flight.
  Status FlushLocked(std::unique_lock<std::mutex>& lock);
  Status OpenSegmentLocked(uint64_t seq);
  // Syncs and closes the active segment and opens the next one.
  Status RollSegmentLocked();
  void SetErrorLocked(const Status& s);
  void FlusherLoop();

  const std::string dir_;
  const WalOptions options_;
  const size_t batch_max_;  // batch_max_records, at least 1

  std::mutex mu_;
  std::condition_variable wake_cv_;     // to the flusher: batch full or stop
  std::condition_variable flushed_cv_;  // a flush took or finished its batch
  int fd_ = -1;
  std::atomic<uint64_t> active_seq_{0};
  uint64_t active_bytes_ = 0;
  ByteWriter pending_;   // framed records awaiting group commit
  size_t pending_records_ = 0;
  ByteWriter writing_;   // the in-flight batch; its flusher owns it off-lock
  bool flushing_ = false;
  bool has_flusher_ = false;
  bool stop_ = false;
  bool abandoned_ = false;
  Status error_;         // first I/O error; sticky
  std::thread flusher_;

  // Stats (written by appending and flushing threads; readers are
  // test/bench/status introspection).
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> bytes_written_{0};

  // Observability (null until AttachObs/SetRecorder; set under mu_).
  FlightRecorder* recorder_ = nullptr;
  Counter* m_appends_ = nullptr;
  Counter* m_fsyncs_ = nullptr;
  Counter* m_bytes_ = nullptr;
  LatencyMetric* m_fsync_us_ = nullptr;
  LatencyMetric* m_batch_records_ = nullptr;
  LatencyMetric* m_append_wait_us_ = nullptr;
};

}  // namespace chainreaction

#endif  // SRC_WAL_WAL_H_
