// Append-only value-log engine (see storage_engine.h for the contract).
//
// Layout: `dir/vlog-<seq>.dat`, segments numbered from 1. A segment is a
// bare concatenation of framed records (src/engine/log_record.h) — no
// header; the filename carries the sequence number. The active segment
// takes appends until it exceeds options.segment_bytes, then it is fsynced,
// sealed, and a fresh segment opened.
//
// Liveness is tracked per segment as offset → framed length; Release drops
// an entry, compaction copies the survivors of the garbage-heaviest sealed
// segment into the active one (re-framing verbatim, checksums preserved),
// and PurgeDeadSegments unlinks sealed segments whose live map is empty.
//
// Durability: appends are write()n through to the OS immediately but only
// fsynced at Flush() (checkpoint time) and on seal. The WAL owns durability
// of the recent tail — after a crash, recovery truncates the log back to
// the checkpoint manifest and the WAL tail re-appends everything newer.
#ifndef SRC_ENGINE_DISK_ENGINE_H_
#define SRC_ENGINE_DISK_ENGINE_H_

#include <map>
#include <string>
#include <unordered_map>

#include "src/engine/storage_engine.h"

namespace chainreaction {

class DiskEngine final : public StorageEngine {
 public:
  ~DiskEngine() override;

  StorageEngineKind kind() const override { return StorageEngineKind::kDisk; }
  bool inline_values() const override { return false; }

  ValueHandle Append(const Key& key, const Version& version, std::string_view value) override;
  Status Read(const ValueHandle& handle, Value* out) override;
  void Release(const ValueHandle& handle) override;
  bool AdoptLive(const ValueHandle& handle) override;
  Status Flush() override;
  bool MaybeCompact(const RemapFn& remap) override;
  void PurgeDeadSegments() override;
  void GetManifest(uint64_t* active_segment, uint64_t* active_size) const override;
  Status TruncateTo(uint64_t segment, uint64_t size) override;
  StorageEngineStats Stats() const override;

  static std::string SegmentFileName(uint64_t seq);

 private:
  friend Status OpenDiskEngine(const std::string& dir, const DiskEngineOptions& options,
                               std::unique_ptr<StorageEngine>* out);

  struct Segment {
    int fd = -1;
    uint64_t bytes = 0;       // file size (append offset for the active one)
    uint64_t live_bytes = 0;
    bool sealed = false;
    // offset → framed record length for records the index still references.
    std::unordered_map<uint64_t, uint32_t> live;
  };

  DiskEngine(std::string dir, DiskEngineOptions options);

  Status OpenActive(uint64_t seq);
  Status AppendRaw(const std::string& bytes, ValueHandle* out);
  void SealActiveLocked();

  std::string SegmentPath(uint64_t seq) const;

  const std::string dir_;
  const DiskEngineOptions options_;

  // Ordered so compaction scans oldest-first and the manifest is stable.
  std::map<uint64_t, Segment> segments_;
  uint64_t active_seq_ = 0;
  std::string append_buf_;  // Append's framing buffer, reused across records

  uint64_t appends_ = 0;
  uint64_t reads_ = 0;
  uint64_t compactions_ = 0;
  uint64_t compacted_bytes_ = 0;
  uint64_t purged_segments_ = 0;
};

}  // namespace chainreaction

#endif  // SRC_ENGINE_DISK_ENGINE_H_
