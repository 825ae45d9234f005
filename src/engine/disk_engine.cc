#include "src/engine/disk_engine.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "src/common/logging.h"
#include "src/engine/log_record.h"

namespace chainreaction {

DiskEngine::DiskEngine(std::string dir, DiskEngineOptions options)
    : dir_(std::move(dir)), options_(options) {}

DiskEngine::~DiskEngine() {
  for (auto& [seq, seg] : segments_) {
    if (seg.fd >= 0) {
      ::close(seg.fd);
    }
  }
}

std::string DiskEngine::SegmentFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "vlog-%06" PRIu64 ".dat", seq);
  return buf;
}

std::string DiskEngine::SegmentPath(uint64_t seq) const {
  return dir_ + "/" + SegmentFileName(seq);
}

Status DiskEngine::OpenActive(uint64_t seq) {
  const std::string path = SegmentPath(seq);
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot create vlog segment: " + path);
  }
  Segment seg;
  seg.fd = fd;
  segments_[seq] = std::move(seg);
  active_seq_ = seq;
  return Status::Ok();
}

ValueHandle DiskEngine::Append(const Key& key, const Version& version,
                               std::string_view value) {
  append_buf_.clear();
  EncodeVlogRecord(key, version, value, &append_buf_);
  ValueHandle h;
  const Status st = AppendRaw(append_buf_, &h);
  if (!st.ok()) {
    // Out of disk / fd trouble is not survivable for a storage node.
    LOG_ERROR("vlog append failed: %s", st.ToString().c_str());
    std::abort();
  }
  appends_++;
  return h;
}

Status DiskEngine::AppendRaw(const std::string& bytes, ValueHandle* out) {
  Segment& active = segments_[active_seq_];
  const uint64_t offset = active.bytes;
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::pwrite(active.fd, bytes.data() + done, bytes.size() - done,
                               static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0) {
      return Status::Internal("vlog pwrite failed on segment " +
                              std::to_string(active_seq_));
    }
    done += static_cast<size_t>(n);
  }
  active.bytes += bytes.size();
  active.live[offset] = static_cast<uint32_t>(bytes.size());
  active.live_bytes += bytes.size();
  *out = ValueHandle{active_seq_, offset, static_cast<uint32_t>(bytes.size())};
  if (active.bytes >= options_.segment_bytes) {
    SealActiveLocked();
  }
  return Status::Ok();
}

void DiskEngine::SealActiveLocked() {
  Segment& active = segments_[active_seq_];
  ::fsync(active.fd);
  active.sealed = true;
  const Status st = OpenActive(active_seq_ + 1);
  if (!st.ok()) {
    LOG_ERROR("vlog seal/rotate failed: %s", st.ToString().c_str());
    std::abort();
  }
}

Status DiskEngine::Read(const ValueHandle& handle, Value* out) {
  auto it = segments_.find(handle.segment);
  if (it == segments_.end()) {
    return Status::Corruption("vlog read from missing segment " +
                              std::to_string(handle.segment));
  }
  std::string bytes(handle.length, '\0');
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::pread(it->second.fd, bytes.data() + done, bytes.size() - done,
                              static_cast<off_t>(handle.offset + done));
    if (n < 0) {
      return Status::Internal("vlog pread failed on segment " +
                              std::to_string(handle.segment));
    }
    if (n == 0) {
      return Status::Corruption("vlog read past end of segment " +
                                std::to_string(handle.segment));
    }
    done += static_cast<size_t>(n);
  }
  VlogRecord rec;
  if (!DecodeVlogRecord(bytes, &rec)) {
    return Status::Corruption("vlog record checksum mismatch in segment " +
                              std::to_string(handle.segment));
  }
  reads_++;
  *out = std::move(rec.value);
  return Status::Ok();
}

void DiskEngine::Release(const ValueHandle& handle) {
  auto it = segments_.find(handle.segment);
  if (it == segments_.end()) {
    return;
  }
  auto live_it = it->second.live.find(handle.offset);
  if (live_it != it->second.live.end()) {
    it->second.live_bytes -= live_it->second;
    it->second.live.erase(live_it);
  }
}

bool DiskEngine::AdoptLive(const ValueHandle& handle) {
  auto it = segments_.find(handle.segment);
  if (it == segments_.end()) {
    return false;
  }
  Segment& seg = it->second;
  if (handle.offset + handle.length > seg.bytes) {
    return false;
  }
  auto [live_it, inserted] = seg.live.emplace(handle.offset, handle.length);
  if (inserted) {
    seg.live_bytes += handle.length;
  }
  return true;
}

Status DiskEngine::Flush() {
  auto it = segments_.find(active_seq_);
  if (it != segments_.end() && ::fsync(it->second.fd) != 0) {
    return Status::Internal("vlog fsync failed on active segment");
  }
  return Status::Ok();
}

bool DiskEngine::MaybeCompact(const RemapFn& remap) {
  // Pick the oldest sealed segment whose dead fraction crosses the
  // threshold. Fully dead segments are skipped — they cost nothing to keep
  // until PurgeDeadSegments unlinks them after the next checkpoint.
  uint64_t victim_seq = 0;
  for (const auto& [seq, seg] : segments_) {
    if (!seg.sealed || seg.bytes == 0 || seg.live.empty()) {
      continue;
    }
    const double dead = static_cast<double>(seg.bytes - seg.live_bytes) /
                        static_cast<double>(seg.bytes);
    if (dead >= options_.compact_garbage_ratio) {
      victim_seq = seq;
      break;
    }
  }
  if (victim_seq == 0) {
    return false;
  }

  Segment& victim = segments_[victim_seq];
  std::vector<std::pair<uint64_t, uint32_t>> live(victim.live.begin(), victim.live.end());
  uint64_t moved = 0;
  for (const auto& [offset, length] : live) {
    const ValueHandle old_handle{victim_seq, offset, length};
    std::string bytes(length, '\0');
    size_t done = 0;
    bool ok = true;
    while (done < bytes.size()) {
      const ssize_t n = ::pread(victim.fd, bytes.data() + done, bytes.size() - done,
                                static_cast<off_t>(offset + done));
      if (n <= 0) {
        ok = false;
        break;
      }
      done += static_cast<size_t>(n);
    }
    VlogRecord rec;
    if (!ok || !DecodeVlogRecord(bytes, &rec)) {
      LOG_ERROR("vlog compaction hit a corrupt record in segment %" PRIu64
                " at offset %" PRIu64,
                victim_seq, offset);
      std::abort();
    }
    ValueHandle new_handle;
    const Status st = AppendRaw(bytes, &new_handle);
    if (!st.ok()) {
      LOG_ERROR("vlog compaction append failed: %s", st.ToString().c_str());
      std::abort();
    }
    remap(rec.key, rec.version, old_handle, new_handle);
    moved += length;
  }
  // Everything live was carried forward; the victim is now fully dead and
  // will be unlinked after the next checkpoint.
  victim.live.clear();
  victim.live_bytes = 0;
  compactions_++;
  compacted_bytes_ += moved;
  return true;
}

void DiskEngine::PurgeDeadSegments() {
  for (auto it = segments_.begin(); it != segments_.end();) {
    Segment& seg = it->second;
    if (it->first != active_seq_ && seg.sealed && seg.live.empty()) {
      ::close(seg.fd);
      std::remove(SegmentPath(it->first).c_str());
      purged_segments_++;
      it = segments_.erase(it);
    } else {
      ++it;
    }
  }
}

void DiskEngine::GetManifest(uint64_t* active_segment, uint64_t* active_size) const {
  *active_segment = active_seq_;
  auto it = segments_.find(active_seq_);
  *active_size = it == segments_.end() ? 0 : it->second.bytes;
}

Status DiskEngine::TruncateTo(uint64_t segment, uint64_t size) {
  auto it = segments_.find(segment);
  if (it == segments_.end()) {
    return Status::Corruption("vlog manifest names missing segment " +
                              std::to_string(segment));
  }
  if (size > it->second.bytes) {
    return Status::Corruption("vlog manifest size past end of segment " +
                              std::to_string(segment));
  }
  // Segments newer than the manifest hold only post-checkpoint appends the
  // WAL tail will re-create; drop them entirely.
  for (auto newer = std::next(it); newer != segments_.end();) {
    ::close(newer->second.fd);
    std::remove(SegmentPath(newer->first).c_str());
    newer = segments_.erase(newer);
  }
  Segment& seg = it->second;
  if (::ftruncate(seg.fd, static_cast<off_t>(size)) != 0) {
    return Status::Internal("vlog ftruncate failed on segment " +
                            std::to_string(segment));
  }
  seg.bytes = size;
  seg.sealed = false;
  seg.live.clear();
  seg.live_bytes = 0;
  active_seq_ = segment;
  return Status::Ok();
}

StorageEngineStats DiskEngine::Stats() const {
  StorageEngineStats s;
  for (const auto& [seq, seg] : segments_) {
    s.log_bytes += seg.bytes;
    s.live_bytes += seg.live_bytes;
    s.segments++;
  }
  s.appends = appends_;
  s.reads = reads_;
  s.compactions = compactions_;
  s.compacted_bytes = compacted_bytes_;
  s.purged_segments = purged_segments_;
  return s;
}

Status OpenDiskEngine(const std::string& dir, const DiskEngineOptions& options,
                      std::unique_ptr<StorageEngine>* out) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create vlog dir: " + dir);
  }
  auto engine = std::unique_ptr<DiskEngine>(new DiskEngine(dir, options));

  // Reopen existing segments as sealed; recovery (checkpoint manifest →
  // TruncateTo → AdoptLive) decides which bytes in them are live.
  uint64_t newest = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t seq = 0;
    if (std::sscanf(name.c_str(), "vlog-%" SCNu64 ".dat", &seq) != 1 || seq == 0) {
      continue;
    }
    const int fd = ::open(entry.path().c_str(), O_RDWR);
    if (fd < 0) {
      return Status::Internal("cannot open vlog segment: " + name);
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::Internal("cannot stat vlog segment: " + name);
    }
    DiskEngine::Segment seg;
    seg.fd = fd;
    seg.bytes = static_cast<uint64_t>(st.st_size);
    seg.sealed = true;
    engine->segments_[seq] = std::move(seg);
    newest = std::max(newest, seq);
  }
  const Status st = engine->OpenActive(newest + 1);
  if (!st.ok()) {
    return st;
  }
  *out = std::move(engine);
  return Status::Ok();
}

}  // namespace chainreaction
