#include "src/wal/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/msg/message.h"

namespace chainreaction {

namespace {

constexpr uint32_t kSegmentMagic = 0x4C575843;  // "CXWL"
constexpr uint32_t kSegmentFormat = 2;          // 2: Checksum64 records
constexpr size_t kSegmentHeaderBytes = 16;      // magic + format + seq
constexpr size_t kRecordHeaderBytes = 12;       // u32 length + u64 checksum

// Monotonic wall clock for fsync timing and the batch window (real I/O cost,
// independent of any simulated clock).
int64_t MonotonicMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Parses "wal-<seq>.log"; returns false for other directory entries.
bool ParseSegmentName(const std::string& name, uint64_t* seq) {
  if (name.rfind("wal-", 0) != 0 || name.size() <= 8 ||
      name.substr(name.size() - 4) != ".log") {
    return false;
  }
  const std::string digits = name.substr(4, name.size() - 8);
  if (digits.empty()) {
    return false;
  }
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *seq = value;
  return true;
}

// Writes all of `bytes`, resuming after short writes and EINTR. Returns 0
// or the errno of the failed write.
int WriteAll(int fd, std::string_view bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0) {
      return errno;
    }
    done += static_cast<size_t>(n);
  }
  return 0;
}

Status WriteError(int err, const std::string& where) {
  return Status::Internal("write failed (errno " + std::to_string(err) + ") to " + where);
}

// Frames one record at the end of `out`: [u32 payload length][u64
// Checksum64(payload)][payload], the payload encoded in place after a
// zeroed header that is patched once its bytes are known.
void FrameRecord(ByteWriter* out, WalRecordType type, std::string_view key,
                 const Version& version, std::string_view value,
                 std::span<const Dependency> deps) {
  const bool apply = type == WalRecordType::kApply;
  const size_t start = out->size();
  out->Reserve(kRecordHeaderBytes + 1 + 4 + key.size() + version.EncodedSize() +
               (apply ? 4 + value.size() + EncodedDepsSize(deps) : 0));
  out->PutU32(0);
  out->PutU64(0);
  out->PutU8(static_cast<uint8_t>(type));
  out->PutStringView(key);
  version.Encode(out);
  if (apply) {
    out->PutStringView(value);
    EncodeDeps(deps, out);
  }
  const std::string_view payload =
      std::string_view(out->data()).substr(start + kRecordHeaderBytes);
  out->PatchU32(start, static_cast<uint32_t>(payload.size()));
  out->PatchU64(start + 4, Checksum64(payload));
}

std::vector<std::pair<uint64_t, std::string>> ListSegments(const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    uint64_t seq = 0;
    if (ParseSegmentName(entry.path().filename().string(), &seq)) {
      segments.emplace_back(seq, entry.path().string());
    }
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kNone:
      return "none";
  }
  return "?";
}

bool ParseFsyncPolicy(const std::string& s, FsyncPolicy* out) {
  if (s == "always") {
    *out = FsyncPolicy::kAlways;
  } else if (s == "batch") {
    *out = FsyncPolicy::kBatch;
  } else if (s == "none") {
    *out = FsyncPolicy::kNone;
  } else {
    return false;
  }
  return true;
}

WalRecord WalRecord::Apply(Key key, Value value, const Version& version,
                           std::vector<Dependency> deps) {
  WalRecord r;
  r.type = WalRecordType::kApply;
  r.key = std::move(key);
  r.value = std::move(value);
  r.version = version;
  r.deps = std::move(deps);
  return r;
}

WalRecord WalRecord::Stable(Key key, const Version& version) {
  WalRecord r;
  r.type = WalRecordType::kStable;
  r.key = std::move(key);
  r.version = version;
  return r;
}

bool WalRecord::DecodePayload(ByteReader* r) {
  uint8_t t = 0;
  if (!r->GetU8(&t) || !r->GetString(&key) || !version.Decode(r)) {
    return false;
  }
  type = static_cast<WalRecordType>(t);
  switch (type) {
    case WalRecordType::kApply:
      return r->GetString(&value) && DecodeDeps(r, &deps);
    case WalRecordType::kStable:
      return true;
  }
  return false;
}

std::string Wal::SegmentFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%08llu.log", static_cast<unsigned long long>(seq));
  return buf;
}

uint64_t Wal::NewestSegmentSeq(const std::string& dir) {
  uint64_t newest = 0;
  for (const auto& [seq, path] : ListSegments(dir)) {
    newest = std::max(newest, seq);
  }
  return newest;
}

Wal::Wal(std::string dir, WalOptions options)
    : dir_(std::move(dir)),
      options_(options),
      batch_max_(std::max<size_t>(1, options.batch_max_records)) {}

Status Wal::Open(const std::string& dir, const WalOptions& options,
                 std::unique_ptr<Wal>* out) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create wal dir " + dir + ": " + ec.message());
  }
  std::unique_ptr<Wal> wal(new Wal(dir, options));
  {
    std::lock_guard<std::mutex> lock(wal->mu_);
    const Status s = wal->OpenSegmentLocked(NewestSegmentSeq(dir) + 1);
    if (!s.ok()) {
      return s;
    }
    wal->has_flusher_ = options.policy == FsyncPolicy::kBatch && options.start_flusher_thread;
  }
  if (wal->has_flusher_) {
    wal->flusher_ = std::thread([w = wal.get()]() { w->FlusherLoop(); });
  }
  *out = std::move(wal);
  return Status::Ok();
}

Wal::~Wal() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  if (flusher_.joinable()) {
    flusher_.join();
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (fd_ >= 0) {  // closed already when abandoned
    FlushLocked(lock);
  }
  if (fd_ >= 0) {  // a failed rotation in that flush leaves none open
    if (options_.policy != FsyncPolicy::kNone) {
      ::fsync(fd_);
    }
    ::close(fd_);
    fd_ = -1;
  }
}

Status Wal::OpenSegmentLocked(uint64_t seq) {
  const std::string path = dir_ + "/" + SegmentFileName(seq);
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) {
    return Status::Internal("cannot open wal segment " + path);
  }
  ByteWriter header;
  header.PutU32(kSegmentMagic);
  header.PutU32(kSegmentFormat);
  header.PutU64(seq);
  const int err = WriteAll(fd_, header.data());
  if (err != 0) {
    ::close(fd_);
    fd_ = -1;
    return WriteError(err, "wal segment header " + path);
  }
  active_seq_.store(seq, std::memory_order_relaxed);
  active_bytes_ = kSegmentHeaderBytes;
  return Status::Ok();
}

Status Wal::RollSegmentLocked() {
  const uint64_t full_bytes = active_bytes_;
  const bool synced = options_.policy == FsyncPolicy::kNone || ::fsync(fd_) == 0;
  ::close(fd_);
  fd_ = -1;
  if (!synced) {
    return Status::Internal("fsync failed closing wal segment in " + dir_);
  }
  const Status opened = OpenSegmentLocked(active_seq() + 1);
  if (opened.ok() && recorder_ != nullptr) {
    recorder_->Emit(EventKind::kWalRotate, MonotonicMicros(),
                    static_cast<int64_t>(active_seq()), static_cast<int64_t>(full_bytes));
  }
  return opened;
}

void Wal::SetErrorLocked(const Status& s) {
  if (error_.ok() && !s.ok()) {
    error_ = s;
  }
}

Status Wal::Append(const WalRecord& record) {
  return AppendRecord(record.type, record.key, record.version, record.value, record.deps);
}

Status Wal::AppendApply(std::string_view key, std::string_view value, const Version& version,
                        std::span<const Dependency> deps) {
  return AppendRecord(WalRecordType::kApply, key, version, value, deps);
}

Status Wal::AppendStable(std::string_view key, const Version& version) {
  return AppendRecord(WalRecordType::kStable, key, version, {}, {});
}

Status Wal::AppendRecord(WalRecordType type, std::string_view key, const Version& version,
                         std::string_view value, std::span<const Dependency> deps) {
  std::unique_lock<std::mutex> lock(mu_);
  // Only a flusher lets pending records outrun the file; without one a full
  // batch is flushed inline and the bound is never reached.
  const size_t bound = kPendingBatches * batch_max_;
  int64_t waited_us = 0;
  if (pending_records_ >= bound && error_.ok() && !abandoned_) {
    const int64_t start = MonotonicMicros();
    wake_cv_.notify_one();
    flushed_cv_.wait(lock, [this, bound] {
      return pending_records_ < bound || !error_.ok() || abandoned_;
    });
    waited_us = MonotonicMicros() - start;
  }
  if (m_append_wait_us_ != nullptr) {
    m_append_wait_us_->Record(waited_us);
  }
  if (!error_.ok() || abandoned_) {
    return error_;
  }

  FrameRecord(&pending_, type, key, version, value, deps);
  pending_records_++;
  appends_.fetch_add(1, std::memory_order_relaxed);
  if (m_appends_ != nullptr) {
    m_appends_->Inc();
  }
  if (options_.policy != FsyncPolicy::kBatch) {
    return FlushLocked(lock);  // kAlways / kNone: write through
  }
  if (pending_records_ >= batch_max_) {
    if (!has_flusher_) {
      return FlushLocked(lock);
    }
    if (pending_records_ == batch_max_) {
      wake_cv_.notify_one();  // hand the full batch to the flusher
    }
  }
  return Status::Ok();
}

Status Wal::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  return FlushLocked(lock);
}

Status Wal::FlushLocked(std::unique_lock<std::mutex>& lock) {
  flushed_cv_.wait(lock, [this] { return !flushing_; });
  if (!error_.ok()) {
    return error_;
  }
  if (pending_records_ == 0 || abandoned_) {
    return Status::Ok();
  }
  // Take the batch and release the lock for the I/O: appends keep filling
  // the other buffer meanwhile, and no one else touches fd_ until
  // flushing_ clears.
  std::swap(pending_, writing_);
  const size_t records = pending_records_;
  pending_records_ = 0;
  flushing_ = true;
  flushed_cv_.notify_all();  // appenders blocked on the bound may go on
  const int fd = fd_;
  const bool sync = options_.policy != FsyncPolicy::kNone;
  lock.unlock();

  const int err = WriteAll(fd, writing_.data());
  Status s = err == 0 ? Status::Ok() : WriteError(err, "wal segment in " + dir_);
  int64_t fsync_us = -1;
  if (s.ok() && sync) {
    const int64_t start = MonotonicMicros();
    if (::fsync(fd) != 0) {
      s = Status::Internal("fsync failed in " + dir_);
    } else {
      fsync_us = MonotonicMicros() - start;
    }
  }

  lock.lock();
  flushing_ = false;
  const size_t bytes = writing_.size();
  writing_.Clear();
  if (s.ok()) {
    active_bytes_ += bytes;
    bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
    if (m_bytes_ != nullptr) {
      m_bytes_->Inc(bytes);
    }
    if (options_.policy == FsyncPolicy::kBatch && m_batch_records_ != nullptr) {
      m_batch_records_->Record(static_cast<int64_t>(records));
    }
    if (fsync_us >= 0) {
      fsyncs_.fetch_add(1, std::memory_order_relaxed);
      if (m_fsyncs_ != nullptr) {
        m_fsyncs_->Inc();
      }
      if (m_fsync_us_ != nullptr) {
        m_fsync_us_->Record(fsync_us);
      }
    }
    if (active_bytes_ >= options_.segment_bytes) {
      s = RollSegmentLocked();
    }
  }
  SetErrorLocked(s);
  flushed_cv_.notify_all();
  return s;
}

Result<uint64_t> Wal::Rotate() {
  std::unique_lock<std::mutex> lock(mu_);
  if (abandoned_) {
    return active_seq();
  }
  Status s = FlushLocked(lock);
  if (s.ok() && !abandoned_) {
    s = RollSegmentLocked();
    SetErrorLocked(s);
  }
  if (!s.ok()) {
    return s;
  }
  return active_seq();
}

void Wal::DeleteSegmentsBelow(uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t deleted = 0;
  for (const auto& [s, path] : ListSegments(dir_)) {
    if (s < seq && s != active_seq()) {
      std::error_code ec;
      if (std::filesystem::remove(path, ec)) {
        deleted++;
      }
    }
  }
  if (recorder_ != nullptr) {
    recorder_->Emit(EventKind::kWalTruncate, MonotonicMicros(), static_cast<int64_t>(seq),
                    static_cast<int64_t>(deleted));
  }
}

void Wal::AbandonPending() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    flushed_cv_.wait(lock, [this] { return !flushing_; });
    pending_.Clear();
    pending_records_ = 0;
    abandoned_ = true;
    stop_ = true;
    if (fd_ >= 0) {
      ::close(fd_);  // no flush, no fsync: whatever reached the OS survives
      fd_ = -1;
    }
  }
  wake_cv_.notify_all();
  flushed_cv_.notify_all();
}

void Wal::SetRecorder(FlightRecorder* recorder) {
  std::lock_guard<std::mutex> lock(mu_);
  recorder_ = recorder;
}

void Wal::AttachObs(MetricsRegistry* metrics, const std::string& node) {
  if (metrics == nullptr) {
    return;
  }
  const MetricLabels labels = {{"node", node}};
  std::lock_guard<std::mutex> lock(mu_);
  m_appends_ = metrics->GetCounter("crx_wal_appends", labels);
  m_fsyncs_ = metrics->GetCounter("crx_wal_fsyncs", labels);
  m_bytes_ = metrics->GetCounter("crx_wal_bytes", labels);
  m_fsync_us_ = metrics->GetLatency("crx_wal_fsync_us", labels);
  m_batch_records_ = metrics->GetLatency("crx_wal_batch_records", labels);
  m_append_wait_us_ = metrics->GetLatency("crx_wal_append_wait_us", labels);
}

void Wal::FlusherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  const auto window = std::chrono::microseconds(options_.batch_window_us);
  while (!stop_) {
    // Flush when a batch fills (Append wakes us) or the window elapses.
    // After an I/O error nothing more can be written: just idle until stop.
    wake_cv_.wait_for(lock, window, [this] {
      return stop_ || (pending_records_ >= batch_max_ && error_.ok());
    });
    if (stop_) {
      break;
    }
    if (pending_records_ > 0 && error_.ok()) {
      FlushLocked(lock);  // a failure is sticky; the next Append reports it
    }
  }
}

Status Wal::Replay(const std::string& dir, uint64_t min_seq,
                   const std::function<void(const WalRecord&)>& fn, WalReplayStats* stats) {
  WalReplayStats local;
  WalReplayStats* st = stats != nullptr ? stats : &local;
  *st = WalReplayStats{};

  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return Status::NotFound("no wal dir at " + dir);
  }
  const auto segments = ListSegments(dir);
  for (size_t seg = 0; seg < segments.size(); ++seg) {
    const auto& [seq, path] = segments[seg];
    if (seq < min_seq) {
      st->segments_skipped++;
      continue;
    }
    const bool last_segment = seg + 1 == segments.size();

    std::string contents;
    {
      FILE* f = std::fopen(path.c_str(), "rb");
      if (f == nullptr) {
        return Status::Internal("cannot open wal segment " + path);
      }
      char buf[64 * 1024];
      size_t n;
      while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        contents.append(buf, n);
      }
      std::fclose(f);
    }

    if (contents.size() < kSegmentHeaderBytes) {
      if (last_segment) {
        // A crash can leave a segment with a partial header; cut it away.
        ::truncate(path.c_str(), 0);
        st->tail_truncated = true;
        break;
      }
      return Status::Corruption("wal segment header truncated: " + path);
    }
    ByteReader header(contents.data(), kSegmentHeaderBytes);
    uint32_t magic = 0, format = 0;
    uint64_t header_seq = 0;
    header.GetU32(&magic);
    header.GetU32(&format);
    header.GetU64(&header_seq);
    if (magic != kSegmentMagic || header_seq != seq) {
      return Status::Corruption("bad wal segment header: " + path);
    }
    if (format != kSegmentFormat) {
      return Status::Corruption("unsupported wal segment format " + std::to_string(format) +
                                ": " + path);
    }

    size_t pos = kSegmentHeaderBytes;
    while (pos < contents.size()) {
      const size_t remaining = contents.size() - pos;
      uint32_t length = 0;
      uint64_t checksum = 0;
      if (remaining >= kRecordHeaderBytes) {
        ByteReader rh(contents.data() + pos, kRecordHeaderBytes);
        rh.GetU32(&length);
        rh.GetU64(&checksum);
      }
      if (remaining < kRecordHeaderBytes ||
          remaining - kRecordHeaderBytes < static_cast<size_t>(length)) {
        // Record cut short on disk. At the very end of the log this is a
        // torn write from a crash mid-append: truncate it away and recover.
        // Anywhere else the log lost bytes in the middle — corruption.
        if (last_segment) {
          ::truncate(path.c_str(), static_cast<off_t>(pos));
          st->tail_truncated = true;
          break;
        }
        return Status::Corruption("wal record truncated mid-log: " + path);
      }
      const std::string_view payload(contents.data() + pos + kRecordHeaderBytes, length);
      if (Checksum64(payload) != checksum) {
        return Status::Corruption("wal record checksum mismatch at offset " +
                                  std::to_string(pos) + " in " + path);
      }
      WalRecord record;
      ByteReader pr(payload.data(), payload.size());
      if (!record.DecodePayload(&pr) || !pr.AtEnd()) {
        return Status::Corruption("wal record undecodable at offset " + std::to_string(pos) +
                                  " in " + path);
      }
      fn(record);
      st->records++;
      st->bytes += kRecordHeaderBytes + length;
      pos += kRecordHeaderBytes + length;
    }
    st->segments_replayed++;
  }
  return Status::Ok();
}

}  // namespace chainreaction
