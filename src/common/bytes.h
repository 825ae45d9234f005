// Byte-oriented serialization primitives.
//
// Every wire message in the system (simulated network and real TCP transport
// alike) is encoded through ByteWriter and decoded through ByteReader, so the
// exact same code path is exercised in deterministic simulation and on real
// sockets. Wire messages use the varint forms (LEB128 integers, zig-zag
// signed integers, varint-length-prefixed strings; src/msg/message.h).
// Storage records (WAL, checkpoint, value log) also use the fixed-width
// forms: little-endian integers and u32-length-prefixed strings.
#ifndef SRC_COMMON_BYTES_H_
#define SRC_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/result.h"

namespace chainreaction {

// Exact wire size of PutVarU64(v); used by EncodedSize() precomputes so a
// message can be encoded into a single exact-sized allocation.
inline size_t VarU64Size(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

// Zig-zag mapping for signed varints: small-magnitude values of either sign
// encode in few bytes (-1 -> 1, 1 -> 2, ...).
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

inline size_t VarI64Size(int64_t v) { return VarU64Size(ZigZagEncode(v)); }

// Exact wire size of a varint-length-prefixed string.
inline size_t VarStringSize(std::string_view s) { return VarU64Size(s.size()) + s.size(); }

class ByteWriter {
 public:
  ByteWriter() = default;

  // Adopts `buf` and appends after its current contents (encoders that
  // frame in place into a caller's buffer move it in and Take() it back).
  explicit ByteWriter(std::string buf) : buf_(std::move(buf)) {}

  // Pre-sizes the buffer (hot encode paths reserve the exact message size
  // up front so appending never reallocates).
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }

  // Drops the contents but keeps the capacity, so one writer can be reused
  // across messages without churning the allocator.
  void Clear() { buf_.clear(); }

  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void PutU16(uint16_t v) { PutFixed(&v, sizeof(v)); }
  void PutU32(uint32_t v) { PutFixed(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutFixed(&v, sizeof(v)); }

  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
  }

  void PutStringView(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }

  // Varint (LEB128) used where values are usually small (version vectors).
  void PutVarU64(uint64_t v) {
    while (v >= 0x80) {
      PutU8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    PutU8(static_cast<uint8_t>(v));
  }

  // Zig-zag signed varint (trace hop timestamps).
  void PutVarI64(int64_t v) { PutVarU64(ZigZagEncode(v)); }

  // Varint-length-prefixed string (short keys pay 1 prefix byte instead
  // of 4).
  void PutStringVar(const std::string& s) {
    PutVarU64(s.size());
    buf_.append(s);
  }

  void PutStringViewVar(std::string_view s) {
    PutVarU64(s.size());
    buf_.append(s.data(), s.size());
  }

  // Overwrite fixed-width fields written earlier at byte offset `pos`
  // (length/checksum headers that precede the payload they describe).
  void PatchU32(size_t pos, uint32_t v) { PatchFixed(pos, &v, sizeof(v)); }
  void PatchU64(size_t pos, uint64_t v) { PatchFixed(pos, &v, sizeof(v)); }

  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void PutFixed(const void* p, size_t n) {
    const char* c = static_cast<const char*>(p);
    buf_.append(c, n);  // Little-endian hosts only (x86-64 / aarch64).
  }

  void PatchFixed(size_t pos, const void* p, size_t n) {
    buf_.replace(pos, n, static_cast<const char*>(p), n);
  }

  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::string& data) : data_(data.data()), size_(data.size()) {}
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  bool GetU8(uint8_t* v) { return GetFixed(v, sizeof(*v)); }
  bool GetU16(uint16_t* v) { return GetFixed(v, sizeof(*v)); }
  bool GetU32(uint32_t* v) { return GetFixed(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return GetFixed(v, sizeof(*v)); }

  bool GetBool(bool* v) {
    uint8_t b = 0;
    if (!GetU8(&b)) {
      return false;
    }
    *v = (b != 0);
    return true;
  }

  bool GetString(std::string* s) {
    uint32_t n = 0;
    if (!GetU32(&n) || n > remaining()) {
      return false;
    }
    s->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

  bool GetVarI64(int64_t* v) {
    uint64_t raw = 0;
    if (!GetVarU64(&raw)) {
      return false;
    }
    *v = ZigZagDecode(raw);
    return true;
  }

  bool GetStringVar(std::string* s) {
    uint64_t n = 0;
    if (!GetVarU64(&n) || n > remaining()) {
      return false;
    }
    s->assign(data_ + pos_, n);
    pos_ += static_cast<size_t>(n);
    return true;
  }

  // Zero-copy variant: the view aliases the reader's underlying buffer and
  // is only valid while that buffer is alive and unmodified. Callers copy
  // on apply (e.g. when a value is actually installed in a store).
  bool GetStringViewVar(std::string_view* s) {
    uint64_t n = 0;
    if (!GetVarU64(&n) || n > remaining()) {
      return false;
    }
    *s = std::string_view(data_ + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return true;
  }

  bool GetVarU64(uint64_t* v) {
    uint64_t result = 0;
    int shift = 0;
    while (shift < 64) {
      uint8_t b = 0;
      if (!GetU8(&b)) {
        return false;
      }
      result |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        *v = result;
        return true;
      }
      shift += 7;
    }
    return false;
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  bool GetFixed(void* p, size_t n) {
    if (remaining() < n) {
      return false;
    }
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace chainreaction

#endif  // SRC_COMMON_BYTES_H_
