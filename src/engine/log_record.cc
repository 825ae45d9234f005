#include "src/engine/log_record.h"

#include "src/common/hash.h"

namespace chainreaction {

uint32_t EncodeVlogRecord(const Key& key, const Version& version,
                          std::string_view value, std::string* out) {
  // One pass straight into `out`: a zeroed header, the payload, then the
  // header patched with the payload's length and checksum.
  const size_t start = out->size();
  ByteWriter w(std::move(*out));
  w.Reserve(kVlogHeaderBytes + 1 + 4 + key.size() + version.EncodedSize() + 4 + value.size());
  w.PutU32(0);
  w.PutU64(0);
  w.PutU8(kVlogRecordTag);
  w.PutString(key);
  version.Encode(&w);
  w.PutStringView(value);
  const size_t framed = w.size() - start;
  const std::string_view payload =
      std::string_view(w.data()).substr(start + kVlogHeaderBytes);
  w.PatchU32(start, static_cast<uint32_t>(framed - 4));
  w.PatchU64(start + 4, Checksum64(payload));
  *out = w.Take();
  return static_cast<uint32_t>(framed);
}

bool DecodeVlogRecord(std::string_view bytes, VlogRecord* out) {
  ByteReader r(bytes.data(), bytes.size());
  uint32_t frame_len = 0;
  uint64_t crc = 0;
  if (!r.GetU32(&frame_len) || !r.GetU64(&crc)) {
    return false;
  }
  if (frame_len < 8 || static_cast<uint64_t>(frame_len) + 4 != bytes.size()) {
    return false;
  }
  const std::string_view payload = bytes.substr(kVlogHeaderBytes);
  if (Checksum64(payload) != crc) {
    return false;
  }
  ByteReader p(payload.data(), payload.size());
  uint8_t tag = 0;
  if (!p.GetU8(&tag) || tag != kVlogRecordTag) {
    return false;
  }
  VlogRecord rec;
  if (!p.GetString(&rec.key) || !rec.version.Decode(&p) || !p.GetString(&rec.value)) {
    return false;
  }
  if (!p.AtEnd()) {
    return false;
  }
  *out = std::move(rec);
  return true;
}

}  // namespace chainreaction
