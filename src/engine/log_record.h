// Value-log record framing — the disk engine's on-disk unit.
//
// A record is [u32 frame_len][u64 crc][payload] where frame_len counts the
// crc field plus the payload, crc is Checksum64 (src/common/hash.h) over the
// payload bytes, and the payload is:
//
//   u8  tag (kVlogRecordTag; 2 since the checksum moved from FNV-1a to
//       Checksum64 — tag-1 records are rejected, there is no old reader)
//   key       (u32 length-prefixed string)
//   version   (Version::Encode)
//   value     (u32 length-prefixed string)
//
// The key and version ride along so a compactor (or offline scavenger) can
// identify a record without consulting the index, mirroring FAWN-DS log
// entries. Exposed as free functions so tests can fuzz the decoder in the
// msg_test idiom.
#ifndef SRC_ENGINE_LOG_RECORD_H_
#define SRC_ENGINE_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/types.h"
#include "src/common/version.h"

namespace chainreaction {

constexpr uint8_t kVlogRecordTag = 2;
constexpr size_t kVlogHeaderBytes = 12;  // u32 frame_len + u64 crc

struct VlogRecord {
  Key key;
  Version version;
  Value value;
};

// Appends the full framed record (prefix + crc + payload) to `out` and
// returns the framed length.
uint32_t EncodeVlogRecord(const Key& key, const Version& version,
                          std::string_view value, std::string* out);

// Decodes one framed record from `bytes` (which must be exactly one frame,
// as read back via a handle's offset/length). Verifies the length prefix,
// checksum, and payload shape. Returns false on any mismatch; never crashes
// on arbitrary bytes.
bool DecodeVlogRecord(std::string_view bytes, VlogRecord* out);

}  // namespace chainreaction

#endif  // SRC_ENGINE_LOG_RECORD_H_
