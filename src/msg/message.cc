#include "src/msg/message.h"

namespace chainreaction {

MsgType PeekType(std::string_view payload) {
  ByteReader r(payload.data(), payload.size());
  uint16_t type = 0;
  if (!r.GetU16(&type)) {
    return MsgType::kInvalid;
  }
  return static_cast<MsgType>(type);
}

}  // namespace chainreaction
