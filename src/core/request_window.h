// Fixed-capacity FIFO window of the client requests a chain head has
// already assigned a version to (retry dedup: a timed-out client resends
// the same (client, req) and must get the original version back, not a
// second one).
//
// Flat, allocation-free in the steady state: a ring buffer of `capacity`
// entries in insertion order plus an open-addressed index of uint32 entry
// positions (linear probing, backward-shift delete, power-of-two size at
// least twice the capacity, so probes stay short and there are no
// tombstones). Once full, each new request overwrites the oldest entry.
// Re-recording a request that is still in the window updates its version
// in place and keeps its FIFO position. Both arrays grow to their final
// size lazily, so a node that heads no puts pays nothing.
#ifndef SRC_CORE_REQUEST_WINDOW_H_
#define SRC_CORE_REQUEST_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/result.h"
#include "src/common/types.h"
#include "src/common/version.h"

namespace chainreaction {

// Hash of a (client, req) pair, for request-keyed unordered maps.
struct RequestKeyHash {
  size_t operator()(const std::pair<Address, RequestId>& k) const {
    return static_cast<size_t>(Mix64(k.second ^ (static_cast<uint64_t>(k.first) << 40)));
  }
};

class RequestWindow {
 public:
  explicit RequestWindow(size_t capacity) : capacity_(capacity) {
    CHAINRX_CHECK(capacity_ >= 1 && capacity_ < kEmpty);
  }

  // The version recorded for (client, req), or null if it is not (or no
  // longer) in the window. Valid until the next Record.
  const Version* Find(Address client, RequestId req) const {
    const size_t slot = SlotOf(client, req);
    return slot == kNone ? nullptr : &entries_[slots_[slot]].version;
  }

  // Records (client, req) -> version, evicting the oldest entry when the
  // window is full and the pair is new.
  void Record(Address client, RequestId req, const Version& version) {
    if (const size_t slot = SlotOf(client, req); slot != kNone) {
      entries_[slots_[slot]].version = version;
      return;
    }
    if (slots_.empty()) {
      size_t size = 2;
      while (size < 2 * capacity_) {
        size <<= 1;
      }
      slots_.assign(size, kEmpty);
    }
    uint32_t pos;
    if (entries_.size() < capacity_) {
      pos = static_cast<uint32_t>(entries_.size());
      entries_.push_back(Entry{client, req, version});
    } else {
      pos = static_cast<uint32_t>(oldest_);
      oldest_ = oldest_ + 1 == capacity_ ? 0 : oldest_ + 1;
      Unindex(pos);
      Entry& e = entries_[pos];
      e.client = client;
      e.req = req;
      e.version = version;
    }
    const size_t mask = slots_.size() - 1;
    size_t i = Home(client, req);
    while (slots_[i] != kEmpty) {
      i = (i + 1) & mask;
    }
    slots_[i] = pos;
  }

  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    Address client = 0;
    RequestId req = 0;
    Version version;
  };

  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr size_t kNone = static_cast<size_t>(-1);

  size_t Home(Address client, RequestId req) const {
    return RequestKeyHash{}({client, req}) & (slots_.size() - 1);
  }

  // The index slot holding (client, req), or kNone.
  size_t SlotOf(Address client, RequestId req) const {
    if (slots_.empty()) {
      return kNone;
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(client, req); slots_[i] != kEmpty; i = (i + 1) & mask) {
      const Entry& e = entries_[slots_[i]];
      if (e.client == client && e.req == req) {
        return i;
      }
    }
    return kNone;
  }

  // Removes entry `pos` from the index, shifting later members of its probe
  // run back so every remaining entry stays reachable from its home slot.
  void Unindex(uint32_t pos) {
    const size_t mask = slots_.size() - 1;
    size_t hole = Home(entries_[pos].client, entries_[pos].req);
    while (slots_[hole] != pos) {
      hole = (hole + 1) & mask;
    }
    for (size_t j = (hole + 1) & mask; slots_[j] != kEmpty; j = (j + 1) & mask) {
      const Entry& e = entries_[slots_[j]];
      const size_t home = Home(e.client, e.req);
      // Entry j may fill the hole unless its home lies cyclically in
      // (hole, j]: then it would become unreachable.
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kEmpty;
  }

  size_t capacity_;
  std::vector<Entry> entries_;  // ring buffer in insertion order once full
  size_t oldest_ = 0;           // next entry to evict (0 until full)
  std::vector<uint32_t> slots_;  // index: entry position or kEmpty
};

}  // namespace chainreaction

#endif  // SRC_CORE_REQUEST_WINDOW_H_
