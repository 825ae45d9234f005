// Unit tests for the head's retry-dedup window (src/core/request_window.h),
// checked against a reference built from std::map + std::deque with the
// same FIFO rule.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <random>
#include <utility>

#include "src/core/request_window.h"

namespace chainreaction {
namespace {

Version MakeVersion(uint64_t n) {
  Version v;
  v.vv = VersionVector(2);
  v.vv.Set(0, n);
  v.vv.Set(1, n / 3);
  v.lamport = n;
  v.origin = static_cast<DcId>(n % 2);
  return v;
}

// FIFO over distinct (client, req) pairs: re-recording a present pair
// updates it in place; a new pair past the capacity evicts the oldest.
class ReferenceWindow {
 public:
  explicit ReferenceWindow(size_t capacity) : capacity_(capacity) {}

  void Record(Address client, RequestId req, const Version& version) {
    auto [it, fresh] = map_.try_emplace({client, req}, version);
    if (!fresh) {
      it->second = version;
      return;
    }
    order_.push_back({client, req});
    if (order_.size() > capacity_) {
      map_.erase(order_.front());
      order_.pop_front();
    }
  }

  const Version* Find(Address client, RequestId req) const {
    auto it = map_.find({client, req});
    return it == map_.end() ? nullptr : &it->second;
  }

  const std::map<std::pair<Address, RequestId>, Version>& entries() const { return map_; }

 private:
  size_t capacity_;
  std::map<std::pair<Address, RequestId>, Version> map_;
  std::deque<std::pair<Address, RequestId>> order_;
};

void ExpectSameContents(const RequestWindow& window, const ReferenceWindow& ref) {
  ASSERT_EQ(window.size(), ref.entries().size());
  for (const auto& [key, version] : ref.entries()) {
    const Version* found = window.Find(key.first, key.second);
    ASSERT_NE(found, nullptr) << "client " << key.first << " req " << key.second;
    ASSERT_TRUE(*found == version) << "client " << key.first << " req " << key.second;
  }
}

class RequestWindowRandomized : public ::testing::TestWithParam<size_t> {};

TEST_P(RequestWindowRandomized, MatchesReference) {
  const size_t capacity = GetParam();
  RequestWindow window(capacity);
  ReferenceWindow ref(capacity);
  std::mt19937_64 rng(capacity * 7919 + 1);
  // About twice the capacity of distinct pairs over four clients, so the
  // stream mixes fresh inserts, in-place updates, evictions, hits and misses.
  const uint64_t reqs_per_client = capacity / 2 + 1;
  const int kOps = 300000;
  for (int op = 0; op < kOps; ++op) {
    const Address client = kClientAddressBase + static_cast<Address>(rng() % 4);
    const RequestId req = rng() % reqs_per_client;
    if (rng() % 2 == 0) {
      const Version v = MakeVersion(static_cast<uint64_t>(op) + 1);
      window.Record(client, req, v);
      ref.Record(client, req, v);
    } else {
      const Version* got = window.Find(client, req);
      const Version* want = ref.Find(client, req);
      ASSERT_EQ(got == nullptr, want == nullptr) << "op " << op;
      if (want != nullptr) {
        ASSERT_TRUE(*got == *want) << "op " << op;
      }
    }
    ASSERT_EQ(window.size(), ref.entries().size()) << "op " << op;
    if (capacity <= 8 || op % 10007 == 0) {
      ExpectSameContents(window, ref);
    }
  }
  ExpectSameContents(window, ref);
}

INSTANTIATE_TEST_SUITE_P(Capacities, RequestWindowRandomized,
                         ::testing::Values(size_t{1}, size_t{2}, size_t{7}, size_t{8192}));

TEST(RequestWindow, EvictsExactlyAtCapacity) {
  for (size_t capacity : {size_t{1}, size_t{7}, size_t{8192}}) {
    RequestWindow window(capacity);
    for (RequestId r = 0; r < capacity; ++r) {
      window.Record(kClientAddressBase, r, MakeVersion(r + 1));
    }
    ASSERT_EQ(window.size(), capacity);
    for (RequestId r = 0; r < capacity; ++r) {
      ASSERT_NE(window.Find(kClientAddressBase, r), nullptr) << "cap " << capacity;
    }
    // One more evicts the oldest, and only it.
    window.Record(kClientAddressBase, capacity, MakeVersion(capacity + 1));
    EXPECT_EQ(window.size(), capacity);
    EXPECT_EQ(window.Find(kClientAddressBase, 0), nullptr) << "cap " << capacity;
    for (RequestId r = 1; r <= capacity; ++r) {
      ASSERT_NE(window.Find(kClientAddressBase, r), nullptr) << "cap " << capacity;
    }
  }
}

TEST(RequestWindow, InPlaceUpdateDoesNotEvictEarly) {
  const size_t capacity = 7;
  RequestWindow window(capacity);
  for (RequestId r = 0; r < capacity; ++r) {
    window.Record(kClientAddressBase, r, MakeVersion(r + 1));
  }
  // Re-recording a present pair neither grows the window nor pushes anyone
  // out, and keeps the pair's place in the eviction order.
  window.Record(kClientAddressBase, 2, MakeVersion(100));
  EXPECT_EQ(window.size(), capacity);
  for (RequestId r = 0; r < capacity; ++r) {
    ASSERT_NE(window.Find(kClientAddressBase, r), nullptr) << "req " << r;
  }
  EXPECT_TRUE(*window.Find(kClientAddressBase, 2) == MakeVersion(100));

  window.Record(kClientAddressBase, capacity, MakeVersion(200));
  EXPECT_EQ(window.Find(kClientAddressBase, 0), nullptr);
  ASSERT_NE(window.Find(kClientAddressBase, 2), nullptr);
  EXPECT_TRUE(*window.Find(kClientAddressBase, 2) == MakeVersion(100));
  // Req 2 goes third, in its original order.
  window.Record(kClientAddressBase, capacity + 1, MakeVersion(201));
  window.Record(kClientAddressBase, capacity + 2, MakeVersion(202));
  EXPECT_EQ(window.Find(kClientAddressBase, 2), nullptr);
  EXPECT_NE(window.Find(kClientAddressBase, 3), nullptr);
}

TEST(RequestWindow, SameReqFromDifferentClientsIsDistinct) {
  RequestWindow window(4);
  window.Record(kClientAddressBase, 1, MakeVersion(1));
  window.Record(kClientAddressBase + 1, 1, MakeVersion(2));
  EXPECT_TRUE(*window.Find(kClientAddressBase, 1) == MakeVersion(1));
  EXPECT_TRUE(*window.Find(kClientAddressBase + 1, 1) == MakeVersion(2));
  EXPECT_EQ(window.Find(kClientAddressBase + 2, 1), nullptr);
}

}  // namespace
}  // namespace chainreaction
