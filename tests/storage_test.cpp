// Unit tests for the multi-version store: LWW ordering, idempotent applies,
// stability marking, dependency predicates, and garbage collection.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/storage/versioned_store.h"

namespace chainreaction {
namespace {

Version V(uint64_t lamport, DcId origin = 0, std::initializer_list<uint64_t> vv = {}) {
  Version v;
  v.lamport = lamport;
  v.origin = origin;
  v.vv = VersionVector(vv.size());
  size_t i = 0;
  for (uint64_t c : vv) {
    v.vv.Set(static_cast<DcId>(i++), c);
  }
  return v;
}

TEST(VersionedStore, ApplyAndLatest) {
  VersionedStore store;
  EXPECT_EQ(store.Latest("k"), nullptr);
  EXPECT_TRUE(store.Apply("k", "v1", V(1, 0, {1})));
  ASSERT_NE(store.Latest("k"), nullptr);
  EXPECT_EQ(store.Latest("k")->value, "v1");
}

TEST(VersionedStore, DuplicateApplyIgnored) {
  VersionedStore store;
  EXPECT_TRUE(store.Apply("k", "v1", V(1)));
  EXPECT_FALSE(store.Apply("k", "v1", V(1)));
  EXPECT_EQ(store.VersionCount("k"), 1u);
}

TEST(VersionedStore, LwwOrderDecidesLatest) {
  VersionedStore store;
  store.Apply("k", "newer", V(10, 1, {0, 1}));
  store.Apply("k", "older", V(5, 0, {1, 0}));
  EXPECT_EQ(store.Latest("k")->value, "newer");
  // Origin breaks lamport ties deterministically.
  store.Apply("k", "tie-higher-origin", V(10, 2, {0, 0, 1}));
  EXPECT_EQ(store.Latest("k")->value, "tie-higher-origin");
}

TEST(VersionedStore, FindExactVersion) {
  VersionedStore store;
  store.Apply("k", "a", V(1, 0, {1}));
  store.Apply("k", "b", V(2, 0, {2}));
  const StoredVersion* sv = store.Find("k", V(1, 0, {1}));
  ASSERT_NE(sv, nullptr);
  EXPECT_EQ(sv->value, "a");
  EXPECT_EQ(store.Find("k", V(3, 0, {3})), nullptr);
  EXPECT_EQ(store.Find("missing", V(1)), nullptr);
}

TEST(VersionedStore, MarkStableAndLatestStable) {
  VersionedStore store;
  store.Apply("k", "a", V(1, 0, {1}));
  store.Apply("k", "b", V(2, 0, {2}));
  EXPECT_EQ(store.LatestStable("k"), nullptr);
  EXPECT_TRUE(store.MarkStable("k", V(1, 0, {1})));
  ASSERT_NE(store.LatestStable("k"), nullptr);
  EXPECT_EQ(store.LatestStable("k")->value, "a");
  EXPECT_FALSE(store.Latest("k")->stable);
}

TEST(VersionedStore, MarkStableUnknownVersionFails) {
  VersionedStore store;
  EXPECT_FALSE(store.MarkStable("k", V(1)));
  store.Apply("k", "a", V(1, 0, {1}));
  EXPECT_FALSE(store.MarkStable("k", V(9, 0, {9})));
}

TEST(VersionedStore, StabilityIsPrefixClosed) {
  VersionedStore store;
  store.Apply("k", "a", V(1, 0, {1}));
  store.Apply("k", "b", V(2, 0, {2}));
  // Marking the causally-later version stable stabilizes the earlier one.
  EXPECT_TRUE(store.MarkStable("k", V(2, 0, {2})));
  EXPECT_EQ(store.LatestStable("k")->value, "b");
}

TEST(VersionedStore, HasAtLeast) {
  VersionedStore store;
  EXPECT_TRUE(store.HasAtLeast("k", Version{}));  // null version: trivially
  EXPECT_FALSE(store.HasAtLeast("k", V(1, 0, {1})));
  store.Apply("k", "a", V(1, 0, {1}));
  EXPECT_TRUE(store.HasAtLeast("k", V(1, 0, {1})));
  EXPECT_FALSE(store.HasAtLeast("k", V(2, 0, {2})));
  store.Apply("k", "b", V(2, 0, {2}));
  EXPECT_TRUE(store.HasAtLeast("k", V(2, 0, {2})));
}

TEST(VersionedStore, HasAtLeastMergesAcrossVersions) {
  // Applied {1,0} and {0,1} separately: together they cover {1,1}.
  VersionedStore store;
  store.Apply("k", "a", V(1, 0, {1, 0}));
  store.Apply("k", "b", V(2, 1, {0, 1}));
  Version need = V(3, 0, {1, 1});
  EXPECT_TRUE(store.HasAtLeast("k", need));
}

TEST(VersionedStore, GcDropsVersionsOlderThanNewestStable) {
  VersionedStore store;
  for (uint64_t i = 1; i <= 5; ++i) {
    store.Apply("k", "v" + std::to_string(i), V(i, 0, {i}));
  }
  EXPECT_EQ(store.VersionCount("k"), 5u);
  store.MarkStable("k", V(4, 0, {4}));
  // Versions 1..3 are collectible; 4 (stable) and 5 (unstable) remain.
  EXPECT_EQ(store.VersionCount("k"), 2u);
  EXPECT_EQ(store.Latest("k")->value, "v5");
  EXPECT_EQ(store.LatestStable("k")->value, "v4");
  // Causal knowledge is preserved even after GC.
  EXPECT_TRUE(store.HasAtLeast("k", V(1, 0, {1})));
}

TEST(VersionedStore, GcKeepsUnstableConcurrentVersionUntilStable) {
  // A local write (dc0) and a concurrent remote one (dc1) that wins LWW.
  VersionedStore store;
  store.TrackStabilityFor(0);
  const Version local = V(5, 0, {1, 0});
  const Version remote = V(6, 1, {0, 1});
  store.Apply("k", "local", local);
  store.Apply("k", "remote", remote);
  ASSERT_TRUE(store.HasTrackedUnstable());
  EXPECT_EQ(store.MinTrackedUnstableLamport(), 5u);

  // Marking the LWW-newer version stable does not make the concurrent
  // older one stable, so GC keeps it, it stays listed for re-propagation,
  // and it keeps capping the watermark.
  store.MarkStable("k", remote);
  EXPECT_EQ(store.VersionCount("k"), 2u);
  EXPECT_EQ(store.LatestStable("k")->value, "remote");
  auto unstable = store.UnstableVersions("k");
  ASSERT_EQ(unstable.size(), 1u);
  EXPECT_EQ(unstable[0].value, "local");
  ASSERT_TRUE(store.HasTrackedUnstable());
  EXPECT_EQ(store.MinTrackedUnstableLamport(), 5u);

  // Once it stabilizes it is collectible like any older stable version,
  // and its watermark cap is lifted.
  store.MarkStable("k", local);
  EXPECT_EQ(store.VersionCount("k"), 1u);
  EXPECT_TRUE(store.UnstableVersions("k").empty());
  EXPECT_FALSE(store.HasTrackedUnstable());
  EXPECT_EQ(store.Latest("k")->value, "remote");
}

TEST(VersionedStore, GcDropsCausallyIncludedVersionAppliedLate) {
  // A re-propagated version arriving after a newer version that causally
  // includes it was marked stable is stable by prefix closure: GC drops it
  // at once and it never caps the watermark.
  VersionedStore store;
  store.TrackStabilityFor(0);
  store.Apply("k", "v2", V(2, 0, {2, 0}));
  store.MarkStable("k", V(2, 0, {2, 0}));
  store.Apply("k", "v1", V(1, 0, {1, 0}));
  EXPECT_EQ(store.VersionCount("k"), 1u);
  EXPECT_TRUE(store.UnstableVersions("k").empty());
  EXPECT_FALSE(store.HasTrackedUnstable());
}

TEST(VersionedStore, UnstableVersionsOldestFirst) {
  VersionedStore store;
  store.Apply("k", "a", V(1, 0, {1}));
  store.Apply("k", "b", V(2, 0, {2}));
  store.Apply("k", "c", V(3, 0, {3}));
  store.MarkStable("k", V(1, 0, {1}));
  auto unstable = store.UnstableVersions("k");
  ASSERT_EQ(unstable.size(), 2u);
  EXPECT_EQ(unstable[0].value, "b");
  EXPECT_EQ(unstable[1].value, "c");
  EXPECT_TRUE(store.UnstableVersions("missing").empty());
}

TEST(VersionedStore, ForEachKeyVisitsLatest) {
  VersionedStore store;
  store.Apply("a", "1", V(1, 0, {1}));
  store.Apply("b", "2", V(2, 0, {1}));
  store.Apply("b", "3", V(3, 0, {2}));
  int seen = 0;
  store.ForEachKey([&](const Key& key, const StoredVersion& latest) {
    seen++;
    if (key == "b") {
      EXPECT_EQ(latest.value, "3");
    }
  });
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(store.KeyCount(), 2u);
}

TEST(VersionedStore, ConcurrentVersionsBothKept) {
  VersionedStore store;
  store.Apply("k", "dc0", V(10, 0, {1, 0}));
  store.Apply("k", "dc1", V(11, 1, {0, 1}));
  EXPECT_EQ(store.VersionCount("k"), 2u);
  EXPECT_EQ(store.Latest("k")->value, "dc1");  // LWW winner
  const VersionVector* vv = store.AppliedVv("k");
  ASSERT_NE(vv, nullptr);
  EXPECT_EQ(vv->Get(0), 1u);
  EXPECT_EQ(vv->Get(1), 1u);
}

TEST(VersionedStore, TotalVersionsAccounting) {
  VersionedStore store;
  store.Apply("a", "1", V(1, 0, {1}));
  store.Apply("a", "2", V(2, 0, {2}));
  store.Apply("b", "3", V(3, 0, {1}));
  EXPECT_EQ(store.total_versions(), 3u);
  store.MarkStable("a", V(2, 0, {2}));  // GCs version 1
  EXPECT_EQ(store.total_versions(), 2u);
}

// The record index must find every live record and no erased one while it
// grows and while records are erased in random order (erasure shifts later
// members of a probe run back into the hole), for short and long keys.
TEST(VersionedStore, RecordLookupSurvivesGrowthAndErase) {
  VersionedStore store;
  Rng rng(7);
  std::vector<Key> keys;
  for (int i = 0; i < 3000; ++i) {
    // Every seventh key is too long to be compared inline in its record.
    keys.push_back("k" + std::to_string(rng.Next() % 100000) + "-" + std::to_string(i) +
                   (i % 7 == 0 ? std::string(30, 'x') : ""));
  }
  for (const Key& key : keys) {
    store.Claim(key).slots.unstable_head = 1;  // a slot keeps it from release
  }
  ASSERT_EQ(store.RecordCount(), keys.size());
  std::set<Key> live(keys.begin(), keys.end());
  std::vector<Key> order = keys;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  for (size_t n = 0; n < order.size(); ++n) {
    KeyRecord* rec = store.Lookup(order[n]);
    ASSERT_NE(rec, nullptr) << order[n];
    EXPECT_EQ(rec->key(), order[n]);
    if (n % 3 == 0) {
      rec->slots.unstable_head = 0;
      ASSERT_TRUE(store.ReleaseIfEmpty(rec));
      live.erase(order[n]);
    }
    if (n % 500 == 0) {
      for (const Key& key : keys) {
        EXPECT_EQ(store.Lookup(key) != nullptr, live.count(key) == 1) << key;
      }
    }
  }
  EXPECT_EQ(store.RecordCount(), live.size());
  for (const Key& key : keys) {
    const KeyRecord* rec = store.Lookup(key);
    EXPECT_EQ(rec != nullptr, live.count(key) == 1) << key;
    if (rec != nullptr) {
      EXPECT_EQ(rec->key(), key);
    }
  }
  // Re-inserting erased keys reuses the holes.
  for (const Key& key : keys) {
    store.Claim(key);
  }
  EXPECT_EQ(store.RecordCount(), keys.size());
  for (const Key& key : keys) {
    EXPECT_NE(store.Lookup(key), nullptr) << key;
  }
}

}  // namespace
}  // namespace chainreaction
