// Unit tests for the consistent-hashing ring and chain composition.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/ring/ring.h"
#include "src/ycsb/workload.h"

namespace chainreaction {
namespace {

std::vector<NodeId> MakeNodes(uint32_t n, NodeId base = 0) {
  std::vector<NodeId> nodes;
  for (uint32_t i = 0; i < n; ++i) {
    nodes.push_back(base + i);
  }
  return nodes;
}

TEST(Ring, ChainHasRDistinctNodes) {
  const Ring ring(MakeNodes(10), 16, 3);
  for (int i = 0; i < 500; ++i) {
    const auto& chain = ring.ChainFor(RecordKey(i));
    EXPECT_EQ(chain.size(), 3u);
    std::set<NodeId> unique(chain.begin(), chain.end());
    EXPECT_EQ(unique.size(), 3u);
  }
}

TEST(Ring, DeterministicChains) {
  const Ring a(MakeNodes(10), 16, 3);
  const Ring b(MakeNodes(10), 16, 3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.ChainFor(RecordKey(i)), b.ChainFor(RecordKey(i)));
  }
}

TEST(Ring, PositionConsistentWithChain) {
  const Ring ring(MakeNodes(8), 8, 3);
  for (int i = 0; i < 200; ++i) {
    const Key key = RecordKey(i);
    const auto& chain = ring.ChainFor(key);
    for (size_t p = 0; p < chain.size(); ++p) {
      EXPECT_EQ(ring.PositionOf(key, chain[p]), p + 1);
    }
    EXPECT_EQ(ring.PositionOf(key, 9999), 0u);
    EXPECT_EQ(ring.HeadFor(key), chain.front());
    EXPECT_EQ(ring.TailFor(key), chain.back());
  }
}

TEST(Ring, SuccessorPredecessor) {
  const Ring ring(MakeNodes(8), 8, 3);
  const Key key = RecordKey(7);
  const auto& chain = ring.ChainFor(key);
  EXPECT_EQ(ring.SuccessorFor(key, chain[0]), chain[1]);
  EXPECT_EQ(ring.SuccessorFor(key, chain[1]), chain[2]);
  EXPECT_EQ(ring.SuccessorFor(key, chain[2]), kInvalidNode);
  EXPECT_EQ(ring.PredecessorFor(key, chain[0]), kInvalidNode);
  EXPECT_EQ(ring.PredecessorFor(key, chain[2]), chain[1]);
}

TEST(Ring, ReplicationOne) {
  const Ring ring(MakeNodes(4), 8, 1);
  const Key key = RecordKey(3);
  EXPECT_EQ(ring.ChainFor(key).size(), 1u);
  EXPECT_EQ(ring.HeadFor(key), ring.TailFor(key));
}

TEST(Ring, LoadRoughlyBalanced) {
  const uint32_t n = 16;
  const Ring ring(MakeNodes(n), 64, 3);
  std::map<NodeId, int> head_count;
  const int keys = 20000;
  for (int i = 0; i < keys; ++i) {
    head_count[ring.HeadFor(RecordKey(i))]++;
  }
  // Every node heads some chains; no node heads more than 4x its fair share.
  EXPECT_EQ(head_count.size(), n);
  for (const auto& [node, count] : head_count) {
    EXPECT_GT(count, keys / static_cast<int>(n) / 4) << "node " << node;
    EXPECT_LT(count, keys * 4 / static_cast<int>(n)) << "node " << node;
  }
}

TEST(Ring, RemovingNodeOnlyDisturbsItsChains) {
  const Ring before(MakeNodes(12), 32, 3, 1);
  std::vector<NodeId> smaller = MakeNodes(12);
  const NodeId removed = 5;
  smaller.erase(smaller.begin() + removed);
  const Ring after(smaller, 32, 3, 2);

  int moved = 0, total = 2000;
  for (int i = 0; i < total; ++i) {
    const Key key = RecordKey(i);
    const auto& a = before.ChainFor(key);
    const auto& b = after.ChainFor(key);
    const bool involved =
        std::find(a.begin(), a.end(), removed) != a.end();
    if (!involved) {
      EXPECT_EQ(a, b) << "chain for uninvolved key " << key << " changed";
    } else {
      moved++;
      EXPECT_TRUE(std::find(b.begin(), b.end(), removed) == b.end());
    }
  }
  // Removed node participated in roughly R/N of chains.
  EXPECT_NEAR(static_cast<double>(moved) / total, 3.0 / 12.0, 0.1);
}

TEST(Ring, ContainsAndEpoch) {
  const Ring ring(MakeNodes(5), 8, 2, 42);
  EXPECT_TRUE(ring.Contains(3));
  EXPECT_FALSE(ring.Contains(77));
  EXPECT_EQ(ring.epoch(), 42u);
  EXPECT_EQ(ring.replication(), 2u);
}

TEST(Ring, TailDistributionBalanced) {
  // The CR baseline serves all reads at tails; tails must be spread out.
  const uint32_t n = 16;
  const Ring ring(MakeNodes(n), 64, 3);
  std::map<NodeId, int> tail_count;
  const int keys = 20000;
  for (int i = 0; i < keys; ++i) {
    tail_count[ring.TailFor(RecordKey(i))]++;
  }
  EXPECT_EQ(tail_count.size(), n);
}

// Reference placement, independent of Ring's lookup structures: the ring
// points recomputed from the placement rule (point v of node n sits at
// Mix64((n << 20) | v)) and a plain clockwise walk from a key's hash.
class ReferenceRing {
 public:
  ReferenceRing(const std::vector<NodeId>& nodes, const std::vector<uint32_t>& weights,
                uint32_t replication)
      : replication_(replication) {
    for (size_t i = 0; i < nodes.size(); ++i) {
      for (uint32_t v = 0; v < weights[i]; ++v) {
        points_.emplace_back(Mix64((static_cast<uint64_t>(nodes[i]) << 20) | v), nodes[i]);
      }
    }
    std::sort(points_.begin(), points_.end());
  }

  static uint64_t KeyHash(const Key& key) { return Mix64(Fnv1a64(key)); }

  // Index of the point whose arc holds `h`: the first point at or past h,
  // wrapping to point 0 beyond the last one.
  size_t ArcOf(uint64_t h) const {
    for (size_t i = 0; i < points_.size(); ++i) {
      if (points_[i].first >= h) {
        return i;
      }
    }
    return 0;
  }

  std::vector<NodeId> WalkFrom(size_t idx) const {
    std::vector<NodeId> chain;
    for (size_t step = 0; chain.size() < replication_; ++step) {
      const NodeId n = points_[(idx + step) % points_.size()].second;
      if (std::find(chain.begin(), chain.end(), n) == chain.end()) {
        chain.push_back(n);
      }
    }
    return chain;
  }

  size_t size() const { return points_.size(); }
  uint64_t last_hash() const { return points_.back().first; }

 private:
  std::vector<std::pair<uint64_t, NodeId>> points_;
  uint32_t replication_;
};

void ExpectPlacementMatchesReference(const Ring& ring, const std::vector<uint32_t>& weights) {
  const ReferenceRing ref(ring.nodes(), weights, ring.replication());
  ASSERT_EQ(ring.SegmentChains().size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ring.SegmentChains()[i], ref.WalkFrom(i)) << "segment " << i;
  }

  std::vector<Key> keys;
  for (int i = 0; i < 10000; ++i) {
    keys.push_back(RecordKey(i));
  }
  // Keys hashing past the last point wrap around to the first segment.
  size_t wrapped = 0;
  for (int i = 0; wrapped < 20 && i < 4000000; ++i) {
    Key key = "wrap-" + std::to_string(i);
    if (ReferenceRing::KeyHash(key) > ref.last_hash()) {
      keys.push_back(std::move(key));
      ++wrapped;
    }
  }
  ASSERT_EQ(wrapped, 20u);
  for (const Key& key : keys) {
    const size_t arc = ref.ArcOf(ReferenceRing::KeyHash(key));
    const std::vector<NodeId> expected = ref.WalkFrom(arc);
    ASSERT_EQ(ring.ChainFor(key), expected) << "key " << key;
    EXPECT_EQ(ring.SegmentChains()[arc], ring.ChainFor(key)) << "key " << key;
  }

  // Every segment row serves the keys of its own arc.
  std::vector<bool> covered(ref.size(), false);
  size_t left = ref.size();
  for (int i = 0; left > 0 && i < 4000000; ++i) {
    const Key key = "arc-" + std::to_string(i);
    const size_t arc = ref.ArcOf(ReferenceRing::KeyHash(key));
    if (!covered[arc]) {
      covered[arc] = true;
      --left;
      EXPECT_EQ(ring.SegmentChains()[arc], ring.ChainFor(key)) << "segment " << arc;
    }
  }
  EXPECT_EQ(left, 0u) << "some ring segment got no sampled key";
}

TEST(Ring, TableLookupMatchesClockwiseWalkUniform) {
  const Ring ring(MakeNodes(10), 16, 3);
  ExpectPlacementMatchesReference(ring, ring.weights());
  EXPECT_EQ(ring.weights(), std::vector<uint32_t>(10, 16));
}

TEST(Ring, TableLookupMatchesClockwiseWalkWeighted) {
  const std::vector<uint32_t> weights = {4, 16, 32, 8, 1, 24};
  const Ring ring(MakeNodes(6, 100), 16, 3, 7, weights);
  ExpectPlacementMatchesReference(ring, weights);
}

}  // namespace
}  // namespace chainreaction
