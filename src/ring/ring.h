// Consistent-hashing ring and chain composition (FAWN-KV style).
//
// Every node owns `vnodes` positions on a 64-bit hash ring. The replication
// chain of a key is the sequence of R *distinct physical* nodes found
// clockwise from the key's hash; the first is the chain head, the last the
// tail. All sides (clients, nodes, membership service) compute chains
// locally from the same membership list, so no directory service is needed.
//
// A chain depends only on the ring segment a key hashes into, so the ring
// precomputes one chain per point at construction and a lookup is a hash,
// a binary search over the points and a table row: memory is O(points * R)
// however many keys are looked up, and a Ring is immutable (safe to share
// across threads) once built.
#ifndef SRC_RING_RING_H_
#define SRC_RING_RING_H_

#include <string_view>
#include <vector>

#include "src/common/types.h"

namespace chainreaction {

class Ring {
 public:
  Ring() = default;

  // `nodes` lists live node ids; `replication` is the chain length R.
  // Requires nodes.size() >= replication >= 1. `weights` (when non-empty,
  // parallel to `nodes`) overrides the per-node vnode count: a node with a
  // larger weight owns proportionally more ring segments. Rebalancing moves
  // arcs between nodes by changing weights — placement of each (node, v)
  // point stays a pure function, so all parties agree on every epoch.
  Ring(std::vector<NodeId> nodes, uint32_t vnodes_per_node, uint32_t replication,
       uint64_t epoch = 0, std::vector<uint32_t> weights = {});

  // The chain (head first) for `key`. Stable for a given membership.
  const std::vector<NodeId>& ChainFor(std::string_view key) const;

  NodeId HeadFor(std::string_view key) const { return ChainFor(key).front(); }
  NodeId TailFor(std::string_view key) const { return ChainFor(key).back(); }

  // A key's chain seen from one node. A handler locates its key once and
  // reads position, successor and predecessor off the same chain row.
  struct Placement {
    const std::vector<NodeId>* chain = nullptr;
    ChainIndex position = 0;  // 1-based; 0 if the node is not a replica

    NodeId head() const { return chain->front(); }
    NodeId tail() const { return chain->back(); }
    // kInvalidNode at the tail, and for a node outside the chain.
    NodeId successor() const {
      return position == 0 || position >= chain->size() ? kInvalidNode : (*chain)[position];
    }
    // kInvalidNode at the head, and for a node outside the chain.
    NodeId predecessor() const { return position <= 1 ? kInvalidNode : (*chain)[position - 2]; }
  };
  Placement Locate(std::string_view key, NodeId node) const;

  // 1-based position of `node` in key's chain; 0 if not a replica.
  ChainIndex PositionOf(std::string_view key, NodeId node) const {
    return Locate(key, node).position;
  }

  // Successor of `node` in key's chain, kInvalidNode for the tail.
  NodeId SuccessorFor(std::string_view key, NodeId node) const {
    return Locate(key, node).successor();
  }
  // Predecessor of `node` in key's chain, kInvalidNode for the head.
  NodeId PredecessorFor(std::string_view key, NodeId node) const {
    return Locate(key, node).predecessor();
  }

  bool Contains(NodeId node) const;

  // One replication chain per ring segment (the arc ending at each vnode
  // point), head first, in ring order. Row i serves every key whose hash
  // lies in (points[i-1], points[i]]; row 0 also takes the wrap-around arc
  // past the last point.
  const std::vector<std::vector<NodeId>>& SegmentChains() const { return segment_chains_; }

  const std::vector<NodeId>& nodes() const { return nodes_; }
  // Per-node vnode counts, parallel to nodes() (filled with the default
  // when the ring was built without explicit weights).
  const std::vector<uint32_t>& weights() const { return weights_; }
  // Number of ring points owned by `node` (0 if absent).
  uint32_t WeightOf(NodeId node) const;
  uint32_t replication() const { return replication_; }
  uint64_t epoch() const { return epoch_; }
  bool empty() const { return points_.empty(); }

 private:
  struct Point {
    uint64_t hash;
    NodeId node;
    bool operator<(const Point& other) const {
      return hash != other.hash ? hash < other.hash : node < other.node;
    }
  };

  std::vector<NodeId> nodes_;
  std::vector<uint32_t> weights_;  // parallel to nodes_
  std::vector<Point> points_;  // sorted
  uint32_t replication_ = 1;
  uint64_t epoch_ = 0;
  std::vector<std::vector<NodeId>> segment_chains_;  // parallel to points_
};

}  // namespace chainreaction

#endif  // SRC_RING_RING_H_
