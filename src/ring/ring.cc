#include "src/ring/ring.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/common/result.h"

namespace chainreaction {

Ring::Ring(std::vector<NodeId> nodes, uint32_t vnodes_per_node, uint32_t replication,
           uint64_t epoch, std::vector<uint32_t> weights)
    : nodes_(std::move(nodes)), weights_(std::move(weights)), replication_(replication),
      epoch_(epoch) {
  CHAINRX_CHECK(replication_ >= 1);
  CHAINRX_CHECK(nodes_.size() >= replication_);
  CHAINRX_CHECK(vnodes_per_node >= 1);
  if (weights_.empty()) {
    weights_.assign(nodes_.size(), vnodes_per_node);
  }
  CHAINRX_CHECK(weights_.size() == nodes_.size());
  size_t total_points = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    CHAINRX_CHECK(weights_[i] >= 1);
    total_points += weights_[i];
  }
  points_.reserve(total_points);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (uint32_t v = 0; v < weights_[i]; ++v) {
      // Vnode placement must be a pure function of (node, v) so that all
      // parties, and all epochs containing the node, agree on it. Raising a
      // node's weight only adds points; lowering it only removes them.
      const uint64_t h = Mix64((static_cast<uint64_t>(nodes_[i]) << 20) | v);
      points_.push_back(Point{h, nodes_[i]});
    }
  }
  std::sort(points_.begin(), points_.end());

  // The chain of each segment: the first R distinct nodes clockwise from
  // its point.
  segment_chains_.reserve(points_.size());
  for (size_t idx = 0; idx < points_.size(); ++idx) {
    std::vector<NodeId> chain;
    chain.reserve(replication_);
    for (size_t steps = 0; steps < points_.size() && chain.size() < replication_; ++steps) {
      const NodeId candidate = points_[(idx + steps) % points_.size()].node;
      if (std::find(chain.begin(), chain.end(), candidate) == chain.end()) {
        chain.push_back(candidate);
      }
    }
    CHAINRX_CHECK(chain.size() == replication_);
    segment_chains_.push_back(std::move(chain));
  }
}

uint32_t Ring::WeightOf(NodeId node) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == node) {
      return weights_[i];
    }
  }
  return 0;
}

const std::vector<NodeId>& Ring::ChainFor(std::string_view key) const {
  CHAINRX_CHECK(!points_.empty());
  // FNV-1a alone under-avalanches its high bits for keys that differ only
  // in trailing characters (e.g. sequential YCSB record keys), which would
  // collapse consecutive keys onto one chain; the 64-bit finalizer fixes
  // the spread.
  const uint64_t h = Mix64(Fnv1a64(key));
  // First vnode with hash >= h, wrapping.
  auto it = std::lower_bound(points_.begin(), points_.end(), Point{h, 0});
  if (it == points_.end()) {
    it = points_.begin();
  }
  return segment_chains_[static_cast<size_t>(it - points_.begin())];
}

Ring::Placement Ring::Locate(std::string_view key, NodeId node) const {
  Placement at;
  at.chain = &ChainFor(key);
  for (size_t i = 0; i < at.chain->size(); ++i) {
    if ((*at.chain)[i] == node) {
      at.position = static_cast<ChainIndex>(i + 1);
      break;
    }
  }
  return at;
}

bool Ring::Contains(NodeId node) const {
  return std::find(nodes_.begin(), nodes_.end(), node) != nodes_.end();
}

}  // namespace chainreaction
