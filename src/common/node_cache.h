// One-slot node recyclers for node-based associative containers on
// churn-per-request paths (parked puts, retry-dedup windows, per-op client
// state): each completed request erases the entry another request just
// inserted, so a node-based map pays one heap allocation per operation just
// for the node itself. Stashing the erased node and handing its allocation
// to the next insert makes the steady state allocation-free while keeping
// the container's semantics (and its debug-mode checks) intact.
//
// Works with std::map / std::unordered_map (anything with the C++17
// extract()/insert(node_type) API and a mapped value). Single slot on
// purpose: insert/erase on these paths interleave one-for-one, so one spare
// node captures nearly all of the churn without growing a freelist.
#ifndef SRC_COMMON_NODE_CACHE_H_
#define SRC_COMMON_NODE_CACHE_H_

#include <utility>

namespace chainreaction {

template <typename Map>
class MapNodeCache {
 public:
  using iterator = typename Map::iterator;

  // Returns {it, fresh} like try_emplace: `fresh` is true when the entry was
  // just inserted. CAUTION: a fresh entry recycled from the spare node keeps
  // the PREVIOUS occupant's mapped value (deliberately — reusing its string
  // and vector capacities is the point), so the caller must reassign every
  // field it reads later.
  std::pair<iterator, bool> Claim(Map& map, typename Map::key_type key) {
    if (!spare_.empty()) {
      if (auto it = map.find(key); it != map.end()) {
        return {it, false};
      }
      spare_.key() = std::move(key);
      auto res = map.insert(std::move(spare_));
      return {res.position, true};
    }
    return map.try_emplace(std::move(key));
  }

  // erase(it) that keeps the node's allocation for the next Claim.
  void Erase(Map& map, iterator it) {
    if (spare_.empty()) {
      spare_ = map.extract(it);
      return;
    }
    map.erase(it);
  }

  // Erase-by-key convenience; no-op when absent.
  void Erase(Map& map, const typename Map::key_type& key) {
    if (auto it = map.find(key); it != map.end()) {
      Erase(map, it);
    }
  }

 private:
  typename Map::node_type spare_;
};

}  // namespace chainreaction

#endif  // SRC_COMMON_NODE_CACHE_H_
