// Simulated message-passing network with latency, queueing, and faults.
//
// The model:
//  * Every actor (server node, client, membership service, geo replicator)
//    registers under a unique Address and belongs to a site (datacenter).
//  * A message from src to dst experiences a one-way network latency drawn
//    from the link's (base, jitter) pair: intra-site links use one config,
//    inter-site links use a per-pair matrix (WAN).
//  * Links are FIFO per (src, dst) — the standard assumption of chain
//    replication — enforced even under jitter.
//  * Each actor is a single-threaded server with an exponential(ish) service
//    time per message: an arriving message waits until the actor is free,
//    occupies it for `base + per_byte * size` (+ optional exponential
//    jitter), and its effects (sends) happen at completion. This queueing is
//    what makes simulated throughput saturate and lets the read
//    load-balancing of ChainReaction show up as real throughput gains.
//  * Faults: message drop probability, site or pairwise partitions, and
//    actor crashes.
#ifndef SRC_SIM_NETWORK_H_
#define SRC_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/payload.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/sim/env.h"
#include "src/sim/simulator.h"

namespace chainreaction {

using SiteId = uint16_t;

struct LinkModel {
  Duration base = 100;    // one-way latency, microseconds
  Duration jitter = 20;   // uniform extra in [0, jitter]
};

struct ServiceModel {
  Duration base = 0;          // fixed cost per inbound message, microseconds
  double per_byte = 0.0;      // additional microseconds per inbound payload byte
  Duration jitter_mean = 0;   // exponential extra with this mean (0 = none)
  // Egress serialization cost: sending a message occupies the sender for
  // base_out + per_byte_out * size before it departs. This is what makes a
  // read-serving replica pay for the value bytes it returns.
  Duration base_out = 0;
  double per_byte_out = 0.0;
};

struct NetworkConfig {
  LinkModel intra_site{100, 20};
  LinkModel default_inter_site{80 * kMillisecond, 2 * kMillisecond};
  double drop_probability = 0.0;
};

class SimNetwork {
 public:
  SimNetwork(Simulator* sim, NetworkConfig config, uint64_t seed);
  ~SimNetwork();

  // Registers `actor` at `addr` in `site`. The returned Env remains owned by
  // the network and is valid for its lifetime.
  Env* Register(Address addr, Actor* actor, SiteId site, ServiceModel service = {});
  void Unregister(Address addr);

  // Overrides the latency of the (a, b) site pair in both directions.
  void SetInterSiteLatency(SiteId a, SiteId b, LinkModel link);

  void Send(Address src, Address dst, Payload payload);

  // Fault injection --------------------------------------------------------
  // Crash silently drops all traffic to/from addr, and its timers wait:
  // Restore brings the actor back with its memory and runs, at once, the
  // timers that came due while it was down.
  void Crash(Address addr);
  void Restore(Address addr);
  bool IsCrashed(Address addr) const { return crashed_.contains(addr); }

  void PartitionSites(SiteId a, SiteId b);   // drop all a<->b traffic
  void HealSites(SiteId a, SiteId b);

  // Optional observability: mirrors delivered/dropped/bytes into transport
  // counters so network totals appear alongside protocol metrics.
  void AttachMetrics(MetricsRegistry* metrics);

  // Introspection ----------------------------------------------------------
  uint64_t messages_delivered() const { return messages_delivered_; }
  uint64_t messages_dropped() const { return messages_dropped_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  // Bytes sent per leading u16 frame tag (the message-type word). Lets
  // benchmarks break a byte total down by message kind without the network
  // layer knowing the message schema.
  const std::unordered_map<uint16_t, uint64_t>& bytes_by_tag() const { return bytes_by_tag_; }
  uint64_t MessagesProcessedBy(Address addr) const;
  Simulator* simulator() { return sim_; }

 private:
  friend class SimEnv;

  struct Endpoint;

  // Runs a timer of the endpoint made by Register() call `incarnation`.
  void FireTimer(Address addr, uint64_t incarnation, std::function<void()> fn);
  Duration SampleLatency(SiteId from, SiteId to);
  void Deliver(Address src, Address dst, Payload payload);
  void CountDrop() {
    messages_dropped_++;
    if (m_dropped_ != nullptr) {
      m_dropped_->Inc();
    }
  }

  Simulator* sim_;
  NetworkConfig config_;
  Rng rng_;
  std::unordered_map<Address, std::unique_ptr<Endpoint>> endpoints_;
  std::map<std::pair<SiteId, SiteId>, LinkModel> inter_site_;
  std::unordered_set<Address> crashed_;
  uint64_t registrations_ = 0;
  std::unordered_set<uint64_t> partitioned_site_pairs_;  // encoded (min<<16)|max
  std::map<std::pair<Address, Address>, Time> last_arrival_;
  uint64_t messages_delivered_ = 0;
  uint64_t messages_dropped_ = 0;
  uint64_t bytes_sent_ = 0;
  std::unordered_map<uint16_t, uint64_t> bytes_by_tag_;

  // Observability (null until AttachMetrics).
  Counter* m_delivered_ = nullptr;
  Counter* m_dropped_ = nullptr;
  Counter* m_bytes_ = nullptr;
};

}  // namespace chainreaction

#endif  // SRC_SIM_NETWORK_H_
