#include "src/sim/network.h"

#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/common/result.h"

namespace chainreaction {

namespace {
uint64_t SitePairKey(SiteId a, SiteId b) {
  if (a > b) {
    std::swap(a, b);
  }
  return (static_cast<uint64_t>(a) << 16) | b;
}
}  // namespace

// Env implementation bound to one registered actor.
class SimEnv : public Env {
 public:
  SimEnv(SimNetwork* net, Address self, uint64_t incarnation)
      : net_(net), self_(self), incarnation_(incarnation) {}

  Time Now() override { return net_->sim_->Now(); }

  void Send(Address dst, Payload payload) override {
    net_->Send(self_, dst, std::move(payload));
  }

  uint64_t Schedule(Duration delay, std::function<void()> fn) override {
    const Address self = self_;
    const uint64_t incarnation = incarnation_;
    SimNetwork* net = net_;
    return net_->sim_->Schedule(delay, [net, self, incarnation, fn = std::move(fn)]() mutable {
      net->FireTimer(self, incarnation, std::move(fn));
    });
  }

  void CancelTimer(uint64_t timer_id) override { net_->sim_->Cancel(timer_id); }

 private:
  SimNetwork* net_;
  Address self_;
  uint64_t incarnation_;
};

struct SimNetwork::Endpoint {
  Actor* actor = nullptr;
  SiteId site = 0;
  ServiceModel service;
  Time busy_until = 0;
  uint64_t processed = 0;
  uint64_t incarnation = 0;  // which Register() call made this endpoint
  // Timers that came due while the endpoint was crashed; Restore runs them.
  std::vector<std::function<void()>> parked_timers;
  std::unique_ptr<SimEnv> env;
};

SimNetwork::SimNetwork(Simulator* sim, NetworkConfig config, uint64_t seed)
    : sim_(sim), config_(config), rng_(seed) {}

SimNetwork::~SimNetwork() = default;

void SimNetwork::AttachMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    return;
  }
  const MetricLabels labels = {{"transport", "sim"}};
  m_delivered_ = metrics->GetCounter("crx_net_messages_delivered", labels);
  m_dropped_ = metrics->GetCounter("crx_net_messages_dropped", labels);
  m_bytes_ = metrics->GetCounter("crx_net_bytes_sent", labels);
}

Env* SimNetwork::Register(Address addr, Actor* actor, SiteId site, ServiceModel service) {
  CHAINRX_CHECK(!endpoints_.contains(addr));
  auto ep = std::make_unique<Endpoint>();
  ep->actor = actor;
  ep->site = site;
  ep->service = service;
  ep->incarnation = ++registrations_;
  ep->env = std::make_unique<SimEnv>(this, addr, ep->incarnation);
  Env* env = ep->env.get();
  endpoints_.emplace(addr, std::move(ep));
  return env;
}

void SimNetwork::Unregister(Address addr) { endpoints_.erase(addr); }

void SimNetwork::FireTimer(Address addr, uint64_t incarnation, std::function<void()> fn) {
  // A timer dies with its registration: a restarted node registers anew
  // at the same address, and its predecessor's timers would otherwise run
  // against this (destroyed) Env.
  auto it = endpoints_.find(addr);
  if (it == endpoints_.end() || it->second->incarnation != incarnation) {
    return;
  }
  // A crashed node does not wake up. Restore resumes it where it stopped,
  // so a flag that says "my timer is armed" stays true.
  if (crashed_.contains(addr)) {
    it->second->parked_timers.push_back(std::move(fn));
    return;
  }
  fn();
}

void SimNetwork::SetInterSiteLatency(SiteId a, SiteId b, LinkModel link) {
  inter_site_[{std::min(a, b), std::max(a, b)}] = link;
}

Duration SimNetwork::SampleLatency(SiteId from, SiteId to) {
  LinkModel link;
  if (from == to) {
    link = config_.intra_site;
  } else {
    auto it = inter_site_.find({std::min(from, to), std::max(from, to)});
    link = it != inter_site_.end() ? it->second : config_.default_inter_site;
  }
  Duration jitter = link.jitter > 0 ? static_cast<Duration>(rng_.NextBelow(
                                          static_cast<uint64_t>(link.jitter) + 1))
                                    : 0;
  return link.base + jitter;
}

void SimNetwork::Send(Address src, Address dst, Payload payload) {
  auto src_it = endpoints_.find(src);
  auto dst_it = endpoints_.find(dst);
  if (src_it == endpoints_.end() || dst_it == endpoints_.end()) {
    CountDrop();
    return;
  }
  if (crashed_.contains(src) || crashed_.contains(dst)) {
    CountDrop();
    return;
  }
  const SiteId s_from = src_it->second->site;
  const SiteId s_to = dst_it->second->site;
  if (s_from != s_to && partitioned_site_pairs_.contains(SitePairKey(s_from, s_to))) {
    CountDrop();
    return;
  }
  if (config_.drop_probability > 0 && rng_.NextBool(config_.drop_probability)) {
    CountDrop();
    return;
  }

  bytes_sent_ += payload.size();
  if (payload.size() >= 2) {
    const std::string_view bytes = payload.view();
    const uint16_t tag = static_cast<uint16_t>(static_cast<uint8_t>(bytes[0]) |
                                               (static_cast<uint8_t>(bytes[1]) << 8));
    bytes_by_tag_[tag] += payload.size();
  }
  if (m_bytes_ != nullptr) {
    m_bytes_->Inc(payload.size());
  }

  // Egress cost: the message departs once the sender finished serializing
  // it (serially with its other work).
  Endpoint* src_ep = src_it->second.get();
  Time depart = sim_->Now();
  const Duration out_cost =
      src_ep->service.base_out +
      static_cast<Duration>(src_ep->service.per_byte_out * static_cast<double>(payload.size()));
  if (out_cost > 0) {
    depart = std::max(depart, src_ep->busy_until) + out_cost;
    src_ep->busy_until = depart;
  }
  Time arrive = depart + SampleLatency(s_from, s_to);

  // Enforce per-link FIFO delivery (chain replication's channel assumption).
  Time& last = last_arrival_[{src, dst}];
  if (arrive < last) {
    arrive = last;
  }
  last = arrive;

  sim_->ScheduleAt(arrive, [this, src, dst, payload = std::move(payload)]() mutable {
    Deliver(src, dst, std::move(payload));
  });
}

void SimNetwork::Deliver(Address src, Address dst, Payload payload) {
  auto it = endpoints_.find(dst);
  if (it == endpoints_.end() || crashed_.contains(dst)) {
    CountDrop();
    return;
  }
  Endpoint* ep = it->second.get();

  // Single-server queueing: the message waits for the actor to become free,
  // occupies it for the service time, and takes effect at completion.
  const Time now = sim_->Now();
  const Time start = std::max(now, ep->busy_until);
  Duration service = ep->service.base +
                     static_cast<Duration>(ep->service.per_byte * static_cast<double>(payload.size()));
  if (ep->service.jitter_mean > 0) {
    service += static_cast<Duration>(rng_.NextExponential(
        static_cast<double>(ep->service.jitter_mean)));
  }
  const Time done = start + service;
  ep->busy_until = done;

  sim_->ScheduleAt(done, [this, src, dst, payload = std::move(payload)]() {
    auto it2 = endpoints_.find(dst);
    if (it2 == endpoints_.end() || crashed_.contains(dst)) {
      CountDrop();
      return;
    }
    messages_delivered_++;
    if (m_delivered_ != nullptr) {
      m_delivered_->Inc();
    }
    it2->second->processed++;
    it2->second->actor->OnMessage(src, payload.view());
  });
}

void SimNetwork::Crash(Address addr) { crashed_.insert(addr); }

void SimNetwork::Restore(Address addr) {
  crashed_.erase(addr);
  auto it = endpoints_.find(addr);
  if (it == endpoints_.end()) {
    return;
  }
  const uint64_t incarnation = it->second->incarnation;
  for (auto& fn : std::exchange(it->second->parked_timers, {})) {
    sim_->Schedule(0, [this, addr, incarnation, fn = std::move(fn)]() mutable {
      FireTimer(addr, incarnation, std::move(fn));
    });
  }
}

void SimNetwork::PartitionSites(SiteId a, SiteId b) {
  partitioned_site_pairs_.insert(SitePairKey(a, b));
}

void SimNetwork::HealSites(SiteId a, SiteId b) {
  partitioned_site_pairs_.erase(SitePairKey(a, b));
}

uint64_t SimNetwork::MessagesProcessedBy(Address addr) const {
  auto it = endpoints_.find(addr);
  return it == endpoints_.end() ? 0 : it->second->processed;
}

}  // namespace chainreaction
