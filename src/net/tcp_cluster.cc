#include "src/net/tcp_cluster.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>

#include "src/common/result.h"
#include "src/common/rng.h"

namespace chainreaction {

namespace {

Time WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Elastic-mode control-plane actors live far above node ids and clients.
constexpr Address kTcpMembershipAddr = kServiceAddressBase + 1024;
constexpr Address kTcpCoordinatorAddr = kServiceAddressBase + 2048;

}  // namespace

std::vector<uint32_t> TcpCluster::AssignShardsByRingOrder(const Ring& ring, uint32_t num_nodes,
                                                          uint32_t loops) {
  std::vector<uint32_t> shard_of(num_nodes, 0);
  if (loops <= 1) {
    return shard_of;
  }
  // Start from contiguous blocks of ring order: a node's first appearance
  // (as a segment head, then as any replica) fixes its ring position.
  std::vector<NodeId> order;
  std::unordered_set<NodeId> seen;
  for (const auto& chain : ring.SegmentChains()) {
    for (NodeId n : chain) {
      if (n < num_nodes && seen.insert(n).second) {
        order.push_back(n);
      }
    }
  }
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (seen.insert(n).second) {
      order.push_back(n);
    }
  }
  for (size_t i = 0; i < order.size(); ++i) {
    shard_of[order[i]] =
        static_cast<uint32_t>(i * loops / order.size());
  }
  // With many vnodes every node appears within the first few segments, so
  // the blocks alone barely beat a random split. links[a * n + b] counts
  // the segment chains in which a and b are adjacent (a hop of a chain put
  // or a stable notify); the search below swaps pairs of nodes on
  // different loops while a swap lowers the number of such links that
  // cross loops. Swaps keep every loop's size; the best swap wins, ties go
  // to the lowest (a, b), so the result is deterministic.
  const size_t n = num_nodes;
  std::vector<uint32_t> links(n * n, 0);
  for (const auto& chain : ring.SegmentChains()) {
    for (size_t i = 0; i + 1 < chain.size(); ++i) {
      const NodeId a = chain[i];
      const NodeId b = chain[i + 1];
      if (a < n && b < n && a != b) {
        ++links[a * n + b];
        ++links[b * n + a];
      }
    }
  }
  while (true) {
    int64_t best_delta = 0;
    size_t best_a = 0;
    size_t best_b = 0;
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = a + 1; b < n; ++b) {
        const uint32_t sa = shard_of[a];
        const uint32_t sb = shard_of[b];
        if (sa == sb) {
          continue;
        }
        // The a-b links cross loops before and after the swap alike.
        int64_t delta = 0;
        for (size_t c = 0; c < n; ++c) {
          if (c == a || c == b) {
            continue;
          }
          const uint32_t sc = shard_of[c];
          const int64_t ac = links[a * n + c];
          const int64_t bc = links[b * n + c];
          delta += ac * ((sb != sc) - (sa != sc)) + bc * ((sa != sc) - (sb != sc));
        }
        if (delta < best_delta) {
          best_delta = delta;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best_delta == 0) {
      break;
    }
    std::swap(shard_of[best_a], shard_of[best_b]);
  }
  return shard_of;
}

TcpCluster::TcpCluster(Options opts) : opts_(opts) {
  CHAINRX_CHECK(opts_.num_nodes >= opts_.config.replication);
  CHAINRX_CHECK(opts_.loop_threads >= 1);
  CHAINRX_CHECK(opts_.client_loop_threads >= 1);
  CHAINRX_CHECK(opts_.num_clients >= 1);

  std::vector<NodeId> ids;
  for (NodeId n = 0; n < opts_.num_nodes; ++n) {
    ids.push_back(n);
  }
  ring_ = Ring(ids, 16, opts_.config.replication, 1);
  node_shard_ = AssignShardsByRingOrder(ring_, opts_.num_nodes, opts_.loop_threads);

  effective_config_ = opts_.config;
  if (opts_.elastic) {
    effective_config_.membership = kTcpMembershipAddr;
  }

  if (opts_.per_node_runtimes) {
    for (NodeId n = 0; n < opts_.num_nodes; ++n) {
      server_runtimes_.push_back(
          std::make_unique<TcpRuntime>(&book_, 1, opts_.coalesced_io));
    }
  } else {
    server_runtimes_.push_back(
        std::make_unique<TcpRuntime>(&book_, opts_.loop_threads, opts_.coalesced_io));
  }
  for (NodeId n = 0; n < opts_.num_nodes; ++n) {
    auto node = std::make_unique<ChainReactionNode>(n, effective_config_, ring_);
    AttachNodeTelemetry(node.get());
    if (opts_.per_node_runtimes) {
      node->AttachEnv(server_runtimes_[n]->Register(n, node.get()));
    } else {
      node->AttachEnv(server_runtimes_[0]->Register(n, node.get(), node_shard_[n]));
    }
    nodes_.push_back(std::move(node));
  }

  if (opts_.elastic) {
    membership_ = std::make_unique<MembershipService>(ids, 16, effective_config_.replication);
    membership_->AttachEnv(
        server_runtimes_[0]->Register(kTcpMembershipAddr, membership_.get(), 0));
    MigrationCoordinator::Options copt;
    copt.vnodes = 16;
    copt.replication = effective_config_.replication;
    copt.self = kTcpCoordinatorAddr;
    copt.membership = kTcpMembershipAddr;
    copt.batch_keys = opts_.mig_batch_keys;
    copt.batch_interval = opts_.mig_batch_interval;
    copt.timeout = opts_.migration_timeout;
    coordinator_ = std::make_unique<MigrationCoordinator>(copt);
    coordinator_->AttachEnv(
        server_runtimes_[0]->Register(kTcpCoordinatorAddr, coordinator_.get(), 0));
    if (opts_.metrics != nullptr) {
      coordinator_->AttachObs(opts_.metrics);
    }
    coordinator_->Seed(/*epoch=*/1, ids, {});
    membership_->AddListener(kTcpCoordinatorAddr);
  }

  if (opts_.traces == nullptr && opts_.per_node_telemetry) {
    client_collector_ = std::make_unique<TraceCollector>();
  }
  client_runtime_ = std::make_unique<TcpRuntime>(&book_, opts_.client_loop_threads);
  for (uint32_t c = 0; c < opts_.num_clients; ++c) {
    const Address addr = kClientAddressBase + c;
    auto client = std::make_unique<ChainReactionClient>(addr, effective_config_, ring_,
                                                        opts_.seed + 1000 * (c + 1));
    TraceCollector* sink = opts_.traces != nullptr ? opts_.traces : client_collector_.get();
    if (opts_.metrics != nullptr || sink != nullptr) {
      client->AttachObs(opts_.metrics, sink);
    }
    client->AttachEnv(
        client_runtime_->Register(addr, client.get(), c % opts_.client_loop_threads));
    clients_.push_back(std::move(client));
    if (opts_.elastic) {
      membership_->AddListener(addr);
    }
  }

  if (opts_.metrics != nullptr) {
    for (auto& rt : server_runtimes_) {
      rt->AttachMetrics(opts_.metrics);
    }
    client_runtime_->AttachMetrics(opts_.metrics);
  }
  for (auto& rt : server_runtimes_) {
    rt->Start();
  }
  client_runtime_->Start();

  // Timers must be armed from the owning loop thread (Env contract).
  if (opts_.elastic && effective_config_.heartbeat_interval > 0) {
    const Duration sweep = effective_config_.fd_sweep_interval > 0
                               ? effective_config_.fd_sweep_interval
                               : effective_config_.heartbeat_interval;
    const Duration timeout = effective_config_.fd_timeout > 0
                                 ? effective_config_.fd_timeout
                                 : 4 * effective_config_.heartbeat_interval;
    server_runtimes_[0]->PostTo(kTcpMembershipAddr, [this, sweep, timeout]() {
      membership_->EnableFailureDetection(sweep, timeout);
    });
  }
  if (opts_.elastic && effective_config_.membership_rebroadcast_interval > 0) {
    const Duration interval = effective_config_.membership_rebroadcast_interval;
    server_runtimes_[0]->PostTo(kTcpMembershipAddr, [this, interval]() {
      membership_->EnableRebroadcast(interval);
    });
  }
}

TcpCluster::~TcpCluster() {
  for (auto& ts : node_telemetry_) {
    if (ts != nullptr) {
      ts->Stop();
    }
  }
  client_runtime_->Stop();
  for (auto& rt : joined_runtimes_) {
    rt->Stop();
  }
  for (auto& rt : server_runtimes_) {
    rt->Stop();
  }
}

void TcpCluster::AttachNodeTelemetry(ChainReactionNode* node) {
  if (opts_.traces != nullptr) {
    // Shared-sink mode: one collector sees every node's partial reports.
    node->AttachObs(opts_.metrics, opts_.traces);
    return;
  }
  if (!opts_.per_node_telemetry) {
    if (opts_.metrics != nullptr) {
      node->AttachObs(opts_.metrics, nullptr);
    }
    return;
  }
  // Distributed mode: the node's hops land only in its own collector, and
  // the only way to a cluster-wide timeline is pulling each node's /traces
  // endpoint — the same assembly protocol real multi-process deployments
  // use (see TraceAssembler::PullHttp).
  auto collector = std::make_unique<TraceCollector>();
  node->AttachObs(opts_.metrics, collector.get());
  auto server = std::make_unique<TelemetryServer>(/*port=*/0);
  if (opts_.metrics != nullptr) {
    server->AttachMetrics(opts_.metrics);
  }
  server->AttachTraces(collector.get());
  server->AddRecorder("n" + std::to_string(node->id()), node->events());
  server->Start();
  node_collectors_.push_back(std::move(collector));
  node_telemetry_.push_back(std::move(server));
}

NodeId TcpCluster::AddJoiningServer(uint32_t weight) {
  CHAINRX_CHECK(opts_.elastic);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  // A separate runtime = a separate process: it binds fresh ports into the
  // shared address book, and running peers resolve them on first send (the
  // per-shard port cache falls back to the book for unknown addresses).
  auto rt = std::make_unique<TcpRuntime>(&book_, 1, opts_.coalesced_io);
  auto node = std::make_unique<ChainReactionNode>(id, effective_config_, ring_);
  AttachNodeTelemetry(node.get());
  node->AttachEnv(rt->Register(id, node.get()));
  rt->Start();
  nodes_.push_back(std::move(node));
  node_shard_.push_back(0);
  joined_runtimes_.push_back(std::move(rt));

  migrations_issued_.fetch_add(1, std::memory_order_relaxed);
  server_runtimes_[0]->PostTo(kTcpCoordinatorAddr, [this, id, weight]() {
    if (coordinator_->StartJoin(id, weight) == 0) {
      migrations_issued_.fetch_sub(1, std::memory_order_relaxed);
    }
  });
  return id;
}

void TcpCluster::DrainServer(NodeId n) {
  CHAINRX_CHECK(opts_.elastic);
  migrations_issued_.fetch_add(1, std::memory_order_relaxed);
  server_runtimes_[0]->PostTo(kTcpCoordinatorAddr, [this, n]() {
    if (coordinator_->StartDrain(n) == 0) {
      migrations_issued_.fetch_sub(1, std::memory_order_relaxed);
    }
  });
}

void TcpCluster::RebalanceServer(NodeId n, uint32_t weight) {
  CHAINRX_CHECK(opts_.elastic);
  migrations_issued_.fetch_add(1, std::memory_order_relaxed);
  server_runtimes_[0]->PostTo(kTcpCoordinatorAddr, [this, n, weight]() {
    if (coordinator_->StartRebalance(n, weight) == 0) {
      migrations_issued_.fetch_sub(1, std::memory_order_relaxed);
    }
  });
}

bool TcpCluster::WaitMigrationIdle(Duration max_wait) {
  CHAINRX_CHECK(opts_.elastic);
  const Time deadline = WallMicros() + max_wait;
  while (WallMicros() < deadline) {
    const uint64_t finished = coordinator_->completed() + coordinator_->aborted();
    if (finished >= migrations_issued_.load(std::memory_order_relaxed) &&
        coordinator_->idle()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

uint64_t TcpCluster::server_writev_calls() const {
  uint64_t total = 0;
  for (const auto& rt : server_runtimes_) {
    total += rt->writev_calls();
  }
  return total;
}

uint64_t TcpCluster::server_writev_frames() const {
  uint64_t total = 0;
  for (const auto& rt : server_runtimes_) {
    total += rt->writev_frames();
  }
  return total;
}

uint64_t TcpCluster::server_frames_sent() const {
  uint64_t total = 0;
  for (const auto& rt : server_runtimes_) {
    total += rt->frames_sent();
  }
  return total;
}

// All LoadSession state except mu/cv/remaining is touched only on the
// session's client loop thread.
struct TcpCluster::LoadSession {
  TcpCluster* owner = nullptr;
  ChainReactionClient* client = nullptr;
  Rng rng{0};
  Histogram hist;
  uint64_t ops = 0;
  uint64_t failures = 0;
  Time deadline = 0;
  LoadOptions load;

  std::mutex* mu = nullptr;
  std::condition_variable* cv = nullptr;
  size_t* remaining = nullptr;
};

void TcpCluster::StepLoadSession(LoadSession* s) {
  const Time now = WallMicros();
  if (now >= s->deadline) {
    std::lock_guard<std::mutex> lock(*s->mu);
    --*s->remaining;
    s->cv->notify_one();
    return;
  }
  const Key key = "lk-" + std::to_string(s->rng.NextBelow(s->load.key_space));
  const bool is_get =
      s->load.get_fraction > 0.0 && s->rng.NextDouble() < s->load.get_fraction;
  // Completion captures are kept to {s, now} (16 bytes, trivially
  // copyable): they fit std::function's small-object buffer, so issuing an
  // op does not heap-allocate the callback.
  if (is_get) {
    s->client->Get(key, [s, now](const ChainReactionClient::GetResult& r) {
      r.status.ok() ? ++s->ops : ++s->failures;
      s->hist.Record(WallMicros() - now);
      s->owner->StepLoadSession(s);
    });
  } else {
    Value value(s->load.value_size, 'v');
    s->client->Put(key, std::move(value),
                   [s, now](const ChainReactionClient::PutResult& r) {
                     r.status.ok() ? ++s->ops : ++s->failures;
                     s->hist.Record(WallMicros() - now);
                     s->owner->StepLoadSession(s);
                   });
  }
}

TcpCluster::LoadResult TcpCluster::RunClosedLoop(const LoadOptions& load) {
  std::mutex mu;
  std::condition_variable cv;
  const uint32_t pipeline = std::max<uint32_t>(1, load.pipeline);
  // Each session runs `pipeline` independent op chains; every chain
  // retires at the deadline.
  size_t remaining = clients_.size() * pipeline;

  const Time start = WallMicros();
  std::vector<std::unique_ptr<LoadSession>> sessions;
  for (size_t c = 0; c < clients_.size(); ++c) {
    auto s = std::make_unique<LoadSession>();
    s->owner = this;
    s->client = clients_[c].get();
    s->rng = Rng(opts_.seed + 77 * (c + 1));
    s->deadline = start + load.duration;
    s->load = load;
    s->mu = &mu;
    s->cv = &cv;
    s->remaining = &remaining;
    sessions.push_back(std::move(s));
  }
  for (size_t c = 0; c < sessions.size(); ++c) {
    LoadSession* s = sessions[c].get();
    for (uint32_t p = 0; p < pipeline; ++p) {
      client_runtime_->PostTo(s->client->address(), [this, s]() { StepLoadSession(s); });
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return remaining == 0; });
  }
  const Time elapsed = WallMicros() - start;

  LoadResult result;
  for (const auto& s : sessions) {
    result.ops += s->ops;
    result.failures += s->failures;
    result.latency_us.Merge(s->hist);
  }
  result.ops_per_sec = elapsed > 0 ? result.ops * 1e6 / static_cast<double>(elapsed) : 0.0;
  return result;
}

}  // namespace chainreaction
