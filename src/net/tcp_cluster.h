// One-process TCP deployment harness.
//
// Stands up a full ChainReaction cluster over loopback sockets inside one
// process: a single server TcpRuntime whose `loop_threads` event loops host
// all node actors, plus a client TcpRuntime hosting N client sessions.
// Nodes are placed on the server loops by their chain links
// (AssignShardsByRingOrder), so that as many chain hops as the ring allows
// stay in-process on one thread; the rest are handed to the other loop
// through its posted-frame queue.
//
// The harness also bundles a closed-loop load driver (each client issues
// its next operation from the previous one's completion callback) used by
// bench_e16_hotpath, crx_loadgen --loop-threads, and the multi-loop tests.
#ifndef SRC_NET_TCP_CLUSTER_H_
#define SRC_NET_TCP_CLUSTER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/admin/migration.h"
#include "src/common/histogram.h"
#include "src/common/types.h"
#include "src/core/chainreaction_client.h"
#include "src/core/chainreaction_node.h"
#include "src/core/config.h"
#include "src/net/address_book.h"
#include "src/net/tcp_runtime.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/ring/membership.h"
#include "src/ring/ring.h"

namespace chainreaction {

class TcpCluster {
 public:
  struct Options {
    uint32_t num_nodes = 8;
    uint32_t loop_threads = 1;         // server event loops
    uint32_t num_clients = 1;          // independent client sessions
    uint32_t client_loop_threads = 1;  // client-side event loops
    uint64_t seed = 42;
    // config.replication governs chain length; batching windows and
    // timeouts are taken as-is.
    CrxConfig config;
    MetricsRegistry* metrics = nullptr;  // optional
    // Optional shared trace sink: every node AND client reports its hops
    // here (one-process deployments — the assembler reads it directly).
    TraceCollector* traces = nullptr;
    // Distributed-telemetry mode: each node gets its OWN TraceCollector and
    // TelemetryServer on an ephemeral loopback port (see
    // node_telemetry_port), so trace assembly must pull per-node partials
    // over HTTP exactly as it would against separate processes. Clients
    // report to client_collector(). Ignored when `traces` is set.
    bool per_node_telemetry = false;
    // Seed-style deployment: one single-loop runtime per node, every chain
    // hop over a socket (ignores loop_threads). Benchmarks use it as the
    // pre-overhaul baseline.
    bool per_node_runtimes = false;
    // False restores pre-overhaul per-frame write()/post behavior in all
    // server runtimes (see TcpRuntime).
    bool coalesced_io = true;
    // Elastic membership: hosts a MembershipService and MigrationCoordinator
    // on the server runtime so nodes can join/drain/rebalance while load
    // runs (AddJoiningServer/DrainServer/RebalanceServer). Clients become
    // membership listeners and follow epoch flips live.
    bool elastic = false;
    Duration migration_timeout = 10 * kSecond;
    uint32_t mig_batch_keys = 64;
    Duration mig_batch_interval = 0;
  };

  struct LoadOptions {
    Duration duration = 2 * kSecond;  // wall-clock run length
    uint32_t value_size = 128;        // bytes per put value
    uint32_t key_space = 1024;        // distinct keys
    double get_fraction = 0.0;        // remainder are puts
    // Outstanding operations per client session. 1 = strictly sequential
    // (session guarantees); >1 pipelines puts down the chain, which is what
    // the cumulative-ack batching coalesces.
    uint32_t pipeline = 1;
  };

  struct LoadResult {
    uint64_t ops = 0;
    uint64_t failures = 0;
    double ops_per_sec = 0.0;
    Histogram latency_us;  // per-op completion latency
  };

  explicit TcpCluster(Options opts);
  ~TcpCluster();
  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  // Runs every client session closed-loop until the deadline and merges
  // their stats. Call from an ordinary (non-loop) thread.
  LoadResult RunClosedLoop(const LoadOptions& load);

  // The consolidated server runtime (first one in per-node mode).
  TcpRuntime* server_runtime() { return server_runtimes_[0].get(); }
  TcpRuntime* client_runtime() { return client_runtime_.get(); }
  // Aggregated over all server runtimes (1 unless per_node_runtimes).
  uint64_t server_writev_calls() const;
  uint64_t server_writev_frames() const;
  uint64_t server_frames_sent() const;
  ChainReactionClient* client(size_t i) { return clients_[i].get(); }
  size_t num_clients() const { return clients_.size(); }
  ChainReactionNode* node(NodeId n) { return nodes_[n].get(); }
  size_t num_nodes() const { return nodes_.size(); }
  // The boot-time ring (epoch 1). Under elastic mode the live layout is the
  // membership service's — read it through coordinator atomics, not here.
  const Ring& ring() const { return ring_; }
  uint32_t shard_of_node(NodeId n) const { return node_shard_[n]; }

  // Distributed telemetry (requires Options::per_node_telemetry) ------------
  // Node n's telemetry port (0 if the server failed to bind) and its private
  // trace collector; the client-side collector holds client_put/client_ack
  // hops. A TraceAssembler pulls the node ports + merges client partials.
  uint16_t node_telemetry_port(NodeId n) const {
    return n < node_telemetry_.size() && node_telemetry_[n] != nullptr
               ? node_telemetry_[n]->port()
               : 0;
  }
  TraceCollector* node_collector(NodeId n) {
    return n < node_collectors_.size() ? node_collectors_[n].get() : nullptr;
  }
  TraceCollector* client_collector() { return client_collector_.get(); }

  // Elastic membership (requires Options::elastic) -------------------------
  // Boots a brand-new node in its OWN TcpRuntime — a separate process
  // equivalent; peers learn its port from the shared address book without
  // any restart — and plans a join migration for it. Returns the node id.
  NodeId AddJoiningServer(uint32_t weight = 0);
  // Plans a drain (the node's data migrates away, then it leaves the ring).
  void DrainServer(NodeId n);
  // Plans a vnode-weight change for a live node.
  void RebalanceServer(NodeId n, uint32_t weight);
  // Blocks (wall-clock) until every planned migration issued through this
  // harness has finished (committed or aborted). False on timeout.
  bool WaitMigrationIdle(Duration max_wait = 30 * kSecond);
  MigrationCoordinator* coordinator() { return coordinator_.get(); }

  // Node -> loop placement that keeps chain links on one loop: starts
  // from `loops` contiguous blocks of ring order, then swaps pairs of nodes
  // on different loops while a swap lowers the number of adjacent links in
  // ring.SegmentChains() whose two nodes sit on different loops. Every loop
  // gets floor(n/loops) or ceil(n/loops) nodes; deterministic for a given
  // ring. Exposed for tests, perfbench and kv_shell.
  static std::vector<uint32_t> AssignShardsByRingOrder(const Ring& ring, uint32_t num_nodes,
                                                       uint32_t loops);

 private:
  struct LoadSession;
  void StepLoadSession(LoadSession* s);

  Options opts_;
  CrxConfig effective_config_;  // opts_.config + elastic-mode membership addr
  Ring ring_;
  AddressBook book_;
  std::vector<uint32_t> node_shard_;
  std::vector<std::unique_ptr<TcpRuntime>> server_runtimes_;
  std::unique_ptr<TcpRuntime> client_runtime_;
  std::vector<std::unique_ptr<ChainReactionNode>> nodes_;
  std::vector<std::unique_ptr<ChainReactionClient>> clients_;

  // Distributed-telemetry state (empty unless opts_.per_node_telemetry).
  std::vector<std::unique_ptr<TraceCollector>> node_collectors_;
  std::vector<std::unique_ptr<TelemetryServer>> node_telemetry_;
  std::unique_ptr<TraceCollector> client_collector_;
  void AttachNodeTelemetry(ChainReactionNode* node);

  // Elastic-mode state (null unless opts_.elastic).
  std::unique_ptr<MembershipService> membership_;
  std::unique_ptr<MigrationCoordinator> coordinator_;
  // One runtime per live-joined node, modeling separate processes.
  std::vector<std::unique_ptr<TcpRuntime>> joined_runtimes_;
  std::atomic<uint64_t> migrations_issued_{0};
};

}  // namespace chainreaction

#endif  // SRC_NET_TCP_CLUSTER_H_
