// Interactive shell against a ChainReaction cluster running over loopback
// TCP — a tiny "redis-cli" for the datastore. Commands:
//
//   put <key> <value>     write (shows assigned version + carried deps)
//   mget <k1> <k2> ...    causally consistent snapshot read
//   get <key>             read (shows version, chain position, stability)
//   meta <key>            client metadata for the key
//   session               accessed-set summary
//   stats [filter]        windowed metrics since the last 'stats' call
//   stats --cumulative [filter]   full cumulative registry dump
//   stats reset           forget the window baseline
//   wal                   per-node WAL counters + recovery stats (durability)
//   trace                 render the last put's end-to-end trace
//   reset                 forget session state
//   quit
//
// Elastic membership (live, no restart):
//   join [weight]         boot a new node in its own runtime and stream its
//                         key ranges to it before the epoch flips
//   drain <node>          migrate a node's ranges away, then drop it
//   rebalance <node> <w>  change a node's vnode weight (moves ring segments)
//   ring                  current epoch + member nodes and weights
//
//   $ ./build/examples/kv_shell [--servers N] [--replication R] [--k K]
//                               [--loop-threads L]
//                               [--data-dir DIR] [--fsync-mode always|batch|none]
//                               [--http-port P]
//
// All server nodes live in ONE consolidated TcpRuntime whose --loop-threads
// event loops host them with ring-segment affinity (ring neighbors share a
// loop, so most down-chain hops stay on one thread).
//
// With --http-port the process serves the telemetry endpoints (/metrics,
// /metrics.json, /metrics/window, /traces, /events, /status) on loopback
// port P, aggregated over every in-process node.
//
// With --data-dir every node write-ahead-logs to DIR/n<id>/ and recovers
// from it on startup, so a killed shell restarted on the same DIR comes
// back with its data.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/admin/migration.h"
#include "src/common/flags.h"
#include "src/core/chainreaction_client.h"
#include "src/core/chainreaction_node.h"
#include "src/net/address_book.h"
#include "src/net/sync_client.h"
#include "src/net/tcp_cluster.h"
#include "src/net/tcp_runtime.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/obs/window.h"
#include "src/ring/membership.h"
#include "src/ring/ring.h"
#include "src/wal/wal.h"

using namespace chainreaction;

namespace {
const char* kUsage =
    "usage: kv_shell [--servers N] [--replication R] [--k K] [--loop-threads L]\n"
    "                [--data-dir DIR] [--fsync-mode always|batch|none]\n"
    "                [--engine mem|disk] [--cache-mb MB] [--http-port P]\n";
}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(argc, argv,
                   {"servers", "replication", "k", "loop-threads", "data-dir", "fsync-mode",
                    "engine", "cache-mb", "http-port", "help"})) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  if (flags.Has("help")) {
    std::printf("%s", kUsage);
    return 0;
  }
  const uint32_t servers = static_cast<uint32_t>(flags.GetInt("servers", 6));
  const uint32_t replication = static_cast<uint32_t>(flags.GetInt("replication", 3));
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 2));
  const uint32_t loop_threads =
      static_cast<uint32_t>(flags.GetInt("loop-threads", 1));
  if (loop_threads == 0 || loop_threads > servers) {
    std::fprintf(stderr, "need 1 <= loop-threads <= servers\n");
    return 1;
  }
  const std::string data_dir = flags.GetString("data-dir", "");
  const uint16_t http_port = static_cast<uint16_t>(flags.GetInt("http-port", 0));
  WalOptions wal_options;
  if (!ParseFsyncPolicy(flags.GetString("fsync-mode", "batch"), &wal_options.policy)) {
    std::fprintf(stderr, "bad --fsync-mode (want always|batch|none)\n%s", kUsage);
    return 2;
  }
  StorageEngineKind engine = StorageEngineKind::kMem;
  if (!ParseStorageEngineKind(flags.GetString("engine", "mem"), &engine)) {
    std::fprintf(stderr, "bad --engine (want mem|disk)\n%s", kUsage);
    return 2;
  }
  if (engine == StorageEngineKind::kDisk && data_dir.empty()) {
    std::fprintf(stderr, "--engine disk requires --data-dir\n%s", kUsage);
    return 2;
  }
  if (replication > servers || k > replication || k == 0) {
    std::fprintf(stderr, "need servers >= R >= k >= 1\n");
    return 1;
  }

  AddressBook book;
  std::vector<NodeId> ids;
  for (NodeId n = 0; n < servers; ++n) {
    ids.push_back(n);
  }
  const Ring ring(ids, 16, replication, 1);

  CrxConfig cfg;
  cfg.replication = replication;
  cfg.k_stability = k;
  cfg.client_timeout = 2 * kSecond;
  cfg.trace_sample_every = 1;  // trace every put; 'trace' renders the last one
  cfg.engine = engine;
  cfg.engine_cache_bytes = static_cast<uint64_t>(flags.GetInt("cache-mb", 64)) << 20;

  // One registry + trace collector shared by every runtime in this process;
  // 'stats' snapshots it while the loop threads keep updating.
  MetricsRegistry metrics;
  TraceCollector traces;

  // One consolidated server runtime; node actors are placed on its event
  // loops so that few chain links cross loops.
  const std::vector<uint32_t> shard_of =
      TcpCluster::AssignShardsByRingOrder(ring, servers, loop_threads);
  auto server_rt = std::make_unique<TcpRuntime>(&book, loop_threads);
  std::vector<std::unique_ptr<ChainReactionNode>> nodes;
  for (NodeId n = 0; n < servers; ++n) {
    auto node = std::make_unique<ChainReactionNode>(n, cfg, ring);
    if (!data_dir.empty()) {
      const std::string node_dir = data_dir + "/n" + std::to_string(n);
      // Recover first (torn-tail repair needs the newest segment), then
      // open the WAL for new writes.
      Status st = node->RecoverFrom(node_dir);
      if (!st.ok()) {
        std::fprintf(stderr, "node %llu: recovery failed: %s\n",
                     static_cast<unsigned long long>(n), st.ToString().c_str());
        return 1;
      }
      st = node->EnableDurability(node_dir, wal_options);
      if (!st.ok()) {
        std::fprintf(stderr, "node %llu: cannot open wal: %s\n",
                     static_cast<unsigned long long>(n), st.ToString().c_str());
        return 1;
      }
      const WalReplayStats& rs = node->last_recovery_stats();
      if (rs.records > 0 || rs.segments_replayed > 0) {
        std::printf("node %llu: recovered %llu record(s) from %llu segment(s) in %lld us%s\n",
                    static_cast<unsigned long long>(n),
                    static_cast<unsigned long long>(rs.records),
                    static_cast<unsigned long long>(rs.segments_replayed),
                    static_cast<long long>(node->last_recovery_replay_us()),
                    rs.tail_truncated ? " (torn tail truncated)" : "");
      }
    }
    node->AttachEnv(server_rt->Register(n, node.get(), shard_of[n]));
    node->AttachObs(&metrics, &traces);
    nodes.push_back(std::move(node));
  }
  server_rt->AttachMetrics(&metrics);

  // Elastic membership: the admin plane lives on the server runtime's first
  // loop. The shell client subscribes as a listener so it follows epoch
  // flips live.
  constexpr Address kShellMembershipAddr = kServiceAddressBase + 1024;
  constexpr Address kShellCoordinatorAddr = kServiceAddressBase + 2048;
  MembershipService membership(ids, 16, replication);
  membership.AttachEnv(server_rt->Register(kShellMembershipAddr, &membership, 0));
  MigrationCoordinator::Options copt;
  copt.vnodes = 16;
  copt.replication = replication;
  copt.self = kShellCoordinatorAddr;
  copt.membership = kShellMembershipAddr;
  MigrationCoordinator coordinator(copt);
  coordinator.AttachEnv(server_rt->Register(kShellCoordinatorAddr, &coordinator, 0));
  coordinator.AttachObs(&metrics);
  coordinator.Seed(1, ids, {});
  membership.AddListener(kShellCoordinatorAddr);
  membership.AddListener(kClientAddressBase);

  auto client_rt = std::make_unique<TcpRuntime>(&book);
  auto client = std::make_unique<ChainReactionClient>(kClientAddressBase, cfg, ring, 1);
  client->AttachEnv(client_rt->Register(kClientAddressBase, client.get()));
  client->AttachObs(&metrics, &traces);
  client_rt->AttachMetrics(&metrics);
  server_rt->Start();
  client_rt->Start();
  SyncClient kv(client.get(), client_rt.get());

  // Nodes joined at runtime, each in its own runtime (a separate process
  // equivalent; peers find it through the shared address book).
  std::vector<std::unique_ptr<TcpRuntime>> joined_rts;
  std::vector<std::unique_ptr<ChainReactionNode>> joined_nodes;
  NodeId next_node_id = servers;

  // Coordinator state is loop-owned: run admin calls on its loop thread and
  // hand the result back.
  auto run_plan = [&](std::function<uint64_t()> fn) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    uint64_t id = 0;
    server_rt->PostTo(kShellCoordinatorAddr, [&]() {
      id = fn();
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    return id;
  };
  auto await_migration = [&]() {
    for (int i = 0; i < 3000 && !coordinator.idle(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!coordinator.idle()) {
      std::printf("migration still running (check 'ring' / /status later)\n");
      return;
    }
    std::printf("done: epoch=%llu completed=%llu aborted=%llu\n",
                static_cast<unsigned long long>(coordinator.observed_epoch()),
                static_cast<unsigned long long>(coordinator.completed()),
                static_cast<unsigned long long>(coordinator.aborted()));
  };

  // Optional HTTP telemetry: one aggregated endpoint for every in-process
  // node. /status posts into each node's loop thread because node state is
  // loop-owned.
  std::unique_ptr<TelemetryServer> telemetry;
  if (http_port != 0) {
    telemetry = std::make_unique<TelemetryServer>(http_port);
    if (!telemetry->ok()) {
      std::fprintf(stderr, "cannot bind --http-port %u\n", http_port);
      return 1;
    }
    telemetry->AttachMetrics(&metrics);
    telemetry->AttachTraces(&traces);
    for (size_t i = 0; i < nodes.size(); ++i) {
      telemetry->AddRecorder("n" + std::to_string(i), nodes[i]->events());
    }
    telemetry->SetStatusProvider([&server_rt, &nodes]() {
      std::string out = "{\"nodes\":[";
      for (size_t i = 0; i < nodes.size(); ++i) {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        std::string status;
        // Node state is loop-owned; post into the node's own event loop.
        server_rt->PostTo(static_cast<Address>(i), [&]() {
          status = nodes[i]->StatusJson();
          std::lock_guard<std::mutex> lock(mu);
          done = true;
          cv.notify_one();
        });
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done; });
        if (i > 0) {
          out += ',';
        }
        out += status;
      }
      out += "]}";
      return out;
    });
    telemetry->Start();
    std::printf("telemetry on http://127.0.0.1:%u/ (/metrics /status /events /traces)\n",
                telemetry->port());
  }

  // Windowed `stats`: diffs the cumulative registry against the last call.
  // Times are relative to shell start so the first window reads sensibly.
  WindowedAggregator stats_window;
  const int64_t stats_t0 = TelemetryServer::WallMicros();

  std::printf(
      "chainreaction shell — %u servers over loopback TCP (%u event loop%s), R=%u, k=%u\n",
      servers, loop_threads, loop_threads == 1 ? "" : "s", replication, k);
  if (!data_dir.empty()) {
    std::printf("durability on — data dir %s, fsync=%s\n", data_dir.c_str(),
                FsyncPolicyName(wal_options.policy));
  }
  std::printf("type 'help' for commands\n");

  std::string line;
  while (true) {
    std::printf("crx> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) {
      break;
    }
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) {
      continue;
    }
    if (cmd == "quit" || cmd == "exit") {
      break;
    }
    if (cmd == "help") {
      std::printf(
          "put <key> <value> | get <key> | mget <k>... | meta <key> | session | "
          "stats [--cumulative] [filter] | stats reset | wal | trace | reset | quit\n"
          "admin: join [weight] | drain <node> | rebalance <node> <weight> | ring\n");
      continue;
    }
    if (cmd == "ring") {
      std::mutex mu;
      std::condition_variable cv;
      bool done = false;
      std::string desc;
      server_rt->PostTo(kShellMembershipAddr, [&]() {
        desc = "epoch=" + std::to_string(membership.epoch()) + " nodes=[";
        const std::vector<NodeId>& members = membership.nodes();
        for (size_t i = 0; i < members.size(); ++i) {
          desc += (i > 0 ? " " : "") + std::to_string(members[i]) + ":w" +
                  std::to_string(membership.ring().WeightOf(members[i]));
        }
        desc += "]";
        std::lock_guard<std::mutex> lock(mu);
        done = true;
        cv.notify_one();
      });
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done; });
      std::printf("%s\n", desc.c_str());
      continue;
    }
    if (cmd == "join") {
      uint32_t weight = 0;
      in >> weight;  // optional; 0 = default vnode count
      const NodeId id = next_node_id++;
      auto rt = std::make_unique<TcpRuntime>(&book);
      auto node = std::make_unique<ChainReactionNode>(id, cfg, ring);
      if (!data_dir.empty()) {
        const Status st = node->EnableDurability(data_dir + "/n" + std::to_string(id),
                                                 wal_options);
        if (!st.ok()) {
          std::printf("cannot open wal for node %llu: %s\n",
                      static_cast<unsigned long long>(id), st.ToString().c_str());
          next_node_id--;
          continue;
        }
      }
      node->AttachObs(&metrics, &traces);
      node->AttachEnv(rt->Register(id, node.get()));
      rt->Start();
      joined_nodes.push_back(std::move(node));
      joined_rts.push_back(std::move(rt));
      std::printf("node %llu booted; streaming its key ranges...\n",
                  static_cast<unsigned long long>(id));
      if (run_plan([&]() { return coordinator.StartJoin(id, weight); }) == 0) {
        std::printf("join rejected (already a member?)\n");
        continue;
      }
      await_migration();
      continue;
    }
    if (cmd == "drain") {
      NodeId target = 0;
      if (!(in >> target)) {
        std::printf("usage: drain <node>\n");
        continue;
      }
      if (run_plan([&]() { return coordinator.StartDrain(target); }) == 0) {
        std::printf("drain rejected (unknown node, or it would drop below R?)\n");
        continue;
      }
      std::printf("draining node %llu...\n", static_cast<unsigned long long>(target));
      await_migration();
      continue;
    }
    if (cmd == "rebalance") {
      NodeId target = 0;
      uint32_t weight = 0;
      if (!(in >> target >> weight) || weight == 0) {
        std::printf("usage: rebalance <node> <weight>\n");
        continue;
      }
      if (run_plan([&]() { return coordinator.StartRebalance(target, weight); }) == 0) {
        std::printf("rebalance rejected (unknown node or unchanged weight?)\n");
        continue;
      }
      std::printf("rebalancing node %llu to weight %u...\n",
                  static_cast<unsigned long long>(target), weight);
      await_migration();
      continue;
    }
    if (cmd == "wal") {
      if (data_dir.empty()) {
        std::printf("(durability off — start with --data-dir)\n");
        continue;
      }
      for (const auto& node : nodes) {
        const Wal* wal = node->wal();
        const WalReplayStats& rs = node->last_recovery_stats();
        std::printf("node %llu: appends=%llu fsyncs=%llu bytes=%llu active_seg=%llu "
                    "recovered=%llu\n",
                    static_cast<unsigned long long>(node->id()),
                    static_cast<unsigned long long>(wal->appends()),
                    static_cast<unsigned long long>(wal->fsyncs()),
                    static_cast<unsigned long long>(wal->bytes_written()),
                    static_cast<unsigned long long>(wal->active_seq()),
                    static_cast<unsigned long long>(rs.records));
      }
      continue;
    }
    if (cmd == "stats") {
      std::string arg;
      in >> arg;
      if (arg == "reset") {
        stats_window.Reset();
        std::printf("stats window reset — next 'stats' reports since now\n");
        continue;
      }
      if (arg == "--cumulative") {
        std::string filter;
        in >> filter;
        std::printf("%s", RenderTextFiltered(metrics.Snapshot(), filter).c_str());
        continue;
      }
      // Default: windowed view since the previous 'stats' (or 'stats reset').
      const std::string filter = arg;  // optional substring filter
      const WindowedView view =
          stats_window.Advance(metrics.Snapshot(), TelemetryServer::WallMicros() - stats_t0);
      const std::string text = view.RenderText();
      if (filter.empty()) {
        std::printf("%s", text.c_str());
      } else {
        std::istringstream lines(text);
        std::string ln;
        while (std::getline(lines, ln)) {
          if (ln.find(filter) != std::string::npos || ln.rfind("window", 0) == 0) {
            std::printf("%s\n", ln.c_str());
          }
        }
      }
      continue;
    }
    if (cmd == "trace") {
      TraceCollector::Trace t;
      if (traces.Latest(&t)) {
        std::printf("%s", TraceCollector::Render(t).c_str());
      } else {
        std::printf("(no traces yet — do a put first)\n");
      }
      continue;
    }
    if (cmd == "put") {
      std::string key, value;
      in >> key;
      std::getline(in, value);
      if (!value.empty() && value.front() == ' ') {
        value.erase(0, 1);
      }
      if (key.empty()) {
        std::printf("usage: put <key> <value>\n");
        continue;
      }
      const auto r = kv.Put(key, value);
      std::printf("OK version=%s deps_carried=%zu\n", r.version.ToString().c_str(),
                  r.deps.size());
      continue;
    }
    if (cmd == "get") {
      std::string key;
      in >> key;
      if (key.empty()) {
        std::printf("usage: get <key>\n");
        continue;
      }
      const auto r = kv.Get(key);
      if (!r.found) {
        std::printf("(nil)\n");
      } else {
        std::printf("\"%s\"  version=%s position=%u\n", r.value.c_str(),
                    r.version.ToString().c_str(), r.answered_by_position);
      }
      continue;
    }
    if (cmd == "mget") {
      std::vector<Key> keys;
      std::string k2;
      while (in >> k2) {
        keys.push_back(k2);
      }
      if (keys.empty()) {
        std::printf("usage: mget <key> <key> ...\n");
        continue;
      }
      std::mutex mu;
      std::condition_variable cv;
      bool done = false;
      ChainReactionClient::MultiGetResult result;
      client_rt->Post([&]() {
        client->MultiGet(keys, [&](const ChainReactionClient::MultiGetResult& r) {
          std::lock_guard<std::mutex> lock(mu);
          result = r;
          done = true;
          cv.notify_one();
        });
      });
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done; });
      }
      std::printf("snapshot in %u round%s:\n", result.rounds, result.rounds == 1 ? "" : "s");
      for (size_t i = 0; i < keys.size(); ++i) {
        const auto& r = result.results[i];
        if (r.found) {
          std::printf("  %s = \"%s\"  version=%s\n", keys[i].c_str(), r.value.c_str(),
                      r.version.ToString().c_str());
        } else {
          std::printf("  %s = (nil)\n", keys[i].c_str());
        }
      }
      continue;
    }
    if (cmd == "meta") {
      std::string key;
      in >> key;
      Version v;
      ChainIndex idx = 0;
      if (client->LookupMetadata(key, &v, &idx)) {
        std::printf("version=%s chain_index=%u (may read %u of %u nodes)\n",
                    v.ToString().c_str(), idx, idx, replication);
      } else {
        std::printf("(no metadata — reads may go to any of the %u chain nodes)\n",
                    replication);
      }
      continue;
    }
    if (cmd == "session") {
      std::printf("accessed-set: %zu entr%s (~%zu bytes on next put), metadata for %zu keys\n",
                  client->accessed_set_size(), client->accessed_set_size() == 1 ? "y" : "ies",
                  client->AccessedSetBytes(), client->metadata_entries());
      continue;
    }
    if (cmd == "reset") {
      client->ResetSession();
      std::printf("session state cleared\n");
      continue;
    }
    std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
  }

  if (telemetry) {
    telemetry->Stop();  // before the loops: /status posts into them
  }
  client_rt->Stop();
  for (auto& rt : joined_rts) {
    rt->Stop();
  }
  server_rt->Stop();
  std::printf("bye\n");
  return 0;
}
