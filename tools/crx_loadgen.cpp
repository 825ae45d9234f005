// crx_loadgen — run any system / workload / fault combination from the
// command line and print a full report. The Swiss-army knife for exploring
// the simulated systems outside the fixed benchmark suite.
//
// Examples:
//   crx_loadgen --system chainreaction --workload B --servers 16 --clients 64
//   crx_loadgen --system craq --workload A --records 5000 --value-size 512
//   crx_loadgen --system chainreaction --dcs 3 --wan-ms 120 --check
//   crx_loadgen --system chainreaction --drop 0.02 --kill-at-ms 1000 --check
//
// With --loop-threads the tool switches from the simulator to a REAL
// loopback-TCP deployment (TcpCluster): all server node actors in one
// multi-loop runtime with ring-segment affinity, pipelined closed-loop
// clients, wall-clock timing:
//   crx_loadgen --loop-threads 4 --servers 8 --clients 16 --pipeline 8
#include <cstdio>
#include <string>

#include "src/common/flags.h"
#include "src/harness/cluster.h"
#include "src/harness/experiment.h"
#include "src/net/tcp_cluster.h"
#include "src/obs/assembly.h"
#include "src/obs/window.h"

using namespace chainreaction;

namespace {

const char* kUsage = R"(crx_loadgen: drive a simulated cluster and report stats

  --system S       chainreaction | cr | craq | eventual | quorum   [chainreaction]
  --workload W     A | B | C | D                                   [B]
  --servers N      servers per DC                                  [12]
  --clients N      total closed-loop clients                       [48]
  --records N      preloaded keys                                  [1000]
  --value-size N   value bytes                                     [1024]
  --replication R  chain length                                    [3]
  --k N            k-stability ack position (chainreaction)        [2]
  --dcs N          datacenters (chainreaction only)                [1]
  --wan-ms N       inter-DC one-way latency, ms                    [80]
  --measure-ms N   measurement window, simulated ms                [1000]
  --warmup-ms N    warmup window, simulated ms                     [300]
  --think-us N     client think time, us                           [0]
  --drop P         message drop probability                        [0]
  --kill-at-ms T   crash one server T ms into the measurement      [off]
  --join-at-ms T   live-join a new server T ms into the measurement
                   (its ranges stream in, then the epoch flips)    [off]
  --drain-at-ms T  live-drain one server T ms into the measurement [off]
  --data-dir DIR   per-node WALs under DIR (chainreaction only)    [off]
  --fsync-mode M   always | batch | none                           [batch]
  --engine E       mem | disk value storage (needs --data-dir)     [mem]
  --cache-mb N     disk-engine resident-value budget per node, MB  [64]
  --crash-at-ms T  crash-with-durability one server at T ms        [off]
  --restart-at-ms T  restart it with recovery at T ms              [off]
  --seed N         RNG seed                                        [7]
  --check          attach the causal+ checker (chainreaction)
  --stats-every-ms N  print a windowed stats line every N sim ms   [off]
  --trace-every N  trace every Nth put; print the last trace       [off]
  --trace-prob P   probabilistic head sampling of puts             [0]
  --slow-trace-us N  tail sampling: always retain traces >= N us   [off]
  --dump-traces    assemble sampled traces into causal timelines and
                   print per-request critical paths after the run  [off]
  --http-port P    serve /metrics /status /events /traces
                   /criticalpath on P                              [off]
  --metrics        dump the full metrics registry after the run
  --help

TCP mode (real loopback sockets, wall-clock; chainreaction only):
  --loop-threads N server event loops in one consolidated runtime  [off]
  --pipeline N     outstanding ops per client session              [4]
  --get-fraction P fraction of gets (remainder puts)               [0.5]
  (honors --servers --clients --records --value-size --replication --k
   --measure-ms --seed --trace-every --dump-traces --metrics)
)";

SystemKind ParseSystem(const std::string& s) {
  if (s == "chainreaction" || s == "crx") {
    return SystemKind::kChainReaction;
  }
  if (s == "cr" || s == "fawn") {
    return SystemKind::kCr;
  }
  if (s == "craq") {
    return SystemKind::kCraq;
  }
  if (s == "eventual" || s == "r1w1") {
    return SystemKind::kEventualOne;
  }
  if (s == "quorum") {
    return SystemKind::kQuorum;
  }
  std::fprintf(stderr, "unknown system '%s'\n%s", s.c_str(), kUsage);
  std::exit(2);
}

WorkloadSpec ParseWorkload(const std::string& w, uint64_t records, size_t value_size) {
  if (w == "A" || w == "a") {
    return WorkloadSpec::A(records, value_size);
  }
  if (w == "B" || w == "b") {
    return WorkloadSpec::B(records, value_size);
  }
  if (w == "C" || w == "c") {
    return WorkloadSpec::C(records, value_size);
  }
  if (w == "D" || w == "d") {
    return WorkloadSpec::D(records, value_size);
  }
  std::fprintf(stderr, "unknown workload '%s'\n%s", w.c_str(), kUsage);
  std::exit(2);
}

// Assembled critical paths: one aggregate line always, and the per-request
// timelines when --dump-traces asked for them.
void PrintCriticalPaths(const std::vector<CriticalPath>& cps, bool dump_each) {
  if (cps.empty()) {
    std::printf("critical-path none assembled\n");
    return;
  }
  double e2e = 0, net = 0, encode = 0, depwait = 0, kack = 0, coverage = 0;
  size_t complete = 0, gated = 0;
  for (const CriticalPath& cp : cps) {
    e2e += static_cast<double>(cp.e2e_us);
    net += static_cast<double>(cp.net_us);
    encode += static_cast<double>(cp.encode_us);
    depwait += static_cast<double>(cp.depwait_us);
    kack += static_cast<double>(cp.kack_us);
    coverage += cp.coverage;
    complete += cp.complete ? 1 : 0;
    gated += cp.depwait_us > 0 ? 1 : 0;
  }
  const double n = static_cast<double>(cps.size());
  std::printf("critical-path %zu assembled (%zu complete, %zu dep-gated); mean us: "
              "e2e=%.0f net=%.0f encode=%.0f depwait=%.0f kack=%.0f coverage=%.2f\n",
              cps.size(), complete, gated, e2e / n, net / n, encode / n, depwait / n,
              kack / n, coverage / n);
  if (!dump_each) {
    return;
  }
  constexpr size_t kMaxDumped = 16;
  for (size_t i = 0; i < cps.size() && i < kMaxDumped; ++i) {
    std::printf("%s", RenderCriticalPath(cps[i]).c_str());
  }
  if (cps.size() > kMaxDumped) {
    std::printf("  ... %zu more (raise --http-port and browse /criticalpath?id=)\n",
                cps.size() - kMaxDumped);
  }
}

// Real-socket deployment: every node actor in one consolidated multi-loop
// TcpRuntime, pipelined closed-loop clients, wall-clock measurement.
int RunTcpMode(const Flags& flags) {
  TcpCluster::Options opts;
  opts.num_nodes = static_cast<uint32_t>(flags.GetInt("servers", 8));
  opts.loop_threads = static_cast<uint32_t>(flags.GetInt("loop-threads", 1));
  opts.num_clients = static_cast<uint32_t>(flags.GetInt("clients", 16));
  opts.client_loop_threads = std::min<uint32_t>(4, opts.num_clients);
  opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  opts.config.replication = static_cast<uint32_t>(flags.GetInt("replication", 3));
  opts.config.k_stability = static_cast<uint32_t>(flags.GetInt("k", 2));
  opts.config.num_dcs = 1;
  opts.config.client_timeout = 2 * kSecond;
  // Observability: sampled end-to-end tracing with a shared collector (one
  // process — the assembler merges it directly). --dump-traces without an
  // explicit rate samples every 64th put.
  MetricsRegistry metrics;
  TraceCollector traces;
  const bool dump_traces = flags.GetBool("dump-traces", false);
  opts.config.trace_sample_every = static_cast<uint32_t>(flags.GetInt("trace-every", 0));
  if (dump_traces && opts.config.trace_sample_every == 0) {
    opts.config.trace_sample_every = 64;
  }
  opts.metrics = &metrics;
  if (opts.config.trace_sample_every > 0) {
    opts.traces = &traces;
  }
  if (opts.loop_threads == 0 || opts.loop_threads > opts.num_nodes ||
      opts.num_nodes < opts.config.replication) {
    std::fprintf(stderr, "need servers >= replication and 1 <= loop-threads <= servers\n");
    return 2;
  }

  TcpCluster::LoadOptions load;
  load.duration = flags.GetInt("measure-ms", 1000) * kMillisecond;
  load.value_size = static_cast<uint32_t>(flags.GetInt("value-size", 1024));
  load.key_space = static_cast<uint32_t>(flags.GetInt("records", 1000));
  load.get_fraction = flags.GetDouble("get-fraction", 0.5);
  load.pipeline = static_cast<uint32_t>(flags.GetInt("pipeline", 4));

  TcpCluster cluster(opts);
  const TcpCluster::LoadResult result = cluster.RunClosedLoop(load);
  const uint64_t writev_calls = cluster.server_writev_calls();

  std::printf("== crx_loadgen report (TCP mode) ==\n");
  std::printf("cluster       %u node(s) in 1 runtime x %u event loop(s), R=%u k=%u\n",
              opts.num_nodes, opts.loop_threads, opts.config.replication,
              opts.config.k_stability);
  std::printf("load          %u client(s) x %u outstanding, %u B values, %u keys, "
              "%.0f%% gets\n",
              opts.num_clients, load.pipeline, load.value_size, load.key_space,
              100.0 * load.get_fraction);
  std::printf("throughput    %.0f ops/s (%llu ops, %llu failure(s))\n", result.ops_per_sec,
              static_cast<unsigned long long>(result.ops),
              static_cast<unsigned long long>(result.failures));
  std::printf("latency us    p50=%lld p95=%lld p99=%lld\n",
              static_cast<long long>(result.latency_us.P50()),
              static_cast<long long>(result.latency_us.P95()),
              static_cast<long long>(result.latency_us.P99()));
  std::printf("server io     frames=%llu writev=%llu (%.2f frames/writev)\n",
              static_cast<unsigned long long>(cluster.server_frames_sent()),
              static_cast<unsigned long long>(writev_calls),
              writev_calls > 0 ? static_cast<double>(cluster.server_writev_frames()) /
                                     static_cast<double>(writev_calls)
                               : 0.0);
  if (opts.traces != nullptr) {
    TraceAssembler assembler;
    assembler.MergeFrom(traces);
    PrintCriticalPaths(assembler.PublishAggregates(&metrics), dump_traces);
  }
  if (flags.GetBool("metrics", false)) {
    std::printf("== metrics ==\n%s", metrics.RenderText().c_str());
  }
  return result.failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(argc, argv,
                   {"system", "workload", "servers", "clients", "records", "value-size",
                    "replication", "k", "dcs", "wan-ms", "measure-ms", "warmup-ms",
                    "think-us", "drop", "kill-at-ms", "join-at-ms", "drain-at-ms",
                    "data-dir", "fsync-mode",
                    "engine", "cache-mb",
                    "crash-at-ms", "restart-at-ms", "seed", "check", "stats-every-ms",
                    "trace-every", "trace-prob", "slow-trace-us", "dump-traces",
                    "http-port", "metrics",
                    "loop-threads", "pipeline", "get-fraction",
                    "help"})) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  if (flags.Has("help")) {
    std::printf("%s", kUsage);
    return 0;
  }
  if (flags.Has("loop-threads")) {
    return RunTcpMode(flags);
  }

  ClusterOptions opts;
  opts.system = ParseSystem(flags.GetString("system", "chainreaction"));
  opts.servers_per_dc = static_cast<uint32_t>(flags.GetInt("servers", 12));
  opts.num_dcs = static_cast<uint16_t>(flags.GetInt("dcs", 1));
  opts.clients_per_dc =
      static_cast<uint32_t>(flags.GetInt("clients", 48)) / std::max<uint16_t>(1, opts.num_dcs);
  opts.replication = static_cast<uint32_t>(flags.GetInt("replication", 3));
  opts.k_stability = static_cast<uint32_t>(flags.GetInt("k", 2));
  opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  opts.net.drop_probability = flags.GetDouble("drop", 0.0);
  opts.net.default_inter_site =
      LinkModel{flags.GetInt("wan-ms", 80) * kMillisecond, 2 * kMillisecond};
  opts.server_service = ServiceModel{10, 0.2, 5, 0, 0.2};
  if (opts.net.drop_probability > 0) {
    opts.client_timeout = 50 * kMillisecond;
  }
  opts.trace_sample_every = static_cast<uint32_t>(flags.GetInt("trace-every", 0));
  opts.trace_probability = flags.GetDouble("trace-prob", 0.0);
  opts.slow_trace_us = flags.GetInt("slow-trace-us", 0);
  opts.data_root = flags.GetString("data-dir", "");
  if (!ParseFsyncPolicy(flags.GetString("fsync-mode", "batch"), &opts.fsync_policy)) {
    std::fprintf(stderr, "bad --fsync-mode (want always|batch|none)\n%s", kUsage);
    return 2;
  }
  if (!opts.data_root.empty() && opts.system != SystemKind::kChainReaction) {
    std::fprintf(stderr, "--data-dir requires --system chainreaction\n");
    return 2;
  }
  if (!ParseStorageEngineKind(flags.GetString("engine", "mem"), &opts.engine)) {
    std::fprintf(stderr, "bad --engine (want mem|disk)\n%s", kUsage);
    return 2;
  }
  if (opts.engine == StorageEngineKind::kDisk && opts.data_root.empty()) {
    std::fprintf(stderr, "--engine disk requires --data-dir\n");
    return 2;
  }
  opts.engine_cache_bytes = static_cast<uint64_t>(flags.GetInt("cache-mb", 64)) << 20;

  const uint64_t records = static_cast<uint64_t>(flags.GetInt("records", 1000));
  const size_t value_size = static_cast<size_t>(flags.GetInt("value-size", 1024));

  Cluster cluster(opts);

  RunOptions run;
  run.spec = ParseWorkload(flags.GetString("workload", "B"), records, value_size);
  run.warmup = flags.GetInt("warmup-ms", 300) * kMillisecond;
  run.measure = flags.GetInt("measure-ms", 1000) * kMillisecond;
  run.think_time = flags.GetInt("think-us", 0);
  run.attach_checker =
      flags.GetBool("check", false) && opts.system == SystemKind::kChainReaction;

  // Preload up front (RunWorkload would otherwise do it) so the timers below
  // are offsets into the warmup+measure window, not into the preload.
  if (records > 0) {
    cluster.Preload(records, value_size);
    run.preload = false;
  }

  if (flags.Has("kill-at-ms")) {
    if (opts.system != SystemKind::kChainReaction) {
      std::fprintf(stderr, "--kill-at-ms requires --system chainreaction\n");
      return 2;
    }
    const Duration at = flags.GetInt("kill-at-ms", 1000) * kMillisecond;
    cluster.sim()->Schedule(run.warmup + at, [&cluster]() {
      cluster.KillServer(0, cluster.options().servers_per_dc / 2);
    });
  }

  // Planned elasticity under load: a join boots a brand-new node whose key
  // ranges stream in before the epoch flips; a drain streams a node's
  // ranges away before dropping it. Both run concurrently with the
  // workload — the report's 'elastic' line shows the outcome.
  const bool elastic = flags.Has("join-at-ms") || flags.Has("drain-at-ms");
  if (elastic && opts.system != SystemKind::kChainReaction) {
    std::fprintf(stderr, "--join-at-ms/--drain-at-ms require --system chainreaction\n");
    return 2;
  }
  if (flags.Has("join-at-ms")) {
    const Duration at = flags.GetInt("join-at-ms", 500) * kMillisecond;
    cluster.sim()->Schedule(run.warmup + at, [&cluster]() { cluster.AddJoiningServer(0); });
  }
  if (flags.Has("drain-at-ms")) {
    const Duration at = flags.GetInt("drain-at-ms", 500) * kMillisecond;
    cluster.sim()->Schedule(run.warmup + at, [&cluster]() {
      cluster.DrainServer(0, cluster.options().servers_per_dc / 3);
    });
  }

  // Crash-restart-with-recovery: the victim keeps its WAL, so the restart
  // replays local state and chain repair only sends the delta.
  const uint32_t victim = opts.servers_per_dc / 2;
  if (flags.Has("crash-at-ms")) {
    if (opts.data_root.empty()) {
      std::fprintf(stderr, "--crash-at-ms requires --data-dir\n");
      return 2;
    }
    const Duration at = flags.GetInt("crash-at-ms", 1000) * kMillisecond;
    cluster.sim()->Schedule(run.warmup + at, [&cluster, victim]() {
      cluster.CrashServer(0, victim);
    });
  }
  if (flags.Has("restart-at-ms")) {
    if (!flags.Has("crash-at-ms")) {
      std::fprintf(stderr, "--restart-at-ms requires --crash-at-ms\n");
      return 2;
    }
    const Duration at = flags.GetInt("restart-at-ms", 2000) * kMillisecond;
    cluster.sim()->Schedule(run.warmup + at, [&cluster, victim]() {
      const Status st = cluster.RestartServer(0, victim);
      if (!st.ok()) {
        std::fprintf(stderr, "restart failed: %s\n", st.ToString().c_str());
      }
    });
  }

  // Periodic metric dumps ride on a bounded set of pre-scheduled timers:
  // a self-rescheduling timer would keep the simulator's event queue
  // non-empty forever and hang the post-measurement drain. Each line is
  // windowed — per-interval deltas/rates from WindowedAggregator, not
  // cumulative totals.
  const int64_t stats_every_ms = flags.GetInt("stats-every-ms", 0);
  WindowedAggregator stats_window;
  if (stats_every_ms > 0) {
    const Duration interval = stats_every_ms * kMillisecond;
    const Duration horizon = run.warmup + run.measure;
    for (Duration t = interval; t <= horizon; t += interval) {
      cluster.sim()->Schedule(t, [&cluster, &stats_window]() {
        const WindowedView view =
            stats_window.Advance(cluster.metrics()->Snapshot(), cluster.sim()->Now());
        auto sum_delta = [&view](const char* name) {
          int64_t d = 0;
          for (const WindowedPoint& p : view.points) {
            if (p.name == name) {
              d += p.delta;
            }
          }
          return d;
        };
        Histogram put_lat;
        for (const WindowedPoint& p : view.points) {
          if (p.name == "crx_client_put_latency_us") {
            put_lat.Merge(p.interval);
          }
        }
        const double secs = static_cast<double>(view.interval_us) / 1e6;
        const int64_t puts = sum_delta("crx_node_puts_applied");
        std::printf("[t=%6lldms] puts=%lld (%.0f/s) reads=%lld gated=%lld "
                    "delivered=%lld dropped=%lld put_us{p50=%lld p99=%lld}\n",
                    static_cast<long long>(cluster.sim()->Now() / kMillisecond),
                    static_cast<long long>(puts),
                    secs > 0 ? static_cast<double>(puts) / secs : 0.0,
                    static_cast<long long>(sum_delta("crx_node_reads_served")),
                    static_cast<long long>(sum_delta("crx_node_gated_puts")),
                    static_cast<long long>(sum_delta("crx_net_messages_delivered")),
                    static_cast<long long>(sum_delta("crx_net_messages_dropped")),
                    static_cast<long long>(put_lat.P50()),
                    static_cast<long long>(put_lat.P99()));
      });
    }
  }

  // Aggregated telemetry endpoint for the whole simulated deployment —
  // scrapeable from another terminal while the (single-threaded) simulation
  // runs, since the registry/collector/recorders are thread-safe to read.
  std::unique_ptr<TelemetryServer> telemetry;
  const uint16_t http_port = static_cast<uint16_t>(flags.GetInt("http-port", 0));
  if (http_port != 0) {
    telemetry = cluster.ServeTelemetry(http_port);
    if (!telemetry) {
      std::fprintf(stderr, "cannot bind --http-port %u\n", http_port);
      return 2;
    }
    std::printf("telemetry on http://127.0.0.1:%u/ (/metrics /status /events /traces)\n",
                telemetry->port());
  }

  const RunResult result = RunWorkload(&cluster, run);

  std::printf("== crx_loadgen report ==\n");
  std::printf("system        %s\n", SystemKindName(opts.system));
  std::printf("workload      %s (%llu records x %zu B)\n", run.spec.name.c_str(),
              static_cast<unsigned long long>(records), value_size);
  std::printf("cluster       %u server(s)/DC x %u DC(s), R=%u k=%u, %zu clients\n",
              opts.servers_per_dc, opts.num_dcs, opts.replication, opts.k_stability,
              cluster.num_clients());
  std::printf("throughput    %.0f ops/s\n", result.throughput_ops_sec);
  std::printf("reads         %s\n", result.stats.read_latency.Summary().c_str());
  std::printf("writes        %s\n", result.stats.write_latency.Summary().c_str());
  std::printf("not-found     %llu\n", static_cast<unsigned long long>(result.stats.not_found));
  std::printf("network       delivered=%llu dropped=%llu bytes=%llu\n",
              static_cast<unsigned long long>(cluster.net()->messages_delivered()),
              static_cast<unsigned long long>(cluster.net()->messages_dropped()),
              static_cast<unsigned long long>(cluster.net()->bytes_sent()));

  if (opts.system == SystemKind::kChainReaction) {
    const auto by_pos = cluster.ReadsByPosition();
    uint64_t total = 0;
    for (uint64_t c : by_pos) {
      total += c;
    }
    std::printf("read spread  ");
    for (size_t i = 0; i < by_pos.size(); ++i) {
      std::printf(" pos%zu=%.1f%%", i + 1,
                  total == 0 ? 0.0 : 100.0 * static_cast<double>(by_pos[i]) /
                                         static_cast<double>(total));
    }
    std::printf("\n");
    const Histogram dep_wait = cluster.MergedDepWaitHist();
    std::printf("gated writes  %llu (wait us: mean=%.0f p50=%lld p95=%lld p99=%lld)\n",
                static_cast<unsigned long long>(cluster.TotalDepWaits()), dep_wait.Mean(),
                static_cast<long long>(dep_wait.P50()), static_cast<long long>(dep_wait.P95()),
                static_cast<long long>(dep_wait.P99()));
    if (!opts.data_root.empty()) {
      const MetricsSnapshot snap = cluster.metrics()->Snapshot();
      std::printf("wal           appends=%lld fsyncs=%lld bytes=%lld (fsync=%s)\n",
                  static_cast<long long>(snap.SumCounters("crx_wal_appends")),
                  static_cast<long long>(snap.SumCounters("crx_wal_fsyncs")),
                  static_cast<long long>(snap.SumCounters("crx_wal_bytes")),
                  FsyncPolicyName(opts.fsync_policy));
      if (flags.Has("restart-at-ms")) {
        const ChainReactionNode* node = cluster.crx_node(0, victim);
        const WalReplayStats& rs = node->last_recovery_stats();
        std::printf("recovery      %llu record(s), %llu segment(s), %lld us replay%s\n",
                    static_cast<unsigned long long>(rs.records),
                    static_cast<unsigned long long>(rs.segments_replayed),
                    static_cast<long long>(node->last_recovery_replay_us()),
                    rs.tail_truncated ? " (torn tail truncated)" : "");
      }
    }
    if (elastic) {
      std::printf("elastic       migrations completed=%llu aborted=%llu epoch=%llu "
                  "nodes=%llu\n",
                  static_cast<unsigned long long>(cluster.coordinator(0)->completed()),
                  static_cast<unsigned long long>(cluster.coordinator(0)->aborted()),
                  static_cast<unsigned long long>(cluster.membership(0)->epoch()),
                  static_cast<unsigned long long>(cluster.membership(0)->nodes().size()));
    }
    std::string diag;
    std::printf("convergence   %s\n", cluster.CheckConvergence(&diag) ? "OK" : diag.c_str());
    if (opts.trace_sample_every > 0) {
      TraceCollector::Trace trace;
      if (cluster.traces()->Latest(&trace)) {
        std::printf("traces        %zu collected; latest:\n%s",
                    cluster.traces()->size(), TraceCollector::Render(trace).c_str());
      }
    }
    if (opts.slow_trace_us > 0) {
      const std::vector<uint64_t> slow = cluster.traces()->RetainedIds();
      std::printf("slow traces   %zu retained (latency >= %lld us)\n", slow.size(),
                  static_cast<long long>(opts.slow_trace_us));
      TraceCollector::Trace trace;
      if (!slow.empty() && cluster.traces()->Find(slow.back(), &trace)) {
        std::printf("slowest-retained hop-by-hop:\n%s", TraceCollector::Render(trace).c_str());
      }
    }
    if (flags.GetBool("dump-traces", false)) {
      TraceAssembler assembler;
      assembler.MergeFrom(*cluster.traces());
      PrintCriticalPaths(assembler.PublishAggregates(cluster.metrics()),
                         /*dump_each=*/true);
    }
  }
  if (flags.GetBool("metrics", false)) {
    std::printf("== metrics ==\n%s", cluster.metrics()->RenderText().c_str());
  }
  if (run.attach_checker) {
    std::printf("causal+       %llu violation(s)%s\n",
                static_cast<unsigned long long>(result.checker_violations),
                result.checker_violations == 0 ? "" : " — see diagnostics below");
    for (const std::string& d : result.checker_diagnostics) {
      std::printf("  %s\n", d.c_str());
    }
  }
  return result.checker_violations == 0 ? 0 : 1;
}
