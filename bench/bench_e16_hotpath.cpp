// E16 — Hot-path throughput on real sockets: multi-loop runtime + batching.
//
// Unlike E1-E15 (simulated time, cost models), this experiment measures
// wall-clock throughput of the actual TCP deployment: 8 ChainReaction
// nodes in one process, 16 pipelined client sessions, loopback sockets.
// Cells:
//   baseline_1loop_per_node — the seed deployment: one single-loop runtime
//       per node, per-frame write(), every post via mutex + wake pipe
//   overhaul_1loop  — consolidated runtime, coalesced writev flushes,
//       per-turn ack coalescing, one loop
//   overhaul_4loops — same plus 4 event loops with ring-segment sharding
//       (`kv_shell --loop-threads=4`); needs cores to win
// The headline speedup compares the baseline against the overhaul cell
// sized for the machine's core count.
// Reported: put throughput, p50/p99 completion latency, allocations per op
// (global operator-new hook), and the runtime's writev coalescing counters.
//
// A second table sweeps the loop count (`--loops 1,2,4,8` to override) on
// the overhaul deployment, holding everything else fixed — the scaling curve
// for "how many event loops should this box run". Each point lands in the
// JSON as loops_N.
//
// Usage: bench_e16_hotpath [--smoke] [--loops 1,2,4,8] [json_path]
//   --smoke: short cells + sanity assertions, no JSON (CI gate).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/net/tcp_cluster.h"
#include "src/obs/alloc_phase.h"
#include "src/obs/assembly.h"

// Allocation accounting: every global allocation in the process (all loop
// threads included) bumps one relaxed counter, plus a per-phase counter
// keyed by the allocating thread's AllocPhase stamp (decode / apply /
// encode / callback / other). Benchmarks divide the deltas by completed
// ops, which is how "allocs/op" decomposes by request-processing phase.
static std::atomic<uint64_t> g_allocs{0};
static std::atomic<uint64_t> g_phase_allocs[chainreaction::kAllocPhaseCount] = {};

static void* CountedAlloc(size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_phase_allocs[static_cast<size_t>(chainreaction::g_alloc_phase)].fetch_add(
      1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace chainreaction {
namespace {

struct CellSpec {
  std::string name;
  uint32_t loop_threads = 1;
  bool per_node_runtimes = false;  // seed deployment: 1 single-loop runtime/node
  bool coalesced_io = true;        // false = pre-overhaul per-frame write()
  uint32_t trace_sample_every = 0;  // >0: sampled tracing + post-run assembly
};

struct CellOutcome {
  uint64_t ops = 0;
  uint64_t failures = 0;
  double ops_per_sec = 0;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  double allocs_per_op = 0;
  // allocs_per_op decomposed by the allocating thread's AllocPhase stamp.
  double phase_allocs_per_op[chainreaction::kAllocPhaseCount] = {};
  double frames_per_writev = 0;

  // Assembled critical path (traced cells only): per-segment means over every
  // assembled request, plus the honesty signals the smoke gate checks.
  size_t cp_assembled = 0;
  size_t cp_complete = 0;
  size_t cp_gated = 0;             // requests with a dep-wait segment
  size_t cp_gated_attributed = 0;  // ... of those, with the blocking dep named
  double cp_encode_us = 0;
  double cp_net_us = 0;
  double cp_depwait_us = 0;
  double cp_kack_us = 0;
  double cp_stability_us = 0;
  double cp_coverage = 0;  // mean attributed-sum / e2e — 1.0 = exact
};

CellOutcome RunHotpathCell(const CellSpec& spec, Duration duration) {
  TcpCluster::Options opts;
  opts.num_nodes = 8;
  opts.loop_threads = spec.loop_threads;
  opts.num_clients = 16;
  opts.client_loop_threads = 4;
  opts.seed = 7;
  opts.config.replication = 3;
  opts.config.k_stability = 2;
  opts.config.num_dcs = 1;
  opts.config.client_timeout = 2 * kSecond;
  opts.per_node_runtimes = spec.per_node_runtimes;
  opts.coalesced_io = spec.coalesced_io;
  MetricsRegistry metrics;
  TraceCollector traces;
  if (spec.trace_sample_every > 0) {
    opts.config.trace_sample_every = spec.trace_sample_every;
    opts.metrics = &metrics;
    opts.traces = &traces;
  }
  TcpCluster cluster(opts);

  TcpCluster::LoadOptions load;
  load.duration = duration;
  load.value_size = 128;
  load.key_space = 4096;
  load.get_fraction = 0.0;  // pure puts: the chain hot path
  load.pipeline = 8;

  const uint64_t allocs_before = g_allocs.load();
  uint64_t phase_before[kAllocPhaseCount];
  for (size_t p = 0; p < kAllocPhaseCount; ++p) {
    phase_before[p] = g_phase_allocs[p].load();
  }
  const TcpCluster::LoadResult result = cluster.RunClosedLoop(load);
  const uint64_t allocs = g_allocs.load() - allocs_before;

  CellOutcome out;
  out.ops = result.ops;
  out.failures = result.failures;
  out.ops_per_sec = result.ops_per_sec;
  out.p50_us = result.latency_us.P50();
  out.p99_us = result.latency_us.P99();
  out.allocs_per_op = result.ops > 0 ? static_cast<double>(allocs) / result.ops : 0;
  if (result.ops > 0) {
    for (size_t p = 0; p < kAllocPhaseCount; ++p) {
      out.phase_allocs_per_op[p] =
          static_cast<double>(g_phase_allocs[p].load() - phase_before[p]) / result.ops;
    }
  }
  const uint64_t calls = cluster.server_writev_calls();
  out.frames_per_writev =
      calls > 0 ? static_cast<double>(cluster.server_writev_frames()) / calls : 0;

  if (spec.trace_sample_every > 0) {
    TraceAssembler assembler;
    assembler.MergeFrom(traces);
    const std::vector<CriticalPath> cps = assembler.PublishAggregates(&metrics);
    out.cp_assembled = cps.size();
    double stab_seen = 0;
    for (const CriticalPath& cp : cps) {
      out.cp_complete += cp.complete ? 1 : 0;
      if (cp.depwait_us > 0) {
        ++out.cp_gated;
        out.cp_gated_attributed += cp.blocked_by.empty() ? 0 : 1;
      }
      out.cp_encode_us += static_cast<double>(cp.encode_us);
      out.cp_net_us += static_cast<double>(cp.net_us);
      out.cp_depwait_us += static_cast<double>(cp.depwait_us);
      out.cp_kack_us += static_cast<double>(cp.kack_us);
      if (cp.stability_us >= 0) {
        out.cp_stability_us += static_cast<double>(cp.stability_us);
        stab_seen += 1;
      }
      out.cp_coverage += cp.coverage;
    }
    if (!cps.empty()) {
      const double n = static_cast<double>(cps.size());
      out.cp_encode_us /= n;
      out.cp_net_us /= n;
      out.cp_depwait_us /= n;
      out.cp_kack_us /= n;
      out.cp_coverage /= n;
      out.cp_stability_us = stab_seen > 0 ? out.cp_stability_us / stab_seen : 0;
    }
  }
  return out;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_e16.json";
  std::vector<uint32_t> sweep_loops = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--loops") == 0 && i + 1 < argc) {
      sweep_loops.clear();
      std::string list = argv[++i];
      for (size_t pos = 0; pos < list.size();) {
        const size_t comma = std::min(list.find(',', pos), list.size());
        sweep_loops.push_back(
            static_cast<uint32_t>(std::strtoul(list.substr(pos, comma - pos).c_str(), nullptr, 10)));
        pos = comma + 1;
      }
    } else {
      json_path = argv[i];
    }
  }
  const Duration duration = smoke ? 300 * kMillisecond : 3 * kSecond;

  // Baseline reproduces the seed deployment exactly: one single-loop
  // runtime per node (kv_shell's old topology), per-frame write(), every
  // post through the mutex + wake pipe. The overhaul cell is what
  // `kv_shell --loop-threads=4` now runs: all nodes consolidated into one
  // 4-loop runtime with ring-segment affinity, coalesced writev flushes,
  // and per-turn ack coalescing. The middle cell isolates consolidation
  // from loop-count scaling (which needs cores to show up).
  // The traced cell repeats overhaul_1loop with 1/64 end-to-end
  // sampling + post-run assembly — its throughput delta vs. the untraced
  // twin is the cost of the whole tracing plane.
  const CellSpec cells[] = {
      {"baseline_1loop_per_node", 1, /*per_node=*/true, /*coalesced=*/false},
      {"overhaul_1loop", 1, false, true},
      {"overhaul_4loops", 4, false, true},
      {"overhaul_1loop_traced", 1, false, true, /*trace 1/N=*/64},
  };
  // Loop-count scaling needs cores; the headline number compares the
  // baseline against the overhaul cell sized for this machine.
  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const size_t headline = hw >= 2 ? 2 : 1;

  PrintTableHeader("E16: TCP hot path, 8 nodes, 16 pipelined sessions, pure puts",
                   {"cell", "ops/s", "p50", "p99", "alloc/op", "frames/writev"});
  std::vector<CellOutcome> outcomes;
  for (const CellSpec& spec : cells) {
    const CellOutcome out = RunHotpathCell(spec, duration);
    outcomes.push_back(out);
    PrintTableRow({spec.name, Fmt("%.0f", out.ops_per_sec), FormatMicros(out.p50_us),
                   FormatMicros(out.p99_us), Fmt("%.1f", out.allocs_per_op),
                   Fmt("%.2f", out.frames_per_writev)});
  }

  // Where the remaining allocations live (per-phase operator-new buckets).
  PrintTableHeader("E16a: allocs/op by request phase",
                   {"cell", "decode", "apply", "encode", "callback", "other"});
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const auto& pa = outcomes[i].phase_allocs_per_op;
    PrintTableRow({cells[i].name,
                   Fmt("%.1f", pa[static_cast<size_t>(AllocPhase::kDecode)]),
                   Fmt("%.1f", pa[static_cast<size_t>(AllocPhase::kApply)]),
                   Fmt("%.1f", pa[static_cast<size_t>(AllocPhase::kEncode)]),
                   Fmt("%.1f", pa[static_cast<size_t>(AllocPhase::kCallback)]),
                   Fmt("%.1f", pa[static_cast<size_t>(AllocPhase::kOther)])});
  }
  std::printf("\n");
  const double speedup =
      outcomes[0].ops_per_sec > 0 ? outcomes[headline].ops_per_sec / outcomes[0].ops_per_sec
                                  : 0;
  std::printf("\nput throughput speedup (%s vs baseline, %u hw threads): %.2fx\n\n",
              cells[headline].name.c_str(), hw, speedup);

  // Critical-path table for the traced cell: where a sampled put's latency
  // actually went, and the coverage/attribution honesty signals.
  const CellOutcome& tr = outcomes[3];
  // The overhead number compares twin cells that ran minutes apart, so a
  // scheduler hiccup in either window reads as tracing cost. Re-run the
  // pair back-to-back a few times and compare best-of: repeatable work
  // (the tracing plane) survives best-of, transient load does not.
  double best_untraced = outcomes[1].ops_per_sec;
  double best_traced = tr.ops_per_sec;
  const int overhead_trials = smoke ? 0 : 2;
  for (int t = 0; t < overhead_trials; ++t) {
    best_untraced = std::max(best_untraced, RunHotpathCell(cells[1], duration).ops_per_sec);
    best_traced = std::max(best_traced, RunHotpathCell(cells[3], duration).ops_per_sec);
  }
  const double tracing_overhead_pct =
      best_untraced > 0 ? 100.0 * (1.0 - best_traced / best_untraced) : 0;
  PrintTableHeader("E16c: assembled critical path, 1/64 sampling (mean us/request)",
                   {"assembled", "complete", "gated", "encode", "net", "depwait", "kack",
                    "stability", "coverage"});
  PrintTableRow({FmtU(tr.cp_assembled), FmtU(tr.cp_complete), FmtU(tr.cp_gated),
                 Fmt("%.0f", tr.cp_encode_us), Fmt("%.0f", tr.cp_net_us),
                 Fmt("%.0f", tr.cp_depwait_us), Fmt("%.0f", tr.cp_kack_us),
                 Fmt("%.0f", tr.cp_stability_us), Fmt("%.2f", tr.cp_coverage)});
  std::printf("\ntracing overhead vs untraced twin: %.1f%%; dep-gated with blocking dep "
              "named: %zu/%zu\n\n",
              tracing_overhead_pct, tr.cp_gated_attributed, tr.cp_gated);

  if (smoke) {
    // CI sanity gate: every cell must complete real work without failures.
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].ops == 0 || outcomes[i].failures > 0) {
        std::fprintf(stderr, "smoke FAILED: cell %zu ops=%llu failures=%llu\n", i,
                     static_cast<unsigned long long>(outcomes[i].ops),
                     static_cast<unsigned long long>(outcomes[i].failures));
        return 1;
      }
    }
    // Zero-copy regression gate: the overhaul cell's allocation budget.
    // The value path (socket buffer -> store) copies once, the down-chain
    // frame is encoded once, and per-request scratch is arena/small-vector
    // backed — a ceiling of 30 allocs/op holds all of that in place.
    constexpr double kMaxAllocsPerOp = 30.0;
    if (outcomes[1].allocs_per_op > kMaxAllocsPerOp) {
      std::fprintf(stderr, "smoke FAILED: %s allocs/op %.1f > %.0f\n", cells[1].name.c_str(),
                   outcomes[1].allocs_per_op, kMaxAllocsPerOp);
      return 1;
    }
    // Trace-assembly gates: paths must assemble, the segment sum must be
    // within 10% of the measured e2e latency (coverage >= 0.9), and every
    // dep-wait segment must name the dependency that blocked it.
    if (tr.cp_assembled == 0 || tr.cp_complete == 0) {
      std::fprintf(stderr, "smoke FAILED: no critical paths assembled\n");
      return 1;
    }
    if (tr.cp_coverage < 0.9) {
      std::fprintf(stderr, "smoke FAILED: cp coverage %.2f < 0.9\n", tr.cp_coverage);
      return 1;
    }
    if (tr.cp_gated_attributed < tr.cp_gated) {
      std::fprintf(stderr, "smoke FAILED: %zu/%zu dep-gated paths lack blocked_by\n",
                   tr.cp_gated - tr.cp_gated_attributed, tr.cp_gated);
      return 1;
    }
    std::printf("smoke OK\n");
    return 0;
  }

  // Loop-count scaling sweep: the overhaul deployment at each loop count.
  // Points past the core count show the flattening (or inversion) that says
  // "stop adding loops here".
  PrintTableHeader("E16b: loop-count scaling, overhaul deployment",
                   {"loops", "ops/s", "p50", "p99", "vs 1 loop"});
  std::vector<CellOutcome> sweep;
  for (const uint32_t loops : sweep_loops) {
    const CellSpec spec{"loops_" + std::to_string(loops), loops, false, true};
    const CellOutcome out = RunHotpathCell(spec, duration);
    sweep.push_back(out);
    const double rel =
        sweep[0].ops_per_sec > 0 ? out.ops_per_sec / sweep[0].ops_per_sec : 0;
    PrintTableRow({FmtU(loops), Fmt("%.0f", out.ops_per_sec), FormatMicros(out.p50_us),
                   FormatMicros(out.p99_us), Fmt("%.2fx", rel)});
  }
  std::printf("\n");

  std::vector<BenchJsonRow> rows;
  for (size_t i = 0; i < sweep.size(); ++i) {
    rows.push_back(BenchJsonRow{"loops_" + std::to_string(sweep_loops[i]),
                                {{"loop_threads", static_cast<double>(sweep_loops[i])},
                                 {"ops_per_sec", sweep[i].ops_per_sec},
                                 {"p50_us", static_cast<double>(sweep[i].p50_us)},
                                 {"p99_us", static_cast<double>(sweep[i].p99_us)},
                                 {"speedup_vs_1loop",
                                  sweep[0].ops_per_sec > 0
                                      ? sweep[i].ops_per_sec / sweep[0].ops_per_sec
                                      : 0}}});
  }
  for (size_t i = 0; i < outcomes.size(); ++i) {
    BenchJsonRow row{cells[i].name,
                     {{"loop_threads", static_cast<double>(cells[i].loop_threads)},
                      {"ops_per_sec", outcomes[i].ops_per_sec},
                      {"p50_us", static_cast<double>(outcomes[i].p50_us)},
                      {"p99_us", static_cast<double>(outcomes[i].p99_us)},
                      {"allocs_per_op", outcomes[i].allocs_per_op},
                      {"frames_per_writev", outcomes[i].frames_per_writev}}};
    for (size_t p = 0; p < kAllocPhaseCount; ++p) {
      row.values.push_back({std::string("allocs_per_op_") +
                                AllocPhaseName(static_cast<AllocPhase>(p)),
                            outcomes[i].phase_allocs_per_op[p]});
    }
    if (cells[i].trace_sample_every > 0) {
      row.values.push_back({"cp_assembled", static_cast<double>(outcomes[i].cp_assembled)});
      row.values.push_back({"cp_encode_us", outcomes[i].cp_encode_us});
      row.values.push_back({"cp_net_us", outcomes[i].cp_net_us});
      row.values.push_back({"cp_depwait_us", outcomes[i].cp_depwait_us});
      row.values.push_back({"cp_kack_us", outcomes[i].cp_kack_us});
      row.values.push_back({"cp_stability_us", outcomes[i].cp_stability_us});
      row.values.push_back({"cp_coverage", outcomes[i].cp_coverage});
      row.values.push_back({"tracing_overhead_pct", tracing_overhead_pct});
    }
    rows.push_back(row);
  }
  rows.push_back(BenchJsonRow{
      "summary", {{"put_speedup", speedup}, {"hw_threads", static_cast<double>(hw)}}});
  if (WriteBenchJson(json_path, "e16", rows)) {
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace chainreaction

int main(int argc, char** argv) { return chainreaction::Main(argc, argv); }
