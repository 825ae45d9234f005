// E8 — Dependency metadata: accessed-set growth + wire cost of causality.
//
// Part 1 (paper figure): the accessed-set (nearest dependencies) grows with
// the number of *distinct* keys read since the last write and collapses to
// one entry at every write — the cost of causal tracking is bounded by
// client behaviour, not by system size or history length. A second table
// counts the per-key read metadata a session keeps against the distinct
// keys it has written: explicit deps keep one entry per key ever written
// (a k-ack never says the write became stable), the watermark lets the
// session forget what it proves DC-Write-Stable.
//
// Part 2 (wire cost): what that metadata costs on the network, and what
// watermark compression buys back. Two variants of the same dep-heavy cell
// (2 DCs, uniform reads, ~16 reads per write, 16 B values — the regime
// where dependency metadata dominates frame bytes: multi-DC keeps every
// accessed entry on the wire, and the lists ride every chain hop and the
// geo-replication path):
//   v2            explicit COPS dependency lists
//   v2+watermark  watermark-compressed dependency lists (clients drop deps
//                 covered by the cluster-wide cumulative-stable watermark,
//                 DESIGN.md §14)
// Reported per variant: network bytes per client op (SimNetwork byte
// deltas over the measured window), throughput, checker violations, and
// the dependency count carried by writes (p50/p99/max) from a scripted
// read-heavy capture phase.
//
// --smoke runs small and enforces the gates (0 checker violations in both
// variants, bytes/op at or below the ceilings below, watermark writes carry
// fewer deps than explicit ones); exit code 1 on any failure. Results land
// in BENCH_e8.json (--out).
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/harness/cluster.h"
#include "src/harness/experiment.h"

using namespace chainreaction;

namespace {

int g_failures = 0;

// Smoke-cell bytes/op ceilings: the deterministic smoke values measured
// when the last fixed-width frames (control plane, geo, stability probes)
// still rode these cells. One wire format only ever shrinks them.
constexpr double kMaxExplicitBytesPerOp = 326.3;
constexpr double kMaxWatermarkBytesPerOp = 190.1;

void Gate(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "SMOKE GATE FAILED: %s\n", what);
    g_failures++;
  }
}

// Part 1: accessed-set growth vs reads between writes (the paper figure).
void GrowthTable(std::vector<BenchJsonRow>* rows) {
  ClusterOptions opts;
  opts.system = SystemKind::kChainReaction;
  opts.servers_per_dc = 8;
  opts.clients_per_dc = 1;
  Cluster cluster(opts);
  cluster.Preload(1024, 64);

  ChainReactionClient* client = cluster.crx_client(0);
  Rng rng(3);

  PrintTableHeader("E8a: dependency metadata carried by the next write",
                   {"reads between writes", "deps entries", "deps bytes",
                    "after-write entries"});

  for (uint32_t reads : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    // Perform `reads` reads over a key range wider than `reads` so most
    // reads touch distinct keys, then write.
    for (uint32_t i = 0; i < reads; ++i) {
      const Key key = RecordKey(rng.NextBelow(1024));
      client->Get(key, [](const auto&) {});
      cluster.sim()->Run();
    }
    const size_t entries = client->accessed_set_size();
    const size_t bytes = client->AccessedSetBytes();
    client->Put("e8-sink", "v", [](const auto&) {});
    cluster.sim()->Run();
    PrintTableRow({FmtU(reads), FmtU(entries), FmtU(bytes),
                   FmtU(client->accessed_set_size())});
    rows->push_back({"growth_r" + std::to_string(reads),
                     {{"reads_between_writes", static_cast<double>(reads)},
                      {"deps_entries", static_cast<double>(entries)},
                      {"deps_bytes", static_cast<double>(bytes)}}});
  }
  std::printf("(entries grow with distinct keys read; every write resets to 1)\n\n");
}

// Part 1b: per-key read metadata held by one session vs distinct keys it
// wrote back to back, explicit deps against the watermark (the default).
void MetadataTable(std::vector<BenchJsonRow>* rows) {
  const std::vector<int> checkpoints = {64, 256, 1024, 4096};
  std::vector<size_t> entries[2];
  for (const bool watermark : {false, true}) {
    ClusterOptions opts;
    opts.system = SystemKind::kChainReaction;
    opts.servers_per_dc = 8;
    opts.clients_per_dc = 1;
    opts.dep_watermark = watermark;
    Cluster cluster(opts);
    ChainReactionClient* client = cluster.crx_client(0);
    int written = 0;
    for (const int target : checkpoints) {
      std::function<void()> put_next = [&]() {
        if (written < target) {
          client->Put("e8-w" + std::to_string(written++), "v", [&](const auto&) { put_next(); });
        }
      };
      put_next();
      cluster.sim()->Run();
      entries[watermark ? 1 : 0].push_back(client->metadata_entries());
    }
  }

  PrintTableHeader("E8a': per-key read metadata held by a session that only writes",
                   {"keys written", "explicit", "watermark"});
  for (size_t i = 0; i < checkpoints.size(); ++i) {
    PrintTableRow({FmtU(static_cast<uint64_t>(checkpoints[i])), FmtU(entries[0][i]),
                   FmtU(entries[1][i])});
    rows->push_back({"metadata_w" + std::to_string(checkpoints[i]),
                     {{"keys_written", static_cast<double>(checkpoints[i])},
                      {"explicit_entries", static_cast<double>(entries[0][i])},
                      {"watermark_entries", static_cast<double>(entries[1][i])}}});
  }
  std::printf("(explicit: one entry per key ever written; watermark: the unstable window)\n\n");
}

// One variant of the Part-2 cell. Returns bytes/op for the smoke gates.
struct WireOutcome {
  double bytes_per_op = 0;
  uint64_t violations = 0;
  int64_t dep_p50 = 0;
};

WireOutcome WireCell(const char* label, bool watermark, bool smoke,
                     std::vector<BenchJsonRow>* rows) {
  const uint64_t records = smoke ? 256 : 512;

  ClusterOptions opts;
  opts.system = SystemKind::kChainReaction;
  opts.servers_per_dc = 8;
  opts.clients_per_dc = smoke ? 8 : 16;
  opts.replication = 3;
  opts.k_stability = 2;
  opts.num_dcs = 2;
  opts.seed = 7;
  opts.dep_watermark = watermark;
  Cluster cluster(opts);

  // Preload outside the byte-accounting window, then measure everything the
  // driven ops cost (warmup 0 so stats.TotalOps() covers the whole window;
  // the post-stop drain is identical across variants).
  cluster.Preload(records, 16);
  const uint64_t bytes0 = cluster.net()->bytes_sent();

  // Dep-heavy: ~16 uniform reads per write over a small keyspace, so the
  // accessed set at each write holds many distinct entries.
  WorkloadSpec spec;
  spec.name = "dep-heavy";
  spec.read_proportion = 16.0 / 17.0;
  spec.update_proportion = 1.0 / 17.0;
  spec.distribution = Distribution::kUniform;
  spec.record_count = records;
  spec.value_size = 16;

  RunOptions run;
  run.spec = spec;
  run.warmup = 0;
  run.measure = (smoke ? 300 : 1000) * kMillisecond;
  run.attach_checker = true;
  run.preload = false;
  const RunResult result = RunWorkload(&cluster, run);

  const uint64_t ops = result.stats.TotalOps();
  const uint64_t bytes = cluster.net()->bytes_sent() - bytes0;
  const double bytes_per_op =
      ops == 0 ? 0 : static_cast<double>(bytes) / static_cast<double>(ops);

  // Scripted capture phase: 16 distinct reads then a write, recording the
  // dependency list each write actually carried (PutResult echoes it).
  Histogram dep_counts;
  ChainReactionClient* client = cluster.crx_client(0);
  Rng rng(11);
  const uint32_t rounds = smoke ? 32 : 128;
  for (uint32_t r = 0; r < rounds; ++r) {
    for (uint32_t i = 0; i < 16; ++i) {
      client->Get(RecordKey(rng.NextBelow(records)), [](const auto&) {});
      cluster.sim()->Run();
    }
    client->Put(RecordKey(rng.NextBelow(records)), "w",
                [&dep_counts](const ChainReactionClient::PutResult& res) {
                  dep_counts.Record(static_cast<int64_t>(res.deps.size()));
                });
    cluster.sim()->Run();
  }

  PrintTableRow({label, FmtU(ops), Fmt("%.1f", bytes_per_op),
                 Fmt("%.0f", result.throughput_ops_sec),
                 FmtU(result.checker_violations), FmtU(static_cast<uint64_t>(dep_counts.P50())),
                 FmtU(static_cast<uint64_t>(dep_counts.P99())), FmtU(static_cast<uint64_t>(dep_counts.max()))});

  rows->push_back({std::string("wire_") + label,
                   {{"ops", static_cast<double>(ops)},
                    {"net_bytes", static_cast<double>(bytes)},
                    {"bytes_per_op", bytes_per_op},
                    {"ops_per_sec", result.throughput_ops_sec},
                    {"checker_violations", static_cast<double>(result.checker_violations)},
                    {"dep_count_p50", static_cast<double>(dep_counts.P50())},
                    {"dep_count_p99", static_cast<double>(dep_counts.P99())},
                    {"dep_count_max", static_cast<double>(dep_counts.max())}}});

  WireOutcome out;
  out.bytes_per_op = bytes_per_op;
  out.violations = result.checker_violations;
  out.dep_p50 = dep_counts.P50();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_e8.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out file.json]\n", argv[0]);
      return 2;
    }
  }

  std::vector<BenchJsonRow> rows;
  GrowthTable(&rows);
  MetadataTable(&rows);

  PrintTableHeader(
      "E8b: wire cost of causality metadata (dep-heavy cell, 16B values)",
      {"deps", "ops", "bytes/op", "ops/s", "violations", "dep p50", "dep p99", "dep max"});
  const WireOutcome v2 = WireCell("v2", false, smoke, &rows);
  const WireOutcome v2wm = WireCell("v2+watermark", true, smoke, &rows);

  const double wm_saving =
      v2.bytes_per_op == 0 ? 0 : 100.0 * (1.0 - v2wm.bytes_per_op / v2.bytes_per_op);
  std::printf(
      "(watermark compression saves %.1f%% bytes/op — stable deps never leave\n"
      " the client)\n\n",
      wm_saving);
  rows.push_back({"savings", {{"v2wm_vs_v2_pct", wm_saving}}});

  if (!WriteBenchJson(out, "bench_e8_metadata", rows)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());

  if (smoke) {
    Gate(v2.violations == 0, "v2: checker violations != 0");
    Gate(v2wm.violations == 0, "v2+watermark: checker violations != 0");
    Gate(v2.bytes_per_op <= kMaxExplicitBytesPerOp, "v2: bytes/op above its ceiling");
    Gate(v2wm.bytes_per_op <= kMaxWatermarkBytesPerOp, "v2+watermark: bytes/op above its ceiling");
    Gate(v2wm.dep_p50 < v2.dep_p50, "watermark writes do not carry fewer deps than explicit ones");
    if (g_failures > 0) {
      std::fprintf(stderr, "%d smoke gate(s) failed\n", g_failures);
      return 1;
    }
  }
  return 0;
}
