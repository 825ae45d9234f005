// Property-based sweeps (parameterized gtest): the causal+ guarantee and
// convergence must hold across chain lengths, k values, client counts,
// datacenter counts, and seeds.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "src/harness/cluster.h"
#include "src/harness/experiment.h"

namespace chainreaction {
namespace {

// ---------------------------------------------------------------------------
// Sweep 1: single-DC causal+ across (R, k, seed).
// ---------------------------------------------------------------------------

class CausalSweep : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t, uint64_t>> {};

TEST_P(CausalSweep, CausalPlusHoldsAndConverges) {
  const auto [replication, k, seed] = GetParam();
  if (k > replication) {
    GTEST_SKIP() << "k must be <= R";
  }
  ClusterOptions opts;
  opts.system = SystemKind::kChainReaction;
  opts.servers_per_dc = 8;
  opts.clients_per_dc = 6;
  opts.replication = replication;
  opts.k_stability = k;
  opts.seed = seed;
  Cluster cluster(opts);

  RunOptions run;
  run.spec = WorkloadSpec::A(/*records=*/100, /*value_size=*/48);
  run.warmup = 200 * kMillisecond;
  run.measure = 1 * kSecond;
  run.attach_checker = true;
  const RunResult result = RunWorkload(&cluster, run);

  EXPECT_GT(result.stats.TotalOps(), 200u);
  EXPECT_EQ(result.checker_violations, 0u)
      << "R=" << replication << " k=" << k << " seed=" << seed << ": "
      << (result.checker_diagnostics.empty() ? "" : result.checker_diagnostics[0]);
  std::string diag;
  EXPECT_TRUE(cluster.CheckConvergence(&diag)) << diag;
}

INSTANTIATE_TEST_SUITE_P(
    RkSeeds, CausalSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u),   // R
                       ::testing::Values(1u, 2u, 3u),       // k
                       ::testing::Values(101u, 202u)),      // seed
    [](const ::testing::TestParamInfo<CausalSweep::ParamType>& param_info) {
      return "R" + std::to_string(std::get<0>(param_info.param)) + "_k" +
             std::to_string(std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param));
    });

// ---------------------------------------------------------------------------
// Sweep 2: geo causal+ across (num_dcs, workload, seed).
// ---------------------------------------------------------------------------

class GeoSweep : public ::testing::TestWithParam<std::tuple<uint16_t, char, uint64_t>> {};

TEST_P(GeoSweep, CausalPlusHoldsAcrossDcs) {
  const auto [dcs, workload, seed] = GetParam();
  ClusterOptions opts;
  opts.system = SystemKind::kChainReaction;
  opts.servers_per_dc = 6;
  opts.clients_per_dc = 3;
  opts.num_dcs = dcs;
  opts.seed = seed;
  Cluster cluster(opts);

  RunOptions run;
  run.spec = workload == 'A' ? WorkloadSpec::A(80, 48) : WorkloadSpec::B(80, 48);
  run.warmup = 300 * kMillisecond;
  run.measure = 1500 * kMillisecond;
  run.attach_checker = true;
  const RunResult result = RunWorkload(&cluster, run);

  EXPECT_EQ(result.checker_violations, 0u)
      << "dcs=" << dcs << " wl=" << workload << " seed=" << seed << ": "
      << (result.checker_diagnostics.empty() ? "" : result.checker_diagnostics[0]);
  std::string diag;
  EXPECT_TRUE(cluster.CheckConvergence(&diag)) << diag;
}

INSTANTIATE_TEST_SUITE_P(
    DcsWorkloadSeeds, GeoSweep,
    ::testing::Combine(::testing::Values(static_cast<uint16_t>(2), static_cast<uint16_t>(3)),
                       ::testing::Values('A', 'B'),
                       ::testing::Values(11u, 12u)),
    [](const ::testing::TestParamInfo<GeoSweep::ParamType>& param_info) {
      return "dc" + std::to_string(std::get<0>(param_info.param)) + "_" +
             std::string(1, std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param));
    });

// ---------------------------------------------------------------------------
// Sweep 3: failure injection across seeds and victim counts.
// ---------------------------------------------------------------------------

class FailureSweep : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {};

TEST_P(FailureSweep, SurvivesCrashes) {
  const auto [victims, seed] = GetParam();
  ClusterOptions opts;
  opts.system = SystemKind::kChainReaction;
  opts.servers_per_dc = 12;
  opts.clients_per_dc = 4;
  opts.seed = seed;
  Cluster cluster(opts);
  cluster.Preload(150, 48);

  RunOptions run;
  run.spec = WorkloadSpec::A(150, 48);
  run.preload = false;
  run.warmup = 200 * kMillisecond;
  run.measure = 2 * kSecond;
  run.attach_checker = true;
  for (uint32_t v = 0; v < victims; ++v) {
    cluster.sim()->Schedule((600 + 600 * v) * kMillisecond,
                            [&cluster, v]() { cluster.KillServer(0, 1 + 3 * v); });
  }
  const RunResult result = RunWorkload(&cluster, run);
  EXPECT_EQ(result.checker_violations, 0u)
      << "victims=" << victims << " seed=" << seed << ": "
      << (result.checker_diagnostics.empty() ? "" : result.checker_diagnostics[0]);
  std::string diag;
  EXPECT_TRUE(cluster.CheckConvergence(&diag)) << diag;
}

INSTANTIATE_TEST_SUITE_P(VictimsSeeds, FailureSweep,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u),
                                            ::testing::Values(41u, 42u)),
                         [](const ::testing::TestParamInfo<FailureSweep::ParamType>& param_info) {
                           return "kill" + std::to_string(std::get<0>(param_info.param)) + "_s" +
                                  std::to_string(std::get<1>(param_info.param));
                         });

// ---------------------------------------------------------------------------
// Sweep 4: differential watermark-compression test (DESIGN.md §14). The same
// seeded workload runs twice — explicit COPS-style dependency lists vs
// watermark-compressed dependencies (dep_watermark) — and both runs must (a) pass the causal+ checker with zero violations and
// (b) land every key on the same final value. Values, not versions, are
// compared: the byte-size-dependent service model makes timing (and thus
// lamport assignment) diverge between the two runs, but with per-client key
// ownership and sequential op chains the last write per key is the same
// logical operation in both runs.
// ---------------------------------------------------------------------------

class WatermarkDifferential : public ::testing::TestWithParam<uint64_t> {};

constexpr uint32_t kScriptClients = 4;
constexpr int kScriptSteps = 36;
constexpr int kScriptSlots = 4;  // keys per client

Key ScriptKey(uint32_t client, int slot) {
  return "dk-c" + std::to_string(client) + "-k" + std::to_string(slot);
}

// Each client runs a deterministic sequential chain: two writes to its own
// key slots, then a read of a peer's key (which lands in the accessed set
// and rides the next put as a dependency — the shape the watermark
// compresses). Ownership is disjoint, so the final value of every key is
// the owner's last write regardless of cross-client timing.
void RunScript(Cluster* cluster) {
  std::vector<std::unique_ptr<std::function<void(int)>>> chains;
  for (uint32_t c = 0; c < kScriptClients; ++c) {
    ChainReactionClient* cl = cluster->crx_client(c);
    chains.push_back(std::make_unique<std::function<void(int)>>());
    auto* advance = chains.back().get();
    *advance = [cl, c, advance](int i) {
      if (i >= kScriptSteps) {
        return;
      }
      if (i % 3 == 2) {
        const Key peer = ScriptKey((c + 1) % kScriptClients, i % kScriptSlots);
        cl->Get(peer, [advance, i](const ChainReactionClient::GetResult&) {
          (*advance)(i + 1);
        });
      } else {
        const Key own = ScriptKey(c, i % kScriptSlots);
        cl->Put(own, "v-" + std::to_string(c) + "-" + std::to_string(i),
                [advance, i](const ChainReactionClient::PutResult&) { (*advance)(i + 1); });
      }
    };
    (*advance)(0);
  }
  cluster->sim()->Run();
}

// Final (found, value) per scripted key, read through a client after the
// cluster reached quiescence.
std::map<Key, std::pair<bool, Value>> ScriptSnapshot(Cluster* cluster) {
  std::map<Key, std::pair<bool, Value>> snap;
  for (uint32_t c = 0; c < kScriptClients; ++c) {
    for (int slot = 0; slot < kScriptSlots; ++slot) {
      const Key key = ScriptKey(c, slot);
      cluster->crx_client(0)->Get(key, [&snap, key](const ChainReactionClient::GetResult& r) {
        snap[key] = {r.found, r.value};
      });
      cluster->sim()->Run();
    }
  }
  return snap;
}

ClusterOptions DifferentialOptions(uint64_t seed, bool watermark) {
  ClusterOptions opts;
  opts.system = SystemKind::kChainReaction;
  opts.servers_per_dc = 8;
  opts.clients_per_dc = 6;
  opts.seed = seed;
  opts.dep_watermark = watermark;
  return opts;
}

TEST_P(WatermarkDifferential, CheckerCleanBothWays) {
  const uint64_t seed = GetParam();
  for (const bool watermark : {false, true}) {
    Cluster cluster(DifferentialOptions(seed, watermark));
    RunOptions run;
    run.spec = WorkloadSpec::A(/*records=*/100, /*value_size=*/48);
    run.warmup = 200 * kMillisecond;
    run.measure = 1 * kSecond;
    run.attach_checker = true;
    const RunResult result = RunWorkload(&cluster, run);
    EXPECT_GT(result.stats.TotalOps(), 200u) << "watermark=" << watermark;
    EXPECT_EQ(result.checker_violations, 0u)
        << "watermark=" << watermark << " seed=" << seed << ": "
        << (result.checker_diagnostics.empty() ? "" : result.checker_diagnostics[0]);
    std::string diag;
    EXPECT_TRUE(cluster.CheckConvergence(&diag)) << "watermark=" << watermark << " " << diag;
  }
}

// Multi-DC is where the compression actually changes what goes on the wire:
// with remote DCs, explicit mode carries every accessed entry (COPS-style)
// while watermark mode drops locally-covered ones from the lists that ride
// the chain and the geo-replication path. Causal+ must hold identically —
// the checker sees cross-DC reads, and replicas must converge across DCs.
TEST_P(WatermarkDifferential, CheckerCleanBothWaysMultiDc) {
  const uint64_t seed = GetParam();
  for (const bool watermark : {false, true}) {
    ClusterOptions opts = DifferentialOptions(seed, watermark);
    opts.num_dcs = 2;
    opts.clients_per_dc = 4;
    Cluster cluster(opts);
    RunOptions run;
    run.spec = WorkloadSpec::A(/*records=*/100, /*value_size=*/48);
    run.warmup = 200 * kMillisecond;
    run.measure = 1 * kSecond;
    run.attach_checker = true;
    const RunResult result = RunWorkload(&cluster, run);
    EXPECT_GT(result.stats.TotalOps(), 200u) << "watermark=" << watermark;
    EXPECT_EQ(result.checker_violations, 0u)
        << "watermark=" << watermark << " seed=" << seed << ": "
        << (result.checker_diagnostics.empty() ? "" : result.checker_diagnostics[0]);
    std::string diag;
    EXPECT_TRUE(cluster.CheckConvergence(&diag)) << "watermark=" << watermark << " " << diag;
  }
}

TEST_P(WatermarkDifferential, FinalStoreContentsIdentical) {
  const uint64_t seed = GetParam();
  Cluster explicit_deps(DifferentialOptions(seed, /*watermark=*/false));
  RunScript(&explicit_deps);
  std::string diag;
  ASSERT_TRUE(explicit_deps.CheckConvergence(&diag)) << diag;

  Cluster compressed(DifferentialOptions(seed, /*watermark=*/true));
  RunScript(&compressed);
  ASSERT_TRUE(compressed.CheckConvergence(&diag)) << diag;
  // The compression must actually have engaged: by quiescence the clients
  // learned a non-zero cluster watermark from their acks.
  EXPECT_GT(compressed.crx_client(0)->watermark(), 0u);

  const auto a = ScriptSnapshot(&explicit_deps);
  const auto b = ScriptSnapshot(&compressed);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, fv] : a) {
    auto it = b.find(key);
    ASSERT_NE(it, b.end()) << key;
    EXPECT_EQ(fv.first, it->second.first) << key;
    EXPECT_EQ(fv.second, it->second.second) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WatermarkDifferential, ::testing::Values(301u, 302u, 303u),
                         [](const ::testing::TestParamInfo<uint64_t>& param_info) {
                           return "s" + std::to_string(param_info.param);
                         });

// ---------------------------------------------------------------------------
// Sweep 5: the ack position always equals k.
// ---------------------------------------------------------------------------

class AckSweep : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(AckSweep, AckPositionEqualsK) {
  const auto [replication, k] = GetParam();
  if (k > replication) {
    GTEST_SKIP();
  }
  ClusterOptions opts;
  opts.system = SystemKind::kChainReaction;
  opts.servers_per_dc = 8;
  opts.clients_per_dc = 1;
  opts.replication = replication;
  opts.k_stability = k;
  Cluster cluster(opts);
  ChainReactionClient* client = cluster.crx_client(0);
  for (int i = 0; i < 20; ++i) {
    const Key key = "ack-" + std::to_string(i);
    bool done = false;
    client->Put(key, "v", [&](const auto&) {
      ChainIndex idx = 0;
      ASSERT_TRUE(client->LookupMetadata(key, nullptr, &idx));
      EXPECT_EQ(idx, k);
      done = true;
    });
    cluster.sim()->Run();
    ASSERT_TRUE(done);
  }
}

INSTANTIATE_TEST_SUITE_P(RTimesK, AckSweep,
                         ::testing::Combine(::testing::Values(2u, 3u, 4u),
                                            ::testing::Values(1u, 2u, 3u, 4u)),
                         [](const ::testing::TestParamInfo<AckSweep::ParamType>& param_info) {
                           return "R" + std::to_string(std::get<0>(param_info.param)) + "_k" +
                                  std::to_string(std::get<1>(param_info.param));
                         });

}  // namespace
}  // namespace chainreaction
