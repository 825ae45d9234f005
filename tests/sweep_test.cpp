// Parameterized property sweeps over the substrate modules: version-vector
// algebra across dimensions, zipfian shape across skews and sizes, the
// histogram error bound across magnitudes, and node checkpoint recovery.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/version.h"
#include "src/harness/cluster.h"
#include "src/storage/checkpoint.h"
#include "src/ycsb/generators.h"

namespace chainreaction {
namespace {

// ------------------------- version vector algebra --------------------------

class VvAlgebraSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(VvAlgebraSweep, PartialOrderLaws) {
  const size_t dims = GetParam();
  Rng rng(dims * 31 + 1);
  for (int trial = 0; trial < 500; ++trial) {
    VersionVector a(dims), b(dims), c(dims);
    for (size_t d = 0; d < dims; ++d) {
      a.Set(static_cast<DcId>(d), rng.NextBelow(5));
      b.Set(static_cast<DcId>(d), rng.NextBelow(5));
      c.Set(static_cast<DcId>(d), rng.NextBelow(5));
    }
    // Reflexivity and antisymmetry.
    EXPECT_TRUE(a.Dominates(a));
    if (a.Dominates(b) && b.Dominates(a)) {
      EXPECT_TRUE(a == b);
    }
    // Transitivity.
    if (a.Dominates(b) && b.Dominates(c)) {
      EXPECT_TRUE(a.Dominates(c));
    }
    // Merge is an upper bound and idempotent.
    VersionVector m = a;
    m.MergeMax(b);
    EXPECT_TRUE(m.Dominates(a));
    EXPECT_TRUE(m.Dominates(b));
    VersionVector m2 = m;
    m2.MergeMax(b);
    EXPECT_TRUE(m2 == m);
    // Concurrency is symmetric and exclusive with dominance.
    EXPECT_EQ(a.ConcurrentWith(b), b.ConcurrentWith(a));
    if (a.ConcurrentWith(b)) {
      EXPECT_FALSE(a.Dominates(b));
      EXPECT_FALSE(b.Dominates(a));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, VvAlgebraSweep, ::testing::Values(1, 2, 3, 5, 8),
                         [](const ::testing::TestParamInfo<size_t>& param_info) {
                           return "d" + std::to_string(param_info.param);
                         });

// ------------------------------ zipf shape ---------------------------------

class ZipfSweep : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(ZipfSweep, RankFrequencyDecaysLikePowerLaw) {
  const auto [items, theta] = GetParam();
  ZipfianChooser zipf(items, theta);
  Rng rng(7);
  std::vector<uint32_t> counts(items, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    counts[zipf.Next(&rng)]++;
  }
  // Zipf's law: count(rank) ~ rank^-theta. Check the decade ratio between
  // rank 1 and rank 10 within generous tolerance.
  ASSERT_GT(counts[0], 0u);
  if (items >= 16) {
    const double expected_ratio = std::pow(10.0, theta);
    const double measured_ratio =
        static_cast<double>(counts[0]) / std::max<uint32_t>(1, counts[9]);
    EXPECT_GT(measured_ratio, expected_ratio * 0.5);
    EXPECT_LT(measured_ratio, expected_ratio * 2.0);
  }
  // All mass within range.
  uint64_t total = 0;
  for (uint32_t c : counts) {
    total += c;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(
    ItemsTheta, ZipfSweep,
    ::testing::Combine(::testing::Values(16u, 1000u, 100000u), ::testing::Values(0.5, 0.99)),
    [](const ::testing::TestParamInfo<ZipfSweep::ParamType>& param_info) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "n%llu_t%d",
                    static_cast<unsigned long long>(std::get<0>(param_info.param)),
                    static_cast<int>(std::get<1>(param_info.param) * 100));
      return std::string(buf);
    });

// --------------------------- histogram error -------------------------------

class HistogramErrorSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(HistogramErrorSweep, PercentileWithinRelativeErrorBound) {
  const int64_t scale = GetParam();
  Histogram h;
  Rng rng(3);
  std::vector<int64_t> values;
  for (int i = 0; i < 20000; ++i) {
    const int64_t v = static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(scale))) + 1;
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    const int64_t exact = values[static_cast<size_t>(p / 100.0 * (values.size() - 1))];
    const int64_t approx = h.Percentile(p);
    EXPECT_LE(std::llabs(approx - exact), exact / 16 + 2)
        << "p" << p << " scale " << scale;
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, HistogramErrorSweep,
                         ::testing::Values(100, 10000, 1000000, int64_t{1} << 30),
                         [](const ::testing::TestParamInfo<int64_t>& param_info) {
                           return "s" + std::to_string(param_info.index);
                         });

// --------------------------- node recovery ---------------------------------

TEST(NodeRecovery, CheckpointRestoresServingState) {
  ClusterOptions opts;
  opts.system = SystemKind::kChainReaction;
  opts.servers_per_dc = 6;
  opts.clients_per_dc = 1;
  Cluster cluster(opts);
  ChainReactionClient* client = cluster.crx_client(0);

  for (int i = 0; i < 25; ++i) {
    bool done = false;
    client->Put("ckpt-" + std::to_string(i), "v" + std::to_string(i),
                [&](const auto&) { done = true; });
    cluster.sim()->Run();
    ASSERT_TRUE(done);
  }

  // Save node 0's state, then restore it into a fresh store and compare.
  const std::string path = ::testing::TempDir() + "node0.ckpt";
  ChainReactionNode* node = cluster.crx_node(0, 0);
  ASSERT_TRUE(node->SaveStateCheckpoint(path).ok());

  VersionedStore restored;
  ASSERT_TRUE(LoadCheckpoint(path, &restored).ok());
  EXPECT_EQ(restored.KeyCount(), node->store().KeyCount());
  node->store().ForEachKey([&](const Key& key, const StoredVersion& latest) {
    const StoredVersion* r = restored.Latest(key);
    ASSERT_NE(r, nullptr) << key;
    EXPECT_EQ(r->value, latest.value);
    EXPECT_TRUE(r->version == latest.version);
    EXPECT_EQ(r->stable, latest.stable);
  });
  std::remove(path.c_str());
}

}  // namespace
}  // namespace chainreaction
