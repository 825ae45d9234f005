// Observability unit tests: histogram edge cases (the metrics layer leans on
// Merge/Percentile), registry instrument identity + concurrency, snapshot
// queries and renderings, trace header wire format, collector merging, and
// the client session gauges.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/histogram.h"
#include "src/harness/cluster.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace chainreaction {
namespace {

// Histogram edge cases -------------------------------------------------------

TEST(HistogramEdge, EmptyHistogramReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(0), 0);
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.Percentile(100), 0);
  EXPECT_NE(h.Summary().find("count=0"), std::string::npos);
}

TEST(HistogramEdge, SingleSampleIsEveryPercentile) {
  Histogram h;
  h.Record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 42);
  EXPECT_EQ(h.max(), 42);
  EXPECT_DOUBLE_EQ(h.Mean(), 42.0);
  EXPECT_EQ(h.Percentile(0), 42);
  EXPECT_EQ(h.P50(), 42);
  EXPECT_EQ(h.P99(), 42);
  EXPECT_EQ(h.Percentile(100), 42);
}

TEST(HistogramEdge, NegativeSamplesClampToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.P50(), 0);
}

TEST(HistogramEdge, OverflowBucketStillBoundedByMax) {
  Histogram h;
  const int64_t huge = std::numeric_limits<int64_t>::max();
  h.Record(huge);
  h.Record(huge - 1);
  // Percentiles are capped at the observed max even when samples land in the
  // last (overflow) bucket, whose nominal upper bound wraps past int64 range.
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), huge);
  EXPECT_EQ(h.Percentile(100), huge);
  EXPECT_GE(h.P50(), huge - 1);
}

TEST(HistogramEdge, PercentileWithinRelativeErrorBound) {
  Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  // Log-bucketing guarantees relative error <= 1/32.
  EXPECT_NEAR(static_cast<double>(h.P50()), 500.0, 500.0 / 32.0 + 1.0);
  EXPECT_NEAR(static_cast<double>(h.P95()), 950.0, 950.0 / 32.0 + 1.0);
  EXPECT_NEAR(static_cast<double>(h.P99()), 990.0, 990.0 / 32.0 + 1.0);
}

TEST(HistogramEdge, MergeCombinesCountsAndExtremes) {
  Histogram a, b;
  a.Record(10);
  a.Record(20);
  b.Record(5);
  b.Record(1000);

  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), 5);
  EXPECT_EQ(a.max(), 1000);
  EXPECT_DOUBLE_EQ(a.Mean(), (10 + 20 + 5 + 1000) / 4.0);
}

TEST(HistogramEdge, MergeWithEmptyIsIdentityBothWays) {
  Histogram a, empty;
  a.Record(7);

  Histogram merged = a;
  merged.Merge(empty);
  EXPECT_EQ(merged.count(), 1u);
  EXPECT_EQ(merged.min(), 7);
  EXPECT_EQ(merged.max(), 7);

  Histogram from_empty;
  from_empty.Merge(a);
  EXPECT_EQ(from_empty.count(), 1u);
  EXPECT_EQ(from_empty.min(), 7);
  EXPECT_EQ(from_empty.max(), 7);
  EXPECT_EQ(from_empty.P50(), 7);
}

TEST(HistogramEdge, ResetClearsEverything) {
  Histogram h;
  h.Record(123);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.P99(), 0);
}

// Metrics registry ------------------------------------------------------------

TEST(MetricsRegistry, SameNameAndLabelsReturnsSamePointer) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("ops", {{"node", "1"}});
  Counter* b = reg.GetCounter("ops", {{"node", "1"}});
  Counter* c = reg.GetCounter("ops", {{"node", "2"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);

  a->Inc(3);
  c->Inc();
  EXPECT_EQ(reg.Snapshot().Value("ops", "node=1"), 3);
  EXPECT_EQ(reg.Snapshot().Value("ops", "node=2"), 1);
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("depth");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(reg.Snapshot().Value("depth"), 7);
}

TEST(MetricsRegistry, SnapshotSortedAndQueryable) {
  MetricsRegistry reg;
  reg.GetCounter("b_metric")->Inc(2);
  reg.GetCounter("a_metric", {{"x", "1"}})->Inc(1);
  reg.GetLatency("lat")->Record(100);

  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.points.size(), 3u);
  EXPECT_EQ(snap.points[0].name, "a_metric");
  EXPECT_EQ(snap.points[1].name, "b_metric");
  EXPECT_EQ(snap.points[2].name, "lat");

  const MetricPoint* p = snap.Find("a_metric", "x=1");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->value, 1);
  EXPECT_EQ(snap.Find("a_metric", "x=2"), nullptr);
  EXPECT_EQ(snap.Value("missing"), 0);

  const MetricPoint* lat = snap.Find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->kind, MetricKind::kHistogram);
  EXPECT_EQ(lat->hist.count(), 1u);
}

TEST(MetricsRegistry, SumCountersFiltersBySubstring) {
  MetricsRegistry reg;
  reg.GetCounter("reads", {{"node", "1"}, {"position", "1"}})->Inc(4);
  reg.GetCounter("reads", {{"node", "1"}, {"position", "2"}})->Inc(6);
  reg.GetCounter("reads", {{"node", "2"}, {"position", "1"}})->Inc(5);

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.SumCounters("reads"), 15);
  EXPECT_EQ(snap.SumCounters("reads", "node=1,"), 10);
  EXPECT_EQ(snap.SumCounters("reads", "position=1"), 9);
  EXPECT_EQ(snap.SumCounters("other"), 0);
}

TEST(MetricsRegistry, RenderTextAndJsonContainInstruments) {
  MetricsRegistry reg;
  reg.GetCounter("crx_test_counter", {{"dc", "0"}})->Inc(9);
  reg.GetLatency("crx_test_lat")->Record(50);

  const std::string text = reg.RenderText();
  EXPECT_NE(text.find("crx_test_counter{dc=0} 9"), std::string::npos) << text;
  EXPECT_NE(text.find("crx_test_lat"), std::string::npos);
  EXPECT_NE(text.find("count=1"), std::string::npos);

  const std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"crx_test_counter\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"crx_test_lat\""), std::string::npos);
}

TEST(MetricsRegistry, ConcurrentUpdatesAndSnapshots) {
  MetricsRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t]() {
      // Every thread re-resolves its instruments, racing registry creation
      // with the snapshotter below — the hot-path contract of AttachObs.
      Counter* shared = reg.GetCounter("shared_ops");
      Counter* own = reg.GetCounter("per_thread_ops", {{"t", std::to_string(t)}});
      LatencyMetric* lat = reg.GetLatency("op_lat");
      for (int i = 0; i < kIncrements; ++i) {
        shared->Inc();
        own->Inc();
        lat->Record(i % 512);
      }
    });
  }
  threads.emplace_back([&reg]() {
    for (int i = 0; i < 50; ++i) {
      const MetricsSnapshot snap = reg.Snapshot();
      (void)snap.RenderText();
    }
  });
  for (std::thread& t : threads) {
    t.join();
  }

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("shared_ops"), kThreads * kIncrements);
  EXPECT_EQ(snap.SumCounters("per_thread_ops"), kThreads * kIncrements);
  const MetricPoint* lat = snap.Find("op_lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist.count(), static_cast<uint64_t>(kThreads) * kIncrements);
}

// Trace wire format -----------------------------------------------------------

TEST(TraceWire, UntracedContextCostsOneByte) {
  TraceContext t;
  ByteWriter w;
  t.EncodeV2(&w);
  EXPECT_EQ(w.size(), 1u);  // varint 0

  ByteReader r(w.data());
  TraceContext back;
  back.hops.push_back(TraceHop{HopKind::kClientPut, 1, 0, 0, 5});  // must be cleared
  ASSERT_TRUE(back.DecodeV2(&r));
  EXPECT_FALSE(back.active());
  EXPECT_TRUE(back.hops.empty());
  EXPECT_TRUE(r.AtEnd());
}

TEST(TraceWire, RoundTripPreservesHops) {
  TraceContext t;
  t.id = MakeTraceId(kClientAddressBase + 3, 77);
  t.Annotate(HopKind::kClientPut, kClientAddressBase + 3, 0, 2, 1000);
  t.Annotate(HopKind::kHeadApply, 4, 0, 1, 1500);
  t.Annotate(HopKind::kKAck, 5, 1, 2, 2000);

  ByteWriter w;
  t.EncodeV2(&w);
  ByteReader r(w.data());
  TraceContext back;
  ASSERT_TRUE(back.DecodeV2(&r));
  EXPECT_TRUE(r.AtEnd());

  EXPECT_EQ(back.id, t.id);
  ASSERT_EQ(back.hops.size(), 3u);
  for (size_t i = 0; i < t.hops.size(); ++i) {
    EXPECT_TRUE(back.hops[i] == t.hops[i]) << "hop " << i;
  }
}

TEST(TraceWire, DecodeRejectsTruncatedInput) {
  TraceContext t;
  t.id = 9;
  t.Annotate(HopKind::kHeadApply, 1, 0, 1, 100);
  ByteWriter w;
  t.EncodeV2(&w);

  const std::string& full = w.data();
  for (size_t cut = 1; cut + 1 < full.size(); ++cut) {
    ByteReader r(full.data(), cut);
    TraceContext back;
    EXPECT_FALSE(back.DecodeV2(&r)) << "accepted a " << cut << "-byte prefix";
  }
}

// Trace collector -------------------------------------------------------------

TEST(TraceCollector, UnionMergesPartialReportsAndDedups) {
  TraceCollector col;

  TraceContext a;
  a.id = 1;
  a.Annotate(HopKind::kClientPut, 100, 0, 0, 10);
  col.Report(a);

  // A downstream component reports the same prefix plus a new hop — the
  // prefix must collapse, the new hop must be added.
  a.Annotate(HopKind::kHeadApply, 3, 0, 1, 20);
  col.Report(a);
  col.Report(a);  // exact re-report is idempotent

  TraceCollector::Trace merged;
  ASSERT_TRUE(col.Find(1, &merged));
  ASSERT_EQ(merged.hops.size(), 2u);
  EXPECT_EQ(merged.hops[0].kind, HopKind::kClientPut);
  EXPECT_EQ(merged.hops[1].kind, HopKind::kHeadApply);
}

TEST(TraceCollector, HopsSortedByTimestampAcrossReports) {
  TraceCollector col;

  // Reports arrive out of order (an ack path reports before a slow geo path).
  TraceContext late;
  late.id = 2;
  late.Annotate(HopKind::kTailStable, 6, 0, 3, 300);
  col.Report(late);

  TraceContext early;
  early.id = 2;
  early.Annotate(HopKind::kClientPut, 100, 0, 0, 50);
  early.Annotate(HopKind::kHeadApply, 4, 0, 1, 120);
  col.Report(early);

  TraceCollector::Trace merged;
  ASSERT_TRUE(col.Find(2, &merged));
  ASSERT_EQ(merged.hops.size(), 3u);
  for (size_t i = 1; i < merged.hops.size(); ++i) {
    EXPECT_LE(merged.hops[i - 1].at, merged.hops[i].at);
  }
  EXPECT_EQ(merged.hops[0].kind, HopKind::kClientPut);
  EXPECT_EQ(merged.hops[2].kind, HopKind::kTailStable);
}

TEST(TraceCollector, LatestAndClear) {
  TraceCollector col;
  EXPECT_EQ(col.size(), 0u);
  TraceCollector::Trace out;
  EXPECT_FALSE(col.Latest(&out));

  TraceContext first;
  first.id = 10;
  first.Annotate(HopKind::kClientPut, 1, 0, 0, 1);
  col.Report(first);
  TraceContext second;
  second.id = 11;
  second.Annotate(HopKind::kClientPut, 1, 0, 0, 2);
  col.Report(second);

  EXPECT_EQ(col.size(), 2u);
  ASSERT_TRUE(col.Latest(&out));
  EXPECT_EQ(out.id, 11u);
  // A re-report of an existing trace must not change which one is latest.
  col.Report(first);
  ASSERT_TRUE(col.Latest(&out));
  EXPECT_EQ(out.id, 11u);

  col.Clear();
  EXPECT_EQ(col.size(), 0u);
  EXPECT_FALSE(col.Find(10, &out));
}

TEST(TraceCollector, RenderNamesEveryHop) {
  TraceCollector col;
  TraceContext t;
  t.id = 5;
  t.Annotate(HopKind::kClientPut, 100, 0, 0, 10);
  t.Annotate(HopKind::kHeadApply, 3, 0, 1, 25);
  t.Annotate(HopKind::kKAck, 4, 0, 2, 40);
  col.Report(t);

  TraceCollector::Trace merged;
  ASSERT_TRUE(col.Find(5, &merged));
  const std::string text = TraceCollector::Render(merged);
  EXPECT_NE(text.find(HopKindName(HopKind::kClientPut)), std::string::npos) << text;
  EXPECT_NE(text.find(HopKindName(HopKind::kHeadApply)), std::string::npos);
  EXPECT_NE(text.find(HopKindName(HopKind::kKAck)), std::string::npos);
}

TEST(TraceHopHelper, NoOpWithoutActiveTraceOrSink) {
  struct CountingClock {
    int reads = 0;
    Time Now() {
      reads++;
      return 10;
    }
  } clock;
  TraceContext inactive;
  TraceCollector col;
  TraceHopAndReport(&inactive, &col, HopKind::kClientPut, 1, 0, 0, &clock);
  EXPECT_TRUE(inactive.hops.empty());
  EXPECT_EQ(col.size(), 0u);
  EXPECT_EQ(clock.reads, 0);  // an untraced hop does not read the clock

  TraceContext active;
  active.id = 1;
  TraceHopAndReport(&active, nullptr, HopKind::kClientPut, 1, 0, 0, &clock);
  ASSERT_EQ(active.hops.size(), 1u);  // annotates even with no collector
  EXPECT_EQ(active.hops[0].at, 10);
  EXPECT_EQ(clock.reads, 1);
  TraceHopAndReport(nullptr, &col, HopKind::kClientPut, 1, 0, 0, &clock);
  EXPECT_EQ(col.size(), 0u);
  EXPECT_EQ(clock.reads, 1);
}

// Client session gauges ------------------------------------------------------

// crx_client_metadata_keys reports the session's per-key metadata map as of
// its last put, next to crx_client_accessed_keys; with the watermark's
// sweeps it stays bounded while the keys written keep growing.
TEST(ClientGauges, MetadataKeysGaugeTracksSessionMap) {
  ClusterOptions opts;
  opts.servers_per_dc = 8;
  opts.clients_per_dc = 1;
  Cluster cluster(opts);
  ChainReactionClient* client = cluster.crx_client(0);
  const std::string labels = "client=" + std::to_string(client->address());

  size_t entries_at_last_put = 0;
  for (int i = 0; i < 200; ++i) {
    entries_at_last_put = client->metadata_entries();
    client->Put("gauge-" + std::to_string(i), "v", [](const auto&) {});
    cluster.sim()->Run();
  }
  const MetricsSnapshot snap = cluster.metrics()->Snapshot();
  ASSERT_NE(snap.Find("crx_client_metadata_keys", labels), nullptr);
  EXPECT_EQ(snap.Value("crx_client_metadata_keys", labels),
            static_cast<int64_t>(entries_at_last_put));
  EXPECT_GT(entries_at_last_put, 0u);
  EXPECT_LT(entries_at_last_put, 128u);
  EXPECT_EQ(snap.Value("crx_client_accessed_keys", labels), 1);
}

}  // namespace
}  // namespace chainreaction
