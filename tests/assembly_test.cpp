// Cluster-wide trace assembly and critical-path attribution.
//
// Unit coverage: the critical-path decomposition (exact segment sums,
// dep-wait attribution, incomplete-trace honesty), the RenderJson <->
// ParseTraceJson round trip the HTTP pull path relies on, union-merge
// dedup, and aggregate publication. End-to-end coverage: assembly over a
// REAL TcpCluster in distributed-telemetry mode — every node holds only its
// own partial trace behind its own TelemetryServer, and the assembler must
// pull each node's /traces over HTTP (plus the client-side partials) to
// reconstruct cross-node timelines under the multi-loop, pipelined-ack
// deployment.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/net/http_client.h"
#include "src/net/tcp_cluster.h"
#include "src/obs/assembly.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"

namespace chainreaction {
namespace {

// A fully-observed gated put: client 100 -> head 1 -> replica 2 (k-ack) ->
// tail 3, with a 500us dep-wait at the head.
TraceContext MakeGatedContext() {
  TraceContext ctx;
  ctx.id = 0xabc1;
  ctx.Annotate(HopKind::kClientPut, 100, 0, 0, 1000);
  ctx.Annotate(HopKind::kHeadRecv, 1, 0, 1, 1300);
  ctx.Annotate(HopKind::kHeadGated, 1, 0, 1, 1310);
  ctx.Annotate(HopKind::kDepUnblocked, 1, 0, 500, 1810, /*aux=*/0xfeed);
  ctx.Annotate(HopKind::kHeadApply, 1, 0, 1, 1820);
  ctx.Annotate(HopKind::kChainRecv, 2, 0, 2, 1900, /*aux=*/7);
  ctx.Annotate(HopKind::kChainApply, 2, 0, 2, 1910);
  ctx.Annotate(HopKind::kKAck, 2, 0, 2, 1910);
  ctx.Annotate(HopKind::kClientAck, 100, 0, 0, 2200);
  ctx.Annotate(HopKind::kTailStable, 3, 0, 3, 2500);
  return ctx;
}

TraceCollector::Trace CollectOne(const TraceContext& ctx, const std::string& note = "") {
  TraceCollector collector;
  collector.Report(ctx);
  if (!note.empty()) {
    collector.AnnotateNote(ctx.id, note);
  }
  TraceCollector::Trace trace;
  EXPECT_TRUE(collector.Find(ctx.id, &trace));
  return trace;
}

TEST(CriticalPath, ExactDecompositionOfGatedPut) {
  const TraceCollector::Trace trace =
      CollectOne(MakeGatedContext(), "blocked_by key=user42 version=[1]@5/dc0 chain=1->3");
  const CriticalPath cp = ComputeCriticalPath(trace);

  EXPECT_TRUE(cp.complete);
  EXPECT_EQ(cp.e2e_us, 1200);
  EXPECT_EQ(cp.net_us, 300 + 290);   // client->head + k_ack->client
  EXPECT_EQ(cp.encode_us, 10 + 10);  // recv->gate + unblock->apply
  EXPECT_EQ(cp.depwait_us, 500);
  EXPECT_EQ(cp.kack_us, 90);
  // The decomposition is exact: attributed segments sum to measured e2e.
  EXPECT_EQ(cp.net_us + cp.encode_us + cp.depwait_us + cp.kack_us, cp.e2e_us);
  EXPECT_DOUBLE_EQ(cp.coverage, 1.0);
  // Stability is post-ack trailing lag, not part of the e2e sum.
  EXPECT_EQ(cp.stability_us, 2500 - 1820);
  EXPECT_EQ(cp.geo_us, -1);
  EXPECT_EQ(cp.blocked_by, "key=user42 version=[1]@5/dc0 chain=1->3");
  EXPECT_FALSE(cp.migration_overlap);

  // The timeline is monotone: begin-ordered, every span non-negative.
  ASSERT_FALSE(cp.segments.empty());
  for (size_t i = 0; i < cp.segments.size(); ++i) {
    EXPECT_LE(cp.segments[i].begin, cp.segments[i].end) << cp.segments[i].name;
    if (i > 0) {
      EXPECT_LE(cp.segments[i - 1].begin, cp.segments[i].begin);
    }
  }
  // The chain link to position 2 is split into net and process parts.
  const std::string rendered = RenderCriticalPath(cp);
  EXPECT_NE(rendered.find("link2:net"), std::string::npos);
  EXPECT_NE(rendered.find("dep_wait"), std::string::npos);
  EXPECT_NE(rendered.find("blocked_by key=user42"), std::string::npos);
}

TEST(CriticalPath, UngatedPutHasNoDepWait) {
  TraceContext ctx;
  ctx.id = 0xabc2;
  ctx.Annotate(HopKind::kClientPut, 100, 0, 0, 0);
  ctx.Annotate(HopKind::kHeadRecv, 1, 0, 0, 200);
  ctx.Annotate(HopKind::kHeadApply, 1, 0, 1, 230);
  ctx.Annotate(HopKind::kKAck, 2, 0, 2, 300);
  ctx.Annotate(HopKind::kClientAck, 100, 0, 0, 450);
  const CriticalPath cp = ComputeCriticalPath(CollectOne(ctx));
  EXPECT_TRUE(cp.complete);
  EXPECT_EQ(cp.depwait_us, 0);
  EXPECT_EQ(cp.encode_us, 30);
  EXPECT_EQ(cp.e2e_us, 450);
  EXPECT_DOUBLE_EQ(cp.coverage, 1.0);
  EXPECT_TRUE(cp.blocked_by.empty());
}

TEST(CriticalPath, MissingHopsLowerCoverage) {
  // Only the client's view survived: e2e is known but nothing inside it.
  TraceContext ctx;
  ctx.id = 0xabc3;
  ctx.Annotate(HopKind::kClientPut, 100, 0, 0, 0);
  ctx.Annotate(HopKind::kClientAck, 100, 0, 0, 1000);
  const CriticalPath cp = ComputeCriticalPath(CollectOne(ctx));
  EXPECT_FALSE(cp.complete);
  EXPECT_EQ(cp.e2e_us, 1000);
  EXPECT_LT(cp.coverage, 1.0);
}

TEST(CriticalPath, MigrationOverlapFlagged) {
  TraceContext ctx = MakeGatedContext();
  ctx.Annotate(HopKind::kMigPhase, 1, 0, 12, 1821, /*aux=*/3);
  const CriticalPath cp = ComputeCriticalPath(CollectOne(ctx));
  EXPECT_TRUE(cp.migration_overlap);
}

TEST(TraceJson, RenderParseRoundTrip) {
  const TraceCollector::Trace trace =
      CollectOne(MakeGatedContext(), "blocked_by key=a\"b\\c version=[1]@1/dc0 chain=1->3");
  const std::string json = TraceCollector::RenderJson(trace);

  TraceCollector::Trace parsed;
  ASSERT_TRUE(ParseTraceJson(json, &parsed));
  EXPECT_EQ(parsed.id, trace.id);
  ASSERT_EQ(parsed.hops.size(), trace.hops.size());
  for (size_t i = 0; i < trace.hops.size(); ++i) {
    EXPECT_TRUE(parsed.hops[i] == trace.hops[i]) << "hop " << i;
  }
  ASSERT_EQ(parsed.notes.size(), 1u);
  EXPECT_EQ(parsed.notes[0], trace.notes[0]);  // escaping round-trips
}

TEST(TraceJson, RejectsGarbage) {
  TraceCollector::Trace parsed;
  EXPECT_FALSE(ParseTraceJson("", &parsed));
  EXPECT_FALSE(ParseTraceJson("{\"id\":\"zz\"}", &parsed));
  EXPECT_FALSE(ParseTraceJson("[1,2,3]", &parsed));
}

TEST(TraceAssembler, MergeFromUnionDedups) {
  const TraceContext full = MakeGatedContext();

  // Two nodes each saw an overlapping subset of the hops.
  TraceContext part1{full.id, {full.hops.begin(), full.hops.begin() + 6}};
  TraceContext part2{full.id, {full.hops.begin() + 4, full.hops.end()}};
  TraceCollector node1, node2;
  node1.Report(part1);
  node1.AnnotateNote(full.id, "blocked_by key=k version=[1]@1/dc0 chain=1->3");
  node2.Report(part2);

  TraceAssembler assembler;
  EXPECT_EQ(assembler.MergeFrom(node1), 1u);
  EXPECT_EQ(assembler.MergeFrom(node2), 1u);
  EXPECT_EQ(assembler.MergeFrom(node1), 1u);  // re-merge is idempotent

  TraceCollector::Trace merged;
  ASSERT_TRUE(assembler.collector()->Find(full.id, &merged));
  EXPECT_EQ(merged.hops.size(), full.hops.size());  // duplicates collapsed
  ASSERT_EQ(merged.notes.size(), 1u);

  CriticalPath cp;
  ASSERT_TRUE(assembler.AssembleOne(full.id, &cp));
  EXPECT_TRUE(cp.complete);
  EXPECT_DOUBLE_EQ(cp.coverage, 1.0);
}

TEST(TraceAssembler, PublishAggregatesRecordsMetrics) {
  TraceAssembler assembler;
  TraceCollector src;
  src.Report(MakeGatedContext());
  assembler.MergeFrom(src);

  MetricsRegistry metrics;
  const std::vector<CriticalPath> cps = assembler.PublishAggregates(&metrics);
  ASSERT_EQ(cps.size(), 1u);
  const std::string text = metrics.RenderText();
  EXPECT_NE(text.find("crx_cp_depwait_us"), std::string::npos);
  EXPECT_NE(text.find("crx_cp_kack_us"), std::string::npos);
  EXPECT_NE(text.find("crx_cp_net_us"), std::string::npos);
  EXPECT_NE(text.find("crx_cp_assembled_total"), std::string::npos);
  EXPECT_NE(text.find("crx_cp_coverage_pct"), std::string::npos);
}

TEST(TraceAssembler, PullsTracesOverHttp) {
  TraceCollector node;
  node.Report(MakeGatedContext());
  node.AnnotateNote(0xabc1, "blocked_by key=u1 version=[1]@2/dc0 chain=1->3");

  TelemetryServer server(0);
  ASSERT_TRUE(server.ok());
  server.AttachTraces(&node);
  server.Start();

  TraceAssembler assembler;
  EXPECT_EQ(assembler.PullHttp(server.port()), 1);
  TraceCollector::Trace pulled;
  ASSERT_TRUE(assembler.collector()->Find(0xabc1, &pulled));
  EXPECT_EQ(pulled.hops.size(), 10u);
  ASSERT_EQ(pulled.notes.size(), 1u);

  CriticalPath cp;
  ASSERT_TRUE(assembler.AssembleOne(0xabc1, &cp));
  EXPECT_DOUBLE_EQ(cp.coverage, 1.0);
  EXPECT_EQ(cp.blocked_by, "key=u1 version=[1]@2/dc0 chain=1->3");
  server.Stop();

  // An unreachable server is an error, not zero traces.
  TraceAssembler dead;
  EXPECT_EQ(dead.PullHttp(1), -1);
}

TEST(TelemetryServer, ServesCriticalPathEndpoint) {
  TraceCollector traces;
  traces.Report(MakeGatedContext());
  TelemetryServer server(0);
  ASSERT_TRUE(server.ok());
  server.AttachTraces(&traces);
  server.Start();

  const HttpClientResponse human = HttpGet(server.port(), "/criticalpath");
  ASSERT_TRUE(human.ok);
  EXPECT_NE(human.body.find("coverage"), std::string::npos);
  EXPECT_NE(human.body.find("dep_wait"), std::string::npos);

  const HttpClientResponse json = HttpGet(server.port(), "/criticalpath?id=000000000000abc1&format=json");
  ASSERT_TRUE(json.ok);
  EXPECT_NE(json.body.find("\"e2e_us\":1200"), std::string::npos);
  EXPECT_NE(json.body.find("\"coverage\":"), std::string::npos);

  const HttpClientResponse missing = HttpGet(server.port(), "/criticalpath?id=dead");
  EXPECT_EQ(missing.status, 404);
  server.Stop();
}

// Satellite: cross-node assembly over a real TCP deployment. Each node's
// hops are visible only through its own TelemetryServer; the assembler must
// reconstruct full timelines via HTTP pulls + the client partials, under
// the multi-loop runtime with pipelined puts, whose acks coalesce per loop
// turn (traced acks ride inside CrxPutAckBatch frames too).
TEST(TcpAssembly, CrossNodeTimelinesOverPerNodeTelemetry) {
  MetricsRegistry metrics;
  TcpCluster::Options opts;
  opts.num_nodes = 5;
  opts.loop_threads = 2;
  opts.num_clients = 4;
  opts.client_loop_threads = 2;
  opts.seed = 11;
  opts.config.replication = 3;
  opts.config.k_stability = 2;
  opts.config.client_timeout = 5 * kSecond;
  opts.config.trace_sample_every = 8;
  opts.metrics = &metrics;
  opts.per_node_telemetry = true;
  TcpCluster cluster(opts);

  TcpCluster::LoadOptions load;
  load.duration = 400 * kMillisecond;
  load.value_size = 64;
  load.key_space = 256;
  load.get_fraction = 0.0;  // pure puts: every sampled op crosses the chain
  load.pipeline = 4;
  const TcpCluster::LoadResult result = cluster.RunClosedLoop(load);
  ASSERT_GT(result.ops, 0u);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_GT(metrics.Snapshot().SumCounters("crx_ack_batched"), 0);

  // The client partials landed in the client-side collector only.
  ASSERT_GT(cluster.client_collector()->size(), 0u);

  TraceAssembler assembler;
  assembler.MergeFrom(*cluster.client_collector());
  for (NodeId n = 0; n < opts.num_nodes; ++n) {
    const uint16_t port = cluster.node_telemetry_port(n);
    ASSERT_NE(port, 0) << "node " << n << " telemetry did not bind";
    EXPECT_GE(assembler.PullHttp(port), 0) << "node " << n;
  }

  const std::vector<CriticalPath> cps = assembler.PublishAggregates(&metrics);
  ASSERT_FALSE(cps.empty());

  size_t complete = 0, gated = 0, gated_attributed = 0;
  for (const CriticalPath& cp : cps) {
    if (!cp.complete) {
      continue;  // sampled put still in flight at shutdown
    }
    ++complete;
    // Every hop of the cross-node path must be present...
    TraceCollector::Trace trace;
    ASSERT_TRUE(assembler.collector()->Find(cp.id, &trace));
    auto has = [&trace](HopKind k) {
      for (const TraceHop& h : trace.hops) {
        if (h.kind == k) {
          return true;
        }
      }
      return false;
    };
    EXPECT_TRUE(has(HopKind::kClientPut));
    EXPECT_TRUE(has(HopKind::kHeadRecv));
    EXPECT_TRUE(has(HopKind::kHeadApply));
    EXPECT_TRUE(has(HopKind::kKAck));
    EXPECT_TRUE(has(HopKind::kClientAck));
    // ... the timeline monotone (TcpRuntime::Now is process-wide) ...
    for (size_t i = 1; i < cp.segments.size(); ++i) {
      EXPECT_LE(cp.segments[i - 1].begin, cp.segments[i].begin);
      EXPECT_LE(cp.segments[i].begin, cp.segments[i].end);
    }
    // ... and the decomposition exact: segments sum to measured e2e.
    EXPECT_EQ(cp.net_us + cp.encode_us + cp.depwait_us + cp.kack_us, cp.e2e_us)
        << "trace " << std::hex << cp.id;
    EXPECT_DOUBLE_EQ(cp.coverage, 1.0);
    if (cp.depwait_us > 0) {
      ++gated;
      if (!cp.blocked_by.empty()) {
        ++gated_attributed;
      }
    }
  }
  ASSERT_GT(complete, 0u);
  // Dep-wait attribution survives the HTTP pull: every gated path names
  // the dependency that blocked it.
  EXPECT_EQ(gated, gated_attributed);

  // The per-node chain-lag gauge behind the dep-stall watchdog is live.
  EXPECT_NE(metrics.RenderText().find("crx_chain_lag_us"), std::string::npos);
}

}  // namespace
}  // namespace chainreaction
