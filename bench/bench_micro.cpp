// M1-M6 — google-benchmark micro-benchmarks for the hot substrate paths:
// message serialization, ring chain lookup, versioned-store operations,
// puts through a simulated chain of nodes, zipfian generation, histogram
// recording, and the causal checker.
//
// Every benchmark also reports "allocs/op" (heap allocations per iteration,
// via a global operator-new hook) — the target the allocation-light
// encoding work optimizes.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/checker/causal_checker.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/core/chainreaction_node.h"
#include "src/msg/message.h"
#include "src/obs/alloc_phase.h"
#include "src/ring/ring.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/storage/versioned_store.h"
#include "src/ycsb/generators.h"
#include "src/ycsb/workload.h"

static std::atomic<uint64_t> g_allocs{0};
// Per-phase buckets (decode/apply/encode/callback/other) keyed by the
// allocating thread's AllocPhase stamp; AllocCounter reports any nonzero
// bucket as its own counter.
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

// Wraps a benchmark loop body: counts heap allocations across the timed
// region and reports them per iteration.
class AllocCounter {
 public:
  explicit AllocCounter(benchmark::State& state) : state_(state) {
    start_ = g_allocs.load(std::memory_order_relaxed);
    for (size_t p = 0; p < kAllocPhaseCount; ++p) {
      phase_start_[p] = g_phase_allocs[p].load(std::memory_order_relaxed);
    }
  }
  ~AllocCounter() {
    const uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - start_;
    state_.counters["allocs/op"] = benchmark::Counter(
        static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
    for (size_t p = 0; p < kAllocPhaseCount; ++p) {
      const uint64_t n = g_phase_allocs[p].load(std::memory_order_relaxed) - phase_start_[p];
      if (n == 0) {
        continue;  // benches outside explicit scopes only emit the total
      }
      state_.counters[std::string("allocs/op:") +
                      AllocPhaseName(static_cast<AllocPhase>(p))] =
          benchmark::Counter(static_cast<double>(n), benchmark::Counter::kAvgIterations);
    }
  }

 private:
  benchmark::State& state_;
  uint64_t start_ = 0;
  uint64_t phase_start_[kAllocPhaseCount] = {};
};

void BM_EncodeChainPut(benchmark::State& state) {
  CrxChainPut msg;
  msg.key = "user000000012345";
  msg.value = std::string(static_cast<size_t>(state.range(0)), 'v');
  msg.version.vv = VersionVector(2);
  msg.version.vv.Set(0, 123);
  msg.version.lamport = 123456789;
  msg.deps.push_back(Dependency{"user000000000007", msg.version});
  AllocCounter alloc(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeMessage(msg));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_EncodeChainPut)->Arg(64)->Arg(512)->Arg(4096);

void BM_DecodeChainPut(benchmark::State& state) {
  CrxChainPut msg;
  msg.key = "user000000012345";
  msg.value = std::string(static_cast<size_t>(state.range(0)), 'v');
  msg.version.vv = VersionVector(2);
  const std::string payload = EncodeMessage(msg);
  AllocCounter alloc(state);
  for (auto _ : state) {
    CrxChainPut out;
    benchmark::DoNotOptimize(DecodeMessage(payload, &out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DecodeChainPut)->Arg(64)->Arg(512)->Arg(4096);

// The zero-copy twin of BM_DecodeChainPut: decode into a view whose
// key/value alias the wire buffer. Allocation-free regardless of value size
// (the dep list fits DepList's inline capacity).
void BM_DecodeChainPutView(benchmark::State& state) {
  CrxChainPut msg;
  msg.key = "user000000012345";
  msg.value = std::string(static_cast<size_t>(state.range(0)), 'v');
  msg.version.vv = VersionVector(2);
  msg.deps.push_back(Dependency{"user000000000007", msg.version});
  const std::string payload = EncodeMessage(msg);
  AllocCounter alloc(state);
  for (auto _ : state) {
    AllocPhaseScope phase(AllocPhase::kDecode);
    CrxChainPutView out;
    benchmark::DoNotOptimize(DecodeMessage(payload, &out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DecodeChainPutView)->Arg(64)->Arg(512)->Arg(4096);

// Encode-from-view (the down-chain forward path): fields alias an inbound
// buffer; only the output frame itself is allocated.
void BM_EncodeChainPutView(benchmark::State& state) {
  CrxChainPut owned;
  owned.key = "user000000012345";
  owned.value = std::string(static_cast<size_t>(state.range(0)), 'v');
  owned.version.vv = VersionVector(2);
  owned.deps.push_back(Dependency{"user000000000007", owned.version});
  const CrxChainPutView msg = CrxChainPutView::From(owned);
  AllocCounter alloc(state);
  for (auto _ : state) {
    AllocPhaseScope phase(AllocPhase::kEncode);
    benchmark::DoNotOptimize(EncodeMessage(msg));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_EncodeChainPutView)->Arg(64)->Arg(512)->Arg(4096);

// Chain lookup over a working set of state.range(0) distinct keys. The ring
// keeps no per-key state (one precomputed chain per ring segment), so ns/op
// should stay flat as the key count grows, and a lookup never allocates.
void BM_RingChainFor(benchmark::State& state) {
  std::vector<NodeId> nodes;
  for (NodeId n = 0; n < 64; ++n) {
    nodes.push_back(n);
  }
  const Ring ring(nodes, 16, 3);
  const size_t count = static_cast<size_t>(state.range(0));
  std::vector<Key> keys;
  keys.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    char buf[24];
    // 15 characters: fits the small-string buffer, so the key set itself
    // is one contiguous array.
    std::snprintf(buf, sizeof(buf), "user%011zu", k);
    keys.emplace_back(buf);
  }
  size_t i = 0;
  AllocCounter alloc(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.ChainFor(keys[i]));
    if (++i == count) {
      i = 0;
    }
  }
}
BENCHMARK(BM_RingChainFor)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_StoreApply(benchmark::State& state) {
  VersionedStore store;
  uint64_t lamport = 1;
  AllocCounter alloc(state);
  for (auto _ : state) {
    Version v;
    v.vv = VersionVector(1);
    v.vv.Set(0, lamport);
    v.lamport = lamport++;
    store.Apply(RecordKey(lamport % 1024), "value-payload-128-bytes", v);
    if ((lamport & 0xff) == 0) {
      store.MarkStable(RecordKey(lamport % 1024), v);
    }
  }
}
BENCHMARK(BM_StoreApply);

void BM_StoreLatest(benchmark::State& state) {
  VersionedStore store;
  for (uint64_t i = 0; i < 1024; ++i) {
    Version v;
    v.vv = VersionVector(1);
    v.vv.Set(0, 1);
    v.lamport = i + 1;
    store.Apply(RecordKey(i), "value", v);
  }
  uint64_t i = 0;
  AllocCounter alloc(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Latest(RecordKey(i++ % 1024)));
  }
}
BENCHMARK(BM_StoreLatest);

// The node layer alone: client puts through one simulated R=3, k=2 chain
// (three ChainReactionNodes, default config) over 4096 keys, 128 B values.
// Each iteration hands the head one encoded CrxPut and advances simulated
// time by 20 us, so the pipeline holds a few puts at a time: the head
// versions and forwards, two links apply, the k-th node acks (into a sink),
// the tail stabilizes and the coalesced notify walks back. Links take a
// fixed 10 us. Time per iteration is the CPU cost of one put across all
// three nodes plus the simulator's event handling; allocs/op counts every
// heap allocation per put, the put's own encoded frame included.
void BM_ChainPipelinePut(benchmark::State& state) {
  struct Sink : Actor {
    void OnMessage(Address, std::string_view) override {}
  };
  constexpr size_t kKeys = 4096;
  Simulator sim;
  NetworkConfig net_config;
  net_config.intra_site = LinkModel{10, 0};
  SimNetwork net(&sim, net_config, /*seed=*/1);
  const CrxConfig config;
  const Ring ring({0, 1, 2}, config.vnodes, config.replication);
  std::vector<std::unique_ptr<ChainReactionNode>> nodes;
  for (NodeId id = 0; id < 3; ++id) {
    nodes.push_back(std::make_unique<ChainReactionNode>(id, config, ring));
    nodes.back()->AttachEnv(net.Register(id, nodes.back().get(), 0));
  }
  Sink sink;
  const Address client = kClientAddressBase;
  net.Register(client, &sink, 0);

  std::vector<Key> keys;
  keys.reserve(kKeys);
  for (size_t k = 0; k < kKeys; ++k) {
    keys.push_back(RecordKey(k));
  }
  CrxPut put;
  put.client = client;
  put.value.assign(128, 'v');
  uint64_t next = 0;
  const auto send_one = [&]() {
    put.req = next + 1;  // distinct requests: no retry dedup
    put.key = keys[next++ % kKeys];
    net.Send(client, ring.HeadFor(put.key), EncodeMessage(put));
    sim.RunUntil(sim.Now() + 20);
  };
  // Warm-up: every key holds a version, so the measured puts hit existing
  // records, as in a long-running store.
  for (size_t k = 0; k < 2 * kKeys; ++k) {
    send_one();
  }
  AllocCounter alloc(state);
  for (auto _ : state) {
    send_one();
  }
}
BENCHMARK(BM_ChainPipelinePut);

void BM_ZipfianNext(benchmark::State& state) {
  ZipfianChooser zipf(static_cast<uint64_t>(state.range(0)));
  Rng rng(1);
  AllocCounter alloc(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(&rng));
  }
}
BENCHMARK(BM_ZipfianNext)->Arg(10000)->Arg(10000000);

void BM_ScrambledZipfianNext(benchmark::State& state) {
  ScrambledZipfianChooser zipf(1000000);
  Rng rng(1);
  AllocCounter alloc(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(&rng));
  }
}
BENCHMARK(BM_ScrambledZipfianNext);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  AllocCounter alloc(state);
  for (auto _ : state) {
    h.Record(static_cast<int64_t>(rng.NextBelow(1000000)));
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_CausalCheckerRead(benchmark::State& state) {
  CausalChecker checker;
  Version v;
  v.vv = VersionVector(2);
  v.vv.Set(0, 1);
  v.lamport = 1;
  for (uint32_t s = 0; s < 16; ++s) {
    checker.RecordWrite(s, RecordKey(s), v, {});
  }
  uint64_t i = 0;
  AllocCounter alloc(state);
  for (auto _ : state) {
    checker.RecordRead(static_cast<uint32_t>(i % 16), RecordKey(i % 16), true, v);
    i++;
  }
}
BENCHMARK(BM_CausalCheckerRead);

}  // namespace
}  // namespace chainreaction

BENCHMARK_MAIN();
