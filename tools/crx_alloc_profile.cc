// Allocation-site profiler for the TCP hot path.
//
// Runs the same closed-loop deployment as bench_e16_hotpath's overhaul cell
// with a sampling operator-new hook: every Nth allocation captures a stack
// (glibc backtrace), aggregated into a fixed-size table keyed by stack
// hash. At exit the top sites are symbolized and printed with their share
// of sampled allocations — the worklist for driving allocs/op down.
//
// Usage: crx_alloc_profile [duration_ms] [sample_every]
#include <execinfo.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "src/net/tcp_cluster.h"

namespace {

constexpr int kMaxDepth = 14;
constexpr int kSkipFrames = 2;  // hook + operator new
constexpr size_t kTableSize = 4096;  // open-addressed, power of two

struct StackSlot {
  std::atomic<uint64_t> hash{0};
  std::atomic<uint64_t> count{0};
  void* frames[kMaxDepth] = {};
  int depth = 0;
};

StackSlot g_table[kTableSize];
std::atomic<uint64_t> g_total{0};
std::atomic<uint64_t> g_sampled{0};
std::atomic<uint64_t> g_dropped{0};
thread_local bool t_in_hook = false;
int g_sample_every = 16;
std::atomic<bool> g_armed{false};

void RecordStack() {
  void* frames[kMaxDepth + kSkipFrames];
  const int n = backtrace(frames, kMaxDepth + kSkipFrames);
  if (n <= kSkipFrames) {
    return;
  }
  const int depth = n - kSkipFrames;
  uint64_t hash = 1469598103934665603ULL;
  for (int i = 0; i < depth; ++i) {
    hash ^= reinterpret_cast<uint64_t>(frames[kSkipFrames + i]);
    hash *= 1099511628211ULL;
  }
  hash |= 1;  // 0 marks an empty slot
  size_t idx = hash & (kTableSize - 1);
  for (size_t probe = 0; probe < 64; ++probe, idx = (idx + 1) & (kTableSize - 1)) {
    uint64_t expected = 0;
    if (g_table[idx].hash.load(std::memory_order_acquire) == hash) {
      g_table[idx].count.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (g_table[idx].hash.compare_exchange_strong(expected, hash)) {
      std::memcpy(g_table[idx].frames, frames + kSkipFrames,
                  sizeof(void*) * static_cast<size_t>(depth));
      g_table[idx].depth = depth;
      g_table[idx].count.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  g_dropped.fetch_add(1, std::memory_order_relaxed);
}

void* HookedAlloc(size_t size) {
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  if (!g_armed.load(std::memory_order_relaxed) || t_in_hook) {
    return p;
  }
  const uint64_t n = g_total.fetch_add(1, std::memory_order_relaxed);
  if (g_sample_every > 1 && (n % static_cast<uint64_t>(g_sample_every)) != 0) {
    return p;
  }
  t_in_hook = true;  // backtrace() may itself allocate on first use
  g_sampled.fetch_add(1, std::memory_order_relaxed);
  RecordStack();
  t_in_hook = false;
  return p;
}

}  // namespace

void* operator new(size_t size) { return HookedAlloc(size); }
void* operator new[](size_t size) { return HookedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace chainreaction {
namespace {

int Main(int argc, char** argv) {
  const int duration_ms = argc > 1 ? std::atoi(argv[1]) : 2000;
  g_sample_every = argc > 2 ? std::atoi(argv[2]) : 16;

  // backtrace() lazy-initializes libgcc with a heap allocation; warm it up
  // before arming the hook.
  void* warm[4];
  backtrace(warm, 4);

  TcpCluster::Options opts;
  opts.num_nodes = 8;
  opts.loop_threads = 1;
  opts.num_clients = 16;
  opts.client_loop_threads = 4;
  opts.seed = 7;
  opts.config.replication = 3;
  opts.config.k_stability = 2;
  opts.config.num_dcs = 1;
  opts.config.client_timeout = 2 * kSecond;
  TcpCluster cluster(opts);

  TcpCluster::LoadOptions load;
  load.duration = duration_ms * kMillisecond;
  load.value_size = 128;
  load.key_space = 4096;
  load.get_fraction = 0.0;
  load.pipeline = 8;

  g_armed.store(true);
  const TcpCluster::LoadResult result = cluster.RunClosedLoop(load);
  g_armed.store(false);

  const uint64_t total = g_total.load();
  std::printf("ops=%llu total_allocs=%llu allocs/op=%.1f sampled=%llu (1/%d) dropped=%llu\n",
              static_cast<unsigned long long>(result.ops),
              static_cast<unsigned long long>(total),
              result.ops > 0 ? static_cast<double>(total) / static_cast<double>(result.ops) : 0,
              static_cast<unsigned long long>(g_sampled.load()), g_sample_every,
              static_cast<unsigned long long>(g_dropped.load()));

  std::vector<const StackSlot*> slots;
  for (const StackSlot& s : g_table) {
    if (s.count.load() > 0) {
      slots.push_back(&s);
    }
  }
  std::sort(slots.begin(), slots.end(), [](const StackSlot* a, const StackSlot* b) {
    return a->count.load() > b->count.load();
  });
  const double sampled = static_cast<double>(g_sampled.load());
  const size_t top = std::min<size_t>(slots.size(), 25);
  for (size_t i = 0; i < top; ++i) {
    const StackSlot& s = *slots[i];
    std::printf("---- #%zu  %.1f%% of sampled allocs (%llu samples)\n", i + 1,
                100.0 * static_cast<double>(s.count.load()) / sampled,
                static_cast<unsigned long long>(s.count.load()));
    char** syms = backtrace_symbols(const_cast<void* const*>(s.frames), s.depth);
    if (syms != nullptr) {
      for (int f = 0; f < s.depth; ++f) {
        std::printf("    %s\n", syms[f]);
      }
      std::free(syms);
    }
  }
  return 0;
}

}  // namespace
}  // namespace chainreaction

int main(int argc, char** argv) { return chainreaction::Main(argc, argv); }
