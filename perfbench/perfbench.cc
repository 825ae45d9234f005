// Open-loop, fixed-rate benchmark of a loopback-TCP ChainReaction deployment.
//
// One invocation boots the deployment from the repository's public classes
// (8 nodes, R=3, k=2, one DC, 2 server event loops, 1 client event loop),
// preloads the key space, and drives one workload with an open-loop
// generator: arrivals follow a seeded Poisson schedule at a fixed offered
// rate, each goes to one of kSessions sequential user sessions (one
// ChainReactionClient each) and waits there if that session is still busy.
// Latency runs from the arrival's due time, so generator lateness and session
// queueing are charged to the system.
//
// --trace 0 measures the end-to-end metrics with every instrument detached.
// --trace 1 runs an untraced twin and then a traced run of the same workload
// at the same rate (metrics registry, 1/16 sampled hop tracing, causal+
// checker on every op, loop probes) and reports the per-layer metrics.
// Every run checks convergence of all replicas, that no acknowledged put is
// lost, and the bytes of every read; a failure prints correct=false and
// exits 1. A run disturbed by the host prints no result and exits
// kExitInvalid, and perfbench/run.py repeats it with the next --attempt.
//
// Usage: crx_perfbench --workload put_chain|read_mostly_disk --seed N
//            --seconds S --trace 0|1 --data-dir DIR [--rate OPS_PER_S]
//            [--attempt N]
// The last stdout line is the JSON result; everything before it is a
// human-readable report. See perfbench/NOTES.md for the metric sources.
#include <pthread.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <latch>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/checker/causal_checker.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/core/chainreaction_client.h"
#include "src/core/chainreaction_node.h"
#include "src/core/config.h"
#include "src/msg/message.h"
#include "src/net/address_book.h"
#include "src/net/tcp_cluster.h"
#include "src/net/tcp_runtime.h"
#include "src/obs/assembly.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/ring/ring.h"
#include "src/ycsb/generators.h"

// Every global allocation in the process bumps one relaxed counter; the
// traced run divides its delta by completed ops (mem.allocs_per_op).
static std::atomic<uint64_t> g_allocs{0};

static void* CountedAlloc(size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
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

constexpr uint32_t kNodes = 8;
constexpr uint32_t kServerLoops = 2;
constexpr uint32_t kSessions = 256;
constexpr uint32_t kSetups = 5;           // set-ups per --trace 0 run (median)
constexpr uint32_t kTraceEvery = 16;      // traced run: 1 put in 16 carries hops
constexpr uint32_t kVerifyWindow = 64;    // outstanding lost-ack verification gets
constexpr uint32_t kCheckerChunk = 20000; // ops per CausalChecker instance
constexpr int64_t kWarmupNs = 1000000000;
constexpr int64_t kWindowNs = 250000000;
constexpr int64_t kProbeEveryNs = 5000000;
// Host interference. A window is excluded from the medians when the generator
// fell behind its schedule (it dispatched its p99 arrival more than
// kLateLimitNs after its due time; the generator is nearly idle, so its
// lateness measures how long runnable threads were kept off a CPU) or when
// the hypervisor stole more than kStealLimit of the host's CPU time. A run
// with fewer than a quarter of its windows left is invalid and is retried
// in a fresh process (exit code kExitInvalid tells perfbench/run.py to).
constexpr int64_t kLateLimitNs = 1000000;
constexpr double kStealLimit = 0.03;
constexpr int kExitInvalid = 4;

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t MonoNs() { return ClockNs(CLOCK_MONOTONIC); }

// Host CPU time stolen by the hypervisor and total host CPU time, in clock
// ticks summed over all CPUs (both 0 if unreadable).
void HostTicks(int64_t* steal, int64_t* total) {
  *steal = 0;
  *total = 0;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return;
  }
  long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0], &v[1],
                            &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n == 8) {
    *steal = v[7];
    for (long long x : v) {
      *total += x;
    }
  }
}

void SleepUntilNs(int64_t at) {
  timespec ts{};
  ts.tv_sec = at / 1000000000;
  ts.tv_nsec = at % 1000000000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile of raw samples (p in [0, 100]).
int64_t Percentile(std::vector<int64_t>* v, double p) {
  if (v->empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v->size())));
  rank = std::clamp<size_t>(rank, 1, v->size()) - 1;
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(rank), v->end());
  return (*v)[rank];
}

struct Workload {
  std::string name;
  double rate = 0;  // offered ops/s
  double get_fraction = 0;
  uint32_t value_size = 0;
  uint32_t keys = 0;
  bool zipfian = false;
  bool disk = false;  // disk engine + WAL (batch fsync) instead of mem, no WAL
  uint64_t cache_bytes = 0;
};

// Offered rates are about half the rate at which each workload's p50 first
// doubles on a 4-vCPU host (see NOTES.md for the sweep).
bool MakeWorkload(const std::string& name, Workload* w) {
  w->name = name;
  if (name == "put_chain") {
    // The write path end to end; 2% gets keep get_p50_us defined without
    // giving the read path real work.
    w->rate = 20000;
    w->get_fraction = 0.02;
    w->value_size = 128;
    w->keys = 4096;
    w->zipfian = false;
    w->disk = false;
    return true;
  }
  if (name == "read_mostly_disk") {
    // 8192 keys x 1 KiB x R/nodes = 3 MiB per node, 6x the residency cache.
    w->rate = 24000;
    w->get_fraction = 0.95;
    w->value_size = 1024;
    w->keys = 8192;
    w->zipfian = true;
    w->disk = true;
    w->cache_bytes = 512u << 10;
    return true;
  }
  return false;
}

std::string KeyName(uint32_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%07u", i);
  return buf;
}

// "<key>/<session>/<seq>;" then filler up to the value size: a read can be
// checked against the key it asked for, and the lost-ack check against the
// exact put that was acknowledged.
std::string ValueTag(uint32_t key, uint32_t session, uint64_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%u/%u/%" PRIu64 ";", key, session, seq);
  return buf;
}

// The deployment under test, built only from the repository's public
// classes: one server TcpRuntime hosting every node on kServerLoops loops
// (ring-segment affinity, as TcpCluster shards them) and one client
// TcpRuntime with a single loop hosting all sessions plus a verifier.
class Deployment {
 public:
  static std::unique_ptr<Deployment> Boot(const Workload& w, uint64_t seed, const std::string& dir,
                                          MetricsRegistry* metrics, TraceCollector* traces,
                                          std::string* error) {
    std::unique_ptr<Deployment> d(new Deployment());
    CrxConfig cfg;
    cfg.replication = 3;
    cfg.k_stability = 2;
    cfg.engine = w.disk ? StorageEngineKind::kDisk : StorageEngineKind::kMem;
    if (w.disk) {
      cfg.engine_cache_bytes = w.cache_bytes;
    }
    if (traces != nullptr) {
      cfg.trace_sample_every = kTraceEvery;
    }
    std::vector<NodeId> ids;
    for (NodeId n = 0; n < kNodes; ++n) {
      ids.push_back(n);
    }
    d->ring_ = Ring(ids, cfg.vnodes, cfg.replication, 1);
    d->server_ = std::make_unique<TcpRuntime>(&d->book_, kServerLoops);
    d->client_ = std::make_unique<TcpRuntime>(&d->book_, 1);
    const std::vector<uint32_t> shard =
        TcpCluster::AssignShardsByRingOrder(d->ring_, kNodes, kServerLoops);
    for (NodeId n = 0; n < kNodes; ++n) {
      auto node = std::make_unique<ChainReactionNode>(n, cfg, d->ring_);
      if (metrics != nullptr || traces != nullptr) {
        node->AttachObs(metrics, traces);
      }
      if (w.disk) {
        const std::string node_dir = dir + "/n" + std::to_string(n);
        std::filesystem::create_directories(node_dir);
        const Status st = node->EnableDurability(node_dir);
        if (!st.ok()) {
          *error = "EnableDurability(" + node_dir + "): " + st.ToString();
          return nullptr;
        }
      }
      node->AttachEnv(d->server_->Register(n, node.get(), shard[n]));
      d->nodes_.push_back(std::move(node));
    }
    for (uint32_t c = 0; c <= kSessions; ++c) {
      const Address addr = kClientAddressBase + c;
      auto client = std::make_unique<ChainReactionClient>(addr, cfg, d->ring_,
                                                          seed * 7919 + 1000 * (c + 1));
      if (metrics != nullptr || traces != nullptr) {
        client->AttachObs(metrics, traces);
      }
      client->AttachEnv(d->client_->Register(addr, client.get(), 0));
      d->clients_.push_back(std::move(client));
    }
    if (metrics != nullptr) {
      d->server_->AttachMetrics(metrics);
      d->client_->AttachMetrics(metrics);
    }
    d->server_->Start();
    d->client_->Start();
    return d;
  }

  ~Deployment() {
    client_->Stop();
    server_->Stop();
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  TcpRuntime* server() { return server_.get(); }
  TcpRuntime* client_runtime() { return client_.get(); }
  ChainReactionNode* node(NodeId n) { return nodes_[n].get(); }
  // Sessions are 0..kSessions-1; index kSessions is the verifier.
  ChainReactionClient* client(uint32_t i) { return clients_[i].get(); }
  const Ring& ring() const { return ring_; }

 private:
  Deployment() = default;

  AddressBook book_;
  Ring ring_;
  std::vector<std::unique_ptr<ChainReactionNode>> nodes_;
  std::vector<std::unique_ptr<ChainReactionClient>> clients_;
  std::unique_ptr<TcpRuntime> server_;
  std::unique_ptr<TcpRuntime> client_;
};

struct Op {
  int64_t due_ns = -1;  // offset from the generator's start; -1 = preload
  uint32_t key = 0;
  uint32_t session = 0;
  bool is_put = false;
};

struct OpResult {
  int64_t latency_ns = -1;  // due time -> completion callback
  int64_t wait_ns = 0;      // queued behind its own busy session
  uint8_t state = 0;        // 0 pending, 1 ok, 2 failed
};

// One completed op as the causal+ checker sees it (traced run only).
struct CheckEntry {
  uint32_t session = 0;
  uint32_t key = 0;
  bool is_put = false;
  bool found = false;
  Version version;
  std::vector<Dependency> deps;
};

struct AckedPut {
  bool has = false;
  Version version;
  uint32_t session = 0;
  uint64_t seq = 0;
};

struct CpuSnap {
  int64_t wall = 0;
  int64_t proc = 0;
  int64_t client_loop = 0;
  int64_t generator = 0;
  int64_t host_steal = 0;
  int64_t host_total = 0;
  std::vector<int64_t> server_loops;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Results of one measured phase (one deployment, one schedule).
struct PhaseResult {
  bool valid = true;  // the generator kept its schedule in most windows
  uint64_t invalid_windows = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong_values = 0;
  double put_p50_us = 0;
  double get_p50_us = 0;
  double server_cpu_us_per_op = 0;
  double client_cpu_us_per_op = 0;
  double setup_s = 0;
  double rss_mib = 0;  // peak resident set of the process after the run
  // Whole-window tails and counts (reported, not gated).
  uint64_t puts = 0;
  uint64_t gets = 0;
  int64_t put_p90_ns = 0;
  int64_t put_p99_ns = 0;
  int64_t get_p90_ns = 0;
  int64_t get_p99_ns = 0;
  int64_t late_p99_ns = 0;
  int64_t late_max_ns = 0;
  int64_t session_wait_p50_ns = 0;
  double session_busy_frac = 0;
  // Correctness.
  uint64_t unconverged = 0;
  uint64_t lost_acks = 0;
  uint64_t causal_violations = 0;
  uint64_t causal_checked = 0;
  std::string first_problem;
  // Per-layer (traced phases only).
  std::vector<Metric> layers;
};

class Phase {
 public:
  Phase(const Workload& w, uint64_t seed, int64_t measure_ns, bool traced, std::string dir)
      : w_(w), seed_(seed), measure_ns_(measure_ns), traced_(traced), dir_(std::move(dir)) {
    BuildOps();
    results_.resize(ops_.size());
    late_ns_.assign(ops_.size(), 0);
    sessions_.resize(kSessions);
    for (uint32_t s = 0; s < kSessions; ++s) {
      sessions_[s].index = s;
    }
    acked_.resize(w_.keys);
    for (uint32_t k = 0; k < w_.keys; ++k) {
      keys_.push_back(KeyName(k));
    }
  }

  ~Phase() {
    deployment_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  // Boot + preload; false on failure.
  bool SetUp(std::string* error) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    const int64_t start = MonoNs();
    deployment_ = Deployment::Boot(w_, seed_, dir_, traced_ ? &metrics_ : nullptr,
                                   traced_ ? &traces_ : nullptr, error);
    if (deployment_ == nullptr) {
      return false;
    }
    TcpRuntime* crt = deployment_->client_runtime();
    crt->PostToLoop(0, [this] {
      for (uint32_t i = 0; i < preload_ops_; ++i) {
        Dispatch(i, MonoNs());
      }
    });
    if (!WaitCompleted(preload_ops_, 60LL * 1000000000)) {
      *error = "preload did not complete";
      return false;
    }
    result_.setup_s = static_cast<double>(MonoNs() - start) / 1e9;
    return true;
  }

  double setup_s() const { return result_.setup_s; }

  // Runs the open-loop schedule on the calling thread, then waits for every
  // op, then checks the outputs.
  PhaseResult Run() {
    ResolveThreadClocks();
    Generate();
    if (!WaitCompleted(ops_.size(), 30LL * 1000000000)) {
      Note("not every op completed within 30 s of the schedule's end");
    }
    Barrier();  // client-loop state is now visible to this thread
    Summarize();
    if (traced_) {
      CollectLayers();
    }
    CheckConvergence();
    CheckAckedReadable();
    if (traced_) {
      RunCausalChecker();
    }
    return result_;
  }

 private:
  struct Session {
    uint32_t index = 0;
    bool busy = false;
    uint32_t cur = 0;
    uint64_t seq = 0;
    std::deque<uint32_t> queue;
  };

  void BuildOps() {
    // Preload: every key once, spread over the sessions (closed loop).
    for (uint32_t k = 0; k < w_.keys; ++k) {
      ops_.push_back(Op{-1, k, k % kSessions, true});
    }
    preload_ops_ = static_cast<uint32_t>(ops_.size());
    // Open-loop schedule: Poisson arrivals for warmup + measurement.
    Rng rng(seed_ * 0x9E3779B97F4A7C15ULL + 17);
    std::unique_ptr<KeyChooser> chooser;
    if (w_.zipfian) {
      chooser = std::make_unique<ScrambledZipfianChooser>(w_.keys, 0.99);
    } else {
      chooser = std::make_unique<UniformChooser>(w_.keys);
    }
    const double mean_gap_ns = 1e9 / w_.rate;
    double t = 0;
    while (true) {
      t += rng.NextExponential(mean_gap_ns);
      const int64_t due = static_cast<int64_t>(t);
      if (due >= kWarmupNs + measure_ns_) {
        break;
      }
      Op op;
      op.due_ns = due;
      op.session = static_cast<uint32_t>(rng.NextBelow(kSessions));
      op.is_put = !rng.NextBool(w_.get_fraction);
      op.key = static_cast<uint32_t>(chooser->Next(&rng));
      ops_.push_back(op);
    }
  }

  bool Measured(const Op& op) const { return op.due_ns >= kWarmupNs; }

  void Note(const std::string& problem) {
    if (result_.first_problem.empty()) {
      result_.first_problem = problem;
    }
  }

  // ---- client-loop side ------------------------------------------------

  void Dispatch(uint32_t idx, int64_t now) {
    Session& s = sessions_[ops_[idx].session];
    if (s.busy) {
      results_[idx].wait_ns = -now;  // completed when the op is issued
      s.queue.push_back(idx);
      return;
    }
    Issue(s, idx, now);
  }

  void Issue(Session& s, uint32_t idx, int64_t now) {
    const Op& op = ops_[idx];
    OpResult& r = results_[idx];
    if (r.wait_ns < 0) {
      r.wait_ns += now;
    }
    s.busy = true;
    s.cur = idx;
    ChainReactionClient* client = deployment_->client(s.index);
    Session* sp = &s;
    if (op.is_put) {
      const uint64_t seq = ++s.seq;
      std::string value = ValueTag(op.key, s.index, seq);
      value.resize(w_.value_size, static_cast<char>('a' + seq % 26));
      const int64_t t0 = traced_ ? MonoNs() : 0;
      client->Put(keys_[op.key], std::move(value),
                  [this, sp](const ChainReactionClient::PutResult& pr) { OnPut(sp, pr); });
      if (traced_) {
        call_ns_put_ += MonoNs() - t0;
        ++calls_put_;
      }
    } else {
      const int64_t t0 = traced_ ? MonoNs() : 0;
      client->Get(keys_[op.key],
                  [this, sp](const ChainReactionClient::GetResult& gr) { OnGet(sp, gr); });
      if (traced_) {
        call_ns_get_ += MonoNs() - t0;
        ++calls_get_;
      }
    }
  }

  void OnPut(Session* s, const ChainReactionClient::PutResult& pr) {
    const uint32_t idx = s->cur;
    const Op& op = ops_[idx];
    const bool ok = pr.status.ok();
    if (ok) {
      AckedPut& a = acked_[op.key];
      if (!a.has || a.version.LwwLess(pr.version)) {
        a.has = true;
        a.version = pr.version;
        a.session = s->index;
        a.seq = s->seq;
      }
      if (traced_) {
        deps_total_ += pr.deps.size();
        for (const Dependency& d : pr.deps) {
          dep_bytes_total_ += d.EncodedSizeV2();
        }
        ++puts_done_;
        sample_version_ = pr.version;
        checks_.push_back(CheckEntry{s->index, op.key, true, true, pr.version, pr.deps});
      }
    }
    Complete(s, idx, ok);
  }

  void OnGet(Session* s, const ChainReactionClient::GetResult& gr) {
    const uint32_t idx = s->cur;
    const Op& op = ops_[idx];
    bool ok = gr.status.ok();
    if (ok) {
      // Every key was preloaded, so a read must find it, with a value of
      // the workload's size that was written for this key.
      const std::string prefix = std::to_string(op.key) + "/";
      if (!gr.found || gr.value.size() != w_.value_size ||
          gr.value.compare(0, prefix.size(), prefix) != 0) {
        ++wrong_values_;
        ok = false;
      }
      if (traced_) {
        checks_.push_back(CheckEntry{s->index, op.key, false, gr.found, gr.version, {}});
      }
    }
    Complete(s, idx, ok);
  }

  void Complete(Session* s, uint32_t idx, bool ok) {
    const int64_t now = MonoNs();
    OpResult& r = results_[idx];
    const Op& op = ops_[idx];
    r.state = ok ? 1 : 2;
    r.latency_ns = op.due_ns >= 0 ? now - (t0_ + op.due_ns) : 0;
    s->busy = false;
    if (!s->queue.empty()) {
      const uint32_t next = s->queue.front();
      s->queue.pop_front();
      Issue(*s, next, now);
    }
    completed_.fetch_add(1);
  }

  void DrainArrivals() {
    armed_.store(false);
    {
      std::lock_guard<std::mutex> lock(arrivals_mu_);
      std::swap(arrivals_, draining_);
    }
    const int64_t now = MonoNs();
    for (uint32_t idx : draining_) {
      Dispatch(idx, now);
    }
    draining_.clear();
  }

  // ---- generator side ----------------------------------------------------

  CpuSnap TakeCpuSnap() const {
    CpuSnap s;
    s.wall = MonoNs();
    s.proc = ClockNs(CLOCK_PROCESS_CPUTIME_ID);
    s.client_loop = ClockNs(client_clock_);
    s.generator = ClockNs(CLOCK_THREAD_CPUTIME_ID);
    HostTicks(&s.host_steal, &s.host_total);
    for (clockid_t c : server_clocks_) {
      s.server_loops.push_back(ClockNs(c));
    }
    return s;
  }

  void ResolveThreadClocks() {
    std::latch latch(1 + kServerLoops);
    deployment_->client_runtime()->PostToLoop(0, [this, &latch] {
      pthread_getcpuclockid(pthread_self(), &client_clock_);
      latch.count_down();
    });
    server_clocks_.assign(kServerLoops, CLOCK_THREAD_CPUTIME_ID);
    probe_wait_ns_.resize(kServerLoops);
    for (uint32_t l = 0; l < kServerLoops; ++l) {
      deployment_->server()->PostToLoop(l, [this, l, &latch] {
        pthread_getcpuclockid(pthread_self(), &server_clocks_[l]);
        latch.count_down();
      });
    }
    latch.wait();
  }

  void Generate() {
    // The generator sleeps to each due time rather than spinning: the four
    // busy threads (2 server loops, the client loop, this one) already use
    // every core of the reference host.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    TcpRuntime* crt = deployment_->client_runtime();
    const int64_t windows = measure_ns_ / kWindowNs;
    t0_ = MonoNs() + 2000000;
    size_t next = preload_ops_;
    int64_t next_boundary = 0;  // window boundary index to snapshot next
    int64_t next_probe = t0_;
    while (next < ops_.size() || next_boundary <= windows) {
      const int64_t now = MonoNs();
      size_t batch = 0;
      {
        std::lock_guard<std::mutex> lock(arrivals_mu_);
        while (next < ops_.size() && t0_ + ops_[next].due_ns <= now) {
          late_ns_[next] = now - (t0_ + ops_[next].due_ns);
          arrivals_.push_back(static_cast<uint32_t>(next));
          ++next;
          ++batch;
        }
      }
      if (batch > 0 && !armed_.exchange(true)) {
        crt->PostToLoop(0, [this] { DrainArrivals(); });
      }
      while (next_boundary <= windows && t0_ + kWarmupNs + next_boundary * kWindowNs <= now) {
        snaps_.push_back(TakeCpuSnap());
        if (traced_ && (next_boundary == 0 || next_boundary == windows)) {
          (next_boundary == 0 ? reg_begin_ : reg_end_) = metrics_.Snapshot();
          (next_boundary == 0 ? allocs_begin_ : allocs_end_) = g_allocs.load();
        }
        ++next_boundary;
      }
      if (traced_ && now >= next_probe) {
        for (uint32_t l = 0; l < kServerLoops; ++l) {
          const int64_t posted = MonoNs();
          deployment_->server()->PostToLoop(
              l, [this, l, posted] { probe_wait_ns_[l].push_back(MonoNs() - posted); });
        }
        next_probe += kProbeEveryNs;
      }
      int64_t wake = INT64_MAX;
      if (next < ops_.size()) {
        wake = t0_ + ops_[next].due_ns;
      }
      if (next_boundary <= windows) {
        wake = std::min(wake, t0_ + kWarmupNs + next_boundary * kWindowNs);
      }
      if (traced_) {
        wake = std::min(wake, next_probe);
      }
      if (wake != INT64_MAX && wake > MonoNs()) {
        SleepUntilNs(wake);
      }
    }
  }

  bool WaitCompleted(uint64_t n, int64_t timeout_ns) {
    const int64_t deadline = MonoNs() + timeout_ns;
    while (completed_.load() < n) {
      if (MonoNs() > deadline) {
        return false;
      }
      SleepUntilNs(MonoNs() + 2000000);
    }
    return true;
  }

  // Runs an empty closure on the client loop and on every server loop, so
  // everything those threads wrote before it is visible here.
  void Barrier() {
    std::latch latch(1 + kServerLoops);
    deployment_->client_runtime()->PostToLoop(0, [&latch] { latch.count_down(); });
    for (uint32_t l = 0; l < kServerLoops; ++l) {
      deployment_->server()->PostToLoop(l, [&latch] { latch.count_down(); });
    }
    latch.wait();
  }

  // ---- results -----------------------------------------------------------

  void Summarize() {
    PhaseResult& out = result_;
    const size_t windows = static_cast<size_t>(measure_ns_ / kWindowNs);
    std::vector<std::vector<int64_t>> put_w(windows);
    std::vector<std::vector<int64_t>> get_w(windows);
    std::vector<std::vector<int64_t>> late_w(windows);
    std::vector<uint64_t> ops_w(windows, 0);
    std::vector<int64_t> put_all;
    std::vector<int64_t> get_all;
    std::vector<int64_t> late;
    std::vector<int64_t> waits;
    uint64_t waited = 0;
    for (size_t i = preload_ops_; i < ops_.size(); ++i) {
      const Op& op = ops_[i];
      if (!Measured(op)) {
        continue;
      }
      const OpResult& r = results_[i];
      const size_t w = static_cast<size_t>((op.due_ns - kWarmupNs) / kWindowNs);
      ++out.attempted;
      // A failed or unfinished op misses every latency limit.
      const int64_t lat = r.state == 1 ? r.latency_ns : INT64_MAX;
      if (r.state != 1) {
        ++out.failed;
      }
      (op.is_put ? put_w : get_w)[w].push_back(lat);
      (op.is_put ? put_all : get_all).push_back(lat);
      ++ops_w[w];
      late_w[w].push_back(late_ns_[i]);
      late.push_back(late_ns_[i]);
      waits.push_back(r.wait_ns);
      waited += r.wait_ns > 0 ? 1 : 0;
    }
    out.wrong_values = wrong_values_;
    // Medians over the windows without host interference; the others are
    // reported and left out.
    std::vector<double> put_p50;
    std::vector<double> get_p50;
    std::vector<double> server_cpu;
    std::vector<double> client_cpu;
    for (size_t w = 0; w < windows && w + 1 < snaps_.size(); ++w) {
      const int64_t late_p99 = Percentile(&late_w[w], 99);
      const double put = static_cast<double>(Percentile(&put_w[w], 50)) / 1e3;
      const double get = static_cast<double>(Percentile(&get_w[w], 50)) / 1e3;
      const CpuSnap& a = snaps_[w];
      const CpuSnap& b = snaps_[w + 1];
      const double n = static_cast<double>(std::max<uint64_t>(ops_w[w], 1));
      const double client = static_cast<double>(b.client_loop - a.client_loop);
      const double server = static_cast<double>(b.proc - a.proc) - client -
                            static_cast<double>(b.generator - a.generator);
      const double steal = static_cast<double>(b.host_steal - a.host_steal) /
                           static_cast<double>(std::max<int64_t>(1, b.host_total - a.host_total));
      const bool valid = late_p99 <= kLateLimitNs && steal <= kStealLimit && ops_w[w] > 0;
      std::printf("  window %2zu: ops=%5" PRIu64 " put_p50=%8.1fus get_p50=%8.1fus "
                  "server=%6.2fus/op client=%6.2fus/op late_p99=%8.1fus steal=%4.1f%%%s\n",
                  w, ops_w[w], put, get, server / n / 1e3, client / n / 1e3, late_p99 / 1e3,
                  100 * steal, valid ? "" : "  (host interference: excluded)");
      if (!valid) {
        ++out.invalid_windows;
        continue;
      }
      if (!put_w[w].empty()) {
        put_p50.push_back(put);
      }
      if (!get_w[w].empty()) {
        get_p50.push_back(get);
      }
      server_cpu.push_back(server / n / 1e3);
      client_cpu.push_back(client / n / 1e3);
    }
    out.put_p50_us = Median(put_p50);
    out.get_p50_us = Median(get_p50);
    out.server_cpu_us_per_op = Median(server_cpu);
    out.client_cpu_us_per_op = Median(client_cpu);
    out.valid = (windows - out.invalid_windows) * 4 >= windows;
    out.puts = put_all.size();
    out.gets = get_all.size();
    out.put_p90_ns = Percentile(&put_all, 90);
    out.put_p99_ns = Percentile(&put_all, 99);
    out.get_p90_ns = Percentile(&get_all, 90);
    out.get_p99_ns = Percentile(&get_all, 99);
    out.late_p99_ns = Percentile(&late, 99);
    out.late_max_ns = late.empty() ? 0 : *std::max_element(late.begin(), late.end());
    out.session_wait_p50_ns = Percentile(&waits, 50);
    out.session_busy_frac =
        out.attempted > 0 ? static_cast<double>(waited) / static_cast<double>(out.attempted) : 0;
  }

  void Layer(const std::string& name, double value, const std::string& unit) {
    result_.layers.push_back(Metric{name, value, unit});
  }

  static double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

  // Counter delta over the measured window, summed over label sets whose
  // rendering contains `needle`.
  double Delta(const std::string& name, const std::string& needle = "") const {
    return static_cast<double>(reg_end_.SumCounters(name, needle) -
                               reg_begin_.SumCounters(name, needle));
  }

  // Histogram of `name` merged over all label sets, as of the snapshot.
  static Histogram Merged(const MetricsSnapshot& snap, const std::string& name) {
    Histogram h;
    for (const MetricPoint& p : snap.points) {
      if (p.name == name && p.kind == MetricKind::kHistogram) {
        h.Merge(p.hist);
      }
    }
    return h;
  }

  // Gauges of `name` over all label sets, as of the snapshot.
  static std::vector<int64_t> Gauges(const MetricsSnapshot& snap, const std::string& name) {
    std::vector<int64_t> out;
    for (const MetricPoint& p : snap.points) {
      if (p.name == name && p.kind == MetricKind::kGauge) {
        out.push_back(p.value);
      }
    }
    return out;
  }

  void CollectLayers() {
    const double ops = static_cast<double>(result_.attempted);
    const CpuSnap& a = snaps_.front();
    const CpuSnap& b = snaps_.back();
    const double wall = static_cast<double>(b.wall - a.wall);
    double busy_max = 0;
    double busy_sum = 0;
    for (uint32_t l = 0; l < kServerLoops; ++l) {
      const double busy = Ratio(static_cast<double>(b.server_loops[l] - a.server_loops[l]), wall);
      busy_max = std::max(busy_max, busy);
      busy_sum += busy;
    }
    std::vector<int64_t> probe;
    for (const auto& v : probe_wait_ns_) {
      probe.insert(probe.end(), v.begin(), v.end());
    }
    const std::string srv = "port=" + std::to_string(deployment_->server()->port());
    const double writev = Delta("crx_net_writev_calls", srv);
    const double frames = Delta("crx_net_frames_sent", srv);

    // Refresh the store/engine gauges on each node's own loop first.
    std::latch refreshed(kNodes);
    for (NodeId n = 0; n < kNodes; ++n) {
      deployment_->server()->PostTo(n, [this, n, &refreshed] {
        deployment_->node(n)->RefreshStoreGauges();
        refreshed.count_down();
      });
    }
    refreshed.wait();
    const MetricsSnapshot now = metrics_.Snapshot();

    Layer("net.server_loop_busy_max", busy_max, "fraction");
    Layer("net.server_loop_busy_mean", busy_sum / kServerLoops, "fraction");
    Layer("net.loop_post_wait_us_p50", static_cast<double>(Percentile(&probe, 50)) / 1e3, "us");
    Layer("net.frames_per_writev", Ratio(Delta("crx_net_writev_frames", srv), writev), "count");
    Layer("net.writev_per_op", Ratio(writev, ops), "count/op");
    Layer("net.frames_per_op", Ratio(frames, ops), "count/op");
    Layer("net.client_loop_busy",
          Ratio(static_cast<double>(b.client_loop - a.client_loop), wall), "fraction");
    Layer("msg.wire_bytes_per_op", Ratio(Delta("crx_net_bytes_sent"), ops), "B/op");
    CollectCodec();
    CollectCriticalPath();

    const double head_puts = Delta("crx_node_puts_applied", "role=head");
    const Histogram dep_wait =
        Merged(reg_end_, "crx_node_dep_wait_us").Diff(Merged(reg_begin_, "crx_node_dep_wait_us"));
    Layer("core.gated_put_frac", Ratio(static_cast<double>(dep_wait.count()), head_puts),
          "fraction");
    Layer("core.dep_wait_us_p50", static_cast<double>(dep_wait.P50()), "us");
    Layer("core.dep_checks_per_put", Ratio(Delta("crx_node_dep_checks_sent"), head_puts),
          "count/op");
    const double reads = Delta("crx_node_reads_served");
    for (int pos = 1; pos <= 3; ++pos) {
      Layer("core.read_pos" + std::to_string(pos) + "_frac",
            Ratio(Delta("crx_node_reads_served", "position=" + std::to_string(pos)), reads),
            "fraction");
    }
    Layer("core.gets_forwarded_frac",
          Ratio(Delta("crx_node_gets_forwarded"), static_cast<double>(result_.gets)), "fraction");

    Layer("client.deps_per_put",
          Ratio(static_cast<double>(deps_total_), static_cast<double>(puts_done_)), "count");
    Layer("client.dep_bytes_per_put",
          Ratio(static_cast<double>(dep_bytes_total_), static_cast<double>(puts_done_)), "B");
    Layer("client.call_ns.put",
          Ratio(static_cast<double>(call_ns_put_), static_cast<double>(calls_put_)), "ns");
    Layer("client.call_ns.get",
          Ratio(static_cast<double>(call_ns_get_), static_cast<double>(calls_get_)), "ns");
    Layer("client.retries", Delta("crx_client_retries"), "count");

    const std::vector<int64_t> hit = Gauges(now, "crx_engine_cache_hit_ratio");
    double hit_sum = 0;
    for (int64_t h : hit) {
      hit_sum += static_cast<double>(h);
    }
    Layer("engine.cache_hit_ratio", w_.disk && !hit.empty() ? hit_sum / hit.size() / 100.0 : 0,
          "fraction");
    Layer("engine.compactions", Delta("crx_engine_compactions_total"), "count");
    double log_bytes = 0;
    for (int64_t v : Gauges(now, "crx_engine_log_bytes")) {
      log_bytes += static_cast<double>(v);
    }
    uint64_t user_puts = preload_ops_;
    for (size_t i = preload_ops_; i < ops_.size(); ++i) {
      user_puts += ops_[i].is_put && results_[i].state == 1 ? 1 : 0;
    }
    Layer("engine.log_bytes_per_user_byte",
          Ratio(log_bytes, static_cast<double>(user_puts) * w_.value_size), "B/B");
    double resident = 0;
    for (int64_t v : Gauges(now, "crx_store_resident_bytes")) {
      resident += static_cast<double>(v);
    }
    Layer("storage.resident_mib", resident / (1 << 20), "MiB");

    const double fsyncs = Delta("crx_wal_fsyncs");
    const Histogram fsync_us =
        Merged(reg_end_, "crx_wal_fsync_us").Diff(Merged(reg_begin_, "crx_wal_fsync_us"));
    Layer("wal.records_per_fsync", Ratio(Delta("crx_wal_appends"), fsyncs), "count");
    Layer("wal.fsync_us_p50", static_cast<double>(fsync_us.P50()), "us");
    Layer("wal.bytes_per_put", Ratio(Delta("crx_wal_bytes"), static_cast<double>(result_.puts)),
          "B/op");
    Layer("mem.allocs_per_op", Ratio(static_cast<double>(allocs_end_ - allocs_begin_), ops),
          "count/op");
    Layer("gen.late_us_p99", static_cast<double>(result_.late_p99_ns) / 1e3, "us");
    Layer("gen.session_wait_us_p50", static_cast<double>(result_.session_wait_p50_ns) / 1e3, "us");
    Layer("gen.session_busy_frac", result_.session_busy_frac, "fraction");
  }

  // Wall time per call of the public codec entry points on messages shaped
  // like this workload's traffic (key/value size, mean deps per put).
  void CollectCodec() {
    const size_t ndeps =
        static_cast<size_t>(std::lround(Ratio(static_cast<double>(deps_total_),
                                              static_cast<double>(puts_done_))));
    std::vector<Dependency> deps;
    for (size_t i = 0; i < ndeps; ++i) {
      deps.push_back(Dependency{keys_[(i * 7 + 1) % keys_.size()], sample_version_, false});
    }
    const std::string value(w_.value_size, 'v');
    CrxPut put;
    put.req = 123456;
    put.client = kClientAddressBase + 17;
    put.key = keys_[0];
    put.value = value;
    put.deps = deps;
    CrxChainPut chain;
    chain.key = keys_[0];
    chain.value = value;
    chain.version = sample_version_;
    chain.client = put.client;
    chain.req = put.req;
    chain.ack_at = 2;
    chain.epoch = 1;
    chain.chain_seq = 99999;
    chain.deps = deps;
    const CrxChainPutView chain_view = CrxChainPutView::From(chain);
    CrxGetReplyView reply;
    reply.req = 123456;
    reply.key = keys_[0];
    reply.found = true;
    reply.value = value;
    reply.version = sample_version_;
    reply.position = 2;
    reply.stable = true;

    const std::string put_frame = EncodeMessage(put, WireFormat::kV2);
    const std::string chain_frame = EncodeMessage(chain_view, WireFormat::kV2);
    const std::string reply_frame = EncodeMessage(reply, WireFormat::kV2);
    Layer("msg.encode_ns.put", TimeNs([&] { return EncodeMessage(put, WireFormat::kV2).size(); }),
          "ns");
    Layer("msg.decode_ns.put", TimeNs([&] {
            CrxPutView v;
            return DecodeMessage(put_frame, &v) ? v.value.size() : 0;
          }),
          "ns");
    Layer("msg.encode_ns.chain_put",
          TimeNs([&] { return EncodeMessage(chain_view, WireFormat::kV2).size(); }), "ns");
    Layer("msg.decode_ns.chain_put", TimeNs([&] {
            CrxChainPutView v;
            return DecodeMessage(chain_frame, &v) ? v.value.size() : 0;
          }),
          "ns");
    Layer("msg.encode_ns.get_reply",
          TimeNs([&] { return EncodeMessage(reply, WireFormat::kV2).size(); }), "ns");
    Layer("msg.decode_ns.get_reply", TimeNs([&] {
            CrxGetReplyView v;
            return DecodeMessage(reply_frame, &v) ? v.value.size() : 0;
          }),
          "ns");
  }

  // Median over 5 batches of the wall time per call of `fn`.
  template <typename Fn>
  static double TimeNs(Fn fn) {
    constexpr int kIters = 20000;
    std::vector<double> per_call;
    size_t sink = 0;
    for (int b = 0; b < 5; ++b) {
      const int64_t start = MonoNs();
      for (int i = 0; i < kIters; ++i) {
        sink += fn();
      }
      per_call.push_back(static_cast<double>(MonoNs() - start) / kIters);
    }
    if (sink == 0) {
      std::printf("codec: empty frames\n");
    }
    return Median(per_call);
  }

  // Medians over the complete sampled critical paths (the end-to-end metric
  // is a median too); coverage is the mean over every assembled path.
  void CollectCriticalPath() {
    TraceAssembler assembler;
    assembler.MergeFrom(traces_);
    const std::vector<CriticalPath> cps = assembler.Assemble();
    std::vector<double> net;
    std::vector<double> encode;
    std::vector<double> depwait;
    std::vector<double> kack;
    std::vector<double> stab;
    double coverage = 0;
    for (const CriticalPath& cp : cps) {
      coverage += cp.coverage;
      if (!cp.complete) {
        continue;
      }
      net.push_back(static_cast<double>(cp.net_us));
      encode.push_back(static_cast<double>(cp.encode_us));
      depwait.push_back(static_cast<double>(cp.depwait_us));
      kack.push_back(static_cast<double>(cp.kack_us));
      if (cp.stability_us >= 0) {
        stab.push_back(static_cast<double>(cp.stability_us));
      }
    }
    Layer("msg.cp_encode_us", Median(encode), "us");
    Layer("core.cp_net_us", Median(net), "us");
    Layer("core.cp_depwait_us", Median(depwait), "us");
    Layer("core.cp_kack_us", Median(kack), "us");
    Layer("core.cp_coverage", Ratio(coverage, static_cast<double>(cps.size())), "fraction");
    Layer("core.cp_stability_us", Median(stab), "us");
    Layer("core.cp_paths", static_cast<double>(net.size()), "count");
  }

  // ---- correctness -------------------------------------------------------

  // Every replica of every key holds the same newest version, and that
  // version is at least as new as the newest acknowledged put. Each node's
  // store is read on its own loop.
  void CheckConvergence() {
    const int64_t deadline = MonoNs() + 5LL * 1000000000;
    uint64_t bad = 0;
    std::string first;
    while (true) {
      std::vector<std::unordered_map<Key, Version>> latest(kNodes);
      std::latch latch(kNodes);
      for (NodeId n = 0; n < kNodes; ++n) {
        deployment_->server()->PostTo(n, [this, n, &latest, &latch] {
          deployment_->node(n)->store().ForEachKey(
              [&](const Key& key, const StoredVersion& sv) { latest[n][key] = sv.version; });
          latch.count_down();
        });
      }
      latch.wait();
      bad = 0;
      first.clear();
      for (uint32_t k = 0; k < w_.keys; ++k) {
        const std::vector<NodeId>& chain = deployment_->ring().ChainFor(keys_[k]);
        const Version* v0 = nullptr;
        bool ok = true;
        for (NodeId n : chain) {
          auto it = latest[n].find(keys_[k]);
          if (it == latest[n].end()) {
            ok = false;
            break;
          }
          if (v0 == nullptr) {
            v0 = &it->second;
          } else if (!(*v0 == it->second)) {
            ok = false;
            break;
          }
        }
        if (ok && acked_[k].has && v0->LwwLess(acked_[k].version)) {
          ok = false;
        }
        if (!ok) {
          ++bad;
          if (first.empty()) {
            first = "key " + keys_[k] + " not converged on its chain";
          }
        }
      }
      if (bad == 0 || MonoNs() > deadline) {
        break;
      }
      SleepUntilNs(MonoNs() + 50000000);
    }
    result_.unconverged = bad;
    if (bad > 0) {
      Note(first);
    }
  }

  // A fresh session reads every acknowledged key (from any replica of its
  // chain): the version must be at least the acknowledged one, and when it
  // is that version, the bytes must be that put's.
  void CheckAckedReadable() {
    verify_keys_.clear();
    for (uint32_t k = 0; k < w_.keys; ++k) {
      if (acked_[k].has) {
        verify_keys_.push_back(k);
      }
    }
    verify_next_ = 0;
    verify_lost_ = 0;
    std::latch done(1);
    verify_done_ = &done;
    verify_outstanding_ = 0;
    deployment_->client_runtime()->PostToLoop(0, [this] {
      if (verify_keys_.empty()) {
        verify_done_->count_down();
        return;
      }
      for (uint32_t i = 0; i < kVerifyWindow; ++i) {
        VerifyNext();
      }
    });
    done.wait();
    result_.lost_acks = verify_lost_;
    if (verify_lost_ > 0) {
      Note(verify_problem_);
    }
  }

  void VerifyNext() {
    if (verify_next_ >= verify_keys_.size()) {
      return;
    }
    const uint32_t k = verify_keys_[verify_next_++];
    ++verify_outstanding_;
    deployment_->client(kSessions)->Get(
        keys_[k], [this, k](const ChainReactionClient::GetResult& gr) {
          const AckedPut& a = acked_[k];
          bool lost = !gr.status.ok() || !gr.found || gr.version.LwwLess(a.version);
          if (!lost && gr.version == a.version) {
            const std::string tag = ValueTag(k, a.session, a.seq);
            lost = gr.value.compare(0, tag.size(), tag) != 0;
          }
          if (lost) {
            if (verify_lost_++ == 0) {
              verify_problem_ = "acknowledged put of " + keys_[k] + " (" +
                                a.version.ToString() + ") not readable";
            }
          }
          --verify_outstanding_;
          VerifyNext();
          if (verify_outstanding_ == 0 && verify_next_ >= verify_keys_.size()) {
            verify_done_->count_down();
          }
        });
  }

  // Feeds every completed op, in completion order, to the causal+ checker.
  // CausalChecker keeps a full dependency closure per write, which grows
  // with each session's history, so the log is checked in chunks of
  // kCheckerChunk ops with a fresh checker each: sound (a chunk never
  // reports a false violation), but causal pasts do not carry across chunks.
  void RunCausalChecker() {
    const int64_t start = MonoNs();
    uint64_t violations = 0;
    for (size_t begin = 0; begin < checks_.size(); begin += kCheckerChunk) {
      CausalChecker checker;
      const size_t end = std::min(checks_.size(), begin + kCheckerChunk);
      for (size_t i = begin; i < end; ++i) {
        const CheckEntry& e = checks_[i];
        if (e.is_put) {
          checker.RecordWrite(e.session, keys_[e.key], e.version, e.deps);
        } else {
          checker.RecordRead(e.session, keys_[e.key], e.found, e.version);
        }
      }
      if (checker.violations() > 0 && !checker.diagnostics().empty()) {
        Note("causal+ violation: " + checker.diagnostics().front());
      }
      violations += checker.violations();
    }
    result_.causal_violations = violations;
    result_.causal_checked = checks_.size();
    std::printf("  causal+ checker: %zu ops in %.1f s\n", checks_.size(),
                static_cast<double>(MonoNs() - start) / 1e9);
  }

  const Workload w_;
  const uint64_t seed_;
  const int64_t measure_ns_;
  const bool traced_;
  const std::string dir_;

  std::vector<Op> ops_;  // preload ops, then the schedule; immutable once built
  uint32_t preload_ops_ = 0;
  std::vector<std::string> keys_;
  PhaseResult result_;

  // Written on the client loop, read here after Barrier().
  std::vector<OpResult> results_;
  std::vector<Session> sessions_;
  std::vector<AckedPut> acked_;
  std::vector<CheckEntry> checks_;
  uint64_t wrong_values_ = 0;
  uint64_t deps_total_ = 0;
  uint64_t dep_bytes_total_ = 0;
  uint64_t puts_done_ = 0;
  int64_t call_ns_put_ = 0;
  int64_t call_ns_get_ = 0;
  uint64_t calls_put_ = 0;
  uint64_t calls_get_ = 0;
  Version sample_version_;
  std::vector<uint32_t> draining_;
  std::atomic<uint64_t> completed_{0};

  // Verification state (client loop while CheckAckedReadable runs).
  std::vector<uint32_t> verify_keys_;
  size_t verify_next_ = 0;
  uint32_t verify_outstanding_ = 0;
  uint64_t verify_lost_ = 0;
  std::string verify_problem_;
  std::latch* verify_done_ = nullptr;

  // Generator -> client loop hand-off.
  std::mutex arrivals_mu_;
  std::vector<uint32_t> arrivals_;
  std::atomic<bool> armed_{false};
  int64_t t0_ = 0;

  // Generator-thread state.
  std::vector<int64_t> late_ns_;
  std::vector<CpuSnap> snaps_;
  clockid_t client_clock_ = CLOCK_THREAD_CPUTIME_ID;
  std::vector<clockid_t> server_clocks_;
  std::vector<std::vector<int64_t>> probe_wait_ns_;  // per server loop
  MetricsSnapshot reg_begin_;
  MetricsSnapshot reg_end_;
  uint64_t allocs_begin_ = 0;
  uint64_t allocs_end_ = 0;

  MetricsRegistry metrics_;
  TraceCollector traces_;
  std::unique_ptr<Deployment> deployment_;  // last: stopped before the rest
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int64_t seconds = 10;
  int trace = 0;
  std::string data_dir;
  double rate = 0;
  uint64_t attempt = 0;  // > 0: a retry after an invalid run; varies the seed
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtoll(v, nullptr, 10);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--data-dir") {
      a->data_dir = v;
    } else if (k == "--rate") {
      a->rate = std::strtod(v, nullptr);
    } else if (k == "--attempt") {
      a->attempt = std::strtoull(v, nullptr, 10);
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && !a->data_dir.empty() && a->seconds >= 1 &&
         (a->trace == 0 || a->trace == 1);
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double CpuProbeMs() {
  const int64_t start = MonoNs();
  uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 30000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ms = static_cast<double>(MonoNs() - start) / 1e6;
  return x == 0 ? -ms : ms;
}

double LoadAvg1() {
  double l[3] = {0, 0, 0};
  return getloadavg(l, 3) > 0 ? l[0] : -1;
}


void PrintPhase(const char* label, const PhaseResult& r) {
  std::printf("%s: attempted=%" PRIu64 " failed=%" PRIu64 " puts=%" PRIu64 " gets=%" PRIu64
              " setup_s=%.4f excluded_windows=%" PRIu64 "\n",
              label, r.attempted, r.failed, r.puts, r.gets, r.setup_s, r.invalid_windows);
  std::printf("  put p50=%.1fus (median of windows) p90=%.1fus p99=%.1fus n=%" PRIu64 "\n",
              r.put_p50_us, r.put_p90_ns / 1e3, r.put_p99_ns / 1e3, r.puts);
  std::printf("  get p50=%.1fus (median of windows) p90=%.1fus p99=%.1fus n=%" PRIu64 "\n",
              r.get_p50_us, r.get_p90_ns / 1e3, r.get_p99_ns / 1e3, r.gets);
  std::printf("  server_cpu=%.2fus/op client_cpu=%.2fus/op\n", r.server_cpu_us_per_op,
              r.client_cpu_us_per_op);
  std::printf("  generator late p99=%.1fus max=%.1fus; session wait p50=%.1fus, %.1f%% queued\n",
              r.late_p99_ns / 1e3, r.late_max_ns / 1e3, r.session_wait_p50_ns / 1e3,
              100 * r.session_busy_frac);
  std::printf("  checks: wrong_values=%" PRIu64 " unconverged_keys=%" PRIu64 " lost_acks=%" PRIu64
              " causal_violations=%" PRIu64 " (ops checked %" PRIu64 ")%s%s\n",
              r.wrong_values, r.unconverged, r.lost_acks, r.causal_violations, r.causal_checked,
              r.first_problem.empty() ? "" : " first: ", r.first_problem.c_str());
}

bool PhaseCorrect(const PhaseResult& r) {
  return r.wrong_values == 0 && r.unconverged == 0 && r.lost_acks == 0 &&
         r.causal_violations == 0;
}

void AppendMetric(std::string* out, const std::string& name, double value,
                  const std::string& unit) {
  if (out->back() != '{') {
    *out += ", ";
  }
  // Shortest text that reads back as exactly this double: every digit kept.
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), std::isfinite(value) ? value : 0.0);
  *out += "\"" + name + "\": {\"value\": " + std::string(buf, res.ptr) + ", \"unit\": \"" +
          unit + "\"}";
}

// Boots, preloads and measures one phase; false if the set-up failed.
bool MeasurePhase(const Workload& w, const Args& args, bool traced, PhaseResult* out) {
  Phase phase(w, args.seed + 1000003ULL * args.attempt, args.seconds * 1000000000LL, traced,
              args.data_dir + "/phase");
  std::string error;
  if (!phase.SetUp(&error)) {
    std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
    return false;
  }
  *out = phase.Run();
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: crx_perfbench --workload put_chain|read_mostly_disk --seed N "
                 "--seconds S --trace 0|1 --data-dir DIR [--rate OPS_PER_S] [--attempt N]\n");
    return 2;
  }
  Workload w;
  if (!MakeWorkload(args.workload, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.rate > 0) {
    w.rate = args.rate;
  }
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const double load_before = LoadAvg1();
  const double probe_ms = CpuProbeMs();
  std::printf("perfbench workload=%s seed=%" PRIu64 " attempt=%" PRIu64 " seconds=%" PRId64
              " trace=%d rate=%.0f/s get_fraction=%.2f value=%uB keys=%u dist=%s\n",
              w.name.c_str(), args.seed, args.attempt, args.seconds, args.trace, w.rate,
              w.get_fraction,
              w.value_size, w.keys, w.zipfian ? "scrambled_zipfian(0.99)" : "uniform");
  std::printf("deployment nodes=%u R=3 k=2 dcs=1 server_loops=%u client_loops=1 sessions=%u "
              "engine=%s cache=%" PRIu64 "B wal=%s\n",
              kNodes, kServerLoops, kSessions, w.disk ? "disk" : "mem", w.cache_bytes,
              w.disk ? "on fsync=batch" : "off");

  bool correct = true;
  std::string metrics = "{";
  PhaseResult main_result;
  if (args.trace == 0) {
    if (!MeasurePhase(w, args, false, &main_result)) {
      return 1;
    }
    // Peak RSS of this process, taken before the extra set-ups below.
    main_result.rss_mib = PeakRssMib();
    PrintPhase("untraced", main_result);
    correct = PhaseCorrect(main_result);
    if (correct && !main_result.valid) {
      std::printf("invalid run: host interference in %" PRIu64 " windows\n",
                  main_result.invalid_windows);
      return kExitInvalid;
    }
    // Set-up time is the median over kSetups deployments: the measured one
    // and kSetups - 1 more, each booted, preloaded and torn down.
    std::vector<double> setups = {main_result.setup_s};
    for (uint32_t s = 1; s < kSetups && correct; ++s) {
      Phase extra(w, args.seed + s, args.seconds * 1000000000LL, false,
                  args.data_dir + "/phase");
      std::string error;
      if (!extra.SetUp(&error)) {
        std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
        return 1;
      }
      setups.push_back(extra.setup_s());
    }
    main_result.setup_s = Median(setups);
    AppendMetric(&metrics, "put_p50_us", main_result.put_p50_us, "us");
    AppendMetric(&metrics, "get_p50_us", main_result.get_p50_us, "us");
    AppendMetric(&metrics, "server_cpu_us_per_op", main_result.server_cpu_us_per_op, "us/op");
    AppendMetric(&metrics, "client_cpu_us_per_op", main_result.client_cpu_us_per_op, "us/op");
    AppendMetric(&metrics, "setup_s", main_result.setup_s, "s");
    AppendMetric(&metrics, "rss_mib", main_result.rss_mib, "MiB");
  } else {
    PhaseResult untraced;
    if (!MeasurePhase(w, args, false, &untraced)) {
      return 1;
    }
    PrintPhase("untraced twin", untraced);
    if (!MeasurePhase(w, args, true, &main_result)) {
      return 1;
    }
    PrintPhase("traced", main_result);
    correct = PhaseCorrect(untraced) && PhaseCorrect(main_result);
    if (correct && !(untraced.valid && main_result.valid)) {
      std::printf("invalid run: host interference in %" PRIu64 " + %" PRIu64 " windows\n",
                  untraced.invalid_windows, main_result.invalid_windows);
      return kExitInvalid;
    }
    for (const Metric& m : main_result.layers) {
      AppendMetric(&metrics, m.name, m.value, m.unit);
      std::printf("  %-34s %12.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    const double overhead =
        untraced.server_cpu_us_per_op > 0
            ? 100.0 * (main_result.server_cpu_us_per_op / untraced.server_cpu_us_per_op - 1.0)
            : 0;
    AppendMetric(&metrics, "obs.trace_overhead_pct", overhead, "%");
    std::printf("  %-34s %12.4f %%\n", "obs.trace_overhead_pct", overhead);
  }
  metrics += "}";
  std::printf("host nproc=%ld loadavg_before=%.2f loadavg_after=%.2f cpu_probe_ms=%.1f\n",
              nproc, load_before, LoadAvg1(), probe_ms);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", main_result.attempted, main_result.failed,
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace chainreaction

int main(int argc, char** argv) { return chainreaction::Main(argc, argv); }
