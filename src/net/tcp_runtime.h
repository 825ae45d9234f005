// Real-socket runtime for protocol actors.
//
// A TcpRuntime models one OS process hosting N event-loop threads
// ("shards"). Each shard owns a listening TCP socket (127.0.0.1, ephemeral
// port), its own connection table, timer heap, and posted-work queue, and
//   * accepts peer connections and parses length-prefixed frames
//     (u32 length | u32 src | u32 dst | payload),
//   * delivers frames to the actors registered on that shard,
//   * sends outgoing frames — locally addressed ones are dispatched
//     in-process to the owning shard's queue, remote ones over a lazily
//     established TCP connection to the owning shard of the destination
//     runtime (found through the shared AddressBook),
//   * coalesces queued frames into one sendmsg() per flush, resuming
//     correctly after partial writes / EINTR / EAGAIN,
//   * tears a connection down on EOF or a hard socket error (a later send
//     to that peer reconnects, or logs and drops if the peer is gone).
//
// Every actor is registered on exactly one shard and all of its callbacks
// (messages and timers) run on that shard's thread, preserving the
// simulator's single-threaded-actor execution model — the exact same
// protocol code runs on both transports. Callers place node actors on
// shards so that few chain links cross loops (see
// TcpCluster::AssignShardsByRingOrder). A frame for an actor on another
// shard is queued as a plain struct on that shard's posted-frame queue (no
// closure per frame), and the loop's wake eventfd is written only when
// the destination loop is about to block in poll. External threads inject work
// with Post()/PostTo().
#ifndef SRC_NET_TCP_RUNTIME_H_
#define SRC_NET_TCP_RUNTIME_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/payload.h"
#include "src/common/types.h"
#include "src/net/address_book.h"
#include "src/obs/metrics.h"
#include "src/sim/env.h"

namespace chainreaction {

class TcpRuntime {
 public:
  // All runtimes that must talk to each other share one AddressBook.
  // `loop_threads` is the number of event-loop shards (>= 1).
  // `coalesced_io` selects the batched hot path (deferred once-per-cycle
  // writev flushes, lock-free same-shard posting); false restores the
  // pre-overhaul behavior — one write() per frame, every post and local
  // frame through the mutexed queue — and exists so bench_e16 can measure
  // the overhaul against the old runtime inside one binary.
  explicit TcpRuntime(AddressBook* book, uint32_t loop_threads = 1, bool coalesced_io = true);
  ~TcpRuntime();
  TcpRuntime(const TcpRuntime&) = delete;
  TcpRuntime& operator=(const TcpRuntime&) = delete;

  // Must be called before Start(). The actor lives on shard `loop` (all of
  // its callbacks run on that shard's thread). The returned Env is owned by
  // the runtime and valid until destruction.
  Env* Register(Address addr, Actor* actor, uint32_t loop = 0);

  // Optional observability: frame/byte/writev counters, the outbound
  // queue depth (bytes buffered across connections), frames handed from
  // one loop to another (crx_net_cross_loop_frames) and wake writes
  // (crx_net_loop_wakes), labeled by this runtime's primary port. Must be
  // called before Start().
  void AttachMetrics(MetricsRegistry* metrics);

  void Start();
  void Stop();

  // Runs `fn` on shard 0's loop thread (thread-safe, returns immediately).
  void Post(std::function<void()> fn);
  // Runs `fn` on the loop thread owning `addr` (shard 0 if unregistered).
  void PostTo(Address addr, std::function<void()> fn);
  // Runs `fn` on a specific shard's loop thread.
  void PostToLoop(uint32_t loop, std::function<void()> fn);

  uint32_t loop_threads() const { return static_cast<uint32_t>(shards_.size()); }
  uint16_t port() const { return shards_[0]->port; }
  uint16_t port_of_loop(uint32_t loop) const { return shards_[loop]->port; }
  uint64_t frames_sent() const { return frames_sent_.load(); }
  uint64_t frames_received() const { return frames_received_.load(); }
  uint64_t writev_calls() const { return writev_calls_.load(); }
  uint64_t writev_frames() const { return writev_frames_.load(); }

 private:
  class TcpEnv;

  // One queued wire frame; the payload is moved in from Env::Send and held
  // here until fully written. A shared Payload lets one encoded buffer sit
  // in many connections' outboxes at once (chain fan-out, geo ship) —
  // immutability makes that safe even across shard threads.
  struct OutFrame {
    char header[12];  // u32 length | u32 src | u32 dst
    Payload payload;
  };

  struct Connection {
    int fd = -1;                    // -1 once closed; swept next loop cycle
    uint16_t peer_port = 0;         // outgoing: the target port; 0 if accepted
    std::string inbox;              // partially read frames
    std::deque<OutFrame> outbox;    // queued frames, oldest first
    size_t front_written = 0;       // bytes of outbox.front() already on the wire
    size_t outbox_bytes = 0;        // total unwritten bytes across the queue
  };

  struct Timer {
    Time at;
    uint64_t id;
    std::function<void()> fn;
    bool operator>(const Timer& other) const { return at > other.at; }
  };

  // An in-process frame awaiting delivery, from an actor on the same shard
  // or on another one. Kept as a plain struct (not a posted closure)
  // because actor-to-actor sends dominate the put hot path — a
  // std::function capturing {src, dst, payload} exceeds the small-object
  // buffer and would heap-allocate on every chain hop.
  struct LocalFrame {
    Address src = 0;
    Address dst = 0;
    Payload payload;
  };

  // Open-addressed set of cancelled timer ids. Every completed client
  // request cancels its timeout timer; a node-based std::unordered_set pays
  // one heap allocation per cancel, so this flat table keeps the steady
  // state allocation-free. Slot value 0 = empty, 1 = tombstone (timer ids
  // start at 2); erases tombstone, and the table rebuilds — sweeping
  // tombstones — once live+dead entries pass half the capacity.
  class CancelSet {
   public:
    void Insert(uint64_t id) {
      if (slots_.empty() || (live_ + dead_ + 1) * 2 > slots_.size()) {
        Rehash();
      }
      const size_t mask = slots_.size() - 1;
      size_t i = Hash(id) & mask;
      size_t tomb = kNone;
      while (true) {
        const uint64_t v = slots_[i];
        if (v == id) {
          return;
        }
        if (v == kTomb && tomb == kNone) {
          tomb = i;
        }
        if (v == kEmpty) {
          if (tomb != kNone) {
            slots_[tomb] = id;
            --dead_;
          } else {
            slots_[i] = id;
          }
          ++live_;
          return;
        }
        i = (i + 1) & mask;
      }
    }

    // Removes `id` if present; returns whether it was.
    bool Erase(uint64_t id) {
      if (slots_.empty()) {
        return false;
      }
      const size_t mask = slots_.size() - 1;
      size_t i = Hash(id) & mask;
      while (true) {
        const uint64_t v = slots_[i];
        if (v == id) {
          slots_[i] = kTomb;
          --live_;
          ++dead_;
          return true;
        }
        if (v == kEmpty) {
          return false;
        }
        i = (i + 1) & mask;
      }
    }

   private:
    static constexpr uint64_t kEmpty = 0;
    static constexpr uint64_t kTomb = 1;
    static constexpr size_t kNone = static_cast<size_t>(-1);

    static uint64_t Hash(uint64_t x) {
      x ^= x >> 33;
      x *= 0xff51afd7ed558ccdULL;
      x ^= x >> 33;
      x *= 0xc4ceb9fe1a85ec53ULL;
      x ^= x >> 33;
      return x;
    }

    void Rehash() {
      std::vector<uint64_t> old = std::move(slots_);
      size_t want = 64;
      while (want < (live_ + 1) * 4) {
        want <<= 1;
      }
      slots_.assign(want, kEmpty);
      live_ = 0;
      dead_ = 0;
      for (uint64_t v : old) {
        if (v > kTomb) {
          Insert(v);
        }
      }
    }

    std::vector<uint64_t> slots_;
    size_t live_ = 0;
    size_t dead_ = 0;
  };

  // Everything one event-loop thread owns. Only `posted`/`posted_frames`
  // (mutex), `sleeping` and `wake_fd` are touched cross-thread; the
  // rest is loop-thread-private.
  struct Shard {
    uint32_t index = 0;
    int listen_fd = -1;
    int wake_fd = -1;  // eventfd: posters write to interrupt the loop's poll
    uint16_t port = 0;

    std::vector<std::unique_ptr<Connection>> conns;   // accepted + outgoing
    std::unordered_map<uint16_t, Connection*> port_to_conn;  // open outgoing, by port
    // Address routes resolved from the shared AddressBook, cached here so
    // the steady-state send path never takes the book's global mutex.
    // Safe because bindings are made before Start() and never change.
    std::unordered_map<Address, uint16_t> port_cache;

    std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers;
    CancelSet cancelled_timers;
    uint64_t next_timer_id = 2;  // 0/1 are the CancelSet's empty/tombstone marks

    std::mutex posted_mu;
    std::deque<std::function<void()>> posted;
    // Frames from actors on other shards (and stale-binding bounces).
    std::vector<LocalFrame> posted_frames;
    // Loop-thread-only drain buffers, swapped with `posted` and
    // `posted_frames` each cycle so both sides keep their storage warm (no
    // per-cycle construction).
    std::deque<std::function<void()>> posted_scratch;
    std::vector<LocalFrame> frames_scratch;
    // True only while the loop is about to block in poll with no work it
    // knows of. The loop sets it, then rechecks both posted queues under
    // `posted_mu`; a poster writes `wake_fd` only when it wins
    // sleeping.exchange(false), so a busy loop gets no wake writes and a
    // sleeping one at most one.
    std::atomic<bool> sleeping{false};
    // Work posted from this shard's own loop thread: no lock, no wake —
    // drained before the next poll.
    std::deque<std::function<void()>> local_posted;
    // Same-shard actor-to-actor frames, drained alongside local_posted.
    // Plain structs instead of closures: the dominant send path must not
    // allocate per frame.
    std::deque<LocalFrame> local_frames;

    std::atomic<uint64_t> outbox_bytes{0};  // mirror for the queue gauge
    std::thread thread;
  };

  struct ActorEntry {
    Actor* actor = nullptr;
    uint32_t shard = 0;
  };

  static Time NowMicros();

  void Loop(Shard* shard);
  void AcceptNew(Shard* shard);
  void ReadFrom(Shard* shard, Connection* conn);
  // Delivers every complete frame in the inbox; false if the stream is
  // corrupt (an oversized length word) and the connection must close.
  bool ParseFrames(Shard* shard, Connection* conn);
  // `payload` aliases the connection's inbox; same-shard actors receive the
  // view directly (zero copy), cross-shard bounces copy it into an owned
  // buffer before posting.
  void Deliver(Shard* shard, Address src, Address dst, std::string_view payload);
  void SendFrame(Shard* shard, Address src, Address dst, Payload payload);
  void FlushOutbox(Shard* shard, Connection* conn);
  // Flushes every connection with queued frames (one writev each); called
  // once per loop iteration so frames generated in a cycle coalesce.
  void FlushAll(Shard* shard);
  // The open outgoing connection to `target_port`, connecting if needed;
  // null if the connect fails.
  Connection* ConnectionTo(Shard* shard, uint16_t target_port);
  // Closes the socket, drops its unsent frames and forgets its port, so the
  // next send to that peer reconnects. The Connection object stays in
  // `conns` (with fd -1) until the top of the next loop cycle: callers up
  // the stack may still hold it, and a parse pass may still be reading its
  // inbox.
  void CloseConnection(Shard* shard, Connection* conn);
  // Re-sums the shard's unsent bytes into the cross-thread gauge mirror.
  void RecountOutbox(Shard* shard);
  // Queues `frame` for `home`'s actor from another thread (or from its own
  // loop when coalesced_io is off) and wakes `home` if it sleeps. Frames
  // from any thread but `home`'s own count as crx_net_cross_loop_frames.
  void PostFrame(Shard* home, LocalFrame frame);
  // Delivers an in-process frame to its actor on the current loop.
  void DeliverLocal(const LocalFrame& frame);
  // Writes `wake_fd` if `shard`'s loop is blocked (or about to block)
  // in poll; a no-op for a running loop, which drains before it sleeps.
  void WakeIfSleeping(Shard* shard);
  void Wakeup(Shard* shard);
  void RunTimers(Shard* shard);
  void DrainPosted(Shard* shard);
  void CloseAll();
  void UpdateQueueGauge();

  AddressBook* book_;
  const bool coalesced_io_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Immutable after Start() (registered before the threads run).
  std::unordered_map<Address, ActorEntry> actors_;
  std::vector<std::unique_ptr<Env>> envs_;

  std::atomic<bool> running_{false};
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> writev_calls_{0};
  std::atomic<uint64_t> writev_frames_{0};

  // Observability (null until AttachMetrics).
  Counter* m_frames_sent_ = nullptr;
  Counter* m_frames_received_ = nullptr;
  Counter* m_bytes_sent_ = nullptr;
  Counter* m_bytes_received_ = nullptr;
  Counter* m_writev_calls_ = nullptr;
  Counter* m_writev_frames_ = nullptr;
  Gauge* m_outbox_bytes_ = nullptr;
  Counter* m_cross_loop_frames_ = nullptr;
  Counter* m_loop_wakes_ = nullptr;
};

}  // namespace chainreaction

#endif  // SRC_NET_TCP_RUNTIME_H_
