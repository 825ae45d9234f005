#include "src/net/tcp_runtime.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "src/common/logging.h"
#include "src/common/result.h"

namespace chainreaction {

namespace {

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  CHAINRX_CHECK(flags >= 0);
  CHAINRX_CHECK(fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

constexpr size_t kFrameHeader = 12;  // u32 length | u32 src | u32 dst

// Max iovec entries gathered into one writev (each frame contributes up to
// two: header + payload). Kept well under IOV_MAX.
constexpr size_t kMaxIov = 64;

// The Shard whose loop is running on the current thread (null on ordinary
// application threads). Lets PostToLoop detect same-shard posts, which need
// neither the mutex nor a wake.
thread_local void* g_loop_shard = nullptr;

}  // namespace

// Env implementation bound to one actor of this runtime. Schedule and
// CancelTimer touch only the owning shard's timer heap, and they are only
// called from that shard's loop thread (the single-threaded-actor contract).
class TcpRuntime::TcpEnv : public Env {
 public:
  TcpEnv(TcpRuntime* rt, Shard* shard, Address self)
      : rt_(rt), shard_(shard), self_(self) {}

  Time Now() override { return NowMicros(); }

  void Send(Address dst, Payload payload) override {
    rt_->SendFrame(shard_, self_, dst, std::move(payload));
  }

  uint64_t Schedule(Duration delay, std::function<void()> fn) override {
    const uint64_t id = shard_->next_timer_id++;
    shard_->timers.push(Timer{NowMicros() + delay, id, std::move(fn)});
    return id;
  }

  void CancelTimer(uint64_t timer_id) override { shard_->cancelled_timers.Insert(timer_id); }

 private:
  TcpRuntime* rt_;
  Shard* shard_;
  Address self_;
};

Time TcpRuntime::NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TcpRuntime::TcpRuntime(AddressBook* book, uint32_t loop_threads, bool coalesced_io)
    : book_(book), coalesced_io_(coalesced_io) {
  CHAINRX_CHECK(loop_threads >= 1);
  for (uint32_t i = 0; i < loop_threads; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;

    shard->listen_fd = socket(AF_INET, SOCK_STREAM, 0);
    CHAINRX_CHECK(shard->listen_fd >= 0);
    int one = 1;
    setsockopt(shard->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral
    CHAINRX_CHECK(bind(shard->listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0);
    CHAINRX_CHECK(listen(shard->listen_fd, 128) == 0);
    socklen_t len = sizeof(addr);
    CHAINRX_CHECK(getsockname(shard->listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
    shard->port = ntohs(addr.sin_port);
    SetNonBlocking(shard->listen_fd);

    shard->wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    CHAINRX_CHECK(shard->wake_fd >= 0);

    shards_.push_back(std::move(shard));
  }
}

TcpRuntime::~TcpRuntime() {
  Stop();
  CloseAll();
}

Env* TcpRuntime::Register(Address addr, Actor* actor, uint32_t loop) {
  CHAINRX_CHECK(!running_.load());
  CHAINRX_CHECK(loop < shards_.size());
  actors_[addr] = ActorEntry{actor, loop};
  book_->Bind(addr, shards_[loop]->port);
  envs_.push_back(std::make_unique<TcpEnv>(this, shards_[loop].get(), addr));
  return envs_.back().get();
}

void TcpRuntime::AttachMetrics(MetricsRegistry* metrics) {
  CHAINRX_CHECK(!running_.load());
  if (metrics == nullptr) {
    return;
  }
  const MetricLabels labels = {{"transport", "tcp"}, {"port", std::to_string(port())}};
  m_frames_sent_ = metrics->GetCounter("crx_net_frames_sent", labels);
  m_frames_received_ = metrics->GetCounter("crx_net_frames_received", labels);
  m_bytes_sent_ = metrics->GetCounter("crx_net_bytes_sent", labels);
  m_bytes_received_ = metrics->GetCounter("crx_net_bytes_received", labels);
  m_writev_calls_ = metrics->GetCounter("crx_net_writev_calls", labels);
  m_writev_frames_ = metrics->GetCounter("crx_net_writev_frames", labels);
  m_outbox_bytes_ = metrics->GetGauge("crx_net_outbox_bytes", labels);
  m_cross_loop_frames_ = metrics->GetCounter("crx_net_cross_loop_frames", labels);
  m_loop_wakes_ = metrics->GetCounter("crx_net_loop_wakes", labels);
}

void TcpRuntime::UpdateQueueGauge() {
  if (m_outbox_bytes_ == nullptr) {
    return;
  }
  uint64_t pending = 0;
  for (const auto& shard : shards_) {
    pending += shard->outbox_bytes.load(std::memory_order_relaxed);
  }
  m_outbox_bytes_->Set(static_cast<int64_t>(pending));
}

void TcpRuntime::Start() {
  CHAINRX_CHECK(!running_.load());
  running_.store(true);
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->thread = std::thread([this, s]() { Loop(s); });
  }
}

void TcpRuntime::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  for (auto& shard : shards_) {
    Wakeup(shard.get());
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) {
      shard->thread.join();
    }
  }
}

void TcpRuntime::Post(std::function<void()> fn) { PostToLoop(0, std::move(fn)); }

void TcpRuntime::PostTo(Address addr, std::function<void()> fn) {
  auto it = actors_.find(addr);
  PostToLoop(it == actors_.end() ? 0 : it->second.shard, std::move(fn));
}

void TcpRuntime::PostToLoop(uint32_t loop, std::function<void()> fn) {
  Shard* shard = shards_[loop].get();
  if (coalesced_io_ && g_loop_shard == shard) {
    // Same-shard fast path: the queue is loop-thread-private and the loop
    // drains it before sleeping, so no synchronization is needed. Queueing
    // (instead of calling fn now) keeps actor callbacks non-reentrant.
    shard->local_posted.push_back(std::move(fn));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(shard->posted_mu);
    shard->posted.push_back(std::move(fn));
  }
  WakeIfSleeping(shard);
}

void TcpRuntime::PostFrame(Shard* home, LocalFrame frame) {
  if (m_cross_loop_frames_ != nullptr && g_loop_shard != home) {
    m_cross_loop_frames_->Inc();
  }
  {
    std::lock_guard<std::mutex> lock(home->posted_mu);
    home->posted_frames.push_back(std::move(frame));
  }
  WakeIfSleeping(home);
}

// Callers push under `posted_mu` and release it before calling this; the
// loop sets `sleeping` before it takes `posted_mu` to recheck the queues.
// So either the recheck sees the new item, or the store of true precedes
// this load and one poster's exchange wins. The plain load first keeps a
// running loop's flag line shared: a busy loop costs its posters no
// read-modify-write.
void TcpRuntime::WakeIfSleeping(Shard* shard) {
  if (shard->sleeping.load() && shard->sleeping.exchange(false)) {
    if (m_loop_wakes_ != nullptr) {
      m_loop_wakes_->Inc();
    }
    Wakeup(shard);
  }
}

void TcpRuntime::Wakeup(Shard* shard) {
  const uint64_t one = 1;
  ssize_t ignored = write(shard->wake_fd, &one, sizeof(one));
  (void)ignored;
}

void TcpRuntime::Loop(Shard* shard) {
  g_loop_shard = shard;
  std::vector<pollfd> fds;  // reused across iterations; capacity sticks
  while (running_.load()) {
    DrainPosted(shard);
    RunTimers(shard);
    // One coalesced writev per dirty connection for everything the drained
    // work produced, before going to sleep.
    FlushAll(shard);

    // Connections closed during the last cycle leave the poll set here, at
    // the one point where no handler can still hold them.
    std::erase_if(shard->conns, [](const std::unique_ptr<Connection>& c) { return c->fd < 0; });
    fds.clear();
    fds.push_back({shard->listen_fd, POLLIN, 0});
    fds.push_back({shard->wake_fd, POLLIN, 0});
    for (const auto& conn : shard->conns) {
      short events = POLLIN;
      if (!conn->outbox.empty()) {
        events |= POLLOUT;
      }
      fds.push_back({conn->fd, events, 0});
    }

    int timeout_ms = 50;
    if (!shard->timers.empty()) {
      const Time delta = shard->timers.top().at - NowMicros();
      timeout_ms = delta <= 0 ? 0 : static_cast<int>(std::min<Time>(delta / 1000 + 1, 50));
    }
    if (!shard->local_posted.empty() || !shard->local_frames.empty()) {
      timeout_ms = 0;  // timer callbacks may have posted follow-up work
    } else if (timeout_ms > 0) {
      // About to block: announce it, then recheck the cross-thread queues
      // so work posted between the drain and here is not slept on.
      shard->sleeping.store(true);
      std::lock_guard<std::mutex> lock(shard->posted_mu);
      if (!shard->posted.empty() || !shard->posted_frames.empty()) {
        timeout_ms = 0;
        shard->sleeping.store(false);
      }
    }
    const int n = poll(fds.data(), fds.size(), timeout_ms);
    if (timeout_ms > 0) {
      shard->sleeping.store(false);  // awake, whatever woke it
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      LOG_ERROR("poll failed: %s", std::strerror(errno));
      return;
    }

    if ((fds[1].revents & POLLIN) != 0) {
      // One read resets the eventfd's counter, however many wakes (one
      // per sleep, plus one from Stop) added to it.
      uint64_t wakes = 0;
      ssize_t ignored = read(shard->wake_fd, &wakes, sizeof(wakes));
      (void)ignored;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      AcceptNew(shard);
    }
    // conns may grow during handling (new outgoing connections) and
    // entries may close (fd -1); only the prefix snapshotted into fds is
    // touched here, and nothing is removed until the next cycle's sweep.
    const size_t snapshot = fds.size() - 2;
    for (size_t i = 0; i < snapshot; ++i) {
      const short revents = fds[i + 2].revents;
      Connection* conn = shard->conns[i].get();
      if ((revents & POLLOUT) != 0) {
        FlushOutbox(shard, conn);
      }
      if ((revents & (POLLIN | POLLERR | POLLHUP)) != 0 && conn->fd >= 0) {
        ReadFrom(shard, conn);
      }
    }
    UpdateQueueGauge();
  }
}

void TcpRuntime::DrainPosted(Shard* shard) {
  // Swap through the shard's scratch buffers instead of constructing fresh
  // ones: a default-constructed deque allocates its chunk map every cycle,
  // and a swapped vector keeps its capacity.
  std::deque<std::function<void()>>& batch = shard->posted_scratch;
  std::vector<LocalFrame>& frames = shard->frames_scratch;
  {
    std::lock_guard<std::mutex> lock(shard->posted_mu);
    batch.swap(shard->posted);
    frames.swap(shard->posted_frames);
  }
  for (auto& fn : batch) {
    fn();
  }
  batch.clear();
  for (const LocalFrame& f : frames) {
    DeliverLocal(f);
  }
  frames.clear();
  // Run same-shard work (and the work it spawns) to quiescence; socket
  // backpressure bounds how much can accumulate per cycle.
  while (!shard->local_frames.empty() || !shard->local_posted.empty()) {
    while (!shard->local_frames.empty()) {
      LocalFrame f = std::move(shard->local_frames.front());
      shard->local_frames.pop_front();
      DeliverLocal(f);
    }
    if (!shard->local_posted.empty()) {
      auto fn = std::move(shard->local_posted.front());
      shard->local_posted.pop_front();
      fn();
    }
  }
}

void TcpRuntime::DeliverLocal(const LocalFrame& frame) {
  auto entry = actors_.find(frame.dst);
  if (entry != actors_.end()) {
    entry->second.actor->OnMessage(frame.src, frame.payload.view());
  }
}

void TcpRuntime::RunTimers(Shard* shard) {
  const Time now = NowMicros();
  while (!shard->timers.empty() && shard->timers.top().at <= now) {
    // Move (not copy) out of the heap: `at`/`id` are untouched by the move,
    // so pop()'s sift-down compares stay valid, and the closure's buffer is
    // not duplicated on every firing.
    Timer t = std::move(const_cast<Timer&>(shard->timers.top()));
    shard->timers.pop();
    if (shard->cancelled_timers.Erase(t.id)) {
      continue;
    }
    t.fn();
  }
}

void TcpRuntime::AcceptNew(Shard* shard) {
  while (true) {
    const int fd = accept(shard->listen_fd, nullptr, nullptr);
    if (fd < 0) {
      return;
    }
    SetNonBlocking(fd);
    SetNoDelay(fd);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    shard->conns.push_back(std::move(conn));
  }
}

// Reads until the socket has nothing more for now: a read shorter than the
// buffer means the kernel queue is drained (poll is level-triggered, so
// bytes arriving later are reported again), which saves the extra read
// that would only return EAGAIN. EOF or a hard error closes the connection
// once the frames already buffered are delivered; leaving the fd in the
// poll set would make every poll return at once.
void TcpRuntime::ReadFrom(Shard* shard, Connection* conn) {
  char buf[16 * 1024];
  bool closed = false;
  while (true) {
    const ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->inbox.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) {
        break;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    if (n < 0) {
      LOG_WARN("read failed: %s; closing connection", std::strerror(errno));
    }
    closed = true;
    break;
  }
  if (!ParseFrames(shard, conn) || closed) {
    CloseConnection(shard, conn);
  }
}

bool TcpRuntime::ParseFrames(Shard* shard, Connection* conn) {
  size_t offset = 0;
  while (conn->inbox.size() - offset >= kFrameHeader) {
    uint32_t length = 0, src = 0, dst = 0;
    std::memcpy(&length, conn->inbox.data() + offset, 4);
    std::memcpy(&src, conn->inbox.data() + offset + 4, 4);
    std::memcpy(&dst, conn->inbox.data() + offset + 8, 4);
    if (length > (64u << 20)) {
      LOG_ERROR("oversized frame (%u bytes); closing connection", length);
      conn->inbox.clear();
      return false;
    }
    if (conn->inbox.size() - offset - kFrameHeader < length) {
      break;  // incomplete
    }
    // Zero-copy delivery: hand out a view directly into the inbox. Safe
    // because the inbox is only mutated here and in ReadFrom, neither of
    // which re-enters while an actor callback runs.
    const std::string_view payload(conn->inbox.data() + offset + kFrameHeader, length);
    offset += kFrameHeader + length;
    frames_received_.fetch_add(1);
    if (m_frames_received_ != nullptr) {
      m_frames_received_->Inc();
      m_bytes_received_->Inc(kFrameHeader + length);
    }
    Deliver(shard, src, dst, payload);
  }
  if (offset > 0) {
    conn->inbox.erase(0, offset);
  }
  return true;
}

void TcpRuntime::Deliver(Shard* shard, Address src, Address dst, std::string_view payload) {
  auto it = actors_.find(dst);
  if (it == actors_.end()) {
    LOG_WARN("runtime on port %u: no actor %u", shard->port, dst);
    return;
  }
  if (it->second.shard != shard->index) {
    // A frame for an actor homed on another shard (e.g. sent to a stale
    // port binding): the view dies with this parse pass, so copy into an
    // owned buffer and bounce it to the owning loop so the actor's
    // single-threaded contract holds.
    PostFrame(shards_[it->second.shard].get(), LocalFrame{src, dst, std::string(payload)});
    return;
  }
  it->second.actor->OnMessage(src, payload);
}

void TcpRuntime::SendFrame(Shard* shard, Address src, Address dst, Payload payload) {
  // Local recipients skip the wire, like colocated processes sharing a bus.
  if (auto it = actors_.find(dst); it != actors_.end()) {
    Shard* home = shards_[it->second.shard].get();
    if (coalesced_io_ && g_loop_shard == home) {
      // Same-shard fast path (the dominant case: chain hops between
      // colocated replicas): queue a plain frame on the loop-private deque.
      // Still deferred — never delivered inline — so Send() stays
      // non-reentrant, but without a per-send closure allocation.
      home->local_frames.push_back(LocalFrame{src, dst, std::move(payload)});
      return;
    }
    // Another loop's actor (or any actor when coalesced_io is off): hand
    // the frame to the owning loop's posted queue as a plain struct. It leaves now, not at the end of this turn,
    // so a lone frame waits for nothing but the destination loop.
    PostFrame(home, LocalFrame{src, dst, std::move(payload)});
    return;
  }
  uint16_t target_port = 0;
  if (auto cached = shard->port_cache.find(dst); cached != shard->port_cache.end()) {
    target_port = cached->second;
  } else {
    target_port = book_->PortOf(dst);
    if (target_port != 0) {
      shard->port_cache.emplace(dst, target_port);
    }
  }
  if (target_port == 0) {
    LOG_WARN("no route to address %u", dst);
    return;
  }
  Connection* conn = ConnectionTo(shard, target_port);
  if (conn == nullptr) {
    return;
  }
  OutFrame frame;
  const uint32_t length = static_cast<uint32_t>(payload.size());
  std::memcpy(frame.header, &length, 4);
  std::memcpy(frame.header + 4, &src, 4);
  std::memcpy(frame.header + 8, &dst, 4);
  frame.payload = std::move(payload);
  conn->outbox_bytes += kFrameHeader + frame.payload.size();
  conn->outbox.push_back(std::move(frame));
  frames_sent_.fetch_add(1);
  if (m_frames_sent_ != nullptr) {
    m_frames_sent_->Inc();
    m_bytes_sent_->Inc(kFrameHeader + length);
  }
  if (coalesced_io_) {
    // Not flushed here: the loop flushes all dirty connections once per
    // cycle, so frames queued by one batch of work share a writev.
    return;
  }
  FlushOutbox(shard, conn);
  UpdateQueueGauge();
}

void TcpRuntime::FlushAll(Shard* shard) {
  for (const auto& conn : shard->conns) {
    if (!conn->outbox.empty()) {  // a closed connection's outbox is empty
      FlushOutbox(shard, conn.get());
    }
  }
  UpdateQueueGauge();
}

// Gathers as many queued frames as fit into one sendmsg and resumes
// correctly on partial writes: the front frame's written prefix is tracked
// in Connection::front_written, EINTR retries, EAGAIN defers to POLLOUT.
// Only a real socket error (broken connection) drops the queue, and closes
// the connection. MSG_NOSIGNAL turns a write to a peer that has gone away
// into EPIPE instead of a process-killing SIGPIPE.
void TcpRuntime::FlushOutbox(Shard* shard, Connection* conn) {
  while (!conn->outbox.empty()) {
    iovec iov[kMaxIov];
    size_t niov = 0;
    size_t skip = conn->front_written;
    for (const OutFrame& f : conn->outbox) {
      if (niov + 2 > kMaxIov) {
        break;
      }
      const std::string_view bytes = f.payload.view();
      if (skip < kFrameHeader) {
        iov[niov].iov_base = const_cast<char*>(f.header + skip);
        iov[niov].iov_len = kFrameHeader - skip;
        ++niov;
        if (!bytes.empty()) {
          iov[niov].iov_base = const_cast<char*>(bytes.data());
          iov[niov].iov_len = bytes.size();
          ++niov;
        }
      } else {
        const size_t payload_off = skip - kFrameHeader;
        iov[niov].iov_base = const_cast<char*>(bytes.data() + payload_off);
        iov[niov].iov_len = bytes.size() - payload_off;
        ++niov;
      }
      skip = 0;
    }

    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    const ssize_t n = sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;  // interrupted before any byte moved; retry
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;  // poll will retry with POLLOUT
      }
      // Broken connection: the queued frames can never be delivered.
      LOG_WARN("sendmsg failed: %s; dropping %zu buffered bytes", std::strerror(errno),
               conn->outbox_bytes);
      CloseConnection(shard, conn);
      return;
    }
    writev_calls_.fetch_add(1);
    if (m_writev_calls_ != nullptr) {
      m_writev_calls_->Inc();
    }

    // Consume n bytes across the queued frames.
    size_t left = static_cast<size_t>(n);
    conn->outbox_bytes -= left;
    uint64_t completed = 0;
    while (left > 0) {
      OutFrame& f = conn->outbox.front();
      const size_t total = kFrameHeader + f.payload.size();
      const size_t rem = total - conn->front_written;
      if (left >= rem) {
        left -= rem;
        conn->outbox.pop_front();
        conn->front_written = 0;
        ++completed;
      } else {
        conn->front_written += left;
        left = 0;
      }
    }
    if (completed > 0) {
      writev_frames_.fetch_add(completed);
      if (m_writev_frames_ != nullptr) {
        m_writev_frames_->Inc(completed);
      }
    }
  }
  RecountOutbox(shard);
}

void TcpRuntime::RecountOutbox(Shard* shard) {
  size_t pending = 0;
  for (const auto& c : shard->conns) {
    pending += c->outbox_bytes;
  }
  shard->outbox_bytes.store(pending, std::memory_order_relaxed);
}

void TcpRuntime::CloseConnection(Shard* shard, Connection* conn) {
  if (conn->fd < 0) {
    return;
  }
  close(conn->fd);
  conn->fd = -1;
  conn->outbox.clear();
  conn->front_written = 0;
  conn->outbox_bytes = 0;
  if (conn->peer_port != 0) {
    shard->port_to_conn.erase(conn->peer_port);  // the only open one to that port
  }
  RecountOutbox(shard);
}

TcpRuntime::Connection* TcpRuntime::ConnectionTo(Shard* shard, uint16_t target_port) {
  auto it = shard->port_to_conn.find(target_port);
  if (it != shard->port_to_conn.end()) {
    return it->second;
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return nullptr;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(target_port);
  // Blocking connect to localhost completes immediately in practice.
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    LOG_WARN("connect to port %u failed: %s", target_port, std::strerror(errno));
    close(fd);
    return nullptr;
  }
  SetNonBlocking(fd);
  SetNoDelay(fd);
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->peer_port = target_port;
  Connection* raw = conn.get();
  shard->conns.push_back(std::move(conn));
  shard->port_to_conn[target_port] = raw;
  return raw;
}

void TcpRuntime::CloseAll() {
  for (auto& shard : shards_) {
    for (auto& conn : shard->conns) {
      if (conn->fd >= 0) {
        close(conn->fd);
      }
    }
    shard->conns.clear();
    if (shard->listen_fd >= 0) {
      close(shard->listen_fd);
      shard->listen_fd = -1;
    }
    if (shard->wake_fd >= 0) {
      close(shard->wake_fd);
      shard->wake_fd = -1;
    }
  }
}

}  // namespace chainreaction
