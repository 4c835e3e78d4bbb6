#include "net/reactor.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <thread>
#include <unordered_map>

#include "common/clock.h"
#include "common/logging.h"
#include "common/profile_stack.h"
#include "net/tcp.h"
#include "net/wire.h"
#include "obs/flight_recorder.h"
#include "obs/watchdog.h"

namespace tiera {

namespace {

// epoll user-data tags. Connections use their id (>= kFirstConnId); the
// two small values identify the loop's eventfd and the listening socket.
constexpr std::uint64_t kWakeTag = 0;
constexpr std::uint64_t kListenTag = 1;
constexpr std::uint64_t kFirstConnId = 2;

std::size_t default_parallelism() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace

// Per-connection state. Owned by exactly one loop and touched only on that
// loop's thread, so none of it is synchronized.
struct ReactorConn {
  int fd = -1;
  std::uint64_t id = 0;
  // Read side: accumulated bytes plus a consumed prefix; frames are decoded
  // in place and the buffer compacted once drained (or when the consumed
  // prefix grows large).
  Bytes rbuf;
  std::size_t rpos = 0;
  // Write side: fully framed responses awaiting the socket, plus the offset
  // into the front frame already written.
  std::deque<Bytes> wqueue;
  std::size_t woff = 0;
  // Requests decoded off this connection and not yet answered.
  std::uint32_t inflight = 0;
  bool reading = true;     // EPOLLIN subscribed
  bool want_write = false; // EPOLLOUT subscribed
  bool peer_eof = false;   // read side closed; reap once responses flush
};

class ReactorServer::Loop {
 public:
  Loop(ReactorServer& server, std::size_t index)
      : server_(server),
        index_(index),
        name_("rpc-loop-" + std::to_string(index)) {
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  }

  ~Loop() {
    if (thread_.joinable()) thread_.join();
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epfd_ >= 0) ::close(epfd_);
  }

  // Called before the thread starts (loop 0 only).
  void adopt_listener(int listen_fd) {
    listen_fd_ = listen_fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenTag;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, listen_fd, &ev);
  }

  void start() {
    thread_ = std::thread([this] { run(); });
  }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

  // --- cross-thread mailbox -------------------------------------------

  void post_conn(int fd, std::uint64_t id) {
    post(Mail{Mail::kNewConn, id, fd, {}});
  }

  void post_response(std::uint64_t conn_id, Bytes frame) {
    post(Mail{Mail::kResponse, conn_id, -1, std::move(frame)});
  }

  void post_stop() { post(Mail{Mail::kStop, 0, -1, {}}); }

  // --- external telemetry (any thread) --------------------------------

  std::size_t connections() const { return conn_count_.load(); }
  std::size_t inflight() const { return inflight_snapshot_.load(); }
  std::uint64_t pauses() const { return pauses_.load(); }

  // Watchdog probes. A loop parked in epoll_wait with an empty mailbox is
  // idle (queue 0, never flagged); a loop that stops iterating while mail
  // is waiting is stalled — posts write the eventfd, so a live loop always
  // wakes and advances the iteration counter.
  std::uint64_t iterations() const {
    return iterations_.load(std::memory_order_relaxed);
  }
  std::size_t mailbox_depth() const {
    std::lock_guard lock(mail_mu_);
    return mailbox_.size();
  }
  const std::string& name() const { return name_; }

 private:
  struct Mail {
    enum Kind { kNewConn, kResponse, kStop } kind;
    std::uint64_t conn_id;
    int fd;
    Bytes frame;
  };

  void post(Mail mail) {
    {
      std::lock_guard lock(mail_mu_);
      mailbox_.push_back(std::move(mail));
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }

  void run() {
    profile_set_thread_name(name_.c_str());
    epoll_event events[64];
    while (running_) {
      const int n = ::epoll_wait(epfd_, events, 64, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        TIERA_LOG(kError, "net")
            << name_ << " epoll_wait: " << std::strerror(errno);
        break;
      }
      iterations_.fetch_add(1, std::memory_order_relaxed);
      for (int i = 0; i < n && running_; ++i) {
        const std::uint64_t tag = events[i].data.u64;
        if (tag == kWakeTag) {
          drain_wake();
          process_mailbox();
          continue;
        }
        if (tag == kListenTag) {
          accept_ready();
          continue;
        }
        auto it = conns_.find(tag);
        if (it == conns_.end()) continue;  // closed earlier this batch
        ReactorConn* conn = it->second.get();
        const std::uint32_t flags = events[i].events;
        if (flags & (EPOLLERR | EPOLLHUP)) {
          // Socket error or full close from the peer: any response we
          // could still produce is undeliverable. Reap immediately.
          destroy(conn);
          continue;
        }
        if (flags & EPOLLIN) {
          if (!handle_readable(conn)) continue;  // destroyed
        }
        if (flags & EPOLLOUT) {
          flush_writes(conn);
        }
      }
    }
    // Loop exit: close everything still tracked.
    for (auto& [id, conn] : conns_) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    conns_.clear();
    conn_count_.store(0);
    publish_gauges();
  }

  void drain_wake() {
    std::uint64_t buf;
    while (::read(wake_fd_, &buf, sizeof(buf)) > 0) {
    }
  }

  void process_mailbox() {
    std::vector<Mail> batch;
    {
      std::lock_guard lock(mail_mu_);
      batch.swap(mailbox_);
    }
    for (Mail& mail : batch) {
      switch (mail.kind) {
        case Mail::kNewConn:
          adopt(mail.fd, mail.conn_id);
          break;
        case Mail::kResponse:
          complete(mail.conn_id, std::move(mail.frame));
          break;
        case Mail::kStop:
          running_ = false;
          break;
      }
    }
  }

  // --- accepting (only the loop that owns the listener) ----------------

  void accept_ready() {
    for (;;) {
      const int fd =
          ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or transient error: wait for the next event
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const std::uint64_t seq = server_.next_conn_.fetch_add(1);
      const std::uint64_t id = kFirstConnId + seq;
      const std::size_t target = seq % server_.loops_.size();
      if (target == index_) {
        adopt(fd, id);
      } else {
        server_.loops_[target]->post_conn(fd, id);
      }
    }
  }

  void adopt(int fd, std::uint64_t id) {
    if (!running_) {
      ::close(fd);
      return;
    }
    auto conn = std::make_unique<ReactorConn>();
    conn->fd = fd;
    conn->id = id;
    conn->reading = !paused_;
    epoll_event ev{};
    ev.events = conn->reading ? std::uint32_t(EPOLLIN) : 0u;
    ev.data.u64 = id;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      return;
    }
    conns_.emplace(id, std::move(conn));
    conn_count_.store(conns_.size());
    publish_gauges();
  }

  void destroy(ReactorConn* conn) {
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    // Requests already dispatched keep counting against the loop's
    // in-flight cap until their responses come back (complete() drops the
    // count whether or not the connection still exists).
    conns_.erase(conn->id);
    conn_count_.store(conns_.size());
    publish_gauges();
  }

  void update_interest(ReactorConn* conn) {
    epoll_event ev{};
    ev.events = (conn->reading ? std::uint32_t(EPOLLIN) : 0u) |
                (conn->want_write ? std::uint32_t(EPOLLOUT) : 0u);
    ev.data.u64 = conn->id;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }

  // --- read path -------------------------------------------------------

  // Returns false if the connection was destroyed.
  bool handle_readable(ReactorConn* conn) {
    for (;;) {
      std::uint8_t buf[64 << 10];
      const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
      if (n > 0) {
        conn->rbuf.insert(conn->rbuf.end(), buf, buf + n);
        if (!decode_frames(conn)) {
          destroy(conn);
          return false;
        }
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
        if (!conn->reading) break;  // backpressure tripped mid-read
        continue;
      }
      if (n == 0) {
        // Half-close (or close): never read again, but responses for
        // requests already decoded still get written back. Unsubscribe
        // EPOLLIN so the level-triggered EOF does not spin the loop.
        conn->peer_eof = true;
        conn->reading = false;
        update_interest(conn);
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      destroy(conn);
      return false;
    }
    if (conn->peer_eof && conn->inflight == 0 && conn->wqueue.empty()) {
      destroy(conn);
      return false;
    }
    return true;
  }

  // Peels complete frames off conn->rbuf. Returns false on a protocol
  // violation (oversized frame) — the caller destroys the connection.
  bool decode_frames(ReactorConn* conn) {
    for (;;) {
      // Admission is gated by the in-flight cap, not just socket reads: a
      // burst of pipelined requests lands in one read(), and dispatching
      // everything buffered would blow straight through the cap. Leftover
      // frames sit in rbuf until maybe_resume() re-decodes them.
      if (paused_) break;
      const std::size_t avail = conn->rbuf.size() - conn->rpos;
      if (avail < 4) break;
      std::uint32_t len;
      std::memcpy(&len, conn->rbuf.data() + conn->rpos, 4);
      if (len > TcpConnection::kMaxFrame) return false;
      if (avail < 4 + static_cast<std::size_t>(len)) break;
      on_frame(conn, ByteView(conn->rbuf.data() + conn->rpos + 4, len));
      conn->rpos += 4 + static_cast<std::size_t>(len);
    }
    // Compact: cheap when fully drained, amortized otherwise.
    if (conn->rpos == conn->rbuf.size()) {
      conn->rbuf.clear();
      conn->rpos = 0;
    } else if (conn->rpos > (256 << 10)) {
      conn->rbuf.erase(conn->rbuf.begin(),
                       conn->rbuf.begin() + static_cast<long>(conn->rpos));
      conn->rpos = 0;
    }
    return true;
  }

  void on_frame(ReactorConn* conn, ByteView frame) {
    if (frame.size() < 8 + 1) {
      server_.metrics_.errors->inc();
      return;  // malformed frame: drop it, keep the connection
    }
    Request request;
    request.loop = index_;
    request.conn_id = conn->id;
    std::memcpy(&request.request_id, frame.data(), 8);
    const std::uint8_t raw_method = frame[8];
    request.method = raw_method & kRpcMethodMask;
    std::size_t body_off = 9;
    std::string_view tenant;
    if (raw_method & kRpcTenantFlag) {
      // Tenant header: one wire string spliced in front of the body. Parsed
      // and stripped here so handlers and the shard-key extractor see the
      // exact pre-header body layout. A malformed header still gets an
      // answer — a blocking caller must never hang on a dropped frame.
      if (frame.size() < body_off + 4) {
        server_.metrics_.errors->inc();
        reject(conn, request.request_id,
               Status::InvalidArgument("truncated tenant header"));
        return;
      }
      std::uint32_t tenant_len = 0;
      std::memcpy(&tenant_len, frame.data() + body_off, 4);
      if (frame.size() - body_off - 4 < tenant_len) {
        server_.metrics_.errors->inc();
        reject(conn, request.request_id,
               Status::InvalidArgument("truncated tenant header"));
        return;
      }
      tenant = std::string_view(
          reinterpret_cast<const char*>(frame.data()) + body_off + 4,
          tenant_len);
      body_off += 4 + static_cast<std::size_t>(tenant_len);
    }
    if (server_.admission_) {
      const Status verdict = server_.admission_(
          request.method, tenant, (raw_method & kRpcBackgroundFlag) != 0);
      if (!verdict.ok()) {
        reject(conn, request.request_id, verdict);
        return;  // fast-fail: never dispatched, never counted in-flight
      }
    }
    request.tenant.assign(tenant);
    request.body.assign(frame.begin() + static_cast<long>(body_off),
                        frame.end());
    ++conn->inflight;
    ++inflight_;
    inflight_snapshot_.store(inflight_);
    publish_gauges();
    maybe_pause();
    server_.dispatch(std::move(request));
  }

  // Answers a shed request from the loop thread. The frame is queued and
  // EPOLLOUT-subscribed rather than written inline: flush_writes() can
  // destroy the connection, and our caller (decode_frames) still holds the
  // pointer. The deferred flush happens on the next epoll iteration.
  void reject(ReactorConn* conn, std::uint64_t request_id,
              const Status& verdict) {
    WireWriter response;
    response.u64(request_id);
    response.u8(static_cast<std::uint8_t>(verdict.code()));
    response.str(verdict.message());
    response.bytes({});
    const Bytes& payload = response.data();
    Bytes frame;
    frame.reserve(4 + payload.size());
    const auto len = static_cast<std::uint32_t>(payload.size());
    frame.insert(frame.end(), reinterpret_cast<const std::uint8_t*>(&len),
                 reinterpret_cast<const std::uint8_t*>(&len) + 4);
    frame.insert(frame.end(), payload.begin(), payload.end());
    conn->wqueue.push_back(std::move(frame));
    if (!conn->want_write) {
      conn->want_write = true;
      update_interest(conn);
    }
  }

  // --- write path ------------------------------------------------------

  void complete(std::uint64_t conn_id, Bytes frame) {
    if (inflight_ > 0) {
      --inflight_;
      inflight_snapshot_.store(inflight_);
      publish_gauges();
      maybe_resume();
    }
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;  // connection died mid-request
    ReactorConn* conn = it->second.get();
    if (conn->inflight > 0) --conn->inflight;
    conn->wqueue.push_back(std::move(frame));
    flush_writes(conn);
  }

  // Returns false if the connection was destroyed.
  bool flush_writes(ReactorConn* conn) {
    while (!conn->wqueue.empty()) {
      const Bytes& front = conn->wqueue.front();
      const ssize_t n = ::write(conn->fd, front.data() + conn->woff,
                                front.size() - conn->woff);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          if (!conn->want_write) {
            conn->want_write = true;
            update_interest(conn);
          }
          return true;  // slow reader: EPOLLOUT resumes us
        }
        destroy(conn);
        return false;
      }
      conn->woff += static_cast<std::size_t>(n);
      if (conn->woff == front.size()) {
        conn->wqueue.pop_front();
        conn->woff = 0;
      }
    }
    if (conn->want_write) {
      conn->want_write = false;
      update_interest(conn);
    }
    if (conn->peer_eof && conn->inflight == 0) {
      destroy(conn);
      return false;
    }
    return true;
  }

  // --- backpressure ----------------------------------------------------

  void maybe_pause() {
    if (paused_ || inflight_ < server_.options_.max_inflight_per_loop) return;
    paused_ = true;
    pauses_.fetch_add(1);
    server_.metrics_.backpressure_pauses->inc();
    for (auto& [id, conn] : conns_) {
      if (conn->reading) {
        conn->reading = false;
        update_interest(conn.get());
      }
    }
  }

  void maybe_resume() {
    if (!paused_ || inflight_ > server_.options_.max_inflight_per_loop / 2) {
      return;
    }
    paused_ = false;
    // Admit frames that were buffered while paused before re-subscribing:
    // those bytes are already off the socket, so no EPOLLIN will ever fire
    // for them. Decoding can re-trip the pause, which stops admission again
    // mid-sweep; connections skipped this round stay unsubscribed.
    std::vector<std::uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) ids.push_back(id);
    for (const std::uint64_t id : ids) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      ReactorConn* conn = it->second.get();
      if (!decode_frames(conn)) {
        destroy(conn);
        continue;
      }
      if (conn->peer_eof && conn->inflight == 0 && conn->wqueue.empty()) {
        destroy(conn);
        continue;
      }
      if (!paused_ && !conn->reading && !conn->peer_eof) {
        conn->reading = true;
        update_interest(conn);
      }
    }
  }

  void publish_gauges() {
    server_.metrics_.connections->set(
        static_cast<double>(server_.tracked_connections()));
    server_.metrics_.inflight->set(static_cast<double>(server_.inflight()));
  }

  ReactorServer& server_;
  const std::size_t index_;
  const std::string name_;  // stable storage for profile_set_thread_name

  int epfd_ = -1;
  int wake_fd_ = -1;
  int listen_fd_ = -1;  // only set on the accepting loop
  std::thread thread_;
  bool running_ = true;  // loop-thread only (mailbox kStop flips it)

  mutable std::mutex mail_mu_;
  std::vector<Mail> mailbox_;

  // Loop-thread-only state.
  std::unordered_map<std::uint64_t, std::unique_ptr<ReactorConn>> conns_;
  std::size_t inflight_ = 0;
  bool paused_ = false;

  // Snapshots for cross-thread accessors.
  std::atomic<std::size_t> conn_count_{0};
  std::atomic<std::size_t> inflight_snapshot_{0};
  std::atomic<std::uint64_t> pauses_{0};
  std::atomic<std::uint64_t> iterations_{0};
};

ReactorServer::ReactorServer(std::uint16_t port, ReactorOptions options)
    : requested_port_(port), options_(options) {
  MetricsRegistry& reg = MetricsRegistry::global();
  metrics_.requests = &reg.counter("tiera_rpc_requests_total");
  metrics_.errors = &reg.counter("tiera_rpc_errors_total");
  metrics_.backpressure_pauses =
      &reg.counter("tiera_rpc_backpressure_pauses_total");
  metrics_.connections = &reg.gauge("tiera_rpc_connections");
  metrics_.inflight = &reg.gauge("tiera_rpc_inflight");
  metrics_.request_latency = &reg.histogram("tiera_rpc_request_latency_ms");
}

ReactorServer::~ReactorServer() { stop(); }

void ReactorServer::register_handler(std::uint8_t method, RpcHandler handler) {
  handlers_[method] = std::move(handler);
}

void ReactorServer::set_shard_key(ShardKeyFn fn) { shard_key_ = std::move(fn); }

void ReactorServer::set_admission(AdmissionFn fn) {
  admission_ = std::move(fn);
}

void ReactorServer::attach_watchdog(Watchdog* watchdog) {
  watchdog_ = watchdog;
}

Status ReactorServer::start() {
  if (running_.load()) return Status::Ok();

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(requested_port_);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status =
        Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 256) != 0) {
    const Status status =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const Status status =
        Status::Internal(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  listen_fd_ = fd;
  bound_port_ = ntohs(bound.sin_port);

  const std::size_t loops =
      options_.loops != 0 ? options_.loops : default_parallelism();
  const std::size_t shards =
      options_.shards != 0 ? options_.shards : default_parallelism();

  shards_.reserve(shards);
  shard_metrics_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    // Single-threaded by design: one shard == one core's FIFO of requests
    // for its slice of the object-id space.
    shards_.push_back(
        std::make_unique<ThreadPool>(1, "rpc-shard-" + std::to_string(i)));
    shard_metrics_.push_back(std::make_unique<PoolMetrics>(*shards_.back()));
  }
  admin_pool_ = std::make_unique<ThreadPool>(2, "rpc-admin");

  loops_.reserve(loops);
  for (std::size_t i = 0; i < loops; ++i) {
    loops_.push_back(std::make_unique<Loop>(*this, i));
  }
  loops_[0]->adopt_listener(listen_fd_);
  running_.store(true);
  for (auto& loop : loops_) loop->start();
  if (watchdog_) {
    for (auto& loop : loops_) {
      Loop* l = loop.get();
      watchdog_ids_.push_back(watchdog_->add_component(
          l->name(), [l] { return l->iterations(); },
          [l] { return l->mailbox_depth(); }));
    }
    for (auto& shard : shards_) {
      ThreadPool* p = shard.get();
      watchdog_ids_.push_back(watchdog_->add_component(
          p->name(), [p] { return p->completed(); },
          [p] { return p->queue_depth(); }));
    }
    // The admin pool legitimately blocks for seconds at a time (profiler
    // captures), so give it a much longer leash.
    ThreadPool* admin = admin_pool_.get();
    watchdog_ids_.push_back(watchdog_->add_component(
        admin->name(), [admin] { return admin->completed(); },
        [admin] { return admin->queue_depth(); },
        /*stall_checks_override=*/60));
  }
  TIERA_LOG(kInfo, "net") << "rpc server listening on port " << bound_port_
                          << " (" << loops << " loops, " << shards
                          << " shards)";
  return Status::Ok();
}

void ReactorServer::stop() {
  if (!running_.exchange(false)) return;
  if (watchdog_) {
    // Unregister before tearing anything down: a probe must never run
    // against a destroyed loop or pool.
    for (const std::uint64_t id : watchdog_ids_) {
      watchdog_->remove_component(id);
    }
    watchdog_ids_.clear();
  }
  // Drain the execution pools first: every already-dispatched request runs
  // to completion and its response mail reaches a still-live loop, so
  // in-flight callers get answers instead of connection resets.
  for (auto& shard : shards_) shard->shutdown();
  if (admin_pool_) admin_pool_->shutdown();
  for (auto& loop : loops_) loop->post_stop();
  // Join every loop before destroying any: a still-running loop publishes
  // gauges by summing across loops_, so the vector must stay intact until
  // all loop threads have exited.
  for (auto& loop : loops_) loop->join();
  loops_.clear();
  shard_metrics_.clear();
  shards_.clear();
  admin_pool_.reset();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

std::uint16_t ReactorServer::port() const {
  return bound_port_ != 0 ? bound_port_ : requested_port_;
}

std::size_t ReactorServer::tracked_connections() const {
  std::size_t total = 0;
  for (const auto& loop : loops_) total += loop->connections();
  return total;
}

std::size_t ReactorServer::inflight() const {
  std::size_t total = 0;
  for (const auto& loop : loops_) total += loop->inflight();
  return total;
}

std::size_t ReactorServer::inflight_capacity() const {
  const std::size_t loops = loops_.empty() ? 1 : loops_.size();
  return loops * options_.max_inflight_per_loop;
}

std::uint64_t ReactorServer::backpressure_pauses() const {
  std::uint64_t total = 0;
  for (const auto& loop : loops_) total += loop->pauses();
  return total;
}

void ReactorServer::dispatch(Request request) {
  const std::uint64_t key = shard_key_
                                ? shard_key_(request.method, as_view(request.body))
                                : request.conn_id;
  ThreadPool* pool = (key == kAdminKey && admin_pool_)
                         ? admin_pool_.get()
                         : shards_[key % shards_.size()].get();
  auto shared = std::make_shared<Request>(std::move(request));
  if (!pool->submit([this, shared] { execute(*shared); })) {
    // Pool is shutting down: the server is stopping and the loops will
    // close this connection anyway. The in-flight count dies with them.
  }
}

void ReactorServer::execute(const Request& request) {
  Stopwatch watch;
  // Publish the caller's tenant for the duration of the handler so the
  // request spans in the flight recorder carry it.
  set_flight_tenant(request.tenant);
  WireWriter response;
  response.u64(request.request_id);
  auto it = handlers_.find(request.method);
  if (it == handlers_.end()) {
    response.u8(static_cast<std::uint8_t>(StatusCode::kInvalidArgument));
    response.str("unknown method");
    response.bytes({});
    metrics_.errors->inc();
  } else {
    Result<Bytes> result = it->second(as_view(request.body));
    if (result.ok()) {
      response.u8(static_cast<std::uint8_t>(StatusCode::kOk));
      response.str("");
      response.bytes(as_view(*result));
    } else {
      response.u8(static_cast<std::uint8_t>(result.status().code()));
      response.str(result.status().message());
      response.bytes({});
      metrics_.errors->inc();
    }
  }
  set_flight_tenant({});
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  metrics_.requests->inc();
  metrics_.request_latency->record(watch.elapsed());

  const Bytes& payload = response.data();
  Bytes frame;
  frame.reserve(4 + payload.size());
  const auto len = static_cast<std::uint32_t>(payload.size());
  frame.insert(frame.end(), reinterpret_cast<const std::uint8_t*>(&len),
               reinterpret_cast<const std::uint8_t*>(&len) + 4);
  frame.insert(frame.end(), payload.begin(), payload.end());
  loops_[request.loop]->post_response(request.conn_id, std::move(frame));
}

}  // namespace tiera
