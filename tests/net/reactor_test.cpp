// The epoll reactor under hostile timing: partial frames, slow readers,
// mid-request disconnects, backpressure, and shutdown with work in flight.
#include "net/reactor.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "net/rpc.h"
#include "net/wire.h"
#include "test_util.h"

namespace tiera {
namespace {

// A raw client socket, so tests control exactly which bytes hit the wire
// and when (RpcClient always writes whole frames).
class RawClient {
 public:
  explicit RawClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  void send_bytes(ByteView data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, 0);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  // Reads one [u32 len][payload] frame.
  Bytes recv_frame() {
    std::uint8_t header[4];
    recv_exact(header, 4);
    std::uint32_t len;
    std::memcpy(&len, header, 4);
    Bytes payload(len);
    recv_exact(payload.data(), len);
    return payload;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  void recv_exact(std::uint8_t* out, std::size_t len) {
    std::size_t done = 0;
    while (done < len) {
      const ssize_t n = ::recv(fd_, out + done, len - done, 0);
      ASSERT_GT(n, 0);
      done += static_cast<std::size_t>(n);
    }
  }

  int fd_ = -1;
};

Bytes frame_request(std::uint64_t id, std::uint8_t method, ByteView body) {
  WireWriter w;
  w.u64(id);
  w.u8(method);
  Bytes payload = w.take();
  append(payload, body);
  const auto len = static_cast<std::uint32_t>(payload.size());
  Bytes frame(4 + payload.size());
  std::memcpy(frame.data(), &len, 4);
  std::memcpy(frame.data() + 4, payload.data(), payload.size());
  return frame;
}

struct DecodedResponse {
  std::uint64_t id;
  std::uint8_t status;
  Bytes body;
};

DecodedResponse decode_response(const Bytes& payload) {
  DecodedResponse out{};
  WireReader r(as_view(payload));
  std::string message;
  EXPECT_TRUE(r.u64(out.id).ok());
  EXPECT_TRUE(r.u8(out.status).ok());
  EXPECT_TRUE(r.str(message).ok());
  EXPECT_TRUE(r.bytes(out.body).ok());
  return out;
}

RpcHandler echo_handler() {
  return [](ByteView body) -> Result<Bytes> {
    return Bytes(body.begin(), body.end());
  };
}

TEST(ReactorTest, PartialFramesDecodeAcrossArbitrarySplits) {
  ReactorOptions options;
  options.loops = 1;
  options.shards = 2;
  ReactorServer server(0, options);
  server.register_handler(1, echo_handler());
  ASSERT_TRUE(server.start().ok());

  RawClient client(server.port());
  ASSERT_TRUE(client.ok());

  // Three pipelined requests, concatenated, then dribbled in 3-byte chunks
  // with pauses: the per-connection decode state machine must reassemble
  // every frame no matter where the splits land.
  Bytes stream;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const Bytes body = make_payload(100 + id * 17, id);
    const Bytes frame = frame_request(id, 1, as_view(body));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  for (std::size_t off = 0; off < stream.size(); off += 3) {
    const std::size_t n = std::min<std::size_t>(3, stream.size() - off);
    client.send_bytes(ByteView(stream.data() + off, n));
    if (off % 30 == 0) std::this_thread::sleep_for(from_ms(1));
  }

  for (std::uint64_t id = 1; id <= 3; ++id) {
    const DecodedResponse resp = decode_response(client.recv_frame());
    EXPECT_EQ(resp.id, id);
    EXPECT_EQ(resp.status, static_cast<std::uint8_t>(StatusCode::kOk));
    EXPECT_EQ(resp.body, make_payload(100 + id * 17, id));
  }
  server.stop();
}

TEST(ReactorTest, SlowReaderDrainsViaEpollout) {
  ReactorOptions options;
  options.loops = 1;
  options.shards = 1;
  ReactorServer server(0, options);
  // 4 MB response: far beyond any socket buffer, so the loop's first write
  // hits EAGAIN and the rest must drain through EPOLLOUT retries while the
  // client reads at its leisure.
  const Bytes big = make_payload(4 << 20, 42);
  server.register_handler(1, [&big](ByteView) -> Result<Bytes> {
    return big;
  });
  ASSERT_TRUE(server.start().ok());

  RawClient client(server.port());
  ASSERT_TRUE(client.ok());
  client.send_bytes(as_view(frame_request(7, 1, {})));
  std::this_thread::sleep_for(from_ms(50));  // let the server wedge on write
  const DecodedResponse resp = decode_response(client.recv_frame());
  EXPECT_EQ(resp.id, 7u);
  EXPECT_EQ(resp.body, big);
  server.stop();
}

TEST(ReactorTest, MidRequestDisconnectIsSurvived) {
  ReactorOptions options;
  options.loops = 1;
  options.shards = 1;
  ReactorServer server(0, options);
  std::atomic<int> calls{0};
  server.register_handler(1, [&calls](ByteView) -> Result<Bytes> {
    calls.fetch_add(1);
    std::this_thread::sleep_for(from_ms(30));
    return Bytes{};
  });
  ASSERT_TRUE(server.start().ok());

  for (int round = 0; round < 5; ++round) {
    RawClient client(server.port());
    ASSERT_TRUE(client.ok());
    client.send_bytes(as_view(frame_request(1, 1, {})));
    client.close();  // gone before the handler finishes
  }

  // The dead connections' responses hit closed sockets; the server must
  // keep serving live clients afterwards.
  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->call(1, {}).ok());
  EXPECT_GE(calls.load(), 1);

  // And every reaped connection is gone from the tracked set.
  std::size_t tracked = server.tracked_connections();
  for (int attempt = 0; attempt < 200 && tracked > 1; ++attempt) {
    std::this_thread::sleep_for(from_ms(5));
    tracked = server.tracked_connections();
  }
  EXPECT_LE(tracked, 1u);
  server.stop();
}

TEST(ReactorTest, StopWithRequestsInFlightCompletesThem) {
  ReactorOptions options;
  options.loops = 2;
  options.shards = 2;
  ReactorServer server(0, options);
  std::atomic<int> finished{0};
  server.register_handler(1, [&finished](ByteView) -> Result<Bytes> {
    std::this_thread::sleep_for(from_ms(50));
    finished.fetch_add(1);
    return Bytes{};
  });
  ASSERT_TRUE(server.start().ok());

  RawClient client(server.port());
  ASSERT_TRUE(client.ok());
  for (std::uint64_t id = 1; id <= 4; ++id) {
    client.send_bytes(as_view(frame_request(id, 1, {})));
  }
  std::this_thread::sleep_for(from_ms(10));  // let the loop dispatch them
  // stop() drains the shard pools before the loops die, so every dispatched
  // handler runs to completion — no half-executed requests.
  server.stop();
  EXPECT_EQ(finished.load(), 4);
}

TEST(ReactorTest, BackpressurePausesAndResumesReads) {
  ReactorOptions options;
  options.loops = 1;
  options.shards = 1;
  options.max_inflight_per_loop = 4;
  ReactorServer server(0, options);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  server.register_handler(1, [&](ByteView) -> Result<Bytes> {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return release; });
    return Bytes{};
  });
  ASSERT_TRUE(server.start().ok());

  RawClient client(server.port());
  ASSERT_TRUE(client.ok());
  const int kRequests = 32;
  Bytes stream;
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    const Bytes frame = frame_request(id, 1, {});
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  client.send_bytes(as_view(stream));

  // The loop decodes until the cap, pauses EPOLLIN, and stops decoding —
  // in-flight must level off at the cap instead of swallowing all 32.
  std::uint64_t pauses = 0;
  for (int attempt = 0; attempt < 500 && pauses == 0; ++attempt) {
    std::this_thread::sleep_for(from_ms(2));
    pauses = server.backpressure_pauses();
  }
  EXPECT_GE(pauses, 1u);
  EXPECT_LE(server.inflight(), options.max_inflight_per_loop);

  {
    std::lock_guard lock(mu);
    release = true;
  }
  cv.notify_all();

  // Once the handlers drain, reads resume and every response arrives.
  for (int i = 0; i < kRequests; ++i) {
    const DecodedResponse resp = decode_response(client.recv_frame());
    EXPECT_EQ(resp.status, static_cast<std::uint8_t>(StatusCode::kOk));
  }
  EXPECT_EQ(server.inflight(), 0u);
  server.stop();
}

TEST(ReactorTest, RequestsShardByKey) {
  ReactorOptions options;
  options.loops = 1;
  options.shards = 4;
  ReactorServer server(0, options);
  // Shard key = first body byte; record which thread ran each key.
  server.set_shard_key([](std::uint8_t, ByteView body) -> std::uint64_t {
    return body.empty() ? 0 : body[0];
  });
  std::mutex mu;
  std::map<std::uint8_t, std::set<std::thread::id>> threads_by_key;
  server.register_handler(1, [&](ByteView body) -> Result<Bytes> {
    std::lock_guard lock(mu);
    threads_by_key[body.empty() ? 0 : body[0]].insert(
        std::this_thread::get_id());
    return Bytes{};
  });
  ASSERT_TRUE(server.start().ok());

  auto client = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  for (int round = 0; round < 10; ++round) {
    for (std::uint8_t key = 0; key < 8; ++key) {
      const Bytes body{key};
      ASSERT_TRUE((*client)->call(1, as_view(body)).ok());
    }
  }
  // Same key -> same single-threaded shard, every time.
  std::lock_guard lock(mu);
  for (const auto& [key, threads] : threads_by_key) {
    EXPECT_EQ(threads.size(), 1u) << "key " << int(key);
  }
  server.stop();
}

TEST(ReactorTest, OversizedFrameClosesConnection) {
  ReactorOptions options;
  options.loops = 1;
  options.shards = 1;
  ReactorServer server(0, options);
  server.register_handler(1, echo_handler());
  ASSERT_TRUE(server.start().ok());

  RawClient client(server.port());
  ASSERT_TRUE(client.ok());
  // A length prefix past kMaxFrame is a protocol violation: the server
  // drops the connection instead of buffering 4 GB.
  const std::uint32_t huge = TcpConnection::kMaxFrame + 1;
  std::uint8_t header[4];
  std::memcpy(header, &huge, 4);
  client.send_bytes(ByteView(header, 4));
  std::size_t tracked = server.tracked_connections();
  for (int attempt = 0; attempt < 200 && tracked != 0; ++attempt) {
    std::this_thread::sleep_for(from_ms(5));
    tracked = server.tracked_connections();
  }
  EXPECT_EQ(tracked, 0u);

  // And well-formed clients still get service.
  auto good = RpcClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE((*good)->call(1, {}).ok());
  server.stop();
}

}  // namespace
}  // namespace tiera
