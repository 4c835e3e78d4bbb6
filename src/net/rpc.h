// Generic request/response RPC over the framed TCP transport.
//
// Request frame : u64 request_id | u8 method | body
// Response frame: u64 request_id | u8 status  | string message | body
//
// The server side is the epoll reactor in net/reactor.h (ReactorServer): N
// event loops own the sockets and per-core shard workers run the handlers.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "net/reactor.h"
#include "net/tcp.h"
#include "net/wire.h"

namespace tiera {

// Blocking client: one connection, serialized calls (thread-safe).
class RpcClient {
 public:
  static Result<std::unique_ptr<RpcClient>> connect(const std::string& host,
                                                    std::uint16_t port);

  // Issues a call; returns the response body, or the error status the
  // handler produced.
  Result<Bytes> call(std::uint8_t method, ByteView body);

  // Request-header fields applied to every subsequent call. A non-empty
  // tenant rides in front of the body (kRpcTenantFlag); background marks
  // calls as shed-first priority (kRpcBackgroundFlag). Both default off, so
  // existing callers emit byte-identical frames.
  void set_tenant(std::string tenant);
  void set_background(bool background);

 private:
  explicit RpcClient(std::unique_ptr<TcpConnection> conn)
      : conn_(std::move(conn)) {}

  std::mutex mu_;
  std::unique_ptr<TcpConnection> conn_;
  std::uint64_t next_id_ = 1;
  std::string tenant_;
  bool background_ = false;
};

}  // namespace tiera
