#include "net/rpc.h"

namespace tiera {

Result<std::unique_ptr<RpcClient>> RpcClient::connect(const std::string& host,
                                                      std::uint16_t port) {
  auto conn = TcpConnection::connect(host, port);
  if (!conn.ok()) return conn.status();
  return std::unique_ptr<RpcClient>(new RpcClient(std::move(conn).value()));
}

void RpcClient::set_tenant(std::string tenant) {
  std::lock_guard lock(mu_);
  tenant_ = std::move(tenant);
}

void RpcClient::set_background(bool background) {
  std::lock_guard lock(mu_);
  background_ = background;
}

Result<Bytes> RpcClient::call(std::uint8_t method, ByteView body) {
  std::lock_guard lock(mu_);
  WireWriter request;
  const std::uint64_t id = next_id_++;
  request.u64(id);
  std::uint8_t wire_method = method & kRpcMethodMask;
  if (!tenant_.empty()) wire_method |= kRpcTenantFlag;
  if (background_) wire_method |= kRpcBackgroundFlag;
  request.u8(wire_method);
  if (!tenant_.empty()) request.str(tenant_);
  Bytes frame = request.take();
  append(frame, body);
  TIERA_RETURN_IF_ERROR(conn_->send_frame(as_view(frame)));
  Result<Bytes> reply = conn_->recv_frame();
  if (!reply.ok()) return reply.status();
  WireReader reader(as_view(*reply));
  std::uint64_t reply_id = 0;
  std::uint8_t code = 0;
  std::string message;
  Bytes payload;
  TIERA_RETURN_IF_ERROR(reader.u64(reply_id));
  TIERA_RETURN_IF_ERROR(reader.u8(code));
  TIERA_RETURN_IF_ERROR(reader.str(message));
  TIERA_RETURN_IF_ERROR(reader.bytes(payload));
  if (reply_id != id) return Status::Internal("rpc response id mismatch");
  if (code != static_cast<std::uint8_t>(StatusCode::kOk)) {
    return Status(static_cast<StatusCode>(code), std::move(message));
  }
  return payload;
}

}  // namespace tiera
