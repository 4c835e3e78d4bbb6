// Binary wire format for the RPC layer (Thrift's role in the prototype).
// Little-endian fixed-width integers and length-prefixed byte strings.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace tiera {

class WireWriter {
 public:
  void u8(std::uint8_t v) { buffer_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buffer_.push_back(std::uint8_t(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buffer_.push_back(std::uint8_t(v >> (8 * i)));
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    append(buffer_, s);
  }
  void bytes(ByteView b) {
    u32(static_cast<std::uint32_t>(b.size()));
    append(buffer_, b);
  }

  const Bytes& data() const { return buffer_; }
  Bytes take() { return std::move(buffer_); }

 private:
  Bytes buffer_;
};

class WireReader {
 public:
  explicit WireReader(ByteView data) : p_(data.data()), end_(p_ + data.size()) {}

  Status u8(std::uint8_t& v) {
    if (end_ - p_ < 1) return truncated();
    v = *p_++;
    return Status::Ok();
  }
  Status u32(std::uint32_t& v) {
    if (end_ - p_ < 4) return truncated();
    v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(p_[i]) << (8 * i);
    p_ += 4;
    return Status::Ok();
  }
  Status u64(std::uint64_t& v) {
    if (end_ - p_ < 8) return truncated();
    v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(p_[i]) << (8 * i);
    p_ += 8;
    return Status::Ok();
  }
  Status str(std::string& s) {
    std::uint32_t n = 0;
    TIERA_RETURN_IF_ERROR(u32(n));
    if (end_ - p_ < n) return truncated();
    s.assign(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return Status::Ok();
  }
  Status bytes(Bytes& b) {
    std::uint32_t n = 0;
    TIERA_RETURN_IF_ERROR(u32(n));
    if (end_ - p_ < n) return truncated();
    b.assign(p_, p_ + n);
    p_ += n;
    return Status::Ok();
  }

  bool at_end() const { return p_ == end_; }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

 private:
  static Status truncated() {
    return Status::Corruption("wire: truncated message");
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

}  // namespace tiera
