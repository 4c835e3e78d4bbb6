// Hashing: FNV-1a (fast fingerprints, shard selection), CRC32C (record
// checksums in the append-only logs), and SHA-256 (content addressing for the
// storeOnce dedup response).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.h"

namespace tiera {

std::uint64_t fnv1a64(ByteView data);
inline std::uint64_t fnv1a64(std::string_view s) { return fnv1a64(as_view(s)); }

// CRC32C (Castagnoli). Uses the SSE4.2 instruction when the CPU has it,
// else the byte-at-a-time table; both give the same values.
std::uint32_t crc32c(ByteView data, std::uint32_t seed = 0);
// The table path, exposed so tests can check that the two agree.
std::uint32_t crc32c_portable(ByteView data, std::uint32_t seed = 0);

using Sha256Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256();
  void update(ByteView data);
  Sha256Digest finish();

  static Sha256Digest digest(ByteView data);
  static std::string hex_digest(ByteView data);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_ = 0;
};

std::string to_hex(ByteView data);

}  // namespace tiera
