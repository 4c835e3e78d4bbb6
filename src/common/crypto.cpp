#include "common/crypto.h"

#include <cstring>

#include "common/hash.h"
#include "common/random.h"

namespace tiera {

namespace {

constexpr std::uint8_t kMagic[4] = {'T', 'E', 'N', '1'};
constexpr std::size_t kNonceSize = 12;
constexpr std::size_t kTagSize = 16;
constexpr std::size_t kHeaderSize = 4 + kNonceSize;

inline std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

void chacha_block(const ChaChaKey& key, const std::uint8_t nonce[kNonceSize],
                  std::uint32_t counter, std::uint8_t out[64]) {
  std::uint32_t state[16];
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) {
    std::memcpy(&state[4 + i], key.data() + i * 4, 4);
  }
  state[12] = counter;
  std::memcpy(&state[13], nonce, 4);
  std::memcpy(&state[14], nonce + 4, 4);
  std::memcpy(&state[15], nonce + 8, 4);

  std::uint32_t x[16];
  std::memcpy(x, state, sizeof(x));
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    x[i] += state[i];
    std::memcpy(out + i * 4, &x[i], 4);
  }
}

void xor_stream(std::uint8_t* data, std::size_t len, const ChaChaKey& key,
                const std::uint8_t nonce[kNonceSize]) {
  std::uint8_t block[64];
  std::uint32_t counter = 1;  // counter 0 reserved for the tag key
  for (std::size_t off = 0; off < len; off += 64, ++counter) {
    chacha_block(key, nonce, counter, block);
    const std::size_t chunk = std::min<std::size_t>(64, len - off);
    for (std::size_t i = 0; i < chunk; ++i) data[off + i] ^= block[i];
  }
}

// Keyed tag: SHA-256(block0-key || nonce || ciphertext), truncated. Not a
// formal MAC construction, but sufficient integrity for a storage middleware
// reproduction (detects wrong key and bit rot).
std::array<std::uint8_t, kTagSize> compute_tag(const ChaChaKey& key,
                                               const std::uint8_t* nonce,
                                               ByteView cipher) {
  std::uint8_t block0[64];
  chacha_block(key, nonce, 0, block0);
  Sha256 h;
  h.update(ByteView(block0, 32));
  h.update(ByteView(nonce, kNonceSize));
  h.update(cipher);
  const Sha256Digest d = h.finish();
  std::array<std::uint8_t, kTagSize> tag;
  std::memcpy(tag.data(), d.data(), kTagSize);
  return tag;
}

}  // namespace

ChaChaKey derive_key(std::string_view passphrase) {
  const Sha256Digest d = Sha256::digest(as_view(passphrase));
  ChaChaKey key;
  std::memcpy(key.data(), d.data(), key.size());
  return key;
}

bool chacha_is_encrypted(ByteView data) {
  return data.size() >= kHeaderSize + kTagSize &&
         std::memcmp(data.data(), kMagic, 4) == 0;
}

Bytes chacha_encrypt(ByteView plain, const ChaChaKey& key,
                     std::uint64_t nonce_seed) {
  std::uint8_t nonce[kNonceSize];
  const std::uint64_t a = mix64(nonce_seed);
  const std::uint64_t b = mix64(a ^ 0xA5A5A5A5A5A5A5A5ull);
  std::memcpy(nonce, &a, 8);
  std::memcpy(nonce + 8, &b, 4);

  // magic | nonce | ciphertext | tag.
  Bytes out(kHeaderSize);
  std::memcpy(out.data(), kMagic, 4);
  std::memcpy(out.data() + 4, nonce, kNonceSize);
  out.reserve(kHeaderSize + plain.size() + kTagSize);
  append(out, plain);
  std::uint8_t* cipher = out.data() + kHeaderSize;
  xor_stream(cipher, plain.size(), key, nonce);
  const auto tag = compute_tag(key, nonce, ByteView(cipher, plain.size()));
  append(out, ByteView(tag.data(), tag.size()));
  return out;
}

Result<Bytes> chacha_decrypt(ByteView framed, const ChaChaKey& key) {
  if (!chacha_is_encrypted(framed)) {
    return Status::Corruption("encrypt: bad frame");
  }
  const std::uint8_t* nonce = framed.data() + 4;
  const std::size_t cipher_len = framed.size() - kHeaderSize - kTagSize;
  ByteView cipher(framed.data() + kHeaderSize, cipher_len);
  const auto tag = compute_tag(key, nonce, cipher);
  if (std::memcmp(tag.data(), framed.data() + kHeaderSize + cipher_len,
                  kTagSize) != 0) {
    return Status::Corruption("encrypt: tag mismatch (wrong key?)");
  }
  Bytes plain(cipher.begin(), cipher.end());
  xor_stream(plain.data(), plain.size(), key, nonce);
  return plain;
}

}  // namespace tiera
