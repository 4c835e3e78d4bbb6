#include "common/hash.h"

#include <gtest/gtest.h>

namespace tiera {
namespace {

TEST(Fnv1aTest, KnownVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1aTest, DistinguishesInputs) {
  EXPECT_NE(fnv1a64("tier1"), fnv1a64("tier2"));
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  Bytes zeros(32, 0);
  EXPECT_EQ(crc32c(as_view(zeros)), 0x8a9136aau);
  // "123456789" -> 0xe3069283
  EXPECT_EQ(crc32c(as_view(std::string_view("123456789"))), 0xe3069283u);
}

TEST(Crc32cTest, SeedChainingEqualsConcatenation) {
  const Bytes a = to_bytes("hello ");
  const Bytes b = to_bytes("world");
  const Bytes ab = to_bytes("hello world");
  // Incremental CRC over two chunks must equal the CRC of the whole.
  EXPECT_EQ(crc32c(as_view(b), crc32c(as_view(a))), crc32c(as_view(ab)));
}

// crc32c() may take the SSE4.2 path; it must match the table path at every
// length (the 8-byte loop plus each byte tail), every start alignment, and
// when chained through seeds.
TEST(Crc32cTest, HardwarePathEqualsTablePath) {
  const Bytes payload = make_payload(4100 + 8, 3);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 4100; ++len) {
      const ByteView data(payload.data() + start, len);
      ASSERT_EQ(crc32c(data), crc32c_portable(data))
          << "start " << start << " len " << len;
    }
  }
  // Chained seeds: any split of the input gives the whole input's CRC,
  // whichever path computes each piece.
  const ByteView whole(payload.data(), 4100);
  const std::uint32_t expected = crc32c_portable(whole);
  for (std::size_t split : {0u, 1u, 7u, 8u, 9u, 100u, 4095u, 4100u}) {
    const ByteView head = whole.first(split);
    const ByteView tail = whole.subspan(split);
    EXPECT_EQ(crc32c(tail, crc32c(head)), expected) << split;
    EXPECT_EQ(crc32c(tail, crc32c_portable(head)), expected) << split;
    EXPECT_EQ(crc32c_portable(tail, crc32c(head)), expected) << split;
  }
  for (std::uint32_t seed : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(crc32c(whole, seed), crc32c_portable(whole, seed)) << seed;
  }
}

TEST(Sha256Test, KnownVectors) {
  EXPECT_EQ(Sha256::hex_digest(as_view(std::string_view(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256::hex_digest(as_view(std::string_view("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      Sha256::hex_digest(as_view(std::string_view(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const Bytes payload = make_payload(10'000, 7);
  Sha256 h;
  // Feed in awkward chunk sizes spanning block boundaries.
  std::size_t off = 0;
  const std::size_t chunks[] = {1, 63, 64, 65, 127, 1000, 8680};
  for (std::size_t c : chunks) {
    h.update(ByteView(payload.data() + off, c));
    off += c;
  }
  ASSERT_EQ(off, payload.size());
  EXPECT_EQ(h.finish(), Sha256::digest(as_view(payload)));
}

TEST(Sha256Test, ExactBlockBoundaryInput) {
  const Bytes block(64, 0x41);
  const Bytes two_blocks(128, 0x41);
  EXPECT_NE(Sha256::digest(as_view(block)), Sha256::digest(as_view(two_blocks)));
  // 55/56 byte inputs straddle the padding split.
  for (std::size_t n : {55u, 56u, 57u, 63u, 64u, 65u}) {
    Bytes data(n, 0x42);
    Sha256 h;
    h.update(as_view(data));
    EXPECT_EQ(h.finish(), Sha256::digest(as_view(data))) << n;
  }
}

TEST(ToHexTest, Formats) {
  const Bytes data = {0x00, 0x0f, 0xab, 0xff};
  EXPECT_EQ(to_hex(as_view(data)), "000fabff");
}

}  // namespace
}  // namespace tiera
