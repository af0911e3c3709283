// CRC-32 (binio::crc32): the slicing-by-8 implementation must agree with the
// bytewise reference on every length, alignment and chaining seed, since
// TITB files written by either are read by both.
#include "base/binio.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "base/rng.hpp"

namespace tir::binio {
namespace {

/// The textbook bytewise CRC-32 (reflected polynomial 0xEDB88320).
std::uint32_t reference_crc32(const std::uint8_t* p, std::size_t size, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, CheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(crc32(check, std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceOnRandomLengthsAndAlignments) {
  rng::Sequence rand(20121112);
  std::vector<std::uint8_t> buf(4096 + 16);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rand.next_u64());
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t len = rand.next_u64() % 4097;           // 0..4096 bytes
    const std::size_t offset = rand.next_u64() % 16;          // misaligned starts
    const auto seed = static_cast<std::uint32_t>(rand.next_u64());
    const std::uint8_t* p = buf.data() + offset;
    ASSERT_EQ(crc32(p, len), reference_crc32(p, len, 0)) << "len " << len << " off " << offset;
    ASSERT_EQ(crc32(p, len, seed), reference_crc32(p, len, seed))
        << "len " << len << " off " << offset << " seed " << seed;
  }
}

TEST(Crc32, ChainedSeedsEqualOneShot) {
  rng::Sequence rand(7);
  std::vector<std::uint8_t> buf(3000);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rand.next_u64());
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t cut = rand.next_u64() % (buf.size() + 1);
    const std::uint32_t head = crc32(buf.data(), cut);
    EXPECT_EQ(crc32(buf.data() + cut, buf.size() - cut, head), whole) << "cut " << cut;
  }
}

}  // namespace
}  // namespace tir::binio
