// CRC-64/XZ kernel: the slicing-by-16 loop must equal the bit-at-a-time
// definition for every length, start offset and seed, so the checksum of
// every stored XFATRC3/XFAMDL1 artifact stays what it was.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/crc64.h"
#include "sim/rng.h"

namespace xfa {
namespace {

// The CRC-64/XZ definition, one polynomial step per input bit.
std::uint64_t crc64_bitwise(const unsigned char* bytes, std::size_t size,
                            std::uint64_t seed) {
  constexpr std::uint64_t kPolynomial = 0xC96C5795D7870F42ULL;
  std::uint64_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ (crc & 1 ? kPolynomial : 0);
  }
  return ~crc;
}

std::vector<unsigned char> random_bytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(size);
  for (auto& byte : bytes) byte = static_cast<unsigned char>(rng() >> 56);
  return bytes;
}

TEST(Crc64, CheckValue) {
  constexpr std::string_view kCheck = "123456789";
  EXPECT_EQ(crc64(kCheck.data(), kCheck.size()), 0x995DC9BBDF1939FAULL);
  EXPECT_EQ(crc64(kCheck.data(), 0), 0u);
}

// Lengths 0–300 cover no 16-byte step, one step plus every tail, and many
// steps; the 16 start offsets put the word loads at every misalignment.
TEST(Crc64, MatchesBitwiseReference) {
  const std::vector<unsigned char> buffer = random_bytes(16 + 300, 7);
  Rng rng(11);
  const std::uint64_t seeds[] = {0, ~0ULL, rng(), rng()};
  for (const std::uint64_t seed : seeds)
    for (std::size_t offset = 0; offset < 16; ++offset)
      for (std::size_t size = 0; size <= 300; ++size) {
        const unsigned char* start = buffer.data() + offset;
        ASSERT_EQ(crc64(start, size, seed), crc64_bitwise(start, size, seed))
            << "seed " << seed << " offset " << offset << " size " << size;
      }
}

TEST(Crc64, ChainsAtEverySplit) {
  const std::vector<unsigned char> buffer = random_bytes(1024, 13);
  const std::uint64_t whole = crc64(buffer.data(), buffer.size());
  EXPECT_EQ(whole, crc64_bitwise(buffer.data(), buffer.size(), 0));
  for (std::size_t split = 0; split <= buffer.size(); ++split) {
    const std::uint64_t head = crc64(buffer.data(), split);
    ASSERT_EQ(crc64(buffer.data() + split, buffer.size() - split, head), whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace xfa
