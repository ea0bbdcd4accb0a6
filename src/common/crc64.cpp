#include "common/crc64.h"

#include <array>
#include <bit>
#include <cstring>

namespace xfa {
namespace {

// Reflected form of the ECMA-182 polynomial 0x42F0E1EBA9EA3693.
constexpr std::uint64_t kPolynomial = 0xC96C5795D7870F42ULL;

using Table = std::array<std::uint64_t, 256>;

// Slicing-by-16 tables, built at compile time. kTables[0] is the classic
// byte-at-a-time table; kTables[k][b] is the CRC contribution of byte b
// followed by k zero bytes, so one step folds 16 input bytes with 16
// independent lookups instead of a 16-long dependency chain.
constexpr std::array<Table, 16> build_tables() {
  std::array<Table, 16> tables{};
  for (std::uint64_t byte = 0; byte < 256; ++byte) {
    std::uint64_t crc = byte;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ (crc & 1 ? kPolynomial : 0);
    tables[0][byte] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k)
    for (std::size_t byte = 0; byte < 256; ++byte) {
      const std::uint64_t prev = tables[k - 1][byte];
      tables[k][byte] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  return tables;
}

constexpr std::array<Table, 16> kTables = build_tables();

// The word loop below reads its input bytes as little-endian words, as
// common/serial.h writes host-order PODs; a big-endian port fails here.
static_assert(std::endian::native == std::endian::little);

// The 8 bytes at `p`, any alignment; memcpy compiles to one load.
std::uint64_t load_word(const unsigned char* p) {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof word);
  return word;
}

// Lookup of byte `i` (0 = least significant) of `word` in kTables[k].
std::uint64_t slice(std::size_t k, std::uint64_t word, int i) {
  return kTables[k][(word >> (8 * i)) & 0xff];
}

}  // namespace

std::uint64_t crc64(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t crc = ~seed;
  for (; size >= 16; size -= 16, bytes += 16) {
    const std::uint64_t lo = load_word(bytes) ^ crc;
    const std::uint64_t hi = load_word(bytes + 8);
    crc = slice(15, lo, 0) ^ slice(14, lo, 1) ^ slice(13, lo, 2) ^
          slice(12, lo, 3) ^ slice(11, lo, 4) ^ slice(10, lo, 5) ^
          slice(9, lo, 6) ^ slice(8, lo, 7) ^ slice(7, hi, 0) ^
          slice(6, hi, 1) ^ slice(5, hi, 2) ^ slice(4, hi, 3) ^
          slice(3, hi, 4) ^ slice(2, hi, 5) ^ slice(1, hi, 6) ^
          slice(0, hi, 7);
  }
  for (; size > 0; --size, ++bytes)
    crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes) & 0xff];
  return ~crc;
}

}  // namespace xfa
