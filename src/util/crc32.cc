#include "util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace bbsmine {
namespace {

constexpr uint32_t kPolynomial = 0xedb88320u;  // reflected IEEE 802.3

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// Slicing-by-8 tables: tables[0] is the classic bytewise table, and
// tables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups fold eight input bytes at once.
Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolynomial : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  static const Tables kTables = BuildTables();
  const auto& t = kTables;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  if constexpr (std::endian::native == std::endian::little) {
    for (; len >= 8; len -= 8, p += 8) {
      uint64_t word;
      std::memcpy(&word, p, sizeof(word));
      word ^= crc;
      crc = t[7][word & 0xffu] ^ t[6][(word >> 8) & 0xffu] ^
            t[5][(word >> 16) & 0xffu] ^ t[4][(word >> 24) & 0xffu] ^
            t[3][(word >> 32) & 0xffu] ^ t[2][(word >> 40) & 0xffu] ^
            t[1][(word >> 48) & 0xffu] ^ t[0][word >> 56];
    }
  }
  for (; len > 0; --len, ++p) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xffu];
  }
  return ~crc;
}

}  // namespace bbsmine
