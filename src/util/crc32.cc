#include "src/util/crc32.h"

#include <array>

namespace pass {
namespace {

using Table = std::array<uint32_t, 256>;

// Slicing-by-8 tables: kTables[0] is the reflected byte table of
// polynomial 0xedb88320; kTables[k][b] is the CRC of byte b followed by k
// zero bytes, so eight table lookups advance the CRC over eight bytes.
constexpr std::array<Table, 8> BuildTables() {
  std::array<Table, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xff] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr std::array<Table, 8> kTables = BuildTables();

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = seed ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = LoadLe32(p) ^ crc;
    uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
          kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
          kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace pass
