#include "core/crc32.h"

#include <array>

namespace garcia::core {

namespace {

// Slice-by-8 tables: kTables[0] is the classic byte table, and
// kTables[s][i] is the CRC register after byte i is followed by s zero
// bytes, so eight table lookups advance the register by eight bytes at once.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

Crc32Tables MakeTables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t s = 1; s < tables.size(); ++s) {
      const uint32_t prev = tables[s - 1][i];
      tables[s][i] = tables[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return tables;
}

// Four bytes as a little-endian word (one load on little-endian hosts).
inline uint32_t LoadLe32(const unsigned char* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t num_bytes) {
  static const Crc32Tables kTables = MakeTables();
  const auto& t = kTables;
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xffffffffu;
  for (; num_bytes >= 8; num_bytes -= 8, p += 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (size_t i = 0; i < num_bytes; ++i) {
    c = t[0][(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

uint32_t Crc32(const void* data, size_t num_bytes) {
  return Crc32Update(0, data, num_bytes);
}

}  // namespace garcia::core
