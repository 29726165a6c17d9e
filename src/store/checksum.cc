#include "store/checksum.h"

#include <array>

namespace pivotscale {

namespace {

// Reflected ECMA-182 polynomial (CRC-64/XZ).
constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ull;

using Tables = std::array<std::array<std::uint64_t, 256>, 8>;

// Slicing-by-8 tables: tables[0] is the classic byte-at-a-time table, and
// tables[j][i] is the CRC state after byte i is followed by j zero bytes,
// so eight table lookups fold in eight input bytes at once.
constexpr Tables BuildTables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    tables[0][i] = crc;
  }
  for (std::size_t j = 1; j < tables.size(); ++j)
    for (std::size_t i = 0; i < 256; ++i)
      tables[j][i] = (tables[j - 1][i] >> 8) ^
                     tables[0][tables[j - 1][i] & 0xFF];
  return tables;
}

constexpr Tables kTables = BuildTables();

// Little-endian word load from an arbitrarily aligned pointer; compilers
// turn this into one unaligned load on little-endian targets.
std::uint64_t LoadLe64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

std::uint64_t Crc64Init() { return ~0ull; }

std::uint64_t Crc64Update(std::uint64_t state, const void* bytes,
                          std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (; size >= 8; p += 8, size -= 8) {
    state ^= LoadLe64(p);
    state = kTables[7][state & 0xFF] ^ kTables[6][(state >> 8) & 0xFF] ^
            kTables[5][(state >> 16) & 0xFF] ^
            kTables[4][(state >> 24) & 0xFF] ^
            kTables[3][(state >> 32) & 0xFF] ^
            kTables[2][(state >> 40) & 0xFF] ^
            kTables[1][(state >> 48) & 0xFF] ^ kTables[0][state >> 56];
  }
  for (; size > 0; ++p, --size)
    state = (state >> 8) ^ kTables[0][(state ^ *p) & 0xFF];
  return state;
}

std::uint64_t Crc64Final(std::uint64_t state) { return ~state; }

std::uint64_t Crc64(const void* bytes, std::size_t size) {
  return Crc64Final(Crc64Update(Crc64Init(), bytes, size));
}

}  // namespace pivotscale
