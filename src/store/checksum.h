// CRC64 payload checksum for store artifacts.
//
// The .psx store format trails every file with a CRC64 of the preceding
// bytes. A CRC (unlike a plain hash mix) provably detects every single-bit
// error and every burst error shorter than the polynomial width, which is
// exactly the failure mode of a torn or bit-rotted artifact on disk.
// Polynomial: ECMA-182 (the xz/CRC-64 polynomial), bit-reflected, with
// initial value and final xor of all-ones. Computed slicing-by-8 (eight
// bytes per step through eight lookup tables) in portable C++, bit-identical
// to the byte-at-a-time definition.
#ifndef PIVOTSCALE_STORE_CHECKSUM_H_
#define PIVOTSCALE_STORE_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace pivotscale {

// CRC64/XZ of `bytes[0, size)`. Deterministic across platforms.
std::uint64_t Crc64(const void* bytes, std::size_t size);

// Incremental form: feed chunks with the previous return value as `state`;
// start from Crc64Init() and finish with Crc64Final(state).
std::uint64_t Crc64Init();
std::uint64_t Crc64Update(std::uint64_t state, const void* bytes,
                          std::size_t size);
std::uint64_t Crc64Final(std::uint64_t state);

}  // namespace pivotscale

#endif  // PIVOTSCALE_STORE_CHECKSUM_H_
