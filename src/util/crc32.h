// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum guarding
// every checkpoint section against torn writes and bit rot. Table-driven
// (slicing-by-8, byte order independent), incremental: crc32_update lets
// callers fold large payloads in chunks.
#pragma once

#include <cstddef>
#include <cstdint>

namespace a3cs::util {

// Continues a CRC computation. Seed with crc = 0 via crc32() or pass the
// running value returned by a previous call.
std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                           std::size_t len);

// One-shot CRC-32 of a buffer.
inline std::uint32_t crc32(const void* data, std::size_t len) {
  return crc32_update(0, data, len);
}

}  // namespace a3cs::util
