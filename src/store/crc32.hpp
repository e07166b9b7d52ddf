#pragma once

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the per-chunk and
// footer checksum of the SSDF2 columnar store (docs/DATA_FORMAT.md).
//
// zlib-style chaining: crc32(crc32(0, a), b) == crc32(0, a ++ b), so the
// writer can checksum header + footer without concatenating buffers.
// CRC-32 detects every single-bit error and every burst shorter than 32
// bits, which is exactly the tripwire the fuzz suite leans on
// (tests/trace/test_binary_io_fuzz.cpp).
//
// On x86-64 hosts with PCLMULQDQ, spans of 64 bytes or more are folded
// with carry-less multiplies; everything else goes through a slicing-by-8
// table.  Both produce the same values.

#include <cstdint>
#include <span>

namespace ssdfail::store {

/// Continue a CRC-32 over `bytes`; pass the previous return value to
/// chain, or 0 to start.
[[nodiscard]] std::uint32_t crc32(std::uint32_t crc, std::span<const char> bytes) noexcept;

namespace detail {

/// crc32 through the table path only, whatever the host supports: the
/// oracle the folding path is tested against.
[[nodiscard]] std::uint32_t crc32_table(std::uint32_t crc,
                                        std::span<const char> bytes) noexcept;

}  // namespace detail

}  // namespace ssdfail::store
