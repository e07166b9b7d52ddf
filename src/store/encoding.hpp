#pragma once

// SSDF2 v3 lightweight column codecs (docs/DATA_FORMAT.md §v3).
//
// Four encodings, no external dependencies, all operating on a column of
// fixed-width little-endian integers (the encoder takes them widened to
// u64, the decoder writes them at their own type T):
//
//   kRaw          — the v2 layout: n elements, sizeof(T) bytes each.
//   kDeltaPack    — zigzag(v[i] - v[i-1]) (v[-1] = 0), block-bitpacked.
//                   The win for monotone cumulative columns (day,
//                   pe_cycles, bad_blocks, error totals): deltas are tiny
//                   and constant runs pack to width 0.
//   kBitPack      — values block-bitpacked directly (width = bits of the
//                   block max).  The win for noisy daily counters whose
//                   values are far below the type's range.
//   kRle          — (u32 run_length, value) pairs.  The win for
//                   status/flag columns that hold one value for weeks.
//
// Block bitpacking (kDeltaPack / kBitPack payloads): values are split
// into blocks of 128; each block stores `u8 width` (0..64) followed by
// ceil(count * width / 8) bytes, bits packed LSB-first.  A width-0 block
// is one byte for 128 zero values.
//
// The writer sizes all four encodings exactly in one statistics pass over
// the column (per-block OR of the values and of the zigzag deltas, the
// run count) and encodes only the winner (encode_column).  The reader
// dispatches on the stored encoding id and decodes straight into the
// typed column (decode_column<T>): bounds-checked reads, a range check
// per block where the block width proves every value fits T and per
// value otherwise — a corrupt payload raises std::runtime_error, never
// undefined behavior (the chunk CRC catches corruption first in the
// default configuration; these checks hold even with verification
// disabled).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ssdfail::store {

enum class ColumnEncoding : std::uint32_t {
  kRaw = 0,
  kDeltaPack = 1,
  kBitPack = 2,
  kRle = 3,
};

/// Values per bitpacked block (kDeltaPack / kBitPack).
inline constexpr std::size_t kPackBlock = 128;

/// One encoded column: the chosen encoding plus its payload bytes.
struct EncodedColumn {
  ColumnEncoding encoding = ColumnEncoding::kRaw;
  std::vector<char> payload;
};

/// Encode `values` (elements already widened to u64; `elem_bytes` is the
/// on-disk element size: 1, 2, or 4) with the smallest encoding.  One
/// pass sizes every encoding exactly; only the winner's payload is built.
/// Ties go to the earliest of raw, delta+bitpack, bitpack, RLE.  Signed
/// columns (i32 day/swap_day) must be widened with sign extension; the
/// codec is value-preserving either way.
[[nodiscard]] EncodedColumn encode_column(std::span<const std::uint64_t> values,
                                          std::size_t elem_bytes);

/// Decode `payload` into exactly `n` values of the column type T at `out`
/// (instantiated for std::uint8_t, std::uint16_t, std::uint32_t and
/// std::int32_t; elements are sizeof(T) bytes on disk, and signed values
/// were widened with sign extension by encode_column's caller).  Throws
/// std::runtime_error on any structural defect: truncated payload,
/// trailing unread bytes, width > 64, a zero run or runs overrunning n,
/// a decoded value outside T's range, or an unknown encoding.  On a throw
/// `out` holds a partial column.
template <typename T>
void decode_column(ColumnEncoding encoding, std::span<const char> payload,
                   std::size_t n, T* out);

/// Human-readable encoding name (bench/CLI reporting).
[[nodiscard]] const char* encoding_name(ColumnEncoding e) noexcept;

}  // namespace ssdfail::store
