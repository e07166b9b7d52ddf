#include "store/encoding.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "io/bytes.hpp"

namespace ssdfail::store {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("column codec: " + what);
}

[[nodiscard]] std::uint64_t zigzag_encode(std::int64_t d) noexcept {
  return (static_cast<std::uint64_t>(d) << 1) ^ static_cast<std::uint64_t>(d >> 63);
}

[[nodiscard]] std::uint64_t zigzag_decode(std::uint64_t z) noexcept {
  return (z >> 1) ^ (0ull - (z & 1));
}

/// zigzag(v - prev) with the subtraction wrapping mod 2^64.
[[nodiscard]] std::uint64_t zigzag_delta(std::uint64_t v, std::uint64_t prev) noexcept {
  return zigzag_encode(static_cast<std::int64_t>(v - prev));
}

[[nodiscard]] unsigned bit_width_of(std::uint64_t v) noexcept {
  return static_cast<unsigned>(std::bit_width(v));
}

/// One bitpacked block: the width byte plus ceil(count * width / 8) bytes.
[[nodiscard]] std::size_t block_bytes(std::size_t count, unsigned width) noexcept {
  return 1 + (count * width + 7) / 8;
}

constexpr const char* kTruncated = "column codec: truncated column payload";
constexpr std::uint32_t kMaxRun = std::numeric_limits<std::uint32_t>::max();

/// Pack `count` values of at most `width` bits at `dst`, LSB-first, value
/// i at bit range [i*width, (i+1)*width) of the block's bit stream.  A
/// 64-bit accumulator is stored a word at a time; the tail stores
/// ceil(bits / 8) bytes, so exactly ceil(count * width / 8) bytes are
/// written.  Returns the end of the written bytes.
char* pack_bits(const std::uint64_t* values, std::size_t count, unsigned width,
                char* dst) noexcept {
  std::uint64_t acc = 0;
  unsigned bits = 0;
  for (std::size_t i = 0; i < count; ++i) {
    acc |= values[i] << bits;
    bits += width;
    if (bits >= 64) {
      std::memcpy(dst, &acc, 8);
      dst += 8;
      bits -= 64;
      // The high bits of values[i] that did not fit the stored word (none
      // when it started the word).
      acc = bits == 0 ? 0 : values[i] >> (width - bits);
    }
  }
  const unsigned tail = (bits + 7) / 8;
  std::memcpy(dst, &acc, tail);
  return dst + tail;
}

/// Block-bitpack `values` (their zigzag deltas when `delta`) at `dst`.
void pack_column(std::span<const std::uint64_t> values, bool delta, char* dst) {
  std::uint64_t block[kPackBlock];
  std::uint64_t prev = 0;
  for (std::size_t start = 0; start < values.size(); start += kPackBlock) {
    const std::size_t count = std::min(kPackBlock, values.size() - start);
    std::uint64_t any = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t v = values[start + i];
      block[i] = delta ? zigzag_delta(v, prev) : v;
      prev = v;
      any |= block[i];
    }
    const unsigned width = bit_width_of(any);
    *dst++ = static_cast<char>(width);
    dst = pack_bits(block, count, width, dst);
  }
}

/// Exact payload size of every encoding, from one pass over the column.
struct EncodingSizes {
  std::size_t raw = 0;
  std::size_t delta = 0;
  std::size_t bitpack = 0;
  std::size_t rle = 0;
};

EncodingSizes size_encodings(std::span<const std::uint64_t> values,
                             std::size_t elem_bytes) {
  EncodingSizes sizes;
  sizes.raw = values.size() * elem_bytes;
  std::size_t runs = 0;
  std::uint64_t run = 0;  // length of the open run; 0 before the first value
  std::uint64_t prev = 0;
  for (std::size_t start = 0; start < values.size(); start += kPackBlock) {
    const std::size_t count = std::min(kPackBlock, values.size() - start);
    std::uint64_t any_value = 0;
    std::uint64_t any_delta = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t v = values[start + i];
      any_value |= v;
      any_delta |= zigzag_delta(v, prev);
      if (run == 0 || v != prev || run == kMaxRun) {
        ++runs;
        run = 0;
      }
      ++run;
      prev = v;
    }
    sizes.bitpack += block_bytes(count, bit_width_of(any_value));
    sizes.delta += block_bytes(count, bit_width_of(any_delta));
  }
  sizes.rle = runs * (sizeof(std::uint32_t) + elem_bytes);
  return sizes;
}

/// Unpack one block of `count` values into `values`; returns its width.
/// The block is copied into a zero-padded buffer so that every 8-byte load
/// (plus the ninth byte a value of width 58..64 can straddle into) stays
/// inside it: nothing past the block's payload is ever read.
unsigned unpack_block(io::ByteReader& cur, std::size_t count, std::uint64_t* values) {
  const unsigned width = cur.get<std::uint8_t>();
  if (width > 64) fail("bitpack width > 64");
  if (width == 0) {
    std::fill_n(values, count, 0);
    return 0;
  }
  const std::size_t bytes = (count * width + 7) / 8;
  unsigned char buf[kPackBlock * 8 + 16];
  std::memcpy(buf, cur.take(bytes).data(), bytes);
  std::memset(buf + bytes, 0, 16);
  const std::uint64_t mask = width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  std::size_t bitpos = 0;
  std::uint64_t word = 0;
  if (width <= 57) {  // shift (<= 7) + width fits one word
    for (std::size_t i = 0; i < count; ++i, bitpos += width) {
      std::memcpy(&word, buf + (bitpos >> 3), 8);
      values[i] = (word >> (bitpos & 7)) & mask;
    }
  } else {
    for (std::size_t i = 0; i < count; ++i, bitpos += width) {
      const std::size_t byte = bitpos >> 3;
      const unsigned shift = bitpos & 7;
      std::memcpy(&word, buf + byte, 8);
      std::uint64_t v = word >> shift;
      if (shift != 0) v |= static_cast<std::uint64_t>(buf[byte + 8]) << (64 - shift);
      values[i] = v & mask;
    }
  }
  return width;
}

/// True when `v` is a value of T as the writer's caller widened it
/// (sign-extended for signed T).
template <typename T>
[[nodiscard]] bool fits(std::uint64_t v) noexcept {
  if constexpr (std::is_signed_v<T>) {
    const auto s = static_cast<std::int64_t>(v);
    return s >= std::numeric_limits<T>::min() && s <= std::numeric_limits<T>::max();
  } else {
    return v <= std::numeric_limits<T>::max();
  }
}

template <typename T>
[[nodiscard]] T checked(std::uint64_t v) {
  if (!fits<T>(v)) fail("decoded value out of range for column type");
  return static_cast<T>(v);
}

}  // namespace

EncodedColumn encode_column(std::span<const std::uint64_t> values,
                            std::size_t elem_bytes) {
  const EncodingSizes sizes = size_encodings(values, elem_bytes);
  EncodedColumn out;
  std::size_t best = sizes.raw;
  const auto consider = [&](ColumnEncoding encoding, std::size_t size) {
    if (size < best) {
      out.encoding = encoding;
      best = size;
    }
  };
  consider(ColumnEncoding::kDeltaPack, sizes.delta);
  consider(ColumnEncoding::kBitPack, sizes.bitpack);
  consider(ColumnEncoding::kRle, sizes.rle);

  switch (out.encoding) {
    case ColumnEncoding::kRaw:
      out.payload.reserve(best);
      for (const std::uint64_t v : values) io::put_uint(out.payload, v, elem_bytes);
      break;
    case ColumnEncoding::kDeltaPack:
    case ColumnEncoding::kBitPack:
      out.payload.resize(best);
      pack_column(values, out.encoding == ColumnEncoding::kDeltaPack, out.payload.data());
      break;
    case ColumnEncoding::kRle:
      out.payload.reserve(best);
      for (std::size_t i = 0; i < values.size();) {
        std::uint32_t run = 1;
        while (i + run < values.size() && values[i + run] == values[i] && run < kMaxRun)
          ++run;
        io::put(out.payload, run);
        io::put_uint(out.payload, values[i], elem_bytes);
        i += run;
      }
      break;
  }
  return out;
}

template <typename T>
void decode_column(ColumnEncoding encoding, std::span<const char> payload,
                   std::size_t n, T* out) {
  io::ByteReader cur(payload, kTruncated);
  switch (encoding) {
    case ColumnEncoding::kRaw:
      if (payload.size() != n * sizeof(T)) fail("raw payload size mismatch");
      if (n != 0) std::memcpy(out, payload.data(), n * sizeof(T));
      return;
    case ColumnEncoding::kBitPack:
    case ColumnEncoding::kDeltaPack: {
      const bool delta = encoding == ColumnEncoding::kDeltaPack;
      std::uint64_t values[kPackBlock];
      std::uint64_t acc = 0;  // wrapping: corrupt input must not hit signed UB
      for (std::size_t start = 0; start < n; start += kPackBlock) {
        const std::size_t count = std::min(kPackBlock, n - start);
        const unsigned width = unpack_block(cur, count, values);
        T* dst = out + start;
        if (delta) {
          for (std::size_t i = 0; i < count; ++i) dst[i] = checked<T>(acc += zigzag_decode(values[i]));
        } else if (width <= static_cast<unsigned>(std::numeric_limits<T>::digits)) {
          // Every value of this block fits T (digits excludes a sign bit).
          for (std::size_t i = 0; i < count; ++i) dst[i] = static_cast<T>(values[i]);
        } else {
          for (std::size_t i = 0; i < count; ++i) dst[i] = checked<T>(values[i]);
        }
      }
      if (!cur.done()) fail("trailing bytes after bitpack payload");
      return;
    }
    case ColumnEncoding::kRle: {
      std::size_t filled = 0;
      while (filled < n) {
        const auto run = cur.get<std::uint32_t>();
        if (run == 0 || run > n - filled) fail("rle run overruns column");
        std::fill_n(out + filled, run, cur.get<T>());  // sizeof(T) bytes: always in range
        filled += run;
      }
      if (!cur.done()) fail("trailing bytes after rle payload");
      return;
    }
  }
  fail("unknown column encoding " + std::to_string(static_cast<std::uint32_t>(encoding)));
}

template void decode_column<std::uint8_t>(ColumnEncoding, std::span<const char>,
                                          std::size_t, std::uint8_t*);
template void decode_column<std::uint16_t>(ColumnEncoding, std::span<const char>,
                                           std::size_t, std::uint16_t*);
template void decode_column<std::uint32_t>(ColumnEncoding, std::span<const char>,
                                           std::size_t, std::uint32_t*);
template void decode_column<std::int32_t>(ColumnEncoding, std::span<const char>,
                                          std::size_t, std::int32_t*);

const char* encoding_name(ColumnEncoding e) noexcept {
  switch (e) {
    case ColumnEncoding::kRaw: return "raw";
    case ColumnEncoding::kDeltaPack: return "delta";
    case ColumnEncoding::kBitPack: return "bitpack";
    case ColumnEncoding::kRle: return "rle";
  }
  return "unknown";
}

}  // namespace ssdfail::store
