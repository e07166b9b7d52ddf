#include "store/encoding.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>

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

[[nodiscard]] unsigned bit_width_of(std::uint64_t v) noexcept {
  return static_cast<unsigned>(std::bit_width(v));
}

constexpr const char* kTruncated = "column codec: truncated column payload";

/// Pack one block of values at `width` bits each, LSB-first within each
/// byte, values packed back to back (value i occupies bit range
/// [i*width, (i+1)*width) of the block's bit stream).
void pack_block(std::vector<char>& out, std::span<const std::uint64_t> block,
                unsigned width) {
  out.push_back(static_cast<char>(width));
  if (width == 0) return;
  const std::size_t first = out.size();
  out.resize(first + (block.size() * width + 7) / 8, '\0');
  std::size_t bitpos = 0;
  for (const std::uint64_t v : block) {
    unsigned put = 0;
    while (put < width) {
      const std::size_t byte = first + (bitpos >> 3);
      const unsigned offset = bitpos & 7u;
      const unsigned take = std::min(8u - offset, width - put);
      const auto chunk = static_cast<std::uint8_t>(
          (v >> put) & ((std::uint64_t{1} << take) - 1));
      out[byte] = static_cast<char>(static_cast<std::uint8_t>(out[byte]) |
                                    (chunk << offset));
      put += take;
      bitpos += take;
    }
  }
}

/// Emit all of `values` as width-per-block bitpacked payload.
std::vector<char> bitpack_payload(std::span<const std::uint64_t> values) {
  std::vector<char> out;
  for (std::size_t start = 0; start < values.size(); start += kPackBlock) {
    const std::size_t count = std::min(kPackBlock, values.size() - start);
    const auto block = values.subspan(start, count);
    unsigned width = 0;
    for (const std::uint64_t v : block) width = std::max(width, bit_width_of(v));
    pack_block(out, block, width);
  }
  return out;
}

/// Unpack one block of `count` width-bit values appended to `out` — the
/// exact inverse of pack_block's bit-position indexing.
void unpack_block(io::ByteReader& cur, std::size_t count,
                  std::vector<std::uint64_t>& out) {
  const unsigned width = cur.get<std::uint8_t>();
  if (width > 64) fail("bitpack width > 64");
  if (width == 0) {
    out.insert(out.end(), count, 0);
    return;
  }
  const std::size_t payload_bytes = (count * width + 7) / 8;
  const char* p = cur.take(payload_bytes).data();
  std::size_t bitpos = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t v = 0;
    unsigned got = 0;
    while (got < width) {
      const auto byte = static_cast<std::uint8_t>(p[bitpos >> 3]);
      const unsigned offset = bitpos & 7u;
      const unsigned take = std::min(8u - offset, width - got);
      v |= static_cast<std::uint64_t>((byte >> offset) &
                                      ((std::uint32_t{1} << take) - 1))
           << got;
      got += take;
      bitpos += take;
    }
    out.push_back(v);
  }
}

void unpack_all(std::span<const char> payload, std::size_t n,
                std::vector<std::uint64_t>& out) {
  io::ByteReader cur(payload, kTruncated);
  for (std::size_t start = 0; start < n; start += kPackBlock)
    unpack_block(cur, std::min(kPackBlock, n - start), out);
  if (!cur.done()) fail("trailing bytes after bitpack payload");
}

/// A stored `elem_bytes`-wide value widened back to u64 the way the
/// writer's caller widened it: sign-extended for signed columns.
std::uint64_t widen(std::uint64_t v, std::size_t elem_bytes, bool is_signed) {
  if (is_signed && elem_bytes < 8 && (v >> (8 * elem_bytes - 1)) & 1)
    v |= ~((std::uint64_t{1} << (8 * elem_bytes)) - 1);
  return v;
}

/// Throws unless `v` is a value an `elem_bytes`-wide column can hold,
/// widened as above.
void range_check(std::uint64_t v, std::size_t elem_bytes, bool is_signed) {
  const std::uint64_t mask =
      elem_bytes >= 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * elem_bytes)) - 1;
  if (widen(v & mask, elem_bytes, is_signed) != v)
    fail("decoded value out of range for column type");
}

std::vector<char> raw_payload(std::span<const std::uint64_t> values,
                              std::size_t elem_bytes) {
  std::vector<char> out;
  out.reserve(values.size() * elem_bytes);
  for (const std::uint64_t v : values) io::put_uint(out, v, elem_bytes);
  return out;
}

std::vector<char> rle_payload(std::span<const std::uint64_t> values,
                              std::size_t elem_bytes) {
  std::vector<char> out;
  std::size_t i = 0;
  while (i < values.size()) {
    std::size_t run = 1;
    while (i + run < values.size() && values[i + run] == values[i] &&
           run < std::numeric_limits<std::uint32_t>::max())
      ++run;
    io::put(out, static_cast<std::uint32_t>(run));
    io::put_uint(out, values[i], elem_bytes);
    i += run;
  }
  return out;
}

std::vector<char> delta_payload(std::span<const std::uint64_t> values) {
  std::vector<std::uint64_t> deltas;
  deltas.reserve(values.size());
  std::uint64_t prev = 0;
  for (const std::uint64_t v : values) {
    deltas.push_back(zigzag_encode(static_cast<std::int64_t>(v - prev)));
    prev = v;
  }
  return bitpack_payload(deltas);
}

}  // namespace

EncodedColumn encode_column(std::span<const std::uint64_t> values,
                            std::size_t elem_bytes) {
  EncodedColumn best;
  best.encoding = ColumnEncoding::kRaw;
  best.payload = raw_payload(values, elem_bytes);

  const auto consider = [&best](ColumnEncoding encoding, std::vector<char>&& payload) {
    if (payload.size() < best.payload.size()) {
      best.encoding = encoding;
      best.payload = std::move(payload);
    }
  };
  consider(ColumnEncoding::kDeltaPack, delta_payload(values));
  consider(ColumnEncoding::kBitPack, bitpack_payload(values));
  consider(ColumnEncoding::kRle, rle_payload(values, elem_bytes));
  return best;
}

void decode_column(ColumnEncoding encoding, std::span<const char> payload,
                   std::size_t n, std::size_t elem_bytes, bool is_signed,
                   std::vector<std::uint64_t>& out) {
  out.clear();
  out.reserve(n);
  switch (encoding) {
    case ColumnEncoding::kRaw: {
      if (payload.size() != n * elem_bytes) fail("raw payload size mismatch");
      io::ByteReader cur(payload, kTruncated);
      for (std::size_t i = 0; i < n; ++i)
        out.push_back(widen(cur.get_uint(elem_bytes), elem_bytes, is_signed));
      break;
    }
    case ColumnEncoding::kBitPack: {
      unpack_all(payload, n, out);
      for (const std::uint64_t v : out) range_check(v, elem_bytes, is_signed);
      return;
    }
    case ColumnEncoding::kDeltaPack: {
      std::vector<std::uint64_t> deltas;
      deltas.reserve(n);
      unpack_all(payload, n, deltas);
      std::uint64_t acc = 0;  // wrapping: corrupt input must not hit signed UB
      for (const std::uint64_t z : deltas) {
        acc += zigzag_decode(z);
        range_check(acc, elem_bytes, is_signed);
        out.push_back(acc);
      }
      return;
    }
    case ColumnEncoding::kRle: {
      io::ByteReader cur(payload, kTruncated);
      while (out.size() < n) {
        const auto run = cur.get<std::uint32_t>();
        if (run == 0 || run > n - out.size()) fail("rle run overruns column");
        out.insert(out.end(), run, widen(cur.get_uint(elem_bytes), elem_bytes, is_signed));
      }
      if (!cur.done()) fail("trailing bytes after rle payload");
      break;
    }
    default:
      fail("unknown column encoding " +
           std::to_string(static_cast<std::uint32_t>(encoding)));
  }
  if (out.size() != n) fail("decoded element count mismatch");
}

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
