// Unit suite for the v3 column codecs (store/encoding.hpp): round-trips
// across every encoding and value shape, writer selection sanity, the
// corrupt-payload rejection contract (clean throw, never UB — this binary
// runs in the ASan CI lane via the store test targets), and an oracle:
// the one-pass, word-at-a-time encoder must produce the same bytes as a
// reference that builds all four payloads bit by bit and keeps the
// smallest.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "stats/rng.hpp"
#include "store/encoding.hpp"

namespace ssdfail::store {
namespace {

/// A typed column widened to u64 the way the v3 writer widens it
/// (sign-extended for signed T).
template <typename T>
std::vector<std::uint64_t> widen(const std::vector<T>& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (const T x : v)
    out.push_back(static_cast<std::uint64_t>(static_cast<std::int64_t>(x)));
  return out;
}

template <typename T>
std::vector<T> decode(ColumnEncoding encoding, std::span<const char> payload,
                      std::size_t n) {
  std::vector<T> out(n);
  decode_column<T>(encoding, payload, n, out.data());
  return out;
}

template <typename T>
void roundtrip(const std::vector<std::uint64_t>& values) {
  const EncodedColumn enc = encode_column(values, sizeof(T));
  ASSERT_EQ(values, widen(decode<T>(enc.encoding, enc.payload, values.size())))
      << "winner encoding " << encoding_name(enc.encoding);
}

/// The reference encoder: every encoding's payload built independently,
/// block bitpacking one bit-run at a time, and the smallest kept with ties
/// to the earliest of raw, delta+bitpack, bitpack, RLE.
namespace reference {

void put_le(std::vector<char>& out, std::uint64_t v, std::size_t bytes) {
  char buf[8];
  std::memcpy(buf, &v, sizeof(buf));
  out.insert(out.end(), buf, buf + bytes);
}

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

std::vector<char> bitpack(std::span<const std::uint64_t> values) {
  std::vector<char> out;
  for (std::size_t start = 0; start < values.size(); start += kPackBlock) {
    const auto block = values.subspan(start, std::min(kPackBlock, values.size() - start));
    unsigned width = 0;
    for (const std::uint64_t v : block)
      width = std::max(width, static_cast<unsigned>(std::bit_width(v)));
    pack_block(out, block, width);
  }
  return out;
}

std::vector<char> delta(std::span<const std::uint64_t> values) {
  std::vector<std::uint64_t> deltas;
  std::uint64_t prev = 0;
  for (const std::uint64_t v : values) {
    const auto d = static_cast<std::int64_t>(v - prev);
    deltas.push_back((static_cast<std::uint64_t>(d) << 1) ^ static_cast<std::uint64_t>(d >> 63));
    prev = v;
  }
  return bitpack(deltas);
}

std::vector<char> raw(std::span<const std::uint64_t> values, std::size_t elem_bytes) {
  std::vector<char> out;
  for (const std::uint64_t v : values) put_le(out, v, elem_bytes);
  return out;
}

std::vector<char> rle(std::span<const std::uint64_t> values, std::size_t elem_bytes) {
  std::vector<char> out;
  std::size_t i = 0;
  while (i < values.size()) {
    std::size_t run = 1;
    while (i + run < values.size() && values[i + run] == values[i] &&
           run < std::numeric_limits<std::uint32_t>::max())
      ++run;
    put_le(out, run, 4);
    put_le(out, values[i], elem_bytes);
    i += run;
  }
  return out;
}

constexpr std::array<ColumnEncoding, 4> kOrder = {
    ColumnEncoding::kRaw, ColumnEncoding::kDeltaPack, ColumnEncoding::kBitPack,
    ColumnEncoding::kRle};

/// Every encoding's payload, in kOrder.
std::array<std::vector<char>, 4> payloads(std::span<const std::uint64_t> values,
                                          std::size_t elem_bytes) {
  return {raw(values, elem_bytes), delta(values), bitpack(values), rle(values, elem_bytes)};
}

EncodedColumn smallest(const std::array<std::vector<char>, 4>& all) {
  std::size_t best = 0;
  for (std::size_t e = 1; e < all.size(); ++e)
    if (all[e].size() < all[best].size()) best = e;
  return {kOrder[best], all[best]};
}

}  // namespace reference

/// True when `v` is a value of T widened as the writer widens it.
template <typename T>
bool fits(std::uint64_t v) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<T>(v))) == v;
}

/// encode_column must return the reference's (encoding, payload); then
/// every encoding's reference payload must decode back through
/// decode_column<T> when the values fit T, and be rejected when they do
/// not.  Raw and RLE payloads are only decoded when `elem_bytes` is T's
/// size (their layout depends on it).
template <typename T>
void check_against_reference(const std::vector<std::uint64_t>& values,
                             std::size_t elem_bytes = sizeof(T)) {
  const auto all = reference::payloads(values, elem_bytes);
  const EncodedColumn want = reference::smallest(all);
  const EncodedColumn got = encode_column(values, elem_bytes);
  ASSERT_EQ(got.encoding, want.encoding)
      << encoding_name(got.encoding) << " vs " << encoding_name(want.encoding);
  ASSERT_EQ(got.payload, want.payload) << encoding_name(got.encoding);
  const bool all_fit = std::all_of(values.begin(), values.end(), fits<T>);
  for (std::size_t k = 0; k < all.size(); ++k) {
    const ColumnEncoding encoding = reference::kOrder[k];
    const bool element_layout =
        encoding == ColumnEncoding::kRaw || encoding == ColumnEncoding::kRle;
    if (element_layout && elem_bytes != sizeof(T)) continue;
    if (all_fit) {
      EXPECT_EQ(widen(decode<T>(encoding, all[k], values.size())), values)
          << encoding_name(encoding);
    } else {
      EXPECT_THROW((void)decode<T>(encoding, all[k], values.size()), std::runtime_error)
          << encoding_name(encoding);
    }
  }
}

TEST(ColumnCodec, EmptyColumn) {
  roundtrip<std::uint32_t>({});
  roundtrip<std::uint8_t>({});
  const EncodedColumn enc = encode_column({}, 4);
  EXPECT_TRUE(enc.payload.empty());
}

TEST(ColumnCodec, MonotoneCumulativePrefersDelta) {
  std::vector<std::uint64_t> values;
  std::uint64_t v = 1000;
  for (int i = 0; i < 1000; ++i) values.push_back(v += 3);
  const EncodedColumn enc = encode_column(values, 4);
  EXPECT_EQ(enc.encoding, ColumnEncoding::kDeltaPack);
  EXPECT_LT(enc.payload.size(), values.size());  // ~2 bits/value + headers
  roundtrip<std::uint32_t>(values);
}

TEST(ColumnCodec, ConstantColumnPacksToNearNothing) {
  const std::vector<std::uint64_t> values(4096, 77);
  const EncodedColumn enc = encode_column(values, 4);
  EXPECT_LE(enc.payload.size(), 64u);  // rle pair or width-0 delta blocks
  roundtrip<std::uint32_t>(values);
}

TEST(ColumnCodec, AllZeroColumn) {
  const std::vector<std::uint64_t> values(1000, 0);
  const EncodedColumn enc = encode_column(values, 4);
  EXPECT_LE(enc.payload.size(), 40u);
  roundtrip<std::uint32_t>(values);
}

TEST(ColumnCodec, NoisyBoundedValuesBeatRaw) {
  stats::Rng rng(42);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 2000; ++i) values.push_back(rng.next_u32() % 100000);
  const EncodedColumn enc = encode_column(values, 4);
  EXPECT_LT(enc.payload.size(), values.size() * 4);  // <17 of 32 bits/value
  roundtrip<std::uint32_t>(values);
}

TEST(ColumnCodec, FullRangeUnsignedRoundTrips) {
  stats::Rng rng(7);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 777; ++i) values.push_back(rng.next_u32());
  values.push_back(std::numeric_limits<std::uint32_t>::max());
  values.push_back(0);
  roundtrip<std::uint32_t>(values);
}

TEST(ColumnCodec, SignedValuesRoundTripAllEncodings) {
  const std::vector<std::int32_t> days = {-100, -1, 0, 1, 5, 5, 5, 1000,
                                          std::numeric_limits<std::int32_t>::min(),
                                          std::numeric_limits<std::int32_t>::max()};
  roundtrip<std::int32_t>(widen(days));
}

TEST(ColumnCodec, NarrowTypesRoundTrip) {
  stats::Rng rng(9);
  std::vector<std::uint64_t> u8s, u16s;
  for (int i = 0; i < 500; ++i) {
    u8s.push_back(rng.next_u32() % 4);  // flags-like
    u16s.push_back(rng.next_u32() % 60000);
  }
  roundtrip<std::uint8_t>(u8s);
  roundtrip<std::uint16_t>(u16s);
}

TEST(ColumnCodec, FlagRunsPreferRle) {
  std::vector<std::uint64_t> flags(10000, 0);
  for (std::size_t i = 9000; i < flags.size(); ++i) flags[i] = 2;  // died late
  const EncodedColumn enc = encode_column(flags, 1);
  EXPECT_LE(enc.payload.size(), 16u);
  roundtrip<std::uint8_t>(flags);
}

TEST(ColumnCodec, DecodeRejectsWrongPayloadSizes) {
  // One column whose winner is each encoding in turn; every winner's
  // payload must be rejected one byte short and one byte long.
  stats::Rng rng(5);
  std::vector<std::uint64_t> monotone, noise, flags(10000, 0), full_range;
  std::uint64_t v = 1000;
  for (int i = 0; i < 1000; ++i) monotone.push_back(v += 3);
  for (int i = 0; i < 2000; ++i) noise.push_back(rng.next_u32() % 100000);
  for (std::size_t i = 9000; i < flags.size(); ++i) flags[i] = 2;
  for (int i = 0; i < 1000; ++i) full_range.push_back(rng.next_u32());
  full_range.push_back(std::numeric_limits<std::uint32_t>::max());
  const struct {
    const std::vector<std::uint64_t>& values;
    ColumnEncoding expected;
  } cases[] = {{monotone, ColumnEncoding::kDeltaPack},
               {noise, ColumnEncoding::kBitPack},
               {flags, ColumnEncoding::kRle},
               {full_range, ColumnEncoding::kRaw}};
  for (const auto& c : cases) {
    const EncodedColumn enc = encode_column(c.values, 4);
    ASSERT_EQ(enc.encoding, c.expected) << encoding_name(enc.encoding);
    const std::size_t n = c.values.size();
    std::vector<char> truncated = enc.payload;
    truncated.pop_back();
    EXPECT_THROW((void)decode<std::uint32_t>(enc.encoding, truncated, n),
                 std::runtime_error)
        << encoding_name(enc.encoding);
    std::vector<char> extended = enc.payload;
    extended.push_back('\0');
    EXPECT_THROW((void)decode<std::uint32_t>(enc.encoding, extended, n),
                 std::runtime_error)
        << encoding_name(enc.encoding);
  }
}

TEST(ColumnCodec, DecodeRejectsOverWideBitWidth) {
  // Hand-built bitpack block: width byte says 65.
  const std::vector<char> payload = {static_cast<char>(65)};
  EXPECT_THROW((void)decode<std::uint32_t>(ColumnEncoding::kBitPack, payload, 1),
               std::runtime_error);
}

TEST(ColumnCodec, DecodeRejectsValueOutOfTypeRange) {
  // A width-33 bitpacked value cannot fit u32.
  const std::vector<std::uint64_t> big = {std::uint64_t{1} << 32};
  const EncodedColumn enc = encode_column(big, 8);  // encode as 8-byte elems
  EXPECT_THROW((void)decode<std::uint32_t>(enc.encoding, enc.payload, 1),
               std::runtime_error);
}

TEST(ColumnCodec, DecodeRejectsRleRunOverrun) {
  // run=5 but n=3.
  std::vector<char> payload;
  const std::uint32_t run = 5;
  payload.insert(payload.end(), reinterpret_cast<const char*>(&run),
                 reinterpret_cast<const char*>(&run) + 4);
  payload.insert(payload.end(), 4, '\0');
  EXPECT_THROW((void)decode<std::uint32_t>(ColumnEncoding::kRle, payload, 3),
               std::runtime_error);
}

TEST(ColumnCodec, DecodeRejectsUnknownEncoding) {
  EXPECT_THROW((void)decode<std::uint32_t>(static_cast<ColumnEncoding>(99), {}, 0),
               std::runtime_error);
}

TEST(ColumnCodec, RandomColumnsRoundTripAllShapes) {
  stats::Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = rng.uniform_index(600);  // includes empty
    const int shape = static_cast<int>(rng.uniform_index(4));
    std::vector<std::uint64_t> values;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      switch (shape) {
        case 0: values.push_back(rng.next_u32()); break;             // noise
        case 1: values.push_back(cum += rng.uniform_index(10)); break;  // cumulative
        case 2: values.push_back(rng.uniform_index(3)); break;       // tiny runs
        default: values.push_back(0); break;                          // zeros
      }
    }
    roundtrip<std::uint32_t>(values);
  }
}

/// A column of `n` values of T in one of several shapes, widened.
template <typename T>
std::vector<std::uint64_t> random_column(stats::Rng& rng, std::size_t n, int shape) {
  std::vector<T> column;
  T cum = 0;
  T run_value = 0;
  for (std::size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0: column.push_back(static_cast<T>(rng.next_u64())); break;  // full range
      case 1:  // bounded noise (around zero when signed)
        column.push_back(static_cast<T>(static_cast<std::int64_t>(rng.uniform_index(201)) -
                                        (std::is_signed_v<T> ? 100 : 0)));
        break;
      case 2: column.push_back(cum = static_cast<T>(cum + rng.uniform_index(20))); break;
      case 3:  // long runs
        if (rng.uniform_index(40) == 0) run_value = static_cast<T>(rng.next_u32());
        column.push_back(run_value);
        break;
      case 4: column.push_back(0); break;
      default: {  // a different width in each block
        const auto bits = 1 + static_cast<unsigned>(i / kPackBlock * 5 % (8 * sizeof(T)));
        column.push_back(static_cast<T>(rng.next_u64() >> (64 - bits)));
        break;
      }
    }
  }
  return widen(column);
}

TEST(ColumnCodec, EncoderMatchesReferenceOnRandomColumns) {
  stats::Rng rng(77);
  for (const std::size_t n : {0, 1, 2, 7, 127, 128, 129, 255, 256, 257, 640, 1000}) {
    for (int shape = 0; shape < 6; ++shape) {
      SCOPED_TRACE("n " + std::to_string(n) + " shape " + std::to_string(shape));
      check_against_reference<std::uint8_t>(random_column<std::uint8_t>(rng, n, shape));
      check_against_reference<std::uint16_t>(random_column<std::uint16_t>(rng, n, shape));
      check_against_reference<std::uint32_t>(random_column<std::uint32_t>(rng, n, shape));
      check_against_reference<std::int32_t>(random_column<std::int32_t>(rng, n, shape));
    }
  }
}

TEST(ColumnCodec, EncoderMatchesReferenceAtEveryBlockWidth) {
  // The first block holds values of exactly `width` bits (the bitpack
  // column) or zigzag deltas of exactly `width` bits (the delta column);
  // later blocks, one short, are 1-3 bits wide.  The delta column's
  // deltas are far narrower than its wrapped sums, so delta wins and the
  // encoder packs a width-`width` block.
  stats::Rng rng(64);
  const std::size_t n = 3 * kPackBlock + 37;
  const auto random_bits = [&](unsigned width) {
    if (width == 0) return std::uint64_t{0};
    const std::uint64_t top = std::uint64_t{1} << (width - 1);
    return top | (rng.next_u64() & (top - 1));
  };
  for (unsigned width = 0; width <= 64; ++width) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::vector<std::uint64_t> values(n), zigzags(n);
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned w = i < kPackBlock ? width : 1 + static_cast<unsigned>(i % 3);
      values[i] = random_bits(w);
      zigzags[i] = random_bits(w);
    }
    if (width == 64) {
      // Sign-extended negative i32s are the width-64 values a real column
      // stores; they decode back as i32.
      for (std::size_t i = 0; i < kPackBlock; ++i)
        values[i] = static_cast<std::uint64_t>(
            -1 - static_cast<std::int64_t>(rng.uniform_index(std::uint64_t{1} << 31)));
      check_against_reference<std::int32_t>(values);
    } else {
      check_against_reference<std::uint32_t>(values, width > 32 ? 8 : 4);
    }
    EXPECT_EQ(static_cast<unsigned char>(reference::bitpack(values).front()), width);

    std::vector<std::uint64_t> summed(n);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i)
      summed[i] = acc += (zigzags[i] >> 1) ^ (0ull - (zigzags[i] & 1));
    EXPECT_EQ(static_cast<unsigned char>(reference::delta(summed).front()), width);
    EXPECT_EQ(encode_column(summed, 8).encoding, ColumnEncoding::kDeltaPack);
    check_against_reference<std::uint32_t>(summed, 8);
  }
}

/// A one-block bitpack payload of `count` zeros except value `at`, which
/// has only bit `width - 1` set: the block's width is exactly `width`.
std::vector<char> one_bit_block(unsigned width, std::size_t count, std::size_t at) {
  std::vector<std::uint64_t> values(count, 0);
  values[at] = std::uint64_t{1} << (width - 1);
  return reference::bitpack(values);
}

template <typename T>
void expect_one_bit_blocks_decode_or_throw(unsigned width) {
  SCOPED_TRACE("width " + std::to_string(width) + ", " + std::to_string(sizeof(T)) +
               "-byte " + (std::is_signed_v<T> ? "signed" : "unsigned"));
  const std::uint64_t top = std::uint64_t{1} << (width - 1);
  for (std::size_t at = 0; at < kPackBlock; ++at) {
    const std::vector<char> payload = one_bit_block(width, kPackBlock, at);
    if (fits<T>(top)) {
      const std::vector<T> out = decode<T>(ColumnEncoding::kBitPack, payload, kPackBlock);
      for (std::size_t i = 0; i < kPackBlock; ++i)
        ASSERT_EQ(static_cast<std::uint64_t>(out[i]), i == at ? top : 0) << "at " << at;
    } else {
      EXPECT_THROW((void)decode<T>(ColumnEncoding::kBitPack, payload, kPackBlock),
                   std::runtime_error)
          << "at " << at;
    }
  }
}

TEST(ColumnCodec, DecodeReadsTheTopBitAtEveryWidthAndPosition) {
  // Every bit position of a block, including the bits of widths 58..63
  // that straddle into a ninth byte: the decoder must return the value
  // when it fits the column type and reject it otherwise.
  for (unsigned width = 1; width <= 64; ++width) {
    expect_one_bit_blocks_decode_or_throw<std::uint8_t>(width);
    expect_one_bit_blocks_decode_or_throw<std::uint16_t>(width);
    expect_one_bit_blocks_decode_or_throw<std::uint32_t>(width);
    expect_one_bit_blocks_decode_or_throw<std::int32_t>(width);
  }
}

TEST(ColumnCodec, EncoderMatchesReferenceOnTies) {
  // Each column ties two encodings at the smallest size; the earlier one
  // in the order raw, delta+bitpack, bitpack, RLE must win.
  const auto sizes = [](const std::vector<std::uint64_t>& values, std::size_t elem_bytes) {
    std::array<std::size_t, 4> out{};
    const auto all = reference::payloads(values, elem_bytes);
    for (std::size_t e = 0; e < all.size(); ++e) out[e] = all[e].size();
    return out;
  };
  using Sizes = std::array<std::size_t, 4>;  // raw, delta, bitpack, rle

  const std::vector<std::uint64_t> raw_bitpack = {127, 1, 127, 1, 127, 1, 127, 1};
  EXPECT_EQ(sizes(raw_bitpack, 1), (Sizes{8, 9, 8, 40}));
  check_against_reference<std::uint8_t>(raw_bitpack);

  const std::vector<std::uint64_t> raw_delta = {32, 64, 96, 128, 160, 192, 224, 255};
  EXPECT_EQ(sizes(raw_delta, 1), (Sizes{8, 8, 9, 40}));
  check_against_reference<std::uint8_t>(raw_delta);

  const std::vector<std::uint64_t> raw_rle(5, 255);
  EXPECT_EQ(sizes(raw_rle, 1), (Sizes{5, 7, 6, 5}));
  check_against_reference<std::uint8_t>(raw_rle);

  std::vector<std::uint64_t> delta_bitpack;
  for (std::uint64_t i = 0; i < kPackBlock; ++i) delta_bitpack.push_back(100 + i);
  EXPECT_EQ(sizes(delta_bitpack, 4), (Sizes{512, 129, 129, 1024}));
  check_against_reference<std::uint32_t>(delta_bitpack);

  std::vector<std::int32_t> steps(120, 0);
  std::fill(steps.begin() + 60, steps.end(), -1);
  const std::vector<std::uint64_t> delta_rle = widen(steps);
  EXPECT_EQ(sizes(delta_rle, 4), (Sizes{480, 16, 961, 16}));
  check_against_reference<std::int32_t>(delta_rle);

  const std::vector<std::uint64_t> bitpack_rle(8, 15);
  EXPECT_EQ(sizes(bitpack_rle, 1), (Sizes{8, 6, 5, 5}));
  check_against_reference<std::uint8_t>(bitpack_rle);
}

}  // namespace
}  // namespace ssdfail::store
