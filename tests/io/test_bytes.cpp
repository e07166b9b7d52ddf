// The shared little-endian codec: what the writer appends, and that the
// reader returns it, aligns like a file offset and throws the caller's
// message on any overrun.

#include "io/bytes.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ssdfail::io {
namespace {

TEST(ByteCodec, WriterAppendsLittleEndianAndPadsToEight) {
  std::string out;
  put<std::uint32_t>(out, 0x04030201u);
  put<std::uint8_t>(out, 0x05);
  put_uint(out, 0x0807060504030201ull, 3);
  EXPECT_EQ(out, std::string("\x01\x02\x03\x04\x05\x01\x02\x03", 8));
  pad8(out);
  EXPECT_EQ(out.size(), 8u);
  put<std::int16_t>(out, -2);
  pad8(out);
  ASSERT_EQ(out.size(), 16u);
  EXPECT_EQ(out.substr(8), std::string("\xfe\xff\0\0\0\0\0\0", 8));

  std::vector<char> vec;
  put<std::uint64_t>(vec, 1);
  EXPECT_EQ(vec.size(), 8u);
  EXPECT_EQ(vec[0], 1);
}

TEST(ByteCodec, ReaderRoundTripsEveryWidth) {
  std::vector<char> bytes;
  put<std::uint8_t>(bytes, 0xAB);
  put<std::int32_t>(bytes, -7);
  put<std::uint64_t>(bytes, 0x0123456789ABCDEFull);
  put<float>(bytes, 1.5f);
  put_uint(bytes, 0xFFFF, 2);

  ByteReader in(bytes, "test: overrun");
  EXPECT_EQ(in.get<std::uint8_t>(), 0xAB);
  EXPECT_EQ(in.get<std::int32_t>(), -7);
  EXPECT_EQ(in.get<std::uint64_t>(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.get<float>(), 1.5f);
  EXPECT_EQ(in.get_uint(2), 0xFFFFu);
  EXPECT_TRUE(in.done());
}

TEST(ByteCodec, AlignAndSkipTrackTheSpanOffset) {
  const std::vector<char> bytes(24, '\0');
  ByteReader in(bytes, "test: overrun");
  in.skip(3);
  in.align8();
  EXPECT_EQ(in.pos(), 8u);
  in.align8();
  EXPECT_EQ(in.pos(), 8u);
  EXPECT_EQ(in.take(5).size(), 5u);
  EXPECT_EQ(in.remaining(), 11u);
}

TEST(ByteCodec, EveryOverrunThrowsTheCallersMessage) {
  const std::vector<char> bytes(5, '\0');
  for (std::size_t skip = 0; skip <= 5; ++skip) {
    ByteReader in(bytes, "caller: truncated");
    in.skip(skip);
    try {
      (void)in.get<std::uint64_t>();
      FAIL() << "read past the end after skipping " << skip;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "caller: truncated");
    }
    EXPECT_EQ(in.pos(), skip);  // a failed read consumes nothing
  }
  ByteReader in(bytes, "caller: truncated");
  in.skip(4);
  EXPECT_THROW(in.align8(), std::runtime_error);
  EXPECT_THROW((void)in.take(2), std::runtime_error);
}

}  // namespace
}  // namespace ssdfail::io
