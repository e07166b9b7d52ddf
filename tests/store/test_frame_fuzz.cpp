// Frame-mutation fuzz for the SSDF2 v3 column decoder.
//
// Every single-bit flip of a v3 image stops at a chunk CRC
// (BinaryIoFuzz.EveryColumnarBitFlipIsDetected), so those sweeps never
// reach decode_column.  Here the images are opened with
// OpenOptions::verify_crc = false, so each mutation of a frame header, a
// bitpack width byte, an RLE run length or a payload byte is decoded.
// The contract under test: decoding every chunk either returns values or
// throws std::runtime_error — never another exception, and never undefined
// behavior (this binary runs in the ASan/UBSan CI lane).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats/rng.hpp"
#include "store/column_table.hpp"
#include "store/columnar.hpp"
#include "store/encoding.hpp"

namespace ssdfail::store {
namespace {

/// Six drives of 300 days: monotone days and P/E cycles (delta),
/// full-range reads (raw), bounded writes (bitpack), read-only runs and a
/// late death (RLE), and swaps.
trace::FleetTrace fuzz_fleet() {
  stats::Rng rng(99);
  trace::FleetTrace fleet;
  for (std::uint32_t d = 0; d < 6; ++d) {
    trace::DriveHistory drive;
    drive.model = trace::kAllModels[d % trace::kNumModels];
    drive.drive_index = d;
    drive.deploy_day = static_cast<std::int32_t>(d) - 3;
    std::uint32_t pe = 0;
    for (std::int32_t day = 0; day < 300; ++day) {
      trace::DailyRecord r;
      r.day = drive.deploy_day + day;
      r.reads = rng.next_u32();
      r.writes = rng.next_u32() % 5000;
      r.pe_cycles = pe += rng.next_u32() % 4;
      r.read_only = day >= 100 && day < 180;
      r.dead = day == 299 && d % 2 == 0;
      r.errors[d % trace::kNumErrorTypes] = day / 50;
      drive.records.push_back(r);
    }
    drive.swaps.push_back({drive.deploy_day + 310});
    fleet.drives.push_back(std::move(drive));
  }
  return fleet;
}

std::vector<char> v3_image(const trace::FleetTrace& fleet) {
  std::ostringstream out(std::ios::binary);
  write_columnar(out, fleet, {3, kColumnarVersionV3});
  const std::string s = out.str();
  return {s.begin(), s.end()};
}

template <typename T>
T read_at(const std::vector<char>& image, std::size_t pos) {
  T v{};
  std::memcpy(&v, image.data() + pos, sizeof(T));
  return v;
}

template <typename T>
void write_at(std::vector<char>& image, std::size_t pos, T v) {
  std::memcpy(image.data() + pos, &v, sizeof(T));
}

/// One column frame located in a valid image (absolute offsets).
struct Frame {
  std::size_t header = 0;   ///< u32 encoding, u32 reserved, u64 payload bytes
  std::size_t payload = 0;  ///< first payload byte
  std::size_t payload_bytes = 0;
  std::size_t n = 0;           ///< element count
  std::size_t elem_bytes = 0;  ///< on-disk element size
  ColumnEncoding encoding = ColumnEncoding::kRaw;
};

/// Walk the footer directory and each chunk's frames (docs/DATA_FORMAT.md
/// §SSDF2 v3).
std::vector<Frame> frames_of(const std::vector<char>& image) {
  constexpr std::size_t kDirEntryBytesV3 = 32 + 16 + kNumZoneColumns * 16;
  const auto footer = read_at<std::uint64_t>(image, image.size() - 16);
  const auto n_chunks = read_at<std::uint64_t>(image, footer);
  std::vector<Frame> frames;
  for (std::uint64_t c = 0; c < n_chunks; ++c) {
    const auto chunk = read_at<std::uint64_t>(image, footer + 32 + c * kDirEntryBytesV3);
    const auto n_drives = read_at<std::uint32_t>(image, chunk);
    const auto n_records = read_at<std::uint64_t>(image, chunk + 8);
    const auto n_swaps = read_at<std::uint64_t>(image, chunk + 16);
    std::size_t pos = chunk + 24 + 48 * std::size_t{n_drives};
    for_each_column([&](std::size_t, auto column) {
      using T = typename decltype(column)::value_type;
      Frame f;
      f.header = (pos + 7) & ~std::size_t{7};
      f.encoding = static_cast<ColumnEncoding>(read_at<std::uint32_t>(image, f.header));
      f.payload_bytes = read_at<std::uint64_t>(image, f.header + 8);
      f.payload = f.header + 16;
      f.n = column.count(n_records, n_swaps);
      f.elem_bytes = sizeof(T);
      frames.push_back(f);
      pos = f.payload + f.payload_bytes;
    });
  }
  return frames;
}

/// Offsets of every block width byte in a bitpacked frame.
std::vector<std::size_t> width_bytes(const std::vector<char>& image, const Frame& f) {
  std::vector<std::size_t> out;
  std::size_t pos = f.payload;
  for (std::size_t start = 0; start < f.n; start += kPackBlock) {
    const std::size_t count = std::min(kPackBlock, f.n - start);
    out.push_back(pos);
    pos += 1 + (count * static_cast<std::uint8_t>(image[pos]) + 7) / 8;
  }
  return out;
}

/// Offsets of every u32 run length in an RLE frame.
std::vector<std::size_t> run_lengths(const Frame& f) {
  std::vector<std::size_t> out;
  for (std::size_t pos = f.payload; pos < f.payload + f.payload_bytes; pos += 4 + f.elem_bytes)
    out.push_back(pos);
  return out;
}

/// Tallies of decode outcomes over a mutation sweep.
struct Outcomes {
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  std::size_t rejected_by_codec = 0;  ///< thrown by decode_column itself

  /// Open `image` without chunk CRC checks and decode every chunk by
  /// materializing the whole fleet.  Any exception other than
  /// std::runtime_error escapes and fails the test.
  void run(std::vector<char> image) {
    OpenOptions trusting;
    trusting.verify_crc = false;
    try {
      const ColumnarFleetView view = ColumnarFleetView::from_buffer(std::move(image), trusting);
      (void)materialize(view);
      ++decoded;
    } catch (const std::runtime_error& e) {
      ++rejected;
      if (std::string(e.what()).starts_with("column codec:")) ++rejected_by_codec;
    }
  }
};

class ColumnFrameFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    good_ = v3_image(fuzz_fleet());
    frames_ = frames_of(good_);
  }

  /// Frames of `encoding`; the fixture's fleet has at least one of each.
  std::vector<Frame> frames_with(ColumnEncoding encoding) const {
    std::vector<Frame> out;
    for (const Frame& f : frames_)
      if (f.encoding == encoding && f.n > 0) out.push_back(f);
    return out;
  }

  std::vector<char> good_;
  std::vector<Frame> frames_;
};

TEST_F(ColumnFrameFuzz, FixtureCoversEveryEncodingAndDecodesUnmutated) {
  ASSERT_EQ(frames_.size(), 2 * kNumZoneColumns);  // two chunks
  for (const ColumnEncoding e : {ColumnEncoding::kRaw, ColumnEncoding::kDeltaPack,
                                 ColumnEncoding::kBitPack, ColumnEncoding::kRle})
    EXPECT_FALSE(frames_with(e).empty()) << encoding_name(e);
  Outcomes outcomes;
  outcomes.run(good_);
  EXPECT_EQ(outcomes.decoded, 1u);
}

TEST_F(ColumnFrameFuzz, MutatedFrameHeadersDecodeOrThrow) {
  Outcomes outcomes;
  for (const Frame& f : frames_) {
    for (std::size_t byte = 0; byte < 16; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<char> bad = good_;
        bad[f.header + byte] = static_cast<char>(bad[f.header + byte] ^ (1 << bit));
        outcomes.run(std::move(bad));
      }
    }
  }
  EXPECT_EQ(outcomes.decoded, 0u);  // every header bit is structural
  EXPECT_GT(outcomes.rejected_by_codec, 0u);
}

TEST_F(ColumnFrameFuzz, MutatedWidthBytesDecodeOrThrow) {
  Outcomes outcomes;
  for (const ColumnEncoding e : {ColumnEncoding::kDeltaPack, ColumnEncoding::kBitPack}) {
    for (const Frame& f : frames_with(e)) {
      for (const std::size_t pos : width_bytes(good_, f)) {
        const auto width = static_cast<std::uint8_t>(good_[pos]);
        for (const unsigned w : {0u, width - 1u, width + 1u, 31u, 32u, 33u, 57u, 58u,
                                 63u, 64u, 65u, 255u}) {
          if (w == width || w > 255) continue;
          std::vector<char> bad = good_;
          bad[pos] = static_cast<char>(w);
          outcomes.run(std::move(bad));
        }
      }
    }
  }
  EXPECT_GT(outcomes.rejected_by_codec, 0u);
}

TEST_F(ColumnFrameFuzz, MutatedRleRunLengthsDecodeOrThrow) {
  Outcomes outcomes;
  for (const Frame& f : frames_with(ColumnEncoding::kRle)) {
    for (const std::size_t pos : run_lengths(f)) {
      const auto run = read_at<std::uint32_t>(good_, pos);
      for (const std::uint32_t r : {0u, run - 1, run + 1, static_cast<std::uint32_t>(f.n),
                                    0xFFFFFFFFu}) {
        if (r == run) continue;
        std::vector<char> bad = good_;
        write_at(bad, pos, r);
        outcomes.run(std::move(bad));
      }
    }
  }
  EXPECT_GT(outcomes.rejected_by_codec, 0u);
}

TEST_F(ColumnFrameFuzz, MutatedPayloadBytesDecodeOrThrow) {
  stats::Rng rng(7);
  for (const ColumnEncoding e : {ColumnEncoding::kRaw, ColumnEncoding::kDeltaPack,
                                 ColumnEncoding::kBitPack, ColumnEncoding::kRle}) {
    SCOPED_TRACE(encoding_name(e));
    const std::vector<Frame> frames = frames_with(e);
    Outcomes outcomes;
    for (int trial = 0; trial < 400; ++trial) {
      const Frame& f = frames[rng.uniform_index(frames.size())];
      std::vector<char> bad = good_;
      for (std::uint64_t k = 1 + rng.uniform_index(3); k > 0; --k) {
        const std::size_t pos = f.payload + rng.uniform_index(f.payload_bytes);
        bad[pos] = static_cast<char>(bad[pos] ^ (1 + rng.uniform_index(255)));
      }
      outcomes.run(std::move(bad));
    }
    EXPECT_EQ(outcomes.decoded + outcomes.rejected, 400u);
    if (e == ColumnEncoding::kRaw) {
      EXPECT_EQ(outcomes.decoded, 400u);  // no structure to reject
    } else {
      EXPECT_GT(outcomes.rejected_by_codec, 0u);
    }
  }
}

}  // namespace
}  // namespace ssdfail::store
