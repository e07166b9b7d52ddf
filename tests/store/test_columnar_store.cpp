#include "store/columnar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/fleet_simulator.hpp"
#include "stats/rng.hpp"
#include "store/column_table.hpp"
#include "store/crc32.hpp"

namespace ssdfail::store {
namespace {

trace::FleetTrace simulated_fleet(std::uint32_t drives_per_model = 12) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = drives_per_model;
  cfg.seed = 77;
  return sim::FleetSimulator(cfg).generate_all();
}

/// A tiny hand-built fleet hitting the edge shapes: empty record lists,
/// swaps, all models, non-zero deploy days.
trace::FleetTrace tiny_fleet() {
  trace::FleetTrace fleet;
  for (std::uint32_t d = 0; d < 7; ++d) {
    trace::DriveHistory drive;
    drive.model = trace::kAllModels[d % trace::kNumModels];
    drive.drive_index = 100 + d;
    drive.deploy_day = static_cast<std::int32_t>(d);
    for (std::uint32_t day = 0; day < d * 3; ++day) {
      trace::DailyRecord r;
      r.day = drive.deploy_day + static_cast<std::int32_t>(day);
      r.reads = d * 1000 + day;
      r.writes = day * 7;
      r.erases = day % 5;
      r.pe_cycles = day * 2;
      r.bad_blocks = day / 4;
      r.factory_bad_blocks = static_cast<std::uint16_t>(d);
      r.read_only = day % 3 == 0;
      r.dead = day + 1 == d * 3 && d % 2 == 0;
      for (std::size_t e = 0; e < trace::kNumErrorTypes; ++e)
        r.errors[e] = static_cast<std::uint32_t>(day * 10 + e);
      drive.records.push_back(r);
    }
    if (d % 2 == 1) drive.swaps.push_back({drive.deploy_day + 2});
    fleet.drives.push_back(std::move(drive));
  }
  return fleet;
}

std::vector<char> encode(const trace::FleetTrace& fleet, std::uint32_t chunk_drives) {
  std::ostringstream out(std::ios::binary);
  write_columnar(out, fleet, {chunk_drives});
  const std::string s = out.str();
  return {s.begin(), s.end()};
}

void expect_fleets_equal(const trace::FleetTrace& a, const trace::FleetTrace& b) {
  ASSERT_EQ(a.drives.size(), b.drives.size());
  for (std::size_t d = 0; d < a.drives.size(); ++d) {
    const trace::DriveHistory& x = a.drives[d];
    const trace::DriveHistory& y = b.drives[d];
    ASSERT_EQ(x.uid(), y.uid());
    ASSERT_EQ(x.deploy_day, y.deploy_day);
    ASSERT_EQ(x.records.size(), y.records.size());
    for (std::size_t r = 0; r < x.records.size(); ++r)
      ASSERT_EQ(x.records[r], y.records[r]) << "drive " << d << " record " << r;
    ASSERT_EQ(x.swaps.size(), y.swaps.size());
    for (std::size_t s = 0; s < x.swaps.size(); ++s)
      ASSERT_EQ(x.swaps[s].day, y.swaps[s].day);
    EXPECT_FALSE(y.truth.has_value());  // ground truth never serialized
  }
}

/// FNV-1a digest of a file image: the bytes folded eight at a time
/// (zero-padded tail), then the length.
std::uint64_t image_digest(const std::string& bytes) {
  std::uint64_t h = stats::kFnv1aInit;
  for (std::size_t pos = 0; pos < bytes.size(); pos += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + pos, std::min<std::size_t>(8, bytes.size() - pos));
    h = stats::fnv1a_mix(h, word);
  }
  return stats::fnv1a_mix(h, bytes.size());
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "ssdf2_" + name + ".bin";
}

TEST(ColumnarStore, RoundTripsSimulatedFleet) {
  const trace::FleetTrace fleet = simulated_fleet();
  const auto view = ColumnarFleetView::from_buffer(encode(fleet, 5));
  EXPECT_EQ(view.drive_count(), fleet.drives.size());
  EXPECT_EQ(view.total_records(), fleet.total_records());
  EXPECT_EQ(view.total_swaps(), fleet.total_swaps());
  expect_fleets_equal(fleet, materialize(view));
}

// The exact bytes both writers emit, pinned: any change to the column
// order, widths, padding, codec choice or zone maps moves a digest.
TEST(ColumnarStore, EncodingBytesArePinned) {
  // A mixed-class fleet (so the HDD/NVMe columns carry data) plus the
  // hand-built edge shapes (empty drives, flags, swaps).
  sim::FleetConfig cfg;
  cfg.drives_per_model = 8;
  cfg.window_days = 400;
  cfg.seed = 2024;
  trace::FleetTrace fleet = sim::FleetSimulator(cfg.mixed()).generate_all();
  for (trace::DriveHistory& drive : tiny_fleet().drives)
    fleet.drives.push_back(std::move(drive));

  struct Pin {
    std::uint32_t version;
    std::uint32_t chunk_drives;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {kColumnarVersion, 1, 0x13f555739b051056ull},
      {kColumnarVersion, 3, 0x7c9f22a927802d97ull},
      {kColumnarVersion, 256, 0xe240da48640b768eull},
      {kColumnarVersionV3, 1, 0x430ea2ffaf33c1f4ull},
      {kColumnarVersionV3, 3, 0x4488ab65cfee6bafull},
      {kColumnarVersionV3, 256, 0x7a531c4b742ce85aull},
  };
  for (const Pin& pin : pins) {
    std::ostringstream out(std::ios::binary);
    write_columnar(out, fleet, {pin.chunk_drives, pin.version});
    EXPECT_EQ(image_digest(out.str()), pin.digest)
        << "v" << pin.version << " chunk_drives " << pin.chunk_drives << " digest 0x"
        << std::hex << image_digest(out.str());
  }
}

// The column table's names follow the trace schema it stores.
TEST(ColumnarStore, ColumnTableNamesFollowTheTraceSchema) {
  for (std::size_t e = 0; e < trace::kNumErrorTypes; ++e)
    EXPECT_EQ(kColumnNames[static_cast<std::size_t>(ZoneColumn::kError0) + e],
              "err_" + std::string(trace::error_name(static_cast<trace::ErrorType>(e))));
  for (std::size_t x = 0; x < trace::kNumExtCounterFields; ++x)
    EXPECT_EQ(kColumnNames[static_cast<std::size_t>(ZoneColumn::kReallocatedSectors) + x],
              trace::kExtCounterFields[x].name);
  EXPECT_EQ(kColumnNames[static_cast<std::size_t>(ZoneColumn::kSwapDay)], "swap_day");
}

TEST(ColumnarStore, RoundTripsTinyFleetAtEveryChunkSize) {
  const trace::FleetTrace fleet = tiny_fleet();
  for (std::uint32_t chunk_drives : {1u, 2u, 3u, 7u, 64u}) {
    const auto view = ColumnarFleetView::from_buffer(encode(fleet, chunk_drives));
    expect_fleets_equal(fleet, materialize(view));
    EXPECT_EQ(view.chunk_drives(), chunk_drives);
    EXPECT_EQ(view.chunk_count(),
              (fleet.drives.size() + chunk_drives - 1) / chunk_drives);
  }
}

TEST(ColumnarStore, EmptyFleetRoundTrips) {
  const auto view = ColumnarFleetView::from_buffer(encode(trace::FleetTrace{}, 8));
  EXPECT_EQ(view.chunk_count(), 0u);
  EXPECT_EQ(view.drive_count(), 0u);
  EXPECT_EQ(view.total_records(), 0u);
  EXPECT_TRUE(materialize(view).drives.empty());
}

TEST(ColumnarStore, WriterTreatsZeroChunkDrivesAsOne) {
  const trace::FleetTrace fleet = tiny_fleet();
  const auto view = ColumnarFleetView::from_buffer(encode(fleet, 0));
  EXPECT_EQ(view.chunk_count(), fleet.drives.size());
  expect_fleets_equal(fleet, materialize(view));
}

TEST(ColumnarStore, DriveRefsMatchSourceOrderAndUids) {
  const trace::FleetTrace fleet = tiny_fleet();
  const auto view = ColumnarFleetView::from_buffer(encode(fleet, 3));
  std::size_t d = 0;
  for (std::size_t c = 0; c < view.chunk_count(); ++c) {
    const ChunkView& chunk = view.chunk(c);
    std::size_t expect_row = 0;
    for (const DriveRef& ref : chunk.drives) {
      EXPECT_EQ(ref.uid(), fleet.drives[d].uid());
      EXPECT_EQ(ref.row_begin, expect_row);
      EXPECT_EQ(ref.row_count, fleet.drives[d].records.size());
      expect_row += ref.row_count;
      ++d;
    }
    EXPECT_EQ(chunk.day.size(), expect_row);
  }
  EXPECT_EQ(d, fleet.drives.size());
}

TEST(ColumnarStore, GatherDriveReusesScratchVectors) {
  const trace::FleetTrace fleet = tiny_fleet();
  const auto view = ColumnarFleetView::from_buffer(encode(fleet, 64));
  const ChunkView& chunk = view.chunk(0);
  trace::DriveHistory scratch;
  scratch.truth.emplace();  // must be cleared by gather
  for (std::size_t d = 0; d < fleet.drives.size(); ++d) {
    chunk.gather_drive(chunk.drives[d], scratch);
    EXPECT_FALSE(scratch.truth.has_value());
    ASSERT_EQ(scratch.records.size(), fleet.drives[d].records.size());
    for (std::size_t r = 0; r < scratch.records.size(); ++r)
      EXPECT_EQ(scratch.records[r], fleet.drives[d].records[r]);
  }
}

TEST(ColumnarStore, OpenIsMmapBackedAndMatchesHeapOpen) {
  const trace::FleetTrace fleet = simulated_fleet(6);
  const std::string path = temp_path("mmap_vs_heap");
  write_columnar_file(path, fleet, {4});

  const auto mapped = ColumnarFleetView::open(path);
  OpenOptions no_mmap;
  no_mmap.allow_mmap = false;
  const auto heap = ColumnarFleetView::open(path, no_mmap);

#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(mapped.mmap_backed());
#endif
  EXPECT_FALSE(heap.mmap_backed());
  expect_fleets_equal(materialize(mapped), materialize(heap));
  expect_fleets_equal(fleet, materialize(mapped));
  std::remove(path.c_str());
}

TEST(ColumnarStore, ViewCopiesShareBackingAndOutliveTheOriginal) {
  const trace::FleetTrace fleet = tiny_fleet();
  std::vector<ColumnarFleetView> copies;
  {
    const auto view = ColumnarFleetView::from_buffer(encode(fleet, 2));
    copies.push_back(view);
    copies.push_back(view);
  }
  expect_fleets_equal(fleet, materialize(copies[0]));
  EXPECT_EQ(copies[1].chunk(0).day.data(), copies[0].chunk(0).day.data());
}

TEST(ColumnarStore, OpenMissingFileThrows) {
  EXPECT_THROW((void)ColumnarFleetView::open(temp_path("does_not_exist_xyz")),
               std::runtime_error);
}

TEST(ColumnarStore, DetectsCorruptionInEveryRegion) {
  const trace::FleetTrace fleet = tiny_fleet();
  const std::vector<char> good = encode(fleet, 3);
  // One probe byte in each structural region: header, chunk drive index,
  // column data, footer directory, trailer.
  const std::size_t probes[] = {5, 30, good.size() / 2, good.size() - 40,
                                good.size() - 4};
  for (const std::size_t pos : probes) {
    std::vector<char> bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    EXPECT_THROW((void)ColumnarFleetView::from_buffer(std::move(bad)),
                 std::runtime_error)
        << "flip at byte " << pos << " was not detected";
  }
}

TEST(ColumnarStore, CrcFailureIncrementsCounter) {
  const trace::FleetTrace fleet = tiny_fleet();
  std::vector<char> bad = encode(fleet, 64);
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 1);
  auto& counter = obs::MetricsRegistry::global().counter("store_crc_failures_total");
  const std::uint64_t before = counter.value();
  EXPECT_THROW((void)ColumnarFleetView::from_buffer(std::move(bad)),
               std::runtime_error);
  EXPECT_GT(counter.value(), before);
}

TEST(ColumnarStore, VerifyCrcOffSkipsColumnChecks) {
  const trace::FleetTrace fleet = tiny_fleet();
  std::vector<char> good = encode(fleet, 64);
  // Flip one column byte far from the structural metadata: with CRC
  // verification off the open succeeds and the corruption is silent —
  // exactly the trade the OpenOptions comment documents.
  std::vector<char> bad = good;
  const std::size_t pos = good.size() / 2;
  bad[pos] = static_cast<char>(bad[pos] ^ 1);
  OpenOptions trusting;
  trusting.verify_crc = false;
  const auto view = ColumnarFleetView::from_buffer(std::move(bad), trusting);
  EXPECT_EQ(view.drive_count(), fleet.drives.size());
}

TEST(ColumnarStore, EveryTruncationThrows) {
  const trace::FleetTrace fleet = tiny_fleet();
  const std::vector<char> good = encode(fleet, 3);
  for (std::size_t len = 0; len < good.size(); ++len) {
    std::vector<char> prefix(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)ColumnarFleetView::from_buffer(std::move(prefix)),
                 std::runtime_error)
        << "prefix of " << len << " bytes was accepted";
  }
}

TEST(ColumnarStore, ChunksReadCounterAdvances) {
  const trace::FleetTrace fleet = tiny_fleet();
  auto& counter = obs::MetricsRegistry::global().counter("store_chunks_read_total");
  const std::uint64_t before = counter.value();
  const auto view = ColumnarFleetView::from_buffer(encode(fleet, 2));
  EXPECT_EQ(counter.value() - before, view.chunk_count());
}

TEST(Crc32, MatchesKnownVectorAndChains) {
  // The standard IEEE test vector: crc32("123456789") == 0xCBF43926.
  const char data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(0, {data, sizeof(data)}), 0xCBF43926u);
  // zlib-style chaining: crc(a ++ b) == crc(crc(a), b).
  EXPECT_EQ(crc32(crc32(0, {data, 4}), {data + 4, sizeof(data) - 4}),
            crc32(0, {data, sizeof(data)}));
  EXPECT_EQ(detail::crc32_table(0, {data, sizeof(data)}), 0xCBF43926u);
}

/// Bit-at-a-time CRC-32 straight from the definition: the oracle for both
/// the dispatched crc32 (carry-less-multiply folding where the host has
/// it) and the table path.
std::uint32_t crc32_bitwise(std::uint32_t crc, std::span<const char> bytes) {
  std::uint32_t c = ~crc;
  for (const char b : bytes) {
    c ^= static_cast<std::uint8_t>(b);
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return ~c;
}

std::vector<char> random_bytes(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<char> bytes(n);
  for (char& b : bytes) b = static_cast<char>(rng.next_u32());
  return bytes;
}

TEST(Crc32, EveryLengthAndOffsetMatchesBitwiseReference) {
  // Lengths straddle the folding path's 64-byte entry and its 16-byte
  // tail at every alignment of the start.
  const std::vector<char> bytes = random_bytes(1100 + 16, 5);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const std::span<const char> span(bytes.data() + offset, len);
      const std::uint32_t seed = static_cast<std::uint32_t>(len * 2654435761u);
      const std::uint32_t want = crc32_bitwise(seed, span);
      ASSERT_EQ(crc32(seed, span), want) << "offset " << offset << " len " << len;
      ASSERT_EQ(detail::crc32_table(seed, span), want)
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32, LongSpansMatchBitwiseReference) {
  // One 512-record WAL segment payload (47,104 bytes) and a 70 KB span.
  for (const std::size_t len : {std::size_t{47104}, std::size_t{70} * 1024}) {
    const std::vector<char> bytes = random_bytes(len, len);
    const std::uint32_t want = crc32_bitwise(0, bytes);
    EXPECT_EQ(crc32(0, bytes), want) << len;
    EXPECT_EQ(detail::crc32_table(0, bytes), want) << len;
  }
}

TEST(Crc32, ChainedCallsMatchOneCallAtEverySplit) {
  const std::vector<char> bytes = random_bytes(300, 9);
  const std::span<const char> all(bytes);
  const std::uint32_t want = crc32_bitwise(0, all);
  ASSERT_EQ(crc32(0, all), want);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    const auto head = all.first(split);
    const auto tail = all.subspan(split);
    EXPECT_EQ(crc32(crc32(0, head), tail), want) << split;
    EXPECT_EQ(detail::crc32_table(detail::crc32_table(0, head), tail), want) << split;
  }
}

}  // namespace
}  // namespace ssdfail::store
