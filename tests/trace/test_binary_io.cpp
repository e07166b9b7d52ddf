#include "trace/binary_io.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/fleet_observation.hpp"
#include "daemon/wal.hpp"
#include "sim/fleet_simulator.hpp"
#include "trace/trace_io.hpp"

namespace ssdfail::trace {
namespace {

void expect_same_fleet(const FleetTrace& a, const FleetTrace& b, const char* codec) {
  SCOPED_TRACE(codec);
  ASSERT_EQ(a.drives.size(), b.drives.size());
  for (std::size_t d = 0; d < a.drives.size(); ++d) {
    ASSERT_EQ(a.drives[d].uid(), b.drives[d].uid());
    ASSERT_EQ(a.drives[d].deploy_day, b.drives[d].deploy_day);
    ASSERT_EQ(a.drives[d].records.size(), b.drives[d].records.size());
    for (std::size_t r = 0; r < a.drives[d].records.size(); ++r)
      ASSERT_EQ(a.drives[d].records[r], b.drives[d].records[r])
          << "drive " << d << " record " << r;
    ASSERT_EQ(a.drives[d].swaps.size(), b.drives[d].swaps.size());
    for (std::size_t s = 0; s < a.drives[d].swaps.size(); ++s)
      ASSERT_EQ(a.drives[d].swaps[s].day, b.drives[d].swaps[s].day);
    EXPECT_FALSE(b.drives[d].truth.has_value());  // ground truth never serialized
  }
}

FleetTrace binary_round_trip(const FleetTrace& fleet, std::uint32_t version) {
  std::ostringstream out(std::ios::binary);
  if (version == kBinaryFormatVersion) write_binary(out, fleet);
  else if (version == kColumnarFormatVersion) write_binary_v2(out, fleet);
  else write_binary_v3(out, fleet);
  std::istringstream in(out.str());
  return read_binary(in);
}

FleetTrace csv_round_trip(const FleetTrace& fleet) {
  std::ostringstream daily;
  std::ostringstream swaps;
  write_daily_log(daily, fleet);
  write_swap_log(swaps, fleet);
  std::istringstream daily_in(daily.str());
  std::istringstream swaps_in(swaps.str());
  return read_fleet(daily_in, swaps_in);
}

/// Every drive-day of `fleet` through a WAL file, replayed in order.
std::vector<core::FleetObservation> wal_round_trip(const FleetTrace& fleet) {
  std::vector<core::FleetObservation> stream;
  for (const DriveHistory& d : fleet.drives)
    for (const DailyRecord& r : d.records)
      stream.push_back({d.model, d.drive_index, d.deploy_day, r});
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("ssdfail_roundtrip_" + std::to_string(::getpid()) + ".swal");
  std::filesystem::remove(path);
  daemon::WalWriter(path.string(), 0, daemon::FsyncPolicy::kNever).append(stream);
  std::vector<core::FleetObservation> back;
  (void)daemon::replay_wal(path.string(), [&](const daemon::WalSegment& segment) {
    back.insert(back.end(), segment.records.begin(), segment.records.end());
  });
  std::filesystem::remove(path);
  return back;
}

// Every codec of a drive-day gives back the source records exactly: the
// CSV daily log, v1 rows, v2 and v3 columns through read_binary, and the
// WAL observation payload.  The mixed fleet carries the HDD and NVMe
// counters the MLC-only fleet leaves at zero.
TEST(BinaryIo, RoundTripSimulatedFleet) {
  sim::FleetConfig mlc;
  mlc.drives_per_model = 30;
  sim::FleetConfig mixed;
  mixed.drives_per_model = 10;
  mixed.seed = 5;
  mixed = mixed.mixed();
  for (const sim::FleetConfig& cfg : {mlc, mixed}) {
    const FleetTrace fleet = sim::FleetSimulator(cfg).generate_all();
    SCOPED_TRACE(cfg.models.size() == kNumModels ? "mixed fleet" : "mlc fleet");
    expect_same_fleet(fleet, csv_round_trip(fleet), "csv");
    for (const std::uint32_t version :
         {kBinaryFormatVersion, kColumnarFormatVersion, kColumnarV3FormatVersion}) {
      SCOPED_TRACE(::testing::Message() << "binary format version " << version);
      expect_same_fleet(fleet, binary_round_trip(fleet, version), "read_binary");
    }

    const std::vector<core::FleetObservation> back = wal_round_trip(fleet);
    ASSERT_EQ(back.size(), fleet.total_records());
    std::size_t at = 0;
    for (const DriveHistory& d : fleet.drives)
      for (const DailyRecord& r : d.records) {
        ASSERT_EQ(back[at].uid(), d.uid()) << "wal observation " << at;
        ASSERT_EQ(back[at].deploy_day, d.deploy_day) << "wal observation " << at;
        ASSERT_EQ(back[at].record, r) << "wal observation " << at;
        ++at;
      }
  }
}

TEST(BinaryIo, RejectsBadMagic) {
  std::istringstream in("NOPE....");
  EXPECT_THROW((void)read_binary(in), std::runtime_error);
}

TEST(BinaryIo, RejectsUnsupportedVersion) {
  std::ostringstream out;
  out.write("SSDF", 4);
  const std::uint32_t bad_version = 999;
  out.write(reinterpret_cast<const char*>(&bad_version), 4);
  const std::uint64_t zero = 0;
  out.write(reinterpret_cast<const char*>(&zero), 8);
  std::istringstream in(out.str());
  EXPECT_THROW((void)read_binary(in), std::runtime_error);
}

TEST(BinaryIo, RejectsTruncatedStream) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = 2;
  const FleetTrace fleet = sim::FleetSimulator(cfg).generate_all();
  std::ostringstream out;
  write_binary(out, fleet);
  const std::string full = out.str();
  std::istringstream in(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)read_binary(in), std::runtime_error);
}

TEST(BinaryIo, EmptyFleetRoundTrips) {
  std::ostringstream out;
  write_binary(out, FleetTrace{});
  std::istringstream in(out.str());
  EXPECT_TRUE(read_binary(in).drives.empty());
}

TEST(BinaryIo, MoreCompactThanCsv) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = 10;
  const FleetTrace fleet = sim::FleetSimulator(cfg).generate_all();
  std::ostringstream bin;
  write_binary(bin, fleet);
  // kRecordWireBytes (83) per record plus headers; CSV is ~3x that.
  EXPECT_LT(bin.str().size(), fleet.total_records() * (kRecordWireBytes + 10) + 4096);
}

}  // namespace
}  // namespace ssdfail::trace
