#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace ssdfail::trace {
namespace {

FleetTrace make_small_fleet() {
  FleetTrace fleet;
  DriveHistory d1;
  d1.model = DriveModel::MlcB;
  d1.drive_index = 3;
  d1.deploy_day = 10;
  DailyRecord r;
  r.day = 10;
  r.reads = 1000;
  r.writes = 2000;
  r.erases = 30;
  r.pe_cycles = 1;
  r.bad_blocks = 2;
  r.factory_bad_blocks = 5;
  r.read_only = false;
  r.dead = false;
  r.errors[static_cast<std::size_t>(ErrorType::kCorrectable)] = 999;
  r.errors[static_cast<std::size_t>(ErrorType::kUncorrectable)] = 3;
  d1.records.push_back(r);
  r.day = 11;
  r.read_only = true;
  d1.records.push_back(r);
  d1.swaps.push_back({15});

  DriveHistory d2;
  d2.model = DriveModel::MlcA;
  d2.drive_index = 7;
  d2.deploy_day = 0;
  DailyRecord r2;
  r2.day = 0;
  r2.dead = true;
  d2.records.push_back(r2);

  fleet.drives.push_back(std::move(d1));
  fleet.drives.push_back(std::move(d2));
  return fleet;
}

TEST(TraceIo, RoundTripPreservesEverythingObservable) {
  const FleetTrace fleet = make_small_fleet();
  std::ostringstream daily;
  std::ostringstream swaps;
  write_daily_log(daily, fleet);
  write_swap_log(swaps, fleet);

  std::istringstream daily_in(daily.str());
  std::istringstream swaps_in(swaps.str());
  const FleetTrace back = read_fleet(daily_in, swaps_in);

  ASSERT_EQ(back.drives.size(), 2u);
  const DriveHistory& d1 = back.drives[0];
  EXPECT_EQ(d1.model, DriveModel::MlcB);
  EXPECT_EQ(d1.drive_index, 3u);
  EXPECT_EQ(d1.deploy_day, 10);
  ASSERT_EQ(d1.records.size(), 2u);
  EXPECT_EQ(d1.records[0].reads, 1000u);
  EXPECT_EQ(d1.records[0].error(ErrorType::kUncorrectable), 3u);
  EXPECT_EQ(d1.records[0].factory_bad_blocks, 5u);
  EXPECT_FALSE(d1.records[0].read_only);
  EXPECT_TRUE(d1.records[1].read_only);
  ASSERT_EQ(d1.swaps.size(), 1u);
  EXPECT_EQ(d1.swaps[0].day, 15);

  const DriveHistory& d2 = back.drives[1];
  EXPECT_TRUE(d2.records[0].dead);
  EXPECT_TRUE(d2.swaps.empty());
}

TEST(TraceIo, GroundTruthIsNotSerialized) {
  FleetTrace fleet = make_small_fleet();
  fleet.drives[0].truth = GroundTruth{{12}, {false}, 2.0, 3.0};
  std::ostringstream daily;
  std::ostringstream swaps;
  write_daily_log(daily, fleet);
  write_swap_log(swaps, fleet);
  EXPECT_EQ(daily.str().find("frailty"), std::string::npos);

  std::istringstream daily_in(daily.str());
  std::istringstream swaps_in(swaps.str());
  const FleetTrace back = read_fleet(daily_in, swaps_in);
  EXPECT_FALSE(back.drives[0].truth.has_value());
}

TEST(TraceIo, HeaderColumnCountMatchesRows) {
  const FleetTrace fleet = make_small_fleet();
  std::ostringstream daily;
  write_daily_log(daily, fleet);
  std::istringstream in(daily.str());
  std::string header_line;
  std::getline(in, header_line);
  std::string first_row;
  std::getline(in, first_row);
  const auto count = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(count(header_line), count(first_row));
}

TEST(TraceIo, ReadsLogsWrittenBeforeTheClassCounters) {
  // A 23-column log (no class-specific counters) still reads, with those
  // counters 0; the first 23 header names are the ones it was written with.
  FleetTrace fleet = make_small_fleet();
  fleet.drives[0].records[0].seek_errors = 4;
  fleet.drives[1].records[0].media_wear = 9;
  std::ostringstream daily;
  write_daily_log(daily, fleet);
  const std::string legacy_header =
      "drive_uid,model,drive_index,deploy_day,day,reads,writes,erases,pe_cycles,"
      "bad_blocks,factory_bad_blocks,read_only,dead,correctable_errors,erase_errors,"
      "final_read_errors,final_write_errors,meta_errors,read_errors,response_errors,"
      "timeout_errors,uncorrectable_errors,write_errors";
  EXPECT_EQ(daily_log_header(),
            legacy_header + ",reallocated_sectors,seek_errors,media_wear,throttle_events");

  std::istringstream full(daily.str());
  std::string legacy;
  for (std::string line; std::getline(full, line);) {
    for (std::size_t n = 0; n < kNumExtCounterFields; ++n) line.erase(line.rfind(','));
    legacy += line + '\n';
  }

  std::istringstream daily_in(legacy);
  std::istringstream swaps_in("drive_uid,model,drive_index,day\n");
  const FleetTrace back = read_fleet(daily_in, swaps_in);
  ASSERT_EQ(back.drives.size(), fleet.drives.size());
  for (DriveHistory& d : fleet.drives)
    for (DailyRecord& r : d.records)
      for (const RecordCounterField& f : kExtCounterFields) r.*f.field = 0;
  for (std::size_t d = 0; d < back.drives.size(); ++d)
    EXPECT_EQ(back.drives[d].records, fleet.drives[d].records) << "drive " << d;
}

TEST(TraceIo, RejectsMalformedInput) {
  std::istringstream daily("drive_uid,bogus\n1,MLC-A\n");
  std::istringstream swaps("drive_uid,model,drive_index,day\n");
  EXPECT_THROW((void)read_fleet(daily, swaps), std::runtime_error);
}

TEST(TraceIo, RejectsSwapForUnknownDrive) {
  const FleetTrace fleet = make_small_fleet();
  std::ostringstream daily;
  write_daily_log(daily, fleet);
  std::istringstream daily_in(daily.str());
  std::istringstream swaps_in("drive_uid,model,drive_index,day\n999999,MLC-A,9,5\n");
  EXPECT_THROW((void)read_fleet(daily_in, swaps_in), std::runtime_error);
}

TEST(TraceIo, EmptyDailyLogThrows) {
  std::istringstream daily("");
  std::istringstream swaps("");
  EXPECT_THROW((void)read_fleet(daily, swaps), std::runtime_error);
}

}  // namespace
}  // namespace ssdfail::trace
