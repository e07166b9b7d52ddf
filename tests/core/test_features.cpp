#include "core/features.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace ssdfail::core {
namespace {

using trace::DailyRecord;
using trace::DriveHistory;
using trace::ErrorType;

TEST(FeatureExtractor, NamesAreUniqueAndStable) {
  const auto& names = FeatureExtractor::names();
  EXPECT_EQ(names.size(), FeatureExtractor::count());
  for (std::size_t i = 0; i < names.size(); ++i)
    for (std::size_t j = i + 1; j < names.size(); ++j)
      EXPECT_NE(names[i], names[j]);
  // The Fig 16 headline features must exist.
  EXPECT_NO_THROW((void)FeatureExtractor::index_of("drive_age_days"));
  EXPECT_NO_THROW((void)FeatureExtractor::index_of("cum_bad_block_count"));
  EXPECT_NO_THROW((void)FeatureExtractor::index_of("corr_err_rate"));
  EXPECT_NO_THROW((void)FeatureExtractor::index_of("status_read_only"));
  EXPECT_THROW((void)FeatureExtractor::index_of("bogus"), std::out_of_range);
}

TEST(FeatureExtractor, DailyAndCumulativeColumns) {
  DriveHistory d;
  d.deploy_day = 10;

  DailyRecord r1;
  r1.day = 10;
  r1.reads = 100;
  r1.writes = 50;
  r1.errors[static_cast<std::size_t>(ErrorType::kUncorrectable)] = 3;
  DailyRecord r2;
  r2.day = 11;
  r2.reads = 200;
  r2.writes = 70;

  FeatureExtractor::State st;
  std::vector<float> row(FeatureExtractor::count());
  FeatureExtractor::advance(st, r1);
  FeatureExtractor::extract(d.deploy_day, r1, st, row);
  EXPECT_FLOAT_EQ(row[FeatureExtractor::index_of("read_count")], 100.0f);
  EXPECT_FLOAT_EQ(row[FeatureExtractor::index_of("cum_read_count")], 100.0f);
  EXPECT_FLOAT_EQ(row[FeatureExtractor::index_of("uncorrectable_error")], 3.0f);
  EXPECT_FLOAT_EQ(row[FeatureExtractor::index_of("drive_age_days")], 0.0f);

  FeatureExtractor::advance(st, r2);
  FeatureExtractor::extract(d.deploy_day, r2, st, row);
  EXPECT_FLOAT_EQ(row[FeatureExtractor::index_of("read_count")], 200.0f);
  EXPECT_FLOAT_EQ(row[FeatureExtractor::index_of("cum_read_count")], 300.0f);
  EXPECT_FLOAT_EQ(row[FeatureExtractor::index_of("uncorrectable_error")], 0.0f);
  EXPECT_FLOAT_EQ(row[FeatureExtractor::index_of("cum_uncorrectable_error")], 3.0f);
  EXPECT_FLOAT_EQ(row[FeatureExtractor::index_of("drive_age_days")], 1.0f);
}

TEST(FeatureExtractor, BadBlockDeltaAndCumulative) {
  DriveHistory d;
  DailyRecord r1;
  r1.day = 0;
  r1.bad_blocks = 5;
  r1.factory_bad_blocks = 2;
  DailyRecord r2;
  r2.day = 1;
  r2.bad_blocks = 9;
  r2.factory_bad_blocks = 2;

  FeatureExtractor::State st;
  std::vector<float> row(FeatureExtractor::count());
  FeatureExtractor::advance(st, r1);
  FeatureExtractor::extract(d.deploy_day, r1, st, row);
  EXPECT_FLOAT_EQ(row[FeatureExtractor::index_of("new_bad_blocks")], 5.0f);
  EXPECT_FLOAT_EQ(row[FeatureExtractor::index_of("cum_bad_block_count")], 7.0f);

  FeatureExtractor::advance(st, r2);
  FeatureExtractor::extract(d.deploy_day, r2, st, row);
  EXPECT_FLOAT_EQ(row[FeatureExtractor::index_of("new_bad_blocks")], 4.0f);
  EXPECT_FLOAT_EQ(row[FeatureExtractor::index_of("cum_bad_block_count")], 11.0f);
}

TEST(FeatureExtractor, CorrErrRate) {
  DriveHistory d;
  DailyRecord r;
  r.day = 0;
  r.reads = 1000;
  r.errors[static_cast<std::size_t>(ErrorType::kCorrectable)] = 250;

  FeatureExtractor::State st;
  std::vector<float> row(FeatureExtractor::count());
  FeatureExtractor::advance(st, r);
  FeatureExtractor::extract(d.deploy_day, r, st, row);
  EXPECT_FLOAT_EQ(row[FeatureExtractor::index_of("corr_err_rate")], 0.25f);
}

TEST(FeatureExtractor, ReadOnlyFlag) {
  DriveHistory d;
  DailyRecord r;
  r.day = 0;
  r.read_only = true;
  FeatureExtractor::State st;
  std::vector<float> row(FeatureExtractor::count());
  FeatureExtractor::advance(st, r);
  FeatureExtractor::extract(d.deploy_day, r, st, row);
  EXPECT_FLOAT_EQ(row[FeatureExtractor::index_of("status_read_only")], 1.0f);
}

TEST(FeatureExtractor, WrongSpanSizeThrows) {
  DriveHistory d;
  DailyRecord r;
  FeatureExtractor::State st;
  std::vector<float> too_small(3);
  EXPECT_THROW(FeatureExtractor::extract(d.deploy_day, r, st, too_small), std::invalid_argument);
}

TEST(DriveFeatureCursor, RejectsOutOfOrderRecords) {
  // The streaming scorers sanitize first, so only a direct caller can trip
  // the cursor's day-order check; a rejected record leaves state untouched.
  DriveFeatureCursor cursor(trace::DriveModel::MlcB, 10);
  std::vector<float> row(FeatureExtractor::count());
  trace::DailyRecord rec;
  rec.day = 12;
  cursor.advance_and_extract(rec, row);
  rec.day = 12;
  EXPECT_THROW(cursor.advance_and_extract(rec, row), std::invalid_argument);
  rec.day = 11;
  EXPECT_THROW(cursor.advance_and_extract(rec, row), std::invalid_argument);
  EXPECT_EQ(cursor.days_observed(), 1u);
  EXPECT_EQ(cursor.last_day(), 12);
  rec.day = 13;
  EXPECT_NO_THROW(cursor.advance_and_extract(rec, row));
  EXPECT_EQ(cursor.days_observed(), 2u);
}

}  // namespace
}  // namespace ssdfail::core
