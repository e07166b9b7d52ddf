// ScoringShard: the per-record outcome taxonomy of the shared online
// scoring kernel (clean, repaired, quarantined by kind, duplicate), its
// null-model (degraded) mode, and the non-finite score clamp; and the
// day-ordered replay stream the kernel's callers feed it.

#include "core/scoring_shard.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <utility>
#include <vector>

namespace ssdfail::core {
namespace {

using robustness::SanitizeAction;

/// Scores every row `value` and counts predict_proba calls.
class ConstantModel final : public ml::Classifier {
 public:
  explicit ConstantModel(float value) : value_(value) {}
  void fit(const ml::Dataset&) override {}
  [[nodiscard]] std::vector<float> predict_proba(const ml::Matrix& x) const override {
    ++calls;
    return std::vector<float>(x.rows(), value_);
  }
  [[nodiscard]] std::string name() const override { return "constant"; }
  [[nodiscard]] std::unique_ptr<ml::Classifier> clone() const override {
    return std::make_unique<ConstantModel>(value_);
  }
  mutable int calls = 0;

 private:
  float value_;
};

ScoringShard make_shard(double threshold) {
  return ScoringShard(threshold, robustness::SanitizerConfig{});
}

FleetObservation observation(std::uint32_t drive, std::int32_t day) {
  trace::DailyRecord rec;
  rec.day = day;
  rec.reads = 100 + drive;
  rec.writes = 40;
  rec.erases = 4;
  rec.pe_cycles = 10 + static_cast<std::uint32_t>(day);
  rec.factory_bad_blocks = 4;
  return {trace::DriveModel::MlcA, drive, 0, rec};
}

TEST(ScoringShard, CleanBatchScoresEveryRecordWithOnePredictCall) {
  ScoringShard shard = make_shard(0.6);
  ConstantModel model(0.6f);
  std::vector<FleetObservation> batch;
  for (std::int32_t day = 0; day < 2; ++day)
    for (std::uint32_t d = 0; d < 3; ++d) batch.push_back(observation(d, day));

  const ScoredBatch& out = shard.score(batch, &model);
  EXPECT_EQ(model.calls, 1);
  ASSERT_EQ(out.records.size(), batch.size());
  ASSERT_EQ(out.accepted(), batch.size());
  EXPECT_EQ(out.features.rows(), batch.size());
  EXPECT_EQ(out.features.cols(), FeatureExtractor::count());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(out.records[i].action, SanitizeAction::kClean);
    EXPECT_FLOAT_EQ(out.records[i].score, 0.6f);
    EXPECT_TRUE(out.records[i].alert);  // score == threshold alerts
    EXPECT_EQ(out.sanitized[i], batch[i].record);
  }
  EXPECT_EQ(out.alerts, batch.size());
  EXPECT_EQ(out.non_finite, 0u);
  EXPECT_EQ(shard.drives_tracked(), 3u);

  // Known drives keep their cursor.
  const std::vector<FleetObservation> next{observation(0, 2)};
  (void)shard.score(next, &model);
  EXPECT_EQ(shard.drives_tracked(), 3u);
}

TEST(ScoringShard, RepairedRecordIsScoredWithItsKind) {
  ScoringShard shard = make_shard(0.5);
  ConstantModel model(0.25f);
  std::vector<FleetObservation> batch{observation(7, 10), observation(7, 11)};
  batch[0].record.pe_cycles = 500;
  batch[1].record.pe_cycles = 3;  // controller reset: cumulative P/E regressed

  const ScoredBatch& out = shard.score(batch, &model);
  ASSERT_EQ(out.accepted(), 2u);
  EXPECT_EQ(out.records[1].action, SanitizeAction::kRepaired);
  EXPECT_EQ(out.records[1].kind, trace::ViolationKind::kDecreasingPeCycles);
  EXPECT_FLOAT_EQ(out.records[1].score, 0.25f);
  EXPECT_FALSE(out.records[1].alert);
  // The tap sees the repaired copy, not the raw record.
  EXPECT_EQ(out.sanitized[1].pe_cycles, 500u);
}

TEST(ScoringShard, QuarantineCarriesTheViolationKindAndSkipsTheModel) {
  ScoringShard shard = make_shard(0.0);
  ConstantModel model(0.9f);
  std::vector<FleetObservation> batch{observation(1, 10), observation(1, 9),
                                      observation(2, 5), observation(3, 4),
                                      observation(1, 11)};
  batch[2].deploy_day = 6;               // record predates deploy
  batch[3].record.reads = 0xFFFFFFFFu;   // saturated counter garbage

  const ScoredBatch& out = shard.score(batch, &model);
  EXPECT_EQ(out.records[1].action, SanitizeAction::kQuarantined);
  EXPECT_EQ(out.records[1].kind, trace::ViolationKind::kNonMonotoneDays);
  EXPECT_EQ(out.records[2].action, SanitizeAction::kQuarantined);
  EXPECT_EQ(out.records[2].kind, trace::ViolationKind::kRecordBeforeDeploy);
  EXPECT_EQ(out.records[3].action, SanitizeAction::kQuarantined);
  EXPECT_EQ(out.records[3].kind, trace::ViolationKind::kImplausibleValue);
  for (std::size_t i : {1u, 2u, 3u}) {
    EXPECT_FALSE(out.records[i].accepted());
    EXPECT_FLOAT_EQ(out.records[i].score, 0.0f);
    EXPECT_FALSE(out.records[i].alert);  // even at threshold 0
  }
  // Survivors keep input order in the feature rows and sanitized records.
  ASSERT_EQ(out.accepted(), 2u);
  EXPECT_EQ(out.features.rows(), 2u);
  EXPECT_EQ(out.sanitized[0].day, 10);
  EXPECT_EQ(out.sanitized[1].day, 11);
  EXPECT_EQ(out.alerts, 2u);
  EXPECT_EQ(shard.drives_tracked(), 1u);  // quarantined drives get no cursor
  EXPECT_EQ(shard.sanitizer().snapshot().records_quarantined, 3u);
}

TEST(ScoringShard, ExactDuplicateIsDroppedNotQuarantined) {
  ScoringShard shard = make_shard(0.5);
  ConstantModel model(0.1f);
  const std::vector<FleetObservation> batch{observation(4, 3), observation(4, 3)};

  const ScoredBatch& out = shard.score(batch, &model);
  EXPECT_EQ(out.records[0].action, SanitizeAction::kClean);
  EXPECT_EQ(out.records[1].action, SanitizeAction::kDuplicateDropped);
  EXPECT_FALSE(out.records[1].accepted());
  EXPECT_EQ(out.accepted(), 1u);
  const auto counters = shard.sanitizer().snapshot();
  EXPECT_EQ(counters.duplicates_dropped, 1u);
  EXPECT_EQ(counters.records_quarantined, 0u);
}

TEST(ScoringShard, NullModelAdvancesStateWithoutScoring) {
  ScoringShard degraded = make_shard(0.0);
  ScoringShard scored = make_shard(0.0);
  ConstantModel model(0.9f);
  std::vector<FleetObservation> batch;
  for (std::int32_t day = 0; day < 4; ++day) batch.push_back(observation(5, day));

  const ScoredBatch& out = degraded.score(batch, nullptr);
  ASSERT_EQ(out.accepted(), batch.size());
  EXPECT_EQ(out.features.rows(), batch.size());
  for (const ScoredRecord& r : out.records) {
    EXPECT_FLOAT_EQ(r.score, 0.0f);
    EXPECT_FALSE(r.alert);  // nothing alerts without a model, even at threshold 0
  }
  EXPECT_EQ(out.alerts, 0u);
  // Feature state is model-independent: a later promotion continues from it.
  (void)scored.score(batch, &model);
  EXPECT_EQ(degraded.cursor_digest(), scored.cursor_digest());
  EXPECT_NE(degraded.cursor_digest(), 0u);
}

TEST(ScoringShard, NonFiniteScoresClampToAlertAndCount) {
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    ScoringShard shard = make_shard(0.9);
    ConstantModel model(bad);
    const std::vector<FleetObservation> batch{observation(0, 0), observation(1, 0),
                                              observation(0, 0)};  // last: duplicate
    const ScoredBatch& out = shard.score(batch, &model);
    EXPECT_EQ(out.non_finite, 2u);
    EXPECT_EQ(out.alerts, 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(out.records[i].score, 1.0f);
      EXPECT_TRUE(out.records[i].alert);
    }
    EXPECT_FALSE(out.records[2].alert);  // dropped records are never scored
  }
}

TEST(ScoringShard, RetireForgetsCursorAndSanitizerState) {
  ScoringShard shard = make_shard(0.5);
  ConstantModel model(0.1f);
  const std::vector<FleetObservation> first{observation(9, 0), observation(9, 1)};
  (void)shard.score(first, &model);
  const std::uint64_t uid = first[0].uid();
  EXPECT_TRUE(shard.retire(uid));
  EXPECT_FALSE(shard.retire(uid));
  EXPECT_EQ(shard.drives_tracked(), 0u);
  // Day 0 again is a fresh drive, not an out-of-order record.
  const std::vector<FleetObservation> again{observation(9, 0)};
  const ScoredBatch& out = shard.score(again, &model);
  EXPECT_EQ(out.records[0].action, SanitizeAction::kClean);
  EXPECT_EQ(shard.drives_tracked(), 1u);
}

TEST(ScoringShard, ShardOfKeepsADriveOnOneShard) {
  for (std::uint32_t d = 0; d < 64; ++d) {
    const std::uint64_t uid = trace::drive_uid(trace::DriveModel::Nvme, d);
    EXPECT_EQ(shard_of(uid, 1), 0u);
    EXPECT_LT(shard_of(uid, 7), 7u);
    EXPECT_EQ(shard_of(uid, 7), shard_of(uid, 7));
  }
}

TEST(DayOrderedStream, DayMajorAndFleetOrderWithinADay) {
  trace::FleetTrace fleet;
  fleet.drives.resize(3);
  const std::vector<std::vector<std::int32_t>> days{{0, 2, 3}, {1, 2}, {0, 3}};
  for (std::uint32_t d = 0; d < 3; ++d) {
    fleet.drives[d].model = trace::DriveModel::MlcB;
    fleet.drives[d].drive_index = 10 + d;
    fleet.drives[d].deploy_day = -static_cast<std::int32_t>(d);
    for (const std::int32_t day : days[d]) {
      trace::DailyRecord rec;
      rec.day = day;
      fleet.drives[d].records.push_back(rec);
    }
  }
  const std::vector<FleetObservation> stream = day_ordered_stream(fleet);
  // (day, drive index) in stream order: days ascend, ties keep fleet order.
  const std::vector<std::pair<std::int32_t, std::uint32_t>> expected{
      {0, 10}, {0, 12}, {1, 11}, {2, 10}, {2, 11}, {3, 10}, {3, 12}};
  ASSERT_EQ(stream.size(), expected.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].record.day, expected[i].first) << "position " << i;
    EXPECT_EQ(stream[i].drive_index, expected[i].second) << "position " << i;
    EXPECT_EQ(stream[i].drive_model, trace::DriveModel::MlcB);
    EXPECT_EQ(stream[i].deploy_day, 10 - static_cast<std::int32_t>(expected[i].second));
  }
}

TEST(DayOrderedStream, EmptyFleetGivesAnEmptyStream) {
  EXPECT_TRUE(day_ordered_stream(trace::FleetTrace{}).empty());
  trace::FleetTrace recordless;
  recordless.drives.resize(2);
  EXPECT_TRUE(day_ordered_stream(recordless).empty());
}

}  // namespace
}  // namespace ssdfail::core
