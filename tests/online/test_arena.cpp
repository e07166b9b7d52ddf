// ModelArena tests: delayed-label maturation against the observation-day
// watermark, positive labeling from dead records and explicit retires, the
// promotion gate (margin + minimums), hysteresis on promote, the bounded
// matured window, the fairness reset when a challenger is installed
// mid-stream, and the one challenger slot (replace, clear, stale promote).

#include "online/arena.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.hpp"
#include "obs/metrics.hpp"

namespace ssdfail::online {
namespace {

/// Challenger that scores each row as its first feature — tests plant the
/// intended shadow score directly into the feature matrix.
class FirstFeatureModel final : public ml::Classifier {
 public:
  void fit(const ml::Dataset&) override {}
  [[nodiscard]] std::vector<float> predict_proba(const ml::Matrix& x) const override {
    std::vector<float> out(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) out[r] = x(r, 0);
    return out;
  }
  [[nodiscard]] std::string name() const override { return "first_feature"; }
  [[nodiscard]] std::unique_ptr<ml::Classifier> clone() const override {
    return std::make_unique<FirstFeatureModel>();
  }
};

struct Row {
  std::uint64_t uid = 0;
  std::int32_t day = 0;
  float champion = 0.5f;
  float challenger = 0.5f;  ///< planted as feature 0
  bool scored = true;
  bool dead = false;
};

void push_batch(ModelArena& arena, const std::vector<Row>& rows) {
  ml::Matrix features(rows.size(), 1);
  std::vector<daemon::DriveAssessment> assessments(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    features(i, 0) = rows[i].challenger;
    assessments[i].uid = rows[i].uid;
    assessments[i].day = rows[i].day;
    assessments[i].score = rows[i].champion;
    assessments[i].scored = rows[i].scored;
    assessments[i].dead = rows[i].dead;
  }
  arena.observe_batch(features, assessments);
}

/// Label horizon of every arena in this file.
constexpr int kLookahead = 3;

ArenaConfig tiny_config() {
  ArenaConfig cfg;
  cfg.min_samples = 1;
  cfg.min_positives = 0;
  return cfg;
}

TEST(ModelArena, RowsMatureOnlyWhenTheWatermarkPassesTheLookahead) {
  ModelArena arena(tiny_config(), kLookahead, nullptr);
  push_batch(arena, {{1, 0}});
  EXPECT_EQ(arena.pending_rows(), 1u);
  EXPECT_EQ(arena.matured_rows(), 0u);

  push_batch(arena, {{1, 2}});  // watermark 2 < 0 + 3: still pending
  EXPECT_EQ(arena.pending_rows(), 2u);
  EXPECT_EQ(arena.matured_rows(), 0u);

  push_batch(arena, {{1, 3}});  // watermark 3: the day-0 row matures
  EXPECT_EQ(arena.matured_rows(), 1u);
  EXPECT_EQ(arena.pending_rows(), 2u);
  EXPECT_EQ(arena.watermark_day(), 3);
  EXPECT_EQ(arena.evaluate().matured_positives, 0u) << "no failure: negative label";
}

TEST(ModelArena, DeadRecordWithinLookaheadLabelsPositive) {
  ModelArena arena(tiny_config(), kLookahead, nullptr);
  push_batch(arena, {{1, 0}});
  push_batch(arena, {{1, 2, 0.5f, 0.5f, false, true}});  // dies day 2, unscored row
  const ArenaVerdict v = arena.evaluate();
  EXPECT_EQ(v.matured_rows, 1u);
  EXPECT_EQ(v.matured_positives, 1u);
  // The failed drive's bookkeeping is dropped once nothing is pending.
  EXPECT_EQ(arena.pending_rows(), 0u);
}

TEST(ModelArena, FailureBeyondLookaheadLabelsNegative) {
  ModelArena arena(tiny_config(), kLookahead, nullptr);
  push_batch(arena, {{1, 0}});
  push_batch(arena, {{1, 10, 0.5f, 0.5f, false, true}});  // dies 10 days later
  const ArenaVerdict v = arena.evaluate();
  EXPECT_EQ(v.matured_rows, 1u);
  EXPECT_EQ(v.matured_positives, 0u);
}

TEST(ModelArena, RetireCountsAsFailureAtTheWatermark) {
  ModelArena arena(tiny_config(), kLookahead, nullptr);
  push_batch(arena, {{1, 5}, {2, 5}});
  const std::uint64_t retired[] = {1};
  arena.observe_retires(retired);
  const ArenaVerdict v = arena.evaluate();
  // Drive 1's day-5 row matures positive (failure at watermark 5); drive
  // 2's row still waits for day 8.
  EXPECT_EQ(v.matured_rows, 1u);
  EXPECT_EQ(v.matured_positives, 1u);
  EXPECT_EQ(arena.pending_rows(), 1u);
}

TEST(ModelArena, UnscoredRowsNeverEnterTheWindow) {
  ModelArena arena(tiny_config(), kLookahead, nullptr);
  push_batch(arena, {{1, 0, 0.5f, 0.5f, false}});
  EXPECT_EQ(arena.pending_rows(), 0u);
}

TEST(ModelArena, GateBlocksBelowMinimumsAndWithoutChallenger) {
  ArenaConfig cfg = tiny_config();
  cfg.min_samples = 100;
  cfg.min_positives = 2;
  ModelArena arena(cfg, kLookahead, nullptr);
  EXPECT_EQ(arena.evaluate().reason, "no challenger installed");

  arena.set_challenger("c1", std::make_shared<FirstFeatureModel>());
  push_batch(arena, {{1, 0, 0.5f, 0.9f}});
  push_batch(arena, {{1, 3}});
  const ArenaVerdict v = arena.evaluate();
  EXPECT_FALSE(v.promote);
  EXPECT_FALSE(v.enough_data);
  EXPECT_EQ(v.reason, "matured window below minimums");
}

/// Ten drives score one row each on day 0; the marked ones die on day 1.
/// The champion is uninformative (constant 0.5 -> AUC 0.5); the planted
/// challenger scores separate the classes perfectly (AUC 1.0).
void play_separable_round(ModelArena& arena, std::int32_t base_day) {
  std::vector<Row> batch;
  for (std::uint64_t d = 0; d < 10; ++d) {
    const bool doomed = d < 2;
    batch.push_back({100 + d, base_day, 0.5f, doomed ? 1.0f : 0.0f});
  }
  push_batch(arena, batch);
  push_batch(arena, {{100, base_day + 1, 0.5f, 0.5f, false, true},
                     {101, base_day + 1, 0.5f, 0.5f, false, true}});
  // Advance the watermark so the survivors mature negative.
  push_batch(arena, {{200, base_day + 3, 0.5f, 0.0f}});
}

TEST(ModelArena, SeparableChallengerPromotesAndPromotionResetsTheWindow) {
  ArenaConfig cfg = tiny_config();
  cfg.min_samples = 10;
  cfg.min_positives = 2;
  cfg.promote_margin = 0.1;
  obs::MetricsRegistry registry;
  ModelArena arena(cfg, kLookahead, &registry);
  arena.set_challenger("fresh", std::make_shared<FirstFeatureModel>());
  EXPECT_TRUE(arena.has_challenger());

  play_separable_round(arena, 0);
  const ArenaVerdict v = arena.evaluate();
  ASSERT_TRUE(v.enough_data);
  EXPECT_NEAR(v.champion_auc, 0.5, 1e-9);
  EXPECT_NEAR(v.challenger_auc, 1.0, 1e-9);
  EXPECT_EQ(v.challenger, "fresh");
  EXPECT_TRUE(v.promote);
  EXPECT_EQ(v.reason, "challenger beats champion by margin");

  arena.promote(v);
  EXPECT_FALSE(arena.has_challenger());
  EXPECT_EQ(arena.matured_rows(), 0u) << "hysteresis: clean slate after promote";
  EXPECT_EQ(arena.pending_rows(), 0u);
  ASSERT_EQ(arena.promotions().size(), 1u);
  EXPECT_EQ(arena.promotions()[0].challenger, "fresh");
  EXPECT_NEAR(arena.promotions()[0].challenger_auc, 1.0, 1e-9);
  EXPECT_EQ(registry.counter("online_promotions_total", {}, "").value(), 1u);
}

TEST(ModelArena, ChallengerWithinMarginDoesNotPromote) {
  ArenaConfig cfg = tiny_config();
  cfg.min_samples = 1;
  cfg.min_positives = 1;
  ModelArena arena(cfg, kLookahead, nullptr);
  arena.set_challenger("same", std::make_shared<FirstFeatureModel>());
  // Challenger mirrors the champion exactly: equal AUC, margin not met.
  push_batch(arena, {{1, 0, 0.9f, 0.9f}, {2, 0, 0.1f, 0.1f}});
  push_batch(arena, {{1, 1, 0.5f, 0.5f, false, true}});
  push_batch(arena, {{3, 5, 0.1f, 0.1f}});
  const ArenaVerdict v = arena.evaluate();
  ASSERT_TRUE(v.enough_data);
  EXPECT_FALSE(v.promote);
  EXPECT_EQ(v.reason, "challenger within margin of champion");
}

TEST(ModelArena, InstallingAChallengerRestartsTheComparison) {
  ModelArena arena(tiny_config(), kLookahead, nullptr);
  push_batch(arena, {{1, 0}, {2, 0}});
  push_batch(arena, {{3, 5}});  // matures the day-0 rows, leaves one pending
  EXPECT_EQ(arena.matured_rows(), 2u);
  EXPECT_EQ(arena.pending_rows(), 1u);

  // A late-arriving challenger never scored those rows: the window and the
  // pending backlog are dropped so the gate only compares like for like.
  arena.set_challenger("late", std::make_shared<FirstFeatureModel>());
  EXPECT_EQ(arena.matured_rows(), 0u);
  EXPECT_EQ(arena.pending_rows(), 0u);
}

TEST(ModelArena, MaturedWindowIsBoundedByCapacity) {
  // The gate judges the newest 8192 matured rows (the window capacity in
  // arena.cpp): mature 9000 and only 8192 stay.
  ModelArena arena(tiny_config(), kLookahead, nullptr);
  constexpr std::uint64_t kDrives = 100;
  for (std::int32_t day = 0; day < 90; ++day) {
    std::vector<Row> batch;
    for (std::uint64_t d = 0; d < kDrives; ++d) batch.push_back({d, day});
    push_batch(arena, batch);
  }
  push_batch(arena, {{kDrives, 100}});
  EXPECT_EQ(arena.pending_rows(), 1u);
  EXPECT_EQ(arena.matured_rows(), 8192u);
}

TEST(ModelArena, WindowAucReportsPerRole) {
  obs::MetricsRegistry registry;
  ModelArena arena(tiny_config(), kLookahead, &registry);
  arena.set_challenger("c", std::make_shared<FirstFeatureModel>());
  // Champion inverted (scores negatives high), challenger perfect.
  push_batch(arena, {{1, 0, 0.9f, 0.1f}, {2, 0, 0.1f, 0.9f}});
  push_batch(arena, {{2, 1, 0.5f, 0.5f, false, true}});
  push_batch(arena, {{3, 5}});
  const ArenaVerdict v = arena.evaluate();
  EXPECT_EQ(v.challenger, "c");
  EXPECT_NEAR(v.champion_auc, 0.0, 1e-9);
  EXPECT_NEAR(v.challenger_auc, 1.0, 1e-9);
  EXPECT_NEAR(registry.gauge("online_window_auc", {{"role", "champion"}}, "").value(),
              0.0, 1e-9);
  EXPECT_NEAR(registry.gauge("online_window_auc", {{"role", "challenger"}}, "").value(),
              1.0, 1e-9);
}

/// Challenger that scores every row the same: AUC 0.5 on any window.
class ConstantModel final : public ml::Classifier {
 public:
  void fit(const ml::Dataset&) override {}
  [[nodiscard]] std::vector<float> predict_proba(const ml::Matrix& x) const override {
    return std::vector<float>(x.rows(), 0.5f);
  }
  [[nodiscard]] std::string name() const override { return "constant"; }
  [[nodiscard]] std::unique_ptr<ml::Classifier> clone() const override {
    return std::make_unique<ConstantModel>();
  }
};

TEST(ModelArena, ANewTagReplacesTheSlotAndRestartsTheWindow) {
  ModelArena arena(tiny_config(), kLookahead, nullptr);
  arena.set_challenger("old", std::make_shared<ConstantModel>());
  play_separable_round(arena, 0);
  ASSERT_GT(arena.matured_rows(), 0u);
  ArenaVerdict v = arena.evaluate();
  EXPECT_EQ(v.challenger, "old");
  EXPECT_NEAR(v.challenger_auc, 0.5, 1e-9);

  arena.set_challenger("new", std::make_shared<FirstFeatureModel>());
  EXPECT_TRUE(arena.has_challenger());
  EXPECT_EQ(arena.matured_rows(), 0u);
  EXPECT_EQ(arena.pending_rows(), 0u);

  // Only the new challenger is judged, on rows it scored itself.
  play_separable_round(arena, 10);
  v = arena.evaluate();
  EXPECT_EQ(v.challenger, "new");
  EXPECT_NEAR(v.challenger_auc, 1.0, 1e-9);
}

TEST(ModelArena, PromoteWithAStaleTagIsANoOp) {
  ArenaConfig cfg = tiny_config();
  obs::MetricsRegistry registry;
  ModelArena arena(cfg, kLookahead, &registry);
  arena.set_challenger("first", std::make_shared<FirstFeatureModel>());
  play_separable_round(arena, 0);
  const ArenaVerdict stale = arena.evaluate();
  ASSERT_EQ(stale.challenger, "first");

  // The slot moved on before the verdict was acted on.
  arena.set_challenger("second", std::make_shared<FirstFeatureModel>());
  play_separable_round(arena, 10);
  const std::size_t matured = arena.matured_rows();
  arena.promote(stale);
  EXPECT_TRUE(arena.has_challenger());
  EXPECT_EQ(arena.evaluate().challenger, "second");
  EXPECT_EQ(arena.matured_rows(), matured) << "window kept";
  EXPECT_TRUE(arena.evaluate().enough_data) << "the gate can still judge the window";
  EXPECT_TRUE(arena.promotions().empty());
  EXPECT_EQ(registry.counter("online_promotions_total", {}, "").value(), 0u);

  arena.clear_challenger();
  arena.promote(arena.evaluate());  // empty slot: nothing to promote
  EXPECT_TRUE(arena.promotions().empty());
}

TEST(ModelArena, ClearingTheSlotKeepsTheChampionWindow) {
  ModelArena arena(tiny_config(), kLookahead, nullptr);
  arena.set_challenger("loser", std::make_shared<ConstantModel>());
  play_separable_round(arena, 0);
  const std::size_t matured = arena.matured_rows();
  ASSERT_GT(matured, 0u);

  arena.clear_challenger();
  EXPECT_FALSE(arena.has_challenger());
  EXPECT_EQ(arena.matured_rows(), matured);
  const ArenaVerdict v = arena.evaluate();
  EXPECT_FALSE(v.promote);
  EXPECT_TRUE(v.challenger.empty());
  EXPECT_EQ(v.challenger_auc, 0.0);
  EXPECT_EQ(v.reason, "no challenger installed");
}

}  // namespace
}  // namespace ssdfail::online
