// Chaos tests for the hardened ingestion path: a corrupted replay stream
// must complete without throwing, every corrupted record must be repaired
// or end up in the dead-letter metrics, and clean records' scores must stay
// bit-identical to an uncorrupted run.  Also covers hot model swaps and the
// non-finite score clamp that backs degraded-mode serving.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/dataset_builder.hpp"
#include "core/online_monitor.hpp"
#include "ml/downsample.hpp"
#include "ml/model_zoo.hpp"
#include "robustness/fault_injector.hpp"
#include "sim/fleet_simulator.hpp"

namespace ssdfail::core {
namespace {

std::shared_ptr<const ml::Classifier> fitted_model() {
  static const std::shared_ptr<const ml::Classifier> model = [] {
    sim::FleetConfig cfg;
    cfg.drives_per_model = 200;
    sim::FleetSimulator fleet(cfg);
    DatasetBuildOptions opts;
    opts.lookahead_days = 1;
    opts.negative_keep_prob = 0.05;
    const ml::Dataset data = build_dataset(fleet, opts);
    auto forest = ml::make_model(ml::ModelKind::kRandomForest);
    forest->fit(ml::downsample_negatives(data, 1.0, 3));
    return std::shared_ptr<const ml::Classifier>(std::move(forest));
  }();
  return model;
}

/// A clean day-ordered replay stream over a small simulated fleet.
std::vector<FleetObservation> replay_stream(std::uint32_t drives_per_model) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = drives_per_model;
  cfg.seed = 77;
  // Order by day, then by drive — the shape `serve` feeds the monitor.
  return day_ordered_stream(sim::FleetSimulator(cfg).generate_all());
}

/// The acceptance invariant: replay a ~10%-corrupted stream, require zero
/// exceptions, exact dead-letter accounting, and bit-identical scores for
/// records the injector certifies as untainted.
TEST(ChaosMonitor, CorruptedReplayRepairsOrQuarantinesEverything) {
  const auto stream = replay_stream(12);
  ASSERT_GT(stream.size(), 1000u);

  // Baseline: the same stream, uncorrupted, batch path.
  FleetMonitor clean_monitor(fitted_model(), 0.9, 4);
  const auto baseline = clean_monitor.observe_batch(stream);

  robustness::FaultInjector injector(41, robustness::FaultRates::uniform(0.10));
  const auto corrupted = injector.corrupt(stream);
  ASSERT_GT(corrupted.total_injected(), 0u);

  robustness::SanitizerConfig dl;
  dl.dead_letter_capacity = 1u << 20;  // unbounded for exact accounting
  FleetMonitor monitor(fitted_model(), 0.9, 4, dl);
  std::vector<RiskAssessment> assessments;
  // Feed in fixed-size chunks, as a service would; must never throw.
  const std::span<const FleetObservation> span(corrupted.observations);
  for (std::size_t at = 0; at < span.size(); at += 512) {
    const auto chunk =
        monitor.observe_batch(span.subspan(at, std::min<std::size_t>(512, span.size() - at)));
    assessments.insert(assessments.end(), chunk.begin(), chunk.end());
  }
  ASSERT_EQ(assessments.size(), corrupted.observations.size());

  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < assessments.size(); ++i) {
    const auto label = corrupted.label[i];
    if (label == robustness::StreamLabel::kClean) {
      // Untouched record, untouched drive state: bit-identical score.
      EXPECT_FALSE(assessments[i].dropped);
      EXPECT_EQ(assessments[i].risk, baseline[corrupted.origin[i]].risk)
          << "clean record at position " << i << " diverged from the clean run";
    } else if (label == robustness::StreamLabel::kTainted) {
      // Perturbed drive state upstream: still scored, value may differ.
      EXPECT_FALSE(assessments[i].dropped);
    } else {
      // Corrupt: either repaired (scored) or dropped/quarantined.
      EXPECT_TRUE(assessments[i].dropped || assessments[i].repaired)
          << "corrupt record at position " << i << " scored unsanitized";
    }
    if (assessments[i].dropped) ++dropped;
  }

  const auto m = monitor.metrics();
  // Every corrupted record is accounted for in exactly one outcome bucket.
  EXPECT_EQ(m.sanitizer.records_repaired + m.sanitizer.duplicates_dropped +
                m.sanitizer.records_quarantined,
            corrupted.count(robustness::StreamLabel::kCorrupt));
  EXPECT_EQ(m.sanitizer.records_quarantined + m.sanitizer.duplicates_dropped, dropped);
  EXPECT_EQ(m.records_scored, corrupted.observations.size() - dropped);
  EXPECT_EQ(m.sanitizer.dead_letters.size(), m.sanitizer.records_quarantined);
  EXPECT_EQ(m.sanitizer.dead_letter_overflow, 0u);
  EXPECT_EQ(m.non_finite_scores, 0u);
  EXPECT_FALSE(m.degraded);
}

TEST(ChaosMonitor, SequentialAndBatchPathsAgreeOnCorruptStreams) {
  const auto stream = replay_stream(6);
  robustness::FaultInjector injector(43, robustness::FaultRates::uniform(0.10));
  const auto corrupted = injector.corrupt(stream);

  FleetMonitor batch_monitor(fitted_model(), 0.9, 4);
  const auto batch = batch_monitor.observe_batch(corrupted.observations);

  FleetMonitor seq_monitor(fitted_model(), 0.9, 4);
  ASSERT_EQ(batch.size(), corrupted.observations.size());
  for (std::size_t i = 0; i < corrupted.observations.size(); ++i) {
    const auto& obs = corrupted.observations[i];
    const RiskAssessment a =
        seq_monitor.observe(obs.drive_model, obs.drive_index, obs.deploy_day, obs.record);
    EXPECT_EQ(a.dropped, batch[i].dropped) << "position " << i;
    EXPECT_EQ(a.quarantined, batch[i].quarantined) << "position " << i;
    EXPECT_EQ(a.repaired, batch[i].repaired) << "position " << i;
    EXPECT_EQ(a.risk, batch[i].risk) << "position " << i;
  }
  const auto ms = seq_monitor.metrics();
  const auto mb = batch_monitor.metrics();
  EXPECT_EQ(ms.records_scored, mb.records_scored);
  EXPECT_EQ(ms.sanitizer.records_quarantined, mb.sanitizer.records_quarantined);
  EXPECT_EQ(ms.sanitizer.records_repaired, mb.sanitizer.records_repaired);
  EXPECT_EQ(ms.sanitizer.duplicates_dropped, mb.sanitizer.duplicates_dropped);
}

/// A stub model for failure handling: scores everything as NaN.
class NanModel final : public ml::Classifier {
 public:
  void fit(const ml::Dataset&) override {}
  [[nodiscard]] std::vector<float> predict_proba(const ml::Matrix& x) const override {
    return std::vector<float>(x.rows(), std::numeric_limits<float>::quiet_NaN());
  }
  [[nodiscard]] std::string name() const override { return "nan_model"; }
  [[nodiscard]] std::unique_ptr<ml::Classifier> clone() const override {
    return std::make_unique<NanModel>();
  }
};

TEST(ChaosMonitor, NonFiniteScoresClampToConservativeAlert) {
  FleetMonitor monitor(std::make_shared<NanModel>(), 0.9, 2);
  trace::DailyRecord rec;
  rec.day = 0;
  rec.reads = 10;
  rec.writes = 10;
  const auto a = monitor.observe(trace::DriveModel::MlcA, 1, 0, rec);
  EXPECT_FALSE(a.dropped);
  EXPECT_FLOAT_EQ(a.risk, 1.0f);  // clamped, not NaN
  EXPECT_TRUE(a.alert);           // conservative: a broken model alerts

  std::vector<FleetObservation> batch(1);
  batch[0] = {trace::DriveModel::MlcA, 2, 0, rec};
  const auto b = monitor.observe_batch(batch);
  EXPECT_FLOAT_EQ(b[0].risk, 1.0f);
  EXPECT_TRUE(b[0].alert);
  EXPECT_EQ(monitor.metrics().non_finite_scores, 2u);
}

TEST(ChaosMonitor, HotModelSwapKeepsFeatureStateAndScores) {
  // Replay days 0..N/2 on the NaN model, swap to the real model mid-stream,
  // and require post-swap scores to match a monitor that ran the real model
  // the whole time (feature state carries over; only scoring changes).
  const auto stream = replay_stream(4);
  const std::size_t half = stream.size() / 2;

  FleetMonitor reference(fitted_model(), 0.9, 3);
  const auto expected = reference.observe_batch(stream);

  FleetMonitor swapped(std::make_shared<NanModel>(), 0.9, 3);
  const std::span<const FleetObservation> span(stream);
  (void)swapped.observe_batch(span.subspan(0, half));
  swapped.set_degraded(true);
  EXPECT_TRUE(swapped.metrics().degraded);

  swapped.set_model(fitted_model());
  swapped.set_degraded(false);
  const auto after = swapped.observe_batch(span.subspan(half));
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_EQ(after[i].risk, expected[half + i].risk) << "position " << (half + i);
  EXPECT_FALSE(swapped.metrics().degraded);
  EXPECT_EQ(swapped.metrics().non_finite_scores, half);
}

}  // namespace
}  // namespace ssdfail::core
