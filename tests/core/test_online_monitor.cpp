#include "core/online_monitor.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <utility>

#include "core/dataset_builder.hpp"
#include "core/failure_timeline.hpp"
#include "ml/downsample.hpp"
#include "ml/flat_forest.hpp"
#include "ml/model_zoo.hpp"
#include "ml/random_forest.hpp"
#include "sim/fleet_simulator.hpp"

namespace ssdfail::core {
namespace {

/// Fitted forest shared by monitor tests.
std::shared_ptr<const ml::Classifier> fitted_model() {
  static const std::shared_ptr<const ml::Classifier> model = [] {
    sim::FleetConfig cfg;
    cfg.drives_per_model = 300;
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

TEST(FleetMonitor, ScoresMatchBatchPipeline) {
  // Streaming scores must equal what the batch feature extractor + model
  // produce for the same records.
  sim::FleetConfig cfg;
  cfg.drives_per_model = 300;
  sim::FleetSimulator fleet(cfg);
  const trace::DriveHistory drive = fleet.simulate(5);

  FleetMonitor monitor(fitted_model(), 0.9, 1);
  FeatureExtractor::State state;
  ml::Matrix row(1, FeatureExtractor::count());
  for (const auto& rec : drive.records) {
    const RiskAssessment streaming =
        monitor.observe(drive.model, drive.drive_index, drive.deploy_day, rec);
    ASSERT_FALSE(streaming.dropped) << "day " << rec.day;
    FeatureExtractor::advance(state, rec);
    FeatureExtractor::extract(drive.deploy_day, rec, state, row.row(0));
    const float batch = fitted_model()->predict_proba(row)[0];
    ASSERT_FLOAT_EQ(streaming.risk, batch) << "day " << rec.day;
  }
  EXPECT_EQ(monitor.metrics().records_scored, drive.records.size());
}

TEST(FleetMonitor, AlertRespectsThreshold) {
  trace::DailyRecord rec;
  rec.day = 0;
  rec.reads = 100;
  rec.writes = 100;
  // Threshold 0: everything alerts.
  FleetMonitor lenient(fitted_model(), 0.0, 1);
  EXPECT_TRUE(lenient.observe(trace::DriveModel::MlcA, 0, 0, rec).alert);
  // Threshold > 1: nothing alerts.
  FleetMonitor strict(fitted_model(), 1.01, 1);
  EXPECT_FALSE(strict.observe(trace::DriveModel::MlcA, 0, 0, rec).alert);
}

TEST(FleetMonitor, TracksDrivesIndependently) {
  FleetMonitor fleet_monitor(fitted_model(), 0.99);
  trace::DailyRecord rec;
  rec.day = 0;
  rec.reads = 10;
  rec.writes = 10;
  (void)fleet_monitor.observe(trace::DriveModel::MlcA, 1, 0, rec);
  (void)fleet_monitor.observe(trace::DriveModel::MlcB, 1, 0, rec);
  EXPECT_EQ(fleet_monitor.drives_tracked(), 2u);
  // Same drive again on the next day reuses its monitor.
  rec.day = 1;
  (void)fleet_monitor.observe(trace::DriveModel::MlcA, 1, 0, rec);
  EXPECT_EQ(fleet_monitor.drives_tracked(), 2u);
  fleet_monitor.retire(trace::DriveModel::MlcA, 1);
  EXPECT_EQ(fleet_monitor.drives_tracked(), 1u);
}

TEST(FleetMonitor, RetireThenReobserveRecreatesState) {
  FleetMonitor fleet_monitor(fitted_model(), 0.99, 4);
  trace::DailyRecord rec;
  rec.day = 0;
  rec.reads = 50;
  rec.writes = 50;
  const float fresh_risk =
      fleet_monitor.observe(trace::DriveModel::MlcA, 3, 0, rec).risk;
  rec.day = 1;
  rec.errors[static_cast<std::size_t>(trace::ErrorType::kUncorrectable)] = 9;
  (void)fleet_monitor.observe(trace::DriveModel::MlcA, 3, 0, rec);
  EXPECT_EQ(fleet_monitor.drives_tracked(), 1u);

  fleet_monitor.retire(trace::DriveModel::MlcA, 3);
  EXPECT_EQ(fleet_monitor.drives_tracked(), 0u);

  // Re-observing after retirement must build FRESH state: day 0 is legal
  // again (a retired drive's day cursor is gone) and the score matches the
  // first-ever observation, error history forgotten.
  rec.day = 0;
  rec.errors[static_cast<std::size_t>(trace::ErrorType::kUncorrectable)] = 0;
  const RiskAssessment again =
      fleet_monitor.observe(trace::DriveModel::MlcA, 3, 0, rec);
  EXPECT_FLOAT_EQ(again.risk, fresh_risk);
  EXPECT_EQ(fleet_monitor.drives_tracked(), 1u);
  EXPECT_EQ(fleet_monitor.metrics().drives_retired, 1u);
  EXPECT_EQ(fleet_monitor.metrics().drives_created, 2u);
}

TEST(FleetMonitor, OutOfOrderQuarantine) {
  FleetMonitor fleet_monitor(fitted_model(), 0.5, 2);
  trace::DailyRecord rec;
  rec.day = 10;
  (void)fleet_monitor.observe(trace::DriveModel::MlcB, 1, 0, rec);
  // Sequential path: no throw — the stale record is quarantined, counted
  // both as an out-of-order drop and in the sanitizer's dead letters.
  rec.day = 9;
  const auto stale = fleet_monitor.observe(trace::DriveModel::MlcB, 1, 0, rec);
  EXPECT_TRUE(stale.dropped);
  EXPECT_TRUE(stale.quarantined);
  EXPECT_FLOAT_EQ(stale.risk, 0.0f);
  {
    const auto m = fleet_monitor.metrics();
    EXPECT_EQ(m.out_of_order_dropped, 1u);
    EXPECT_EQ(m.sanitizer.records_quarantined, 1u);
    ASSERT_EQ(m.sanitizer.dead_letters.size(), 1u);
    EXPECT_EQ(m.sanitizer.dead_letters[0].kind,
              trace::ViolationKind::kNonMonotoneDays);
    EXPECT_EQ(m.sanitizer.dead_letters[0].record.day, 9);
  }

  // Batch path: identical semantics; in-order records in the same batch
  // still score.
  std::vector<FleetObservation> batch(2);
  batch[0] = {trace::DriveModel::MlcB, 1, 0, rec};  // day 9: stale
  batch[1] = {trace::DriveModel::MlcB, 1, 0, rec};
  batch[1].record.day = 11;
  const auto assessments = fleet_monitor.observe_batch(batch);
  ASSERT_EQ(assessments.size(), 2u);
  EXPECT_TRUE(assessments[0].dropped);
  EXPECT_TRUE(assessments[0].quarantined);
  EXPECT_FALSE(assessments[1].dropped);
  EXPECT_EQ(fleet_monitor.metrics().out_of_order_dropped, 2u);
  EXPECT_EQ(fleet_monitor.metrics().sanitizer.records_quarantined, 2u);
  EXPECT_EQ(fleet_monitor.metrics().records_scored, 2u);  // day 10 + day 11
}

TEST(FleetMonitor, ExactDuplicateIsDroppedNotQuarantined) {
  FleetMonitor fleet_monitor(fitted_model(), 0.5, 2);
  trace::DailyRecord rec;
  rec.day = 10;
  rec.reads = 100;
  const auto first = fleet_monitor.observe(trace::DriveModel::MlcB, 1, 0, rec);
  EXPECT_FALSE(first.dropped);
  const auto dup = fleet_monitor.observe(trace::DriveModel::MlcB, 1, 0, rec);
  EXPECT_TRUE(dup.dropped);
  EXPECT_FALSE(dup.quarantined);
  const auto m = fleet_monitor.metrics();
  EXPECT_EQ(m.sanitizer.duplicates_dropped, 1u);
  EXPECT_EQ(m.sanitizer.records_quarantined, 0u);
  EXPECT_EQ(m.records_scored, 1u);
}

TEST(FleetMonitor, CounterRegressionIsRepairedAndScored) {
  FleetMonitor fleet_monitor(fitted_model(), 0.5, 2);
  trace::DailyRecord rec;
  rec.day = 10;
  rec.pe_cycles = 500;
  (void)fleet_monitor.observe(trace::DriveModel::MlcB, 1, 0, rec);
  rec.day = 11;
  rec.pe_cycles = 3;  // controller reset: cumulative P/E regressed
  const auto repaired = fleet_monitor.observe(trace::DriveModel::MlcB, 1, 0, rec);
  EXPECT_FALSE(repaired.dropped);
  EXPECT_TRUE(repaired.repaired);
  const auto m = fleet_monitor.metrics();
  EXPECT_EQ(m.sanitizer.records_repaired, 1u);
  EXPECT_EQ(m.records_scored, 2u);
  EXPECT_EQ(m.sanitizer.repaired[static_cast<std::size_t>(
                trace::ViolationKind::kDecreasingPeCycles)],
            1u);
}

TEST(FleetMonitor, AlertCounterIsMonotone) {
  FleetMonitor fleet_monitor(fitted_model(), 0.0, 3);  // threshold 0: all alert
  trace::DailyRecord rec;
  rec.reads = 10;
  std::uint64_t previous = 0;
  for (std::int32_t day = 0; day < 20; ++day) {
    rec.day = day;
    const auto a = fleet_monitor.observe(trace::DriveModel::MlcD, 2, 0, rec);
    EXPECT_TRUE(a.alert);
    const std::uint64_t now = fleet_monitor.alerts_raised();
    EXPECT_EQ(now, previous + 1);  // monotone, one per record at threshold 0
    previous = now;
  }
  EXPECT_EQ(fleet_monitor.metrics().records_scored, 20u);
  EXPECT_EQ(fleet_monitor.metrics().alerts_raised, 20u);
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

/// The day-ordered replay stream cut into one batch per day.
std::vector<std::vector<FleetObservation>> day_batches(const trace::FleetTrace& fleet) {
  std::vector<std::vector<FleetObservation>> batches;
  const std::vector<FleetObservation> stream = day_ordered_stream(fleet);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i == 0 || stream[i].record.day != stream[i - 1].record.day) batches.emplace_back();
    batches.back().push_back(stream[i]);
  }
  return batches;
}

TEST(FleetMonitor, BatchMatchesSequentialAcrossShardCounts) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = 12;
  cfg.window_days = 150;
  const trace::FleetTrace fleet = sim::FleetSimulator(cfg).generate_all();
  const auto batches = day_batches(fleet);

  FleetMonitor sequential(fitted_model(), 0.9, 1);
  FleetMonitor batched_1(fitted_model(), 0.9, 1);
  FleetMonitor batched_8(fitted_model(), 0.9, 8);
  parallel::ThreadPool pool(4);

  std::uint64_t compared = 0;
  for (const auto& batch : batches) {
    const auto from_1 = batched_1.observe_batch(batch);
    const auto from_8 = batched_8.observe_batch(batch, pool);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto& obs = batch[i];
      const RiskAssessment one = sequential.observe(obs.drive_model, obs.drive_index,
                                                    obs.deploy_day, obs.record);
      ASSERT_FALSE(from_1[i].dropped);
      ASSERT_FALSE(from_8[i].dropped);
      // Identical scores: sequential vs batched, 1 shard vs 8 shards.
      ASSERT_EQ(one.risk, from_1[i].risk) << "day batch mismatch at obs " << i;
      ASSERT_EQ(one.risk, from_8[i].risk) << "shard-count mismatch at obs " << i;
      ASSERT_EQ(one.alert, from_8[i].alert);
      ++compared;
    }
  }
  ASSERT_GT(compared, 1000u);
  EXPECT_EQ(sequential.alerts_raised(), batched_8.alerts_raised());
  EXPECT_EQ(batched_1.metrics().records_scored, compared);
  EXPECT_EQ(batched_8.metrics().records_scored, compared);
}

TEST(FleetMonitor, ConcurrentObserveMatchesSequential) {
  // N threads each stream a disjoint subset of drives into one sharded
  // monitor; every drive's scores must equal a single-threaded replay.
  sim::FleetConfig cfg;
  cfg.drives_per_model = 8;
  cfg.window_days = 120;
  const trace::FleetTrace fleet = sim::FleetSimulator(cfg).generate_all();

  FleetMonitor shared(fitted_model(), 0.9, 8);
  constexpr unsigned kThreads = 4;
  std::vector<std::vector<std::vector<float>>> risks(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t d = t; d < fleet.drives.size(); d += kThreads) {
        const auto& drive = fleet.drives[d];
        std::vector<float> drive_risks;
        drive_risks.reserve(drive.records.size());
        for (const auto& rec : drive.records)
          drive_risks.push_back(
              shared.observe(drive.model, drive.drive_index, drive.deploy_day, rec).risk);
        risks[t].push_back(std::move(drive_risks));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  FleetMonitor solo(fitted_model(), 0.9, 1);
  std::uint64_t total = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    std::size_t slot = 0;
    for (std::size_t d = t; d < fleet.drives.size(); d += kThreads, ++slot) {
      const auto& drive = fleet.drives[d];
      ASSERT_EQ(risks[t][slot].size(), drive.records.size());
      for (std::size_t r = 0; r < drive.records.size(); ++r) {
        const float expected =
            solo.observe(drive.model, drive.drive_index, drive.deploy_day, drive.records[r])
                .risk;
        ASSERT_EQ(expected, risks[t][slot][r])
            << "drive " << drive.uid() << " record " << r;
        ++total;
      }
    }
  }
  EXPECT_EQ(shared.metrics().records_scored, total);
  EXPECT_EQ(shared.drives_tracked(), fleet.drives.size());
}

TEST(FleetMonitor, MetricsSnapshotAddsUp) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = 6;
  cfg.window_days = 100;
  const trace::FleetTrace fleet = sim::FleetSimulator(cfg).generate_all();
  const auto batches = day_batches(fleet);

  FleetMonitor monitor(fitted_model(), 0.9, 4);
  std::uint64_t records = 0;
  for (const auto& batch : batches) {
    (void)monitor.observe_batch(batch);
    records += batch.size();
  }
  const MonitorMetricsSnapshot snap = monitor.metrics();
  EXPECT_EQ(snap.shards, 4u);
  EXPECT_EQ(snap.records_scored, records);
  EXPECT_EQ(snap.drives_created, fleet.drives.size());
  EXPECT_EQ(snap.drives_tracked, fleet.drives.size());
  EXPECT_EQ(snap.drives_retired, 0u);
  EXPECT_EQ(snap.out_of_order_dropped, 0u);
  // One on_batch per (day, non-empty shard) pair: between #days and
  // #days * #shards.
  EXPECT_GE(snap.batches_scored, batches.size());
  EXPECT_LE(snap.batches_scored, batches.size() * 4);
  // Every scored record contributed one (weighted) latency observation.
  EXPECT_DOUBLE_EQ(snap.score_latency_us.total(), static_cast<double>(records));
  const std::string text = snap.to_text();
  EXPECT_NE(text.find("records scored"), std::string::npos);
  EXPECT_NE(text.find("score latency"), std::string::npos);
}

TEST(FleetMonitor, RisingRiskBeforeFailure) {
  // Across many failed drives, the monitor's score on the failure day
  // should on average exceed its score 30 days earlier.
  sim::FleetConfig cfg;
  cfg.drives_per_model = 300;
  sim::FleetSimulator fleet(cfg);

  FleetMonitor monitor(fitted_model(), 0.5, 1);
  double risk_at_failure = 0.0;
  double risk_before = 0.0;
  int counted = 0;
  for (std::size_t i = 0; i < fleet.drive_count() && counted < 40; ++i) {
    const trace::DriveHistory drive = fleet.simulate(i);
    const DriveTimeline timeline = derive_timeline(drive);
    if (timeline.failures.empty()) continue;
    const std::int32_t fail_day = timeline.failures[0].fail_day;

    float at_fail = -1.0f;
    float before = -1.0f;
    for (const auto& rec : drive.records) {
      if (rec.day > fail_day) break;
      const auto assessment =
          monitor.observe(drive.model, drive.drive_index, drive.deploy_day, rec);
      if (rec.day == fail_day) at_fail = assessment.risk;
      if (rec.day <= fail_day - 30) before = assessment.risk;
    }
    if (at_fail < 0.0f || before < 0.0f) continue;
    risk_at_failure += at_fail;
    risk_before += before;
    ++counted;
  }
  ASSERT_GE(counted, 20);
  EXPECT_GT(risk_at_failure / counted, risk_before / counted + 0.1);
}

/// Restores the process-wide engine selection on scope exit.
struct EngineGuard {
  ml::InferenceEngine saved = ml::inference_engine();
  ~EngineGuard() { ml::set_inference_engine(saved); }
};

TEST(FleetMonitor, ScoresIdenticallyOnBothEngines) {
  // The monitor must score bit-identically on the pointer walker and the
  // compiled flat engine.
  const EngineGuard guard;
  sim::FleetConfig cfg;
  cfg.drives_per_model = 5;
  cfg.seed = 7;
  cfg.keep_ground_truth = false;
  const trace::FleetTrace fleet = sim::FleetSimulator(cfg).generate_all();
  DatasetBuildOptions opts;
  opts.lookahead_days = 7;
  opts.negative_keep_prob = 0.1;
  opts.seed = 3;
  ml::RandomForest::Params params;
  params.n_trees = 10;
  auto model = std::make_shared<ml::RandomForest>(params);
  model->fit(build_dataset(fleet, opts));

  const auto replay = [&](ml::InferenceEngine engine) {
    ml::set_inference_engine(engine);
    FleetMonitor monitor(model, 0.5, 4);
    std::vector<float> risks;
    for (const auto& drive : fleet.drives) {
      std::size_t fed = 0;
      for (const auto& rec : drive.records) {
        if (fed++ == 30) break;  // enough days to exercise cumulative state
        risks.push_back(monitor
                            .observe(drive.model, drive.drive_index,
                                     drive.deploy_day, rec)
                            .risk);
      }
    }
    return risks;
  };

  const std::vector<float> flat = replay(ml::InferenceEngine::kFlat);
  const std::vector<float> walker = replay(ml::InferenceEngine::kWalker);
  EXPECT_EQ(flat, walker);
}

}  // namespace
}  // namespace ssdfail::core
