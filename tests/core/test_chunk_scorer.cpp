// Columnar chunk scoring: scoring a stored fleet chunk by chunk must
// reproduce the record-at-a-time gather path bit for bit, on v2 and v3
// files, at any chunk size and any pool width — and the monitor must score
// identically on either inference engine.

#include "core/chunk_scorer.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/dataset_builder.hpp"
#include "core/features.hpp"
#include "core/online_monitor.hpp"
#include "ml/random_forest.hpp"
#include "sim/fleet_simulator.hpp"

namespace ssdfail::core {
namespace {

const trace::FleetTrace& test_fleet() {
  static const trace::FleetTrace fleet = [] {
    sim::FleetConfig cfg;
    cfg.drives_per_model = 5;
    cfg.seed = 7;
    cfg.keep_ground_truth = false;
    return sim::FleetSimulator(cfg).generate_all();
  }();
  return fleet;
}

const ml::RandomForest& test_forest() {
  static const ml::RandomForest forest = [] {
    DatasetBuildOptions opts;
    opts.lookahead_days = 7;
    opts.negative_keep_prob = 0.1;
    opts.seed = 3;
    const ml::Dataset data = build_dataset(test_fleet(), opts);
    ml::RandomForest::Params params;
    params.n_trees = 10;
    ml::RandomForest f(params);
    f.fit(data);
    return f;
  }();
  return forest;
}

store::ColumnarFleetView columnar_view(std::uint32_t chunk_drives, std::uint32_t version) {
  std::ostringstream out(std::ios::binary);
  store::write_columnar(out, test_fleet(), {chunk_drives, version});
  const std::string bytes = out.str();
  return store::ColumnarFleetView::from_buffer({bytes.begin(), bytes.end()});
}

constexpr std::uint32_t kVersions[] = {store::kColumnarVersion, store::kColumnarVersionV3};

TEST(ChunkScorer, MatchesRecordGatherPathAtAnyChunkSize) {
  const ml::FlatForest engine = ml::FlatForest::compile(test_forest());
  const trace::FleetTrace& fleet = test_fleet();
  for (const std::uint32_t version : kVersions) {
    for (const std::uint32_t chunk_drives : {1u, 4u, 256u}) {
      const auto view = columnar_view(chunk_drives, version);
      const FleetScores scores = predict_chunk(engine, view);
      ASSERT_EQ(scores.size(), view.total_records())
          << "v" << version << " chunk_drives " << chunk_drives;

      // Reference: the source fleet's records in storage order, through
      // the record feature path, scored one row at a time.
      std::vector<float> row(FeatureExtractor::count());
      std::size_t cursor = 0;
      for (const trace::DriveHistory& drive : fleet.drives) {
        FeatureExtractor::State state;
        for (const trace::DailyRecord& rec : drive.records) {
          FeatureExtractor::advance(state, rec);
          FeatureExtractor::extract(drive, rec, state, row);
          ASSERT_EQ(scores.uid[cursor], drive.uid());
          ASSERT_EQ(scores.day[cursor], rec.day);
          ASSERT_EQ(scores.score[cursor], engine.predict_row(row))
              << "record " << cursor << " v" << version << " chunk_drives "
              << chunk_drives;
          ++cursor;
        }
      }
      EXPECT_EQ(cursor, scores.size());
    }
  }
}

TEST(ChunkScorer, PoolWidthDoesNotMoveScores) {
  const ml::FlatForest engine = ml::FlatForest::compile(test_forest());
  parallel::ThreadPool pool1(1);
  parallel::ThreadPool pool4(4);
  for (const std::uint32_t version : kVersions) {
    // Many chunks: a real parallel split.  Each view is fresh, so its v3
    // chunks are first decoded inside the parallel loop.
    const FleetScores a = predict_chunk(engine, columnar_view(1, version), pool1);
    const FleetScores b = predict_chunk(engine, columnar_view(1, version), pool4);
    EXPECT_EQ(a.uid, b.uid) << "v" << version;
    EXPECT_EQ(a.day, b.day) << "v" << version;
    EXPECT_EQ(a.score, b.score) << "v" << version;
  }
}

/// Restores the process-wide engine selection on scope exit.
struct EngineGuard {
  ml::InferenceEngine saved = ml::inference_engine();
  ~EngineGuard() { ml::set_inference_engine(saved); }
};

TEST(ChunkScorer, MonitorScoresIdenticallyOnBothEngines) {
  const EngineGuard guard;
  auto model = std::make_shared<ml::RandomForest>(test_forest());

  const auto replay = [&](ml::InferenceEngine engine) {
    ml::set_inference_engine(engine);
    FleetMonitor monitor(model, 0.5, 4);
    std::vector<float> risks;
    for (const auto& drive : test_fleet().drives) {
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
