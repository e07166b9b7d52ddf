// Quickstart: simulate a small SSD fleet, characterize its failures, train
// a failure predictor, and score a held-out drive — the whole library in
// ~80 lines.
//
//   ./examples/quickstart

#include <cstdio>

#include "core/dataset_builder.hpp"
#include "core/fleet_analysis.hpp"
#include "core/prediction.hpp"
#include "ml/downsample.hpp"
#include "ml/model_zoo.hpp"

int main() {
  using namespace ssdfail;

  // 1. Simulate a fleet: 600 drives of each MLC model over six years.
  sim::FleetConfig config;
  config.drives_per_model = 600;
  config.seed = 42;
  sim::FleetSimulator fleet(config);
  std::printf("simulating %zu drives over %d days...\n", fleet.drive_count(),
              config.window_days);

  // 2. Characterize: failure incidence and repair behavior.
  const core::CharacterizationSuite suite = core::characterize(fleet);
  for (trace::DriveModel m : trace::kAllModels) {
    const auto& fi = suite.failure_incidence(m);
    std::printf("  %s: %llu/%llu drives failed at least once (%.1f%%)\n",
                std::string(trace::model_name(m)).c_str(),
                static_cast<unsigned long long>(fi.drives_failed),
                static_cast<unsigned long long>(fi.drives),
                100.0 * static_cast<double>(fi.drives_failed) /
                    static_cast<double>(fi.drives));
  }

  // 3. Build a prediction dataset: will this drive fail within 3 days?
  core::DatasetBuildOptions options;
  options.lookahead_days = 3;
  options.negative_keep_prob = 0.02;
  const ml::Dataset data = core::build_dataset(fleet, options);
  std::printf("dataset: %zu drive-days, %zu positives, %zu features\n", data.size(),
              data.positives(), data.features());

  // 4. Cross-validate a random forest with the paper's protocol
  //    (drive-partitioned folds, 1:1 training downsampling).
  const auto forest = ml::make_model(ml::ModelKind::kRandomForest);
  const auto result = core::evaluate_auc(*forest, data);
  const auto auc = result.auc();
  std::printf("random forest ROC AUC (5-fold CV): %.3f +- %.3f\n", auc.mean, auc.sd);

  // 5. Score one fresh drive's latest day the way a monitoring daemon
  //    would: extract features for its newest record and ask the model.
  const ml::Dataset train = ml::downsample_negatives(data, 1.0, 7);
  forest->fit(train);

  const trace::DriveHistory probe = fleet.simulate(/*flat_index=*/0);
  core::FeatureExtractor::State state;
  ml::Matrix row(1, core::FeatureExtractor::count());
  for (const auto& rec : probe.records) {
    core::FeatureExtractor::advance(state, rec);
    core::FeatureExtractor::extract(probe.deploy_day, rec, state, row.row(0));
  }
  const float risk = forest->predict_proba(row)[0];
  std::printf("drive %llu latest-day failure risk: %.3f\n",
              static_cast<unsigned long long>(probe.uid()), risk);
  return 0;
}
