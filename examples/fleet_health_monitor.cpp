// Fleet health monitor: the paper's motivating use case (Section 5 intro).
//
// Train a failure predictor on historical fleet data, pick an operating
// threshold under a false-alarm budget, then run it as a daily monitor
// over a *new* fleet: every morning, score yesterday's telemetry for every
// drive and emit replacement tickets.  Finally, audit how many real
// failures the policy caught and what the early-replacement cost was.
//
//   ./examples/fleet_health_monitor

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dataset_builder.hpp"
#include "core/failure_timeline.hpp"
#include "core/policy.hpp"
#include "core/prediction.hpp"
#include "daemon/daemon.hpp"
#include "ml/downsample.hpp"
#include "ml/model_zoo.hpp"

int main() {
  using namespace ssdfail;

  // --- Phase 1: train on last year's fleet. ---
  sim::FleetConfig train_config;
  train_config.drives_per_model = 800;
  train_config.seed = 1001;
  const sim::FleetSimulator train_fleet(train_config);

  core::DatasetBuildOptions options;
  options.lookahead_days = 2;  // two days' warning to migrate data
  options.negative_keep_prob = 0.02;
  const ml::Dataset history = core::build_dataset(train_fleet, options);
  std::printf("training history: %zu drive-days (%zu pre-failure)\n", history.size(),
              history.positives());

  // Threshold selection on held-out folds: at most ~2 false tickets per
  // drive-century (FPR 5e-5/day ~ 0.02/drive-year).
  auto forest = ml::make_model(ml::ModelKind::kRandomForest);
  const core::PooledScores validation = core::pooled_cv_scores(*forest, history);
  const double threshold = core::threshold_for_fpr(validation.scores, validation.labels,
                                                   /*max_fpr=*/5e-3);
  const auto planned =
      core::evaluate_policy(validation.scores, validation.labels, threshold,
                            options.negative_keep_prob);
  std::printf("chosen threshold %.3f: expected recall %.2f, ~%.1f false tickets "
              "per drive-year\n\n",
              threshold, planned.recall, planned.false_alarms_per_drive_year);

  forest->fit(ml::downsample_negatives(history, 1.0, 99));

  // --- Phase 2: monitor a brand-new fleet day by day. ---
  sim::FleetConfig live_config;
  live_config.drives_per_model = 300;
  live_config.seed = 2002;  // different seed: genuinely unseen drives
  const sim::FleetSimulator live_fleet(live_config);

  // One in-memory scorer for the whole fleet (the telemetry daemon with no
  // WAL), fed one drive-day at a time.  Alerts arrive per record from the
  // daemon's appender threads.
  std::mutex alerts_mutex;
  std::unordered_map<std::uint64_t, std::vector<std::int32_t>> alert_days;
  daemon::DaemonConfig config;
  config.threshold = threshold;
  config.block_timeout = std::chrono::seconds(10);  // a replay never sheds
  config.on_assessment = [&](const daemon::DriveAssessment& a) {
    if (!a.alert) return;
    const std::scoped_lock lock(alerts_mutex);
    alert_days[a.uid].push_back(a.day);
  };
  daemon::TelemetryDaemon monitor(std::shared_ptr<const ml::Classifier>(std::move(forest)),
                                  config);
  monitor.start();
  std::vector<std::pair<std::uint64_t, core::DriveTimeline>> timelines;
  timelines.reserve(live_fleet.drive_count());
  std::uint64_t scored_days = 0;
  for (std::size_t i = 0; i < live_fleet.drive_count(); ++i) {
    const trace::DriveHistory drive = live_fleet.simulate(i);
    timelines.emplace_back(drive.uid(), core::derive_timeline(drive));
    for (const auto& rec : drive.records) {
      (void)monitor.push({drive.model, drive.drive_index, drive.deploy_day, rec});
      if (!core::in_failed_state(timelines.back().second, rec.day)) ++scored_days;
    }
  }
  monitor.stop();  // drains every ring: each record's alert is in

  std::uint64_t tickets = 0;
  std::uint64_t caught = 0;
  std::uint64_t missed = 0;
  for (const auto& [uid, timeline] : timelines) {
    // The ticket is the first alert outside a failed state (a drive's
    // records reach the daemon in day order).
    bool ticketed = false;
    std::int32_t ticket_day = -1;
    for (const std::int32_t day : alert_days[uid]) {
      if (core::in_failed_state(timeline, day)) continue;
      ticketed = true;
      ticket_day = day;
      ++tickets;
      break;
    }
    // Audit against the derived failures: a catch means the ticket came at
    // or before the failure day (early enough to act).
    for (const auto& failure : timeline.failures) {
      if (ticketed && ticket_day <= failure.fail_day)
        ++caught;
      else
        ++missed;
      break;  // audit the first failure only; the drive left the fleet
    }
  }

  std::printf("live fleet: scored %llu drive-days across %zu drives\n",
              static_cast<unsigned long long>(scored_days), live_fleet.drive_count());
  std::printf("replacement tickets issued: %llu\n",
              static_cast<unsigned long long>(tickets));
  std::printf("failures caught in advance:  %llu\n",
              static_cast<unsigned long long>(caught));
  std::printf("failures missed:             %llu\n",
              static_cast<unsigned long long>(missed));
  if (caught + missed > 0)
    std::printf("fleet-level recall: %.2f\n",
                static_cast<double>(caught) / static_cast<double>(caught + missed));
  return 0;
}
