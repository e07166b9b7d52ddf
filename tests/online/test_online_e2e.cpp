// End-to-end online-learning tests: the full drift-gate loop against a
// live TelemetryDaemon (drifting fleet -> drift alert -> retrain ->
// shadow gate -> promotion with the strike reset and the atomic model
// swap), the CLI's drift-gate drill in process (a real trained champion,
// a challenger that loses and is replaced by a newer retrain that wins),
// the drift-free control (no promotion, scoring bit-identical to a
// learner-free daemon), one owner for the label horizon and the store
// directory, and real-SIGKILL promotion persistence (the champion file is
// always the old or the new model, never torn).

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/dataset_builder.hpp"
#include "core/fleet_observation.hpp"
#include "daemon/daemon.hpp"
#include "daemon/daemon_test_util.hpp"
#include "ml/downsample.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"
#include "obs/metrics.hpp"
#include "online/learner.hpp"
#include "sim/drifting_fleet.hpp"
#include "sim/fleet_simulator.hpp"

namespace ssdfail::online {
namespace {

using daemon::testing::StubModel;
using daemon::testing::TempDir;

daemon::DaemonConfig loop_daemon_config(const std::string& wal_dir,
                                        obs::MetricsRegistry* registry) {
  daemon::DaemonConfig cfg;
  cfg.shards = 2;
  cfg.wal_dir = wal_dir;
  cfg.fsync = daemon::FsyncPolicy::kNever;
  cfg.wal_rotate_bytes = 64 * 1024;  // sealed segments feed the compactor
  cfg.registry = registry;
  return cfg;
}

OnlineConfig loop_online_config(const std::string& wal_dir,
                                obs::MetricsRegistry* registry) {
  OnlineConfig ocfg;
  ocfg.wal_dir = wal_dir;
  ocfg.model_path = wal_dir + "/champion.bin";
  ocfg.registry = registry;
  ocfg.drift.min_window_rows = 256;
  ocfg.arena.min_samples = 200;
  ocfg.arena.min_positives = 3;
  ocfg.arena.promote_margin = 0.005;
  ocfg.retrainer.store_dir = wal_dir + "/store";
  ocfg.retrainer.lookahead_days = 7;
  ocfg.retrainer.negative_keep_prob = 0.1;
  ocfg.retrainer.min_rows = 64;
  ocfg.retrainer.min_positives = 3;
  ocfg.retrainer.model.n_rounds = 20;
  ocfg.retrainer.model.max_depth = 3;
  return ocfg;
}

/// Stream index after which each retiring drive is retired: uid -> index.
using RetirePoints = std::unordered_map<std::uint64_t, std::size_t>;

/// Retire each drive after its last dead-flagged record.
RetirePoints dead_record_retires(const std::vector<core::FleetObservation>& stream) {
  RetirePoints points;
  for (std::size_t i = 0; i < stream.size(); ++i)
    if (stream[i].record.dead) points[stream[i].uid()] = i;
  return points;
}

/// The CLI's `daemon --online` rule: retire a drive after its last record
/// when it carries a dead-flagged record or ends in a terminal swap.
RetirePoints cli_retires(const trace::FleetTrace& fleet,
                         const std::vector<core::FleetObservation>& stream) {
  RetirePoints points;
  for (const auto& d : fleet.drives) {
    const bool dead_flagged = std::any_of(d.records.begin(), d.records.end(),
                                          [](const auto& r) { return r.dead; });
    const bool terminal_swap = !d.swaps.empty() && !d.records.empty() &&
                               d.swaps.back().day > d.records.back().day;
    if (dead_flagged || terminal_swap) points[d.uid()] = 0;
  }
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto it = points.find(stream[i].uid());
    if (it != points.end()) it->second = i;
  }
  return points;
}

/// The CLI's day-paced online ingest loop, in miniature: push a stream
/// day, retire drives at their retire points (the compactor turns retires
/// into the SwapEvents that give retraining its positive labels), drain
/// the day through the daemon and the learner's tap, and run the learner
/// every `step_days` stream days.  With no retire points the run can be
/// digest-compared with a control daemon that only pushes the stream.
/// Returns every step's report.
std::vector<StepReport> run_online_loop(daemon::TelemetryDaemon& daemon,
                                        OnlineLearner& learner,
                                        const std::vector<core::FleetObservation>& stream,
                                        std::int32_t step_days,
                                        const RetirePoints& retires = {}) {
  std::vector<StepReport> reports;
  std::int64_t last_step_day = std::numeric_limits<std::int64_t>::min() / 2;
  std::size_t i = 0;
  while (i < stream.size()) {
    const std::int32_t day = stream[i].record.day;
    for (; i < stream.size() && stream[i].record.day == day; ++i) {
      (void)daemon.push(stream[i]);
      const auto it = retires.find(stream[i].uid());
      if (it != retires.end() && it->second == i)
        daemon.retire(stream[i].drive_model, stream[i].drive_index);
    }
    daemon.drain();
    learner.drain_shadow();
    if (day - last_step_day >= step_days) {
      reports.push_back(learner.step());
      last_step_day = day;
    }
  }
  return reports;
}

TEST(OnlineE2E, DriftingFleetFiresTheDetectorAndPromotesARetrainedChallenger) {
  TempDir dir("e2e_drift");
  obs::MetricsRegistry registry;

  // Post-drift cohort with harsher workload, symptoms, and hazard: the
  // champion (an uninformative stub standing in for a stale model) must
  // lose the shadow gate to a challenger retrained on the drifted store.
  sim::DriftingFleetConfig fleet_cfg;
  fleet_cfg.base.drives_per_model = 24;
  fleet_cfg.base.window_days = 730;
  fleet_cfg.base.seed = 424242;
  fleet_cfg.drift.drift_day = 300;
  fleet_cfg.drift.drifted_fraction = 0.6;
  fleet_cfg.drift.hazard_mult = 8.0;
  fleet_cfg.drift.error_rate_mult = 4.0;
  fleet_cfg.drift.bad_block_mult = 4.0;
  const auto stream =
      core::day_ordered_stream(sim::DriftingFleetSimulator(fleet_cfg).generate_all());
  ASSERT_GT(stream.size(), 10'000u);

  OnlineLearner learner(loop_online_config(dir.path(), &registry));
  daemon::DaemonConfig dcfg = loop_daemon_config(dir.path(), &registry);
  dcfg.batch_observer = &learner;
  daemon::TelemetryDaemon daemon(std::make_shared<StubModel>(), dcfg);
  learner.attach(&daemon);
  daemon.start();
  (void)run_online_loop(daemon, learner, stream, 30, dead_record_retires(stream));
  (void)learner.step();  // final gate pass over the fully drained stream
  daemon.stop();

  EXPECT_GT(learner.steps_run(), 10u);
  EXPECT_GE(registry.counter("online_drift_alerts_total", {}, "").value(), 1u)
      << "the drifting stream must fire the drift detector";
  EXPECT_GE(registry.counter("online_retrains_total", {}, "").value(), 1u);

  ASSERT_GE(learner.promotions().size(), 1u)
      << "a retrained challenger must win the shadow gate";
  for (const PromotionEvent& p : learner.promotions()) {
    EXPECT_GT(p.challenger_auc, p.champion_auc)
        << "promotion requires strictly better recent-window AUC";
    EXPECT_GE(p.matured_rows, 200u);
  }

  // The promotion was persisted atomically and survives a reload.
  const std::string champion = dir.path() + "/champion.bin";
  ASSERT_TRUE(std::filesystem::exists(champion));
  EXPECT_NE(ml::load_serving_classifier_file(champion), nullptr);

  // The hot swap reset the health streaks (strikes earned under the stub's
  // score scale must not page under the new champion).
  EXPECT_GE(registry.counter("daemon_strike_resets_total", {}, "").value(), 1u);
}

// The CI drift-gate drill (.github/workflows/ci.yml, job drift-gate) in
// process: a random-forest champion trained the way `ssdfail_cli train
// --drives 8 --seed 2019 --lookahead 7` trains it, then the drifting
// fleet through `daemon --online` with the drill's flags.  The first
// retrain loses the shadow gate; the loop must drop it, retrain on newer
// history and promote that challenger on strictly better AUC.
TEST(OnlineE2E, CliDriftDrillReplacesALosingChallengerAndPromotes) {
  TempDir dir("e2e_cli_drill");
  obs::MetricsRegistry registry;

  sim::FleetConfig train_cfg;
  train_cfg.drives_per_model = 8;
  train_cfg.seed = 2019;
  train_cfg.keep_ground_truth = true;
  core::DatasetBuildOptions build;
  build.lookahead_days = 7;
  build.negative_keep_prob = 0.02;
  const ml::Dataset train = ml::downsample_negatives(
      core::build_dataset(sim::FleetSimulator(train_cfg), build), 1.0, train_cfg.seed);
  ml::RandomForest forest;
  forest.fit(train);
  const std::string champion_file = dir.path() + "/trained.bin";
  ml::save_model_file(champion_file, forest);

  sim::DriftingFleetConfig fleet_cfg;
  fleet_cfg.base.drives_per_model = 24;
  fleet_cfg.base.window_days = 730;
  fleet_cfg.base.seed = 424242;
  fleet_cfg.base.keep_ground_truth = false;
  fleet_cfg.drift.drift_day = 300;
  fleet_cfg.drift.drifted_fraction = 0.6;
  fleet_cfg.drift.hazard_mult = 8.0;
  fleet_cfg.drift.error_rate_mult = 4.0;
  fleet_cfg.drift.bad_block_mult = 4.0;
  const trace::FleetTrace fleet = sim::DriftingFleetSimulator(fleet_cfg).generate_all();
  const auto stream = core::day_ordered_stream(fleet);

  // The CLI's online settings; the retrainer keeps its default boosting.
  OnlineConfig ocfg;
  ocfg.wal_dir = dir.path();
  ocfg.model_path = dir.path() + "/promoted.bin";
  ocfg.registry = &registry;
  ocfg.drift.min_window_rows = 256;
  ocfg.arena.min_samples = 200;
  ocfg.arena.min_positives = 3;
  ocfg.arena.promote_margin = 0.005;
  ocfg.retrainer.store_dir = dir.path() + "/store";
  ocfg.retrainer.lookahead_days = 7;
  ocfg.retrainer.negative_keep_prob = 0.1;
  OnlineLearner learner(ocfg);

  daemon::DaemonConfig dcfg = loop_daemon_config(dir.path(), &registry);
  dcfg.shards = 4;
  dcfg.threshold = 0.9;
  dcfg.block_timeout = std::chrono::seconds(10);
  dcfg.batch_observer = &learner;
  daemon::TelemetryDaemon daemon(ml::load_serving_classifier_file(champion_file), dcfg);
  learner.attach(&daemon);
  daemon.start();

  const std::vector<StepReport> reports =
      run_online_loop(daemon, learner, stream, 30, cli_retires(fleet, stream));
  daemon.stop();

  std::size_t retrains = 0;
  std::size_t losses = 0;
  for (const StepReport& r : reports) {
    retrains += r.retrained ? 1 : 0;
    losses += r.challenger_dropped ? 1 : 0;
  }
  EXPECT_EQ(registry.counter("online_shadow_dropped_total", {}, "").value(), 0u)
      << "the day-paced loop drains the tap, so no batch (or label) is shed";
  EXPECT_GE(retrains, 2u) << "a losing challenger must be replaced by a newer retrain";
  EXPECT_GE(losses, 1u);
  EXPECT_EQ(registry.counter("online_retrains_total", {}, "").value(), retrains);

  ASSERT_GE(learner.promotions().size(), 1u)
      << "the drill must promote a retrained challenger";
  for (const PromotionEvent& p : learner.promotions()) {
    EXPECT_GT(p.challenger_auc, p.champion_auc);
    EXPECT_GE(p.matured_rows, 200u);
  }
  EXPECT_TRUE(std::filesystem::exists(dir.path() + "/promoted.bin"));
  EXPECT_GT(daemon.stats().alerts, 0u)
      << "the drill must raise a health page, not only drift alerts";
}

TEST(OnlineE2E, DriftFreeRunNeverPromotesAndLeavesScoringUntouched) {
  TempDir dir("e2e_stable");
  TempDir control_dir("e2e_stable_control");
  obs::MetricsRegistry registry;
  obs::MetricsRegistry control_registry;

  sim::FleetConfig fleet_cfg;
  fleet_cfg.drives_per_model = 10;
  fleet_cfg.window_days = 500;
  fleet_cfg.seed = 31337;
  const auto stream = core::day_ordered_stream(sim::FleetSimulator(fleet_cfg).generate_all());

  OnlineConfig ocfg = loop_online_config(dir.path(), &registry);
  // No drift: thresholds the stream cannot cross, so the alert-gated loop
  // must never retrain, never install a challenger, never promote.
  ocfg.drift.psi_alert = 1e9;
  ocfg.drift.ks_alert = 1e9;
  OnlineLearner learner(ocfg);
  daemon::DaemonConfig dcfg = loop_daemon_config(dir.path(), &registry);
  dcfg.batch_observer = &learner;
  daemon::TelemetryDaemon daemon(std::make_shared<StubModel>(), dcfg);
  learner.attach(&daemon);
  daemon.start();
  (void)run_online_loop(daemon, learner, stream, 30);
  daemon.stop();

  EXPECT_GT(learner.steps_run(), 5u);
  EXPECT_TRUE(learner.promotions().empty());
  EXPECT_FALSE(learner.arena().has_challenger());
  EXPECT_EQ(registry.counter("online_retrains_total", {}, "").value(), 0u);
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/champion.bin"));
  // The loop still did its background work: sealed WALs became v3 shards.
  EXPECT_TRUE(std::filesystem::exists(dir.path() + "/store/manifest.ssdm"));

  // Golden control: the same stream through a learner-free daemon must
  // leave bit-identical per-drive state — the observer tap and the
  // (non-promoting) control loop may not perturb scoring.
  daemon::TelemetryDaemon control(
      std::make_shared<StubModel>(),
      loop_daemon_config(control_dir.path(), &control_registry));
  control.start();
  for (const core::FleetObservation& obs : stream)
    ASSERT_EQ(control.push(obs), daemon::PushResult::kAccepted);
  control.stop();
  EXPECT_EQ(daemon.state_digest(), control.state_digest());
}

// RetrainerConfig owns the label horizon and the store directory for the
// whole loop: the arena matures its labels over retrainer.lookahead_days,
// and compaction writes the store the retrainer reads.
TEST(OnlineE2E, RetrainerConfigOwnsTheLabelHorizonAndTheStoreDirectory) {
  TempDir dir("e2e_one_owner");
  obs::MetricsRegistry registry;
  OnlineConfig ocfg;
  ocfg.wal_dir = dir.path();
  ocfg.registry = &registry;
  ocfg.retrainer.lookahead_days = 14;
  ocfg.retrainer.store_dir = dir.path() + "/store";
  OnlineLearner learner(ocfg);

  daemon::DaemonConfig dcfg = loop_daemon_config(dir.path(), &registry);
  dcfg.wal_rotate_bytes = 4096;  // seal segments for the compactor
  dcfg.batch_observer = &learner;
  daemon::TelemetryDaemon daemon(std::make_shared<StubModel>(), dcfg);
  learner.attach(&daemon);
  daemon.start();

  constexpr std::uint32_t kDrives = 32;
  const auto stream = daemon::testing::make_stream(kDrives, 15);  // days 0..14
  std::size_t next = 0;
  auto push_through = [&](std::int32_t last_day) {
    for (; next < stream.size() && stream[next].record.day <= last_day; ++next)
      ASSERT_EQ(daemon.push(stream[next]), daemon::PushResult::kAccepted);
    daemon.drain();
    learner.drain_shadow();
  };

  push_through(10);
  ASSERT_EQ(learner.arena().watermark_day(), 10);
  EXPECT_EQ(learner.arena().matured_rows(), 0u) << "day-0 rows wait for day 14";
  EXPECT_EQ(learner.arena().pending_rows(), std::size_t{kDrives} * 11);

  push_through(14);
  EXPECT_EQ(learner.arena().matured_rows(), std::size_t{kDrives})
      << "exactly the day-0 rows mature at day 14";

  const StepReport report = learner.step();
  daemon.stop();
  EXPECT_GT(report.compaction.shards_written, 0u);
  EXPECT_TRUE(std::filesystem::exists(dir.path() + "/store/manifest.ssdm"))
      << "compaction must target retrainer.store_dir";
}

// ---------------------------------------------------------------------------
// Promotion crash-safety: SIGKILL mid-save leaves old or new, never torn
// ---------------------------------------------------------------------------

ml::Dataset tiny_task(std::uint64_t seed) {
  ml::Dataset d;
  d.x = ml::Matrix(256, 4);
  d.y.resize(256);
  d.groups.resize(256);
  std::uint64_t state = seed;
  for (std::size_t r = 0; r < 256; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      d.x(r, c) = static_cast<float>((state >> 40) & 0xff) / 255.0f;
    }
    d.y[r] = d.x(r, 0) + d.x(r, 1) > 1.0f ? 1.0f : 0.0f;
    d.groups[r] = r / 4;
  }
  return d;
}

TEST(OnlineE2E, SigkillDuringPromotionLeavesOldOrNewModelNeverTorn) {
  TempDir dir("e2e_sigkill");
  const std::string champion = dir.path() + "/champion.bin";
  const ml::Dataset task = tiny_task(7);

  ml::GradientBoosting::Params pa;
  pa.n_rounds = 5;
  pa.max_depth = 2;
  ml::GradientBoosting old_model(pa);
  old_model.fit(task);
  ml::save_model_file(champion, old_model);

  ml::GradientBoosting::Params pb = pa;
  pb.n_rounds = 9;
  pb.seed = 99;
  ml::GradientBoosting new_model(pb);
  new_model.fit(task);

  const std::vector<float> old_scores = old_model.predict_proba(task.x);
  const std::vector<float> new_scores = new_model.predict_proba(task.x);
  ASSERT_NE(old_scores, new_scores) << "fixture models must be distinguishable";

  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child: re-persist the new champion in a tight loop until killed —
    // the parent's SIGKILL lands inside some save_model_file call.
    for (;;) ml::save_model_file(champion, new_model);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));

  // The champion file must load through the full verify path (byte
  // round-trip + engine recompile) and score as exactly one of the two
  // fixture models.
  const auto reloaded = ml::load_serving_classifier_file(champion);
  ASSERT_NE(reloaded, nullptr) << "promotion left a torn champion file";
  const std::vector<float> reloaded_scores = reloaded->predict_proba(task.x);
  EXPECT_TRUE(reloaded_scores == old_scores || reloaded_scores == new_scores)
      << "champion file is neither the old nor the new model";
}

}  // namespace
}  // namespace ssdfail::online
