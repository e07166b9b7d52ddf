// TelemetryDaemon tests: graceful drain accounting, the drain() contract
// (records and retires, with and without a model), WAL recovery
// bit-identity, retire-through-the-WAL, degraded modes, the non-finite
// score clamp, backpressure shedding, the watchdog, health state that
// does not depend on how the rings batch a corrupted stream, retires and
// promotions that land at their place in the stream, pushes that race
// stop(), and the in-memory scorer's contract: online scores equal the
// offline feature rows scored by the model's own walk, corrupted replays
// are repaired or quarantined with exact accounting, and concurrent
// producers or any shard count score like one.

#include "daemon/daemon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/dataset_builder.hpp"
#include "core/failure_timeline.hpp"
#include "core/features.hpp"
#include "daemon_test_util.hpp"
#include "ml/downsample.hpp"
#include "ml/model_zoo.hpp"
#include "ml/random_forest.hpp"
#include "robustness/fault_injector.hpp"
#include "sim/fleet_simulator.hpp"

namespace ssdfail::daemon {
namespace {

using testing::StubModel;
using testing::TempDir;
using testing::make_stream;

DaemonConfig base_config(const std::string& wal_dir, obs::MetricsRegistry* registry) {
  DaemonConfig cfg;
  cfg.shards = 2;
  cfg.ring_capacity = 64;
  cfg.wal_dir = wal_dir;
  cfg.fsync = FsyncPolicy::kNever;  // durability is the crash test's job
  cfg.registry = registry;
  cfg.threshold = 0.7;
  return cfg;
}

/// An appender_hook that parks each appender, after it pops a batch,
/// until `release` is set.
std::function<void(std::uint32_t)> hold_until(const std::atomic<bool>& release) {
  return [&release](std::uint32_t) {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
}

TEST(TelemetryDaemon, GracefulDrainProcessesEveryAcceptedRecord) {
  TempDir dir("drain");
  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(std::make_shared<StubModel>(),
                         base_config(dir.path(), &registry));
  daemon.start();
  const auto stream = make_stream(6, 20);
  for (const auto& obs : stream)
    ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.stop();

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.ingested, stream.size());
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.scored, stream.size());  // clean stream: everything scores
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(stats.drives_tracked, 6u);
  EXPECT_GT(stats.segments_appended, 0u);
  EXPECT_GT(stats.wal_bytes, 0u);
  EXPECT_FALSE(stats.degraded);
  EXPECT_FALSE(stats.wal_degraded);
  // Pushes after stop are rejected, not silently dropped.
  EXPECT_EQ(daemon.push(stream[0]), PushResult::kRejected);
  EXPECT_EQ(daemon.stats().rejected, 1u);
}

// stats() may be called from any thread while the appenders run: it reads
// only the counts each appender publishes after a batch, never the shard
// state the appender is mutating (a -fsanitize=thread build checks this).
TEST(TelemetryDaemon, StatsArePollableWhileIngesting) {
  TempDir dir("poll");
  obs::MetricsRegistry registry;
  DaemonConfig cfg = base_config(dir.path(), &registry);
  cfg.max_batch = 4;
  TelemetryDaemon daemon(std::make_shared<StubModel>(), cfg);
  daemon.start();
  constexpr std::uint32_t kDrives = 12;
  std::atomic<bool> done{false};
  std::atomic<std::size_t> polls{0};
  std::size_t most_drives = 0;
  std::thread poller([&] {
    while (!done.load()) {
      const DaemonStats s = daemon.stats();
      most_drives = std::max(most_drives, s.drives_tracked);
      polls.fetch_add(1);
    }
  });
  while (polls.load() == 0) std::this_thread::yield();
  std::size_t accepted = 0;
  for (const auto& obs : make_stream(kDrives, 40))
    accepted += daemon.push(obs) == PushResult::kAccepted ? 1 : 0;
  daemon.stop();
  done.store(true);
  poller.join();

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(accepted, kDrives * 40u);
  EXPECT_EQ(stats.scored, accepted);
  EXPECT_EQ(stats.drives_tracked, kDrives);
  std::uint64_t in_some_state = 0;
  for (const std::uint64_t n : stats.health_counts) in_some_state += n;
  EXPECT_EQ(in_some_state, kDrives);
  EXPECT_LE(most_drives, kDrives);
}

TEST(TelemetryDaemon, RecoveryRebuildsBitIdenticalState) {
  TempDir dir("recover");
  obs::MetricsRegistry registry;
  const auto stream = make_stream(8, 30);
  std::uint64_t live_digest = 0;
  std::size_t live_drives = 0;
  {
    TelemetryDaemon live(std::make_shared<StubModel>(),
                         base_config(dir.path(), &registry));
    live.start();
    for (const auto& obs : stream) ASSERT_EQ(live.push(obs), PushResult::kAccepted);
    live.stop();
    live_digest = live.state_digest();
    live_drives = live.stats().drives_tracked;
  }
  ASSERT_NE(live_digest, 0u);

  // A fresh process over the same WAL directory must land on the exact
  // same per-drive state — and scoring must continue seamlessly after.
  TelemetryDaemon recovered(std::make_shared<StubModel>(),
                            base_config(dir.path(), &registry));
  recovered.start();
  const DaemonStats after = recovered.stats();
  EXPECT_EQ(after.recovery.records_replayed, stream.size());
  EXPECT_EQ(after.recovery.truncated_bytes, 0u);
  EXPECT_EQ(after.drives_tracked, live_drives);

  // Day 30 continues where the stream stopped; the sanitizer would
  // quarantine it as out-of-order if recovery had lost any day.
  auto next_day = make_stream(8, 31);
  std::size_t accepted = 0;
  for (const auto& obs : next_day) {
    if (obs.record.day != 30) continue;
    ASSERT_EQ(recovered.push(obs), PushResult::kAccepted);
    ++accepted;
  }
  EXPECT_EQ(accepted, 8u);
  recovered.stop();
  EXPECT_EQ(recovered.stats().quarantined, 0u);

  // And a recover-only pass (no new traffic) reproduces the live digest.
  TelemetryDaemon verify(std::make_shared<StubModel>(),
                         base_config(dir.path(), &registry));
  // The previous daemon appended day 30 to the WAL; replay to just after
  // the original stream requires its own directory — so instead compare
  // against a third daemon that processed the same 31-day stream live.
  verify.start();
  verify.stop();
  TelemetryDaemon reference(std::make_shared<StubModel>(),
                            base_config("", &registry));
  reference.start();
  for (const auto& obs : make_stream(8, 31))
    ASSERT_EQ(reference.push(obs), PushResult::kAccepted);
  reference.stop();
  EXPECT_EQ(verify.state_digest(), reference.state_digest());
}

TEST(TelemetryDaemon, ReplayIsIdempotent) {
  TempDir dir("idempotent");
  obs::MetricsRegistry registry;
  {
    TelemetryDaemon live(std::make_shared<StubModel>(),
                         base_config(dir.path(), &registry));
    live.start();
    for (const auto& obs : make_stream(5, 12))
      ASSERT_EQ(live.push(obs), PushResult::kAccepted);
    live.stop();
  }
  std::uint64_t first = 0;
  for (int round = 0; round < 2; ++round) {
    TelemetryDaemon recovered(std::make_shared<StubModel>(),
                              base_config(dir.path(), &registry));
    recovered.start();
    recovered.stop();
    if (round == 0) {
      first = recovered.state_digest();
    } else {
      EXPECT_EQ(recovered.state_digest(), first);
    }
  }
}

TEST(TelemetryDaemon, RetireTravelsThroughTheWal) {
  TempDir dir("retire");
  obs::MetricsRegistry registry;
  const auto stream = make_stream(3, 10);
  {
    TelemetryDaemon live(std::make_shared<StubModel>(),
                         base_config(dir.path(), &registry));
    live.start();
    for (const auto& obs : stream) ASSERT_EQ(live.push(obs), PushResult::kAccepted);
    live.retire(trace::DriveModel::MlcA, 0);
    live.stop();
    EXPECT_EQ(live.stats().drives_tracked, 2u);
    const auto counts = live.stats().health_counts;
    EXPECT_EQ(counts[static_cast<std::size_t>(HealthState::kSwapped)], 1u);
  }
  TelemetryDaemon recovered(std::make_shared<StubModel>(),
                            base_config(dir.path(), &registry));
  recovered.start();
  recovered.stop();
  const DaemonStats stats = recovered.stats();
  EXPECT_EQ(stats.recovery.retires_replayed, 1u);
  EXPECT_EQ(stats.drives_tracked, 2u);
  EXPECT_EQ(stats.health_counts[static_cast<std::size_t>(HealthState::kSwapped)], 1u);
}

TEST(TelemetryDaemon, DegradedDaemonStillIngestsAndWalsEverything) {
  TempDir dir("degraded");
  obs::MetricsRegistry registry;
  const auto stream = make_stream(4, 6);
  {
    TelemetryDaemon degraded(nullptr, base_config(dir.path(), &registry));
    degraded.start();
    for (const auto& obs : stream)
      ASSERT_EQ(degraded.push(obs), PushResult::kAccepted);
    degraded.stop();
    const DaemonStats stats = degraded.stats();
    EXPECT_TRUE(stats.degraded);
    EXPECT_EQ(stats.ingested, stream.size());
    EXPECT_EQ(stats.scored, 0u);  // no model, no scores
    EXPECT_GT(stats.segments_appended, 0u);
    // Feature state still advances so a later model starts warm.
    EXPECT_EQ(stats.drives_tracked, 4u);
  }
  // A later process with a working scorer replays the degraded WAL and
  // scores every record the degraded daemon could only persist.
  TelemetryDaemon scored(std::make_shared<StubModel>(),
                         base_config(dir.path(), &registry));
  scored.start();
  scored.stop();
  const DaemonStats stats = scored.stats();
  EXPECT_FALSE(stats.degraded);
  EXPECT_EQ(stats.recovery.records_replayed, stream.size());
  EXPECT_EQ(stats.scored, stream.size());
}

/// Scores every row `score` (NaN makes a broken scorer).
class ConstantModel final : public ml::Classifier {
 public:
  explicit ConstantModel(float score) : score_(score) {}
  void fit(const ml::Dataset&) override {}
  [[nodiscard]] std::vector<float> predict_proba(const ml::Matrix& x) const override {
    return std::vector<float>(x.rows(), score_);
  }
  [[nodiscard]] std::string name() const override { return "constant"; }
  [[nodiscard]] std::unique_ptr<ml::Classifier> clone() const override {
    return std::make_unique<ConstantModel>(score_);
  }

 private:
  float score_;
};

TEST(TelemetryDaemon, NonFiniteScoresClampToAlertAndCount) {
  // A broken model must page, not leave the fleet silently "healthy": each
  // NaN score is clamped to 1.0, alerts, feeds the health machine as an
  // alert strike, and is counted.
  obs::MetricsRegistry registry;
  DaemonConfig cfg = base_config("", &registry);
  cfg.shards = 1;
  std::vector<DriveAssessment> seen;  // one appender thread, read after stop()
  cfg.on_assessment = [&seen](const DriveAssessment& a) { seen.push_back(a); };
  TelemetryDaemon daemon(
      std::make_shared<ConstantModel>(std::numeric_limits<float>::quiet_NaN()), cfg);
  daemon.start();
  const auto stream = make_stream(8, 30);
  for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.stop();

  const DaemonStats stats = daemon.stats();
  ASSERT_EQ(stats.scored, stream.size());
  EXPECT_EQ(stats.alerts, stream.size());
  ASSERT_EQ(seen.size(), stream.size());
  const auto alert_day = static_cast<std::int32_t>(HealthConfig{}.alert_days) - 1;
  for (const DriveAssessment& a : seen) {
    EXPECT_EQ(a.score, 1.0f) << "uid " << a.uid << " day " << a.day;
    EXPECT_TRUE(a.alert);
    EXPECT_EQ(a.health, a.day >= alert_day ? HealthState::kAlert : HealthState::kHealthy)
        << "uid " << a.uid << " day " << a.day;
  }
  EXPECT_EQ(stats.health_counts[static_cast<std::size_t>(HealthState::kAlert)], 8u);
  const obs::RegistrySnapshot metrics = registry.snapshot();
  const obs::Sample* non_finite = metrics.find("daemon_non_finite_scores_total");
  ASSERT_NE(non_finite, nullptr);
  EXPECT_EQ(non_finite->value, static_cast<double>(stats.scored));
}

TEST(TelemetryDaemon, SetModelTogglesDegradedMode) {
  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(nullptr, base_config("", &registry));
  EXPECT_TRUE(daemon.stats().degraded);
  daemon.set_model(std::make_shared<StubModel>());
  EXPECT_FALSE(daemon.stats().degraded);
  daemon.set_model(nullptr);
  EXPECT_TRUE(daemon.stats().degraded);
}

TEST(TelemetryDaemon, NoWalDirMeansWalDegradedButStillScoring) {
  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(std::make_shared<StubModel>(), base_config("", &registry));
  daemon.start();
  const auto stream = make_stream(2, 5);
  for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.stop();
  const DaemonStats stats = daemon.stats();
  EXPECT_TRUE(stats.wal_degraded);
  EXPECT_EQ(stats.segments_appended, 0u);
  EXPECT_EQ(stats.scored, stream.size());
}

TEST(TelemetryDaemon, UnwritableWalDirDegradesInsteadOfDying) {
  obs::MetricsRegistry registry;
  auto cfg = base_config("/nonexistent_dir_for_ssdfail_daemon/x", &registry);
  TelemetryDaemon daemon(std::make_shared<StubModel>(), cfg);
  daemon.start();
  const auto stream = make_stream(2, 4);
  for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.stop();
  const DaemonStats stats = daemon.stats();
  EXPECT_TRUE(stats.wal_degraded);
  EXPECT_GT(stats.wal_errors, 0u);
  EXPECT_EQ(stats.scored, stream.size());  // service continued
}

TEST(TelemetryDaemon, ShedPolicyCountsEveryDrop) {
  obs::MetricsRegistry registry;
  auto cfg = base_config("", &registry);
  cfg.shards = 1;
  cfg.ring_capacity = 2;
  cfg.backpressure = Backpressure::kShed;
  std::atomic<bool> release{false};
  cfg.appender_hook = hold_until(release);
  TelemetryDaemon daemon(std::make_shared<StubModel>(), cfg);
  daemon.start();
  const auto stream = make_stream(1, 100);
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  for (const auto& obs : stream) {
    const PushResult r = daemon.push(obs);
    if (r == PushResult::kAccepted) ++accepted;
    if (r == PushResult::kShed) ++shed;
  }
  release.store(true, std::memory_order_release);
  daemon.stop();
  const DaemonStats stats = daemon.stats();
  EXPECT_GT(shed, 0u);  // ring of 2 with a blocked appender must shed
  EXPECT_EQ(stats.ingested, accepted);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.ingested + stats.shed, stream.size());
  // Every accepted record was still processed on drain.
  EXPECT_EQ(stats.scored + stats.quarantined + stats.duplicates_dropped, accepted);
}

TEST(TelemetryDaemon, WatchdogCountsAStalledAppender) {
  obs::MetricsRegistry registry;
  auto cfg = base_config("", &registry);
  cfg.shards = 1;
  cfg.max_batch = 1;  // leave a backlog in the ring while the hook wedges
  std::atomic<bool> release{false};
  cfg.appender_hook = hold_until(release);
  TelemetryDaemon daemon(std::make_shared<StubModel>(), cfg);
  daemon.start();
  const auto stream = make_stream(2, 10);
  for (const auto& obs : stream) (void)daemon.push(obs);
  // The appender is wedged in the hook with a backlog; the watchdog must
  // notice once the stall outlasts its 500 ms patience.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (daemon.stats().watchdog_stalls == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(daemon.stats().watchdog_stalls, 1u);
  release.store(true, std::memory_order_release);
  daemon.stop();
}

TEST(TelemetryDaemon, HealthStateDoesNotDependOnBatchBoundaries) {
  // A corrupted stream interleaves quarantine strikes with scored records
  // of the same drive.  Each must reach the drive's HealthTracker in stream
  // order whether the appenders drain one record per batch or hold until
  // every record is queued and drain it as one large batch.
  robustness::FaultInjector injector(11, robustness::FaultRates::uniform(0.10));
  const auto stream = injector.corrupt(make_stream(8, 60)).observations;
  const auto digest_with = [&](std::size_t max_batch, bool hold_until_queued) {
    obs::MetricsRegistry registry;
    auto cfg = base_config("", &registry);
    cfg.ring_capacity = 2 * stream.size();
    cfg.max_batch = max_batch;
    std::atomic<bool> queued{!hold_until_queued};
    cfg.appender_hook = hold_until(queued);
    TelemetryDaemon daemon(std::make_shared<StubModel>(), cfg);
    daemon.start();
    for (const auto& obs : stream) EXPECT_EQ(daemon.push(obs), PushResult::kAccepted);
    queued.store(true, std::memory_order_release);
    daemon.stop();
    EXPECT_GT(daemon.stats().quarantined, 0u);
    return daemon.state_digest();
  };
  EXPECT_EQ(digest_with(1, false), digest_with(stream.size(), true));
}

TEST(TelemetryDaemon, RetireLandsAfterTheDrivesQueuedRecords) {
  // A retire queued behind a drive's records is applied after them; a
  // record processed after its drive's retire would recreate the drive's
  // scoring state.  max_batch = 1 gives each record its own iteration, and
  // the hook holds the first one until the records and the retire are all
  // queued, so a retire taken out of stream order lands before the drive's
  // last records.
  obs::MetricsRegistry registry;
  auto cfg = base_config("", &registry);
  cfg.shards = 1;
  cfg.max_batch = 1;
  std::atomic<bool> queued{false};
  cfg.appender_hook = hold_until(queued);
  TelemetryDaemon daemon(std::make_shared<StubModel>(), cfg);
  daemon.start();
  const auto stream = make_stream(1, 20);
  for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  ASSERT_EQ(daemon.retire(trace::DriveModel::MlcA, 0), PushResult::kAccepted);
  queued.store(true, std::memory_order_release);
  daemon.stop();

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.scored, stream.size());
  EXPECT_EQ(stats.drives_tracked, 0u);
  EXPECT_EQ(stats.health_counts[static_cast<std::size_t>(HealthState::kSwapped)], 1u);
}

TEST(TelemetryDaemon, RetireIsRejectedWhenNotRunning) {
  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(std::make_shared<StubModel>(), base_config("", &registry));
  EXPECT_EQ(daemon.retire(trace::DriveModel::MlcA, 0), PushResult::kRejected);
  daemon.start();
  daemon.stop();
  EXPECT_EQ(daemon.retire(trace::DriveModel::MlcA, 0), PushResult::kRejected);
  EXPECT_EQ(daemon.stats().rejected, 2u);
  EXPECT_EQ(daemon.stats().health_counts[static_cast<std::size_t>(HealthState::kSwapped)],
            0u);
}

/// drain() returns only once the held records AND the retire queued
/// behind them are logged, processed and published: stats() read right
/// after it must already show the retire.  `model` null runs degraded,
/// where nothing counts as scored.  On a daemon that is not running,
/// drain() returns at once.
void expect_drain_covers_records_and_retires(std::shared_ptr<const ml::Classifier> model) {
  TempDir dir("drain_contract");
  obs::MetricsRegistry registry;
  auto cfg = base_config(dir.path(), &registry);
  std::atomic<bool> release{false};
  cfg.appender_hook = hold_until(release);
  const bool scoring = model != nullptr;
  TelemetryDaemon daemon(std::move(model), cfg);
  daemon.drain();  // not started
  daemon.start();
  const auto stream = make_stream(4, 10);
  for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  ASSERT_EQ(daemon.retire(trace::DriveModel::MlcA, 0), PushResult::kAccepted);
  release.store(true, std::memory_order_release);
  daemon.drain();

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.drives_retired, 1u);
  EXPECT_EQ(stats.health_counts[static_cast<std::size_t>(HealthState::kSwapped)], 1u);
  EXPECT_EQ(stats.drives_tracked, 3u);
  EXPECT_EQ(stats.scored, scoring ? stream.size() : 0u);
  EXPECT_GE(stats.segments_appended, 2u);  // a records and a retires segment
  daemon.stop();
  daemon.drain();  // stopped
  EXPECT_EQ(daemon.stats().drives_retired, 1u);
}

TEST(TelemetryDaemon, DrainCoversRecordsAndRetiresAcceptedBeforeIt) {
  expect_drain_covers_records_and_retires(std::make_shared<StubModel>());
}

TEST(TelemetryDaemon, DrainCoversRecordsAndRetiresWithoutAModel) {
  expect_drain_covers_records_and_retires(nullptr);
}

TEST(TelemetryDaemon, PromotionResetsStrikesBeforeItsFirstBatch) {
  // Both models score every record at an alert strike and alert_days is 2
  // (the daemon's HealthConfig).  The promotion lands on the iteration
  // that holds the drive's second record, so that record must be the first
  // strike under the new model, not the second on top of the old model's
  // streak.
  obs::MetricsRegistry registry;
  auto cfg = base_config("", &registry);
  cfg.shards = 1;
  cfg.max_batch = 1;
  ASSERT_EQ(HealthConfig{}.alert_days, 2u);
  const float score = 0.95f;
  ASSERT_GE(score, HealthConfig{}.alert_threshold);
  TelemetryDaemon* daemon_ptr = nullptr;
  int iteration = 0;
  cfg.appender_hook = [&](std::uint32_t) {
    if (++iteration == 2) daemon_ptr->set_model(std::make_shared<ConstantModel>(score));
  };
  std::vector<DriveAssessment> seen;  // one appender thread, read after stop()
  cfg.on_assessment = [&seen](const DriveAssessment& a) { seen.push_back(a); };
  TelemetryDaemon daemon(std::make_shared<ConstantModel>(score), cfg);
  daemon_ptr = &daemon;
  daemon.start();
  for (const auto& obs : make_stream(1, 2))
    ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.drain();  // the promotion happens while the daemon is live, not in stop()
  daemon.stop();

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].health, HealthState::kHealthy);
  EXPECT_NE(seen[1].health, HealthState::kAlert);
  EXPECT_EQ(daemon.stats().health_counts[static_cast<std::size_t>(HealthState::kAlert)],
            0u);
  EXPECT_EQ(registry.counter("daemon_strike_resets_total", {}, "").value(), 1u);
}

TEST(TelemetryDaemon, PushRacingStopIsProcessedOrRejected) {
  // Producers push until they are rejected while another thread stops the
  // daemon.  A push that passed its open check before stop() began must
  // still be logged and scored, whatever the appenders were doing: with a
  // two-cell ring the producers spend most of their time blocked on a full
  // ring, the window where a record landing after the last drain was lost.
  for (int round = 0; round < 200; ++round) {
    obs::MetricsRegistry registry;
    auto cfg = base_config("", &registry);
    cfg.shards = 1;
    cfg.ring_capacity = 2;
    cfg.block_timeout = std::chrono::seconds(10);
    TelemetryDaemon daemon(std::make_shared<StubModel>(), cfg);
    daemon.start();
    constexpr std::uint32_t kProducers = 3;
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint32_t> started{0};
    std::vector<std::thread> producers;
    for (std::uint32_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        started.fetch_add(1);
        for (std::int32_t day = 0;; ++day) {
          trace::DailyRecord rec;
          rec.day = day;
          rec.reads = 10;
          if (daemon.push({trace::DriveModel::MlcA, p, 0, rec}) != PushResult::kAccepted)
            return;
          accepted.fetch_add(1);
        }
      });
    }
    while (started.load() < kProducers) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::microseconds(200 + 10 * (round % 50)));
    daemon.stop();
    for (auto& t : producers) t.join();

    const DaemonStats stats = daemon.stats();
    ASSERT_EQ(stats.ingested, accepted.load()) << "round " << round;
    ASSERT_EQ(stats.shed, 0u) << "round " << round;
    ASSERT_EQ(stats.scored + stats.quarantined + stats.duplicates_dropped, stats.ingested)
        << "round " << round << ": an accepted record was never processed";
  }
}

// ---------------------------------------------------------------------------
// The in-memory scorer: an empty wal_dir, per-record outcomes read through
// on_assessment.

/// Fitted forest shared by the scoring tests.
std::shared_ptr<const ml::Classifier> fitted_model() {
  static const std::shared_ptr<const ml::Classifier> model = [] {
    sim::FleetConfig cfg;
    cfg.drives_per_model = 300;
    sim::FleetSimulator fleet(cfg);
    core::DatasetBuildOptions opts;
    opts.lookahead_days = 1;
    opts.negative_keep_prob = 0.05;
    const ml::Dataset data = core::build_dataset(fleet, opts);
    auto forest = ml::make_model(ml::ModelKind::kRandomForest);
    forest->fit(ml::downsample_negatives(data, 1.0, 3));
    return std::shared_ptr<const ml::Classifier>(std::move(forest));
  }();
  return model;
}

/// Every scored record's score, keyed by (uid, day): unique among the
/// records the sanitizer accepts, since it admits a drive's days in
/// strictly increasing order.  Thread-safe, so any shard count may feed it.
class ScoreLog {
 public:
  using Key = std::pair<std::uint64_t, std::int32_t>;

  void attach(DaemonConfig& cfg) {
    cfg.on_assessment = [this](const DriveAssessment& a) {
      const std::scoped_lock lock(mutex_);
      duplicate_keys_ += scores_.emplace(Key{a.uid, a.day}, a.score).second ? 0 : 1;
      if (a.alert) ++alerts_;
    };
  }
  /// Call after stop().
  [[nodiscard]] const std::map<Key, float>& scores() const { return scores_; }
  [[nodiscard]] std::size_t duplicate_keys() const { return duplicate_keys_; }
  [[nodiscard]] std::size_t alerts() const { return alerts_; }
  [[nodiscard]] float at(const core::FleetObservation& obs) const {
    return scores_.at({obs.uid(), obs.record.day});
  }

 private:
  std::mutex mutex_;
  std::map<Key, float> scores_;
  std::size_t duplicate_keys_ = 0;
  std::size_t alerts_ = 0;
};

DaemonConfig memory_config(obs::MetricsRegistry* registry, std::size_t shards,
                           double threshold = 0.9) {
  DaemonConfig cfg;
  cfg.shards = shards;
  cfg.registry = registry;
  cfg.threshold = threshold;
  cfg.block_timeout = std::chrono::seconds(10);  // a replay never sheds
  return cfg;
}

/// Push `stream` through a fresh in-memory daemon and log every score.
void replay(const std::shared_ptr<const ml::Classifier>& model,
            std::span<const core::FleetObservation> stream, DaemonConfig cfg,
            ScoreLog& log) {
  log.attach(cfg);
  TelemetryDaemon daemon(model, cfg);
  daemon.start();
  for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.stop();
}

/// One drive's records as a stream.
std::vector<core::FleetObservation> drive_stream(const trace::DriveHistory& drive) {
  std::vector<core::FleetObservation> stream;
  for (const auto& rec : drive.records)
    stream.push_back({drive.model, drive.drive_index, drive.deploy_day, rec});
  return stream;
}

/// One record of drive (MlcB, 1) on `day`.
core::FleetObservation record_on(std::int32_t day) {
  trace::DailyRecord rec;
  rec.day = day;
  rec.reads = 100;
  rec.writes = 100;
  return {trace::DriveModel::MlcB, 1, 0, rec};
}

TEST(TelemetryDaemon, ScoresMatchBatchPipeline) {
  // Streaming scores must equal what the batch feature extractor + model
  // produce for the same records.
  sim::FleetConfig cfg;
  cfg.drives_per_model = 300;
  const trace::DriveHistory drive = sim::FleetSimulator(cfg).simulate(5);
  const auto stream = drive_stream(drive);

  obs::MetricsRegistry registry;
  ScoreLog log;
  replay(fitted_model(), stream, memory_config(&registry, 1), log);
  ASSERT_EQ(log.scores().size(), stream.size());

  core::FeatureExtractor::State state;
  ml::Matrix row(1, core::FeatureExtractor::count());
  for (const auto& obs : stream) {
    core::FeatureExtractor::advance(state, obs.record);
    core::FeatureExtractor::extract(drive.deploy_day, obs.record, state, row.row(0));
    ASSERT_FLOAT_EQ(log.at(obs), fitted_model()->predict_proba(row)[0])
        << "day " << obs.record.day;
  }
}

TEST(TelemetryDaemon, ScoresMatchTheWalker) {
  // The daemon serves a forest through the compiled flat engine; its
  // scores must be bit-identical to the forest's own pointer walk over the
  // offline feature rows of the same records.
  sim::FleetConfig cfg;
  cfg.drives_per_model = 5;
  cfg.seed = 7;
  cfg.keep_ground_truth = false;
  const trace::FleetTrace fleet = sim::FleetSimulator(cfg).generate_all();
  core::DatasetBuildOptions opts;
  opts.lookahead_days = 7;
  opts.negative_keep_prob = 0.1;
  opts.seed = 3;
  ml::RandomForest::Params params;
  params.n_trees = 10;
  auto forest = std::make_shared<ml::RandomForest>(params);
  forest->fit(core::build_dataset(fleet, opts));

  // Enough days per drive to exercise cumulative state.
  std::vector<core::FleetObservation> stream;
  for (const auto& drive : fleet.drives) {
    auto records = drive_stream(drive);
    records.resize(std::min<std::size_t>(records.size(), 30));
    stream.insert(stream.end(), records.begin(), records.end());
  }
  obs::MetricsRegistry registry;
  ScoreLog log;
  replay(forest, stream, memory_config(&registry, 4, 0.5), log);
  ASSERT_EQ(log.scores().size(), stream.size());

  ml::Matrix rows(stream.size(), core::FeatureExtractor::count());
  std::map<std::uint64_t, core::FeatureExtractor::State> states;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    core::FeatureExtractor::State& state = states[stream[i].uid()];
    core::FeatureExtractor::advance(state, stream[i].record);
    core::FeatureExtractor::extract(stream[i].deploy_day, stream[i].record, state,
                                    rows.row(i));
  }
  const std::vector<float> walker = forest->predict_proba(rows);
  for (std::size_t i = 0; i < stream.size(); ++i)
    EXPECT_EQ(log.at(stream[i]), walker[i]) << "record " << i;
}

TEST(TelemetryDaemon, AlertRespectsThreshold) {
  // Threshold 0: every record alerts, one alert counted per record.
  // Threshold above 1: nothing alerts.
  std::vector<core::FleetObservation> stream;
  for (std::int32_t day = 0; day < 20; ++day) stream.push_back(record_on(day));
  for (const double threshold : {0.0, 1.01}) {
    obs::MetricsRegistry registry;
    ScoreLog log;
    DaemonConfig cfg = memory_config(&registry, 3, threshold);
    log.attach(cfg);
    TelemetryDaemon daemon(fitted_model(), cfg);
    daemon.start();
    for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
    daemon.stop();
    const std::uint64_t expected = threshold == 0.0 ? stream.size() : 0;
    EXPECT_EQ(daemon.stats().scored, stream.size());
    EXPECT_EQ(daemon.stats().alerts, expected) << "threshold " << threshold;
    EXPECT_EQ(log.alerts(), expected) << "threshold " << threshold;
  }
}

TEST(TelemetryDaemon, AlertCounterIsMonotone) {
  // Threshold 0: each record raises exactly one alert, and the counter
  // read once each record has drained steps up by exactly one.
  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(fitted_model(), memory_config(&registry, 3, 0.0));
  daemon.start();
  trace::DailyRecord rec;
  rec.reads = 10;
  for (std::int32_t day = 0; day < 20; ++day) {
    rec.day = day;
    ASSERT_EQ(daemon.push({trace::DriveModel::MlcD, 2, 0, rec}), PushResult::kAccepted);
    daemon.drain();
    EXPECT_EQ(daemon.stats().alerts, static_cast<std::uint64_t>(day) + 1) << "day " << day;
  }
  daemon.stop();
  EXPECT_EQ(daemon.stats().scored, 20u);
  EXPECT_EQ(daemon.stats().alerts, 20u);
  const obs::RegistrySnapshot snapshot = registry.snapshot();
  const obs::Sample* alerts = snapshot.find("daemon_alerts_total");
  ASSERT_NE(alerts, nullptr);
  EXPECT_EQ(alerts->value, 20.0);
}

TEST(TelemetryDaemon, TracksDrivesIndependently) {
  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(fitted_model(), memory_config(&registry, 4, 0.99));
  daemon.start();
  trace::DailyRecord rec;
  rec.reads = 10;
  rec.writes = 10;
  ASSERT_EQ(daemon.push({trace::DriveModel::MlcA, 1, 0, rec}), PushResult::kAccepted);
  ASSERT_EQ(daemon.push({trace::DriveModel::MlcB, 1, 0, rec}), PushResult::kAccepted);
  // The same drive again on the next day reuses its state.
  rec.day = 1;
  ASSERT_EQ(daemon.push({trace::DriveModel::MlcA, 1, 0, rec}), PushResult::kAccepted);
  ASSERT_EQ(daemon.retire(trace::DriveModel::MlcA, 1), PushResult::kAccepted);
  daemon.stop();
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.scored, 3u);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(stats.drives_tracked, 1u);
  EXPECT_EQ(stats.drives_retired, 1u);
}

TEST(TelemetryDaemon, RetireThenReobserveRecreatesState) {
  obs::MetricsRegistry registry;
  DaemonConfig cfg = memory_config(&registry, 4, 0.99);
  std::vector<float> scores;  // one drive: one appender, read after stop()
  cfg.on_assessment = [&scores](const DriveAssessment& a) { scores.push_back(a.score); };
  TelemetryDaemon daemon(fitted_model(), cfg);
  daemon.start();
  core::FleetObservation obs = record_on(0);
  ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  obs.record.day = 1;
  obs.record.errors[static_cast<std::size_t>(trace::ErrorType::kUncorrectable)] = 9;
  ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  ASSERT_EQ(daemon.retire(obs.drive_model, obs.drive_index), PushResult::kAccepted);
  // Re-observing after retirement builds FRESH state: day 0 is legal again
  // (the retired drive's day cursor is gone) and scores like the first
  // observation, its error history forgotten.
  ASSERT_EQ(daemon.push(record_on(0)), PushResult::kAccepted);
  daemon.stop();

  ASSERT_EQ(scores.size(), 3u);
  EXPECT_EQ(scores[2], scores[0]);
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(stats.drives_tracked, 1u);
  EXPECT_EQ(stats.drives_retired, 1u);  // created = tracked + retired = 2
}

/// Four drives' full histories, drive after drive.
std::vector<core::FleetObservation> four_drive_stream() {
  sim::FleetConfig cfg;
  cfg.drives_per_model = 40;
  sim::FleetSimulator fleet(cfg);
  std::vector<core::FleetObservation> stream;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const auto records = drive_stream(fleet.simulate(i));
    stream.insert(stream.end(), records.begin(), records.end());
  }
  return stream;
}

/// Sum one family across all of its label sets in `snap`.
double family_total(const obs::RegistrySnapshot& snap, std::string_view name) {
  double total = 0.0;
  for (const obs::Sample& s : snap.samples)
    if (s.name == name) total += s.value;
  return total;
}

TEST(TelemetryDaemon, RetireAdjustsDriveCounts) {
  // Retiring two of four scored drives moves them from the tracked count
  // to the retired count, and from their health state to "swapped" in
  // both the stats and the registry gauge.
  const auto stream = four_drive_stream();
  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(fitted_model(), memory_config(&registry, 3, 0.5));
  daemon.start();
  for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.drain();
  const DaemonStats before = daemon.stats();
  ASSERT_EQ(before.drives_tracked, 4u);
  ASSERT_EQ(before.drives_retired, 0u);
  // The first and the last drive of the stream.
  for (const core::FleetObservation* obs : {&stream.front(), &stream.back()})
    ASSERT_EQ(daemon.retire(obs->drive_model, obs->drive_index), PushResult::kAccepted);
  daemon.stop();

  const DaemonStats after = daemon.stats();
  EXPECT_EQ(after.drives_retired, before.drives_retired + 2);
  EXPECT_EQ(after.drives_tracked, before.drives_tracked - 2);
  const auto swapped = static_cast<std::size_t>(HealthState::kSwapped);
  EXPECT_EQ(after.health_counts[swapped], 2u);
  const obs::RegistrySnapshot metrics = registry.snapshot();
  const obs::Sample* gauge = metrics.find(
      "daemon_drive_health", {{"state", std::string(health_state_name(HealthState::kSwapped))}});
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, 2.0);
  EXPECT_EQ(family_total(metrics, "daemon_drive_health"), 4.0);
}

TEST(TelemetryDaemon, OutOfOrderQuarantine) {
  // A stale record is quarantined, not thrown on: counted under its
  // violation kind and kept in the dead letters, while in-order records
  // around it still score.
  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(fitted_model(), memory_config(&registry, 2, 0.5));
  daemon.start();
  for (const std::int32_t day : {10, 9, 9, 11})
    ASSERT_EQ(daemon.push(record_on(day)), PushResult::kAccepted);
  daemon.stop();

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.scored, 2u);  // day 10 + day 11
  EXPECT_EQ(stats.quarantined, 2u);
  const robustness::SanitizerSnapshot sanitizer = daemon.sanitizer();
  EXPECT_EQ(sanitizer.records_quarantined, 2u);
  EXPECT_EQ(sanitizer.quarantined[static_cast<std::size_t>(
                trace::ViolationKind::kNonMonotoneDays)],
            2u);
  ASSERT_EQ(sanitizer.dead_letters.size(), 2u);
  for (const auto& letter : sanitizer.dead_letters) {
    EXPECT_EQ(letter.kind, trace::ViolationKind::kNonMonotoneDays);
    EXPECT_EQ(letter.record.day, 9);
  }
}

TEST(TelemetryDaemon, ExactDuplicateIsDroppedNotQuarantined) {
  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(fitted_model(), memory_config(&registry, 2, 0.5));
  daemon.start();
  ASSERT_EQ(daemon.push(record_on(10)), PushResult::kAccepted);
  ASSERT_EQ(daemon.push(record_on(10)), PushResult::kAccepted);
  daemon.stop();
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.scored, 1u);
  EXPECT_EQ(stats.duplicates_dropped, 1u);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(daemon.sanitizer().duplicates_dropped, 1u);
  EXPECT_EQ(daemon.sanitizer().records_quarantined, 0u);
}

TEST(TelemetryDaemon, CounterRegressionIsRepairedAndScored) {
  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(fitted_model(), memory_config(&registry, 2, 0.5));
  daemon.start();
  core::FleetObservation obs = record_on(10);
  obs.record.pe_cycles = 500;
  ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  obs.record.day = 11;
  obs.record.pe_cycles = 3;  // controller reset: cumulative P/E regressed
  ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.stop();
  EXPECT_EQ(daemon.stats().scored, 2u);
  const robustness::SanitizerSnapshot sanitizer = daemon.sanitizer();
  EXPECT_EQ(sanitizer.records_repaired, 1u);
  EXPECT_EQ(sanitizer.repaired[static_cast<std::size_t>(
                trace::ViolationKind::kDecreasingPeCycles)],
            1u);
}

TEST(TelemetryDaemon, ReportCountsAddUp) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = 6;
  cfg.window_days = 100;
  const trace::FleetTrace fleet = sim::FleetSimulator(cfg).generate_all();
  const auto stream = core::day_ordered_stream(fleet);

  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(fitted_model(), memory_config(&registry, 4));
  daemon.start();
  for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.stop();

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.scored, stream.size());
  EXPECT_EQ(stats.drives_tracked, fleet.drives.size());
  EXPECT_EQ(stats.drives_retired, 0u);
  EXPECT_EQ(stats.non_finite, 0u);
  EXPECT_EQ(daemon.sanitizer().records_quarantined, 0u);
  // Each batch observes its mean per-record latency once, weighted by its
  // record count, so the histogram holds one observation per record.
  const obs::RegistrySnapshot metrics = registry.snapshot();
  const obs::Sample* latency = metrics.find("daemon_score_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, stream.size());
  EXPECT_EQ(latency->bucket_bounds.size(), 40u);
  EXPECT_DOUBLE_EQ(latency->bucket_bounds.back(), 2000.0);
  const obs::Sample* scored = metrics.find("daemon_records_scored_total");
  ASSERT_NE(scored, nullptr);
  EXPECT_EQ(scored->value, static_cast<double>(stats.scored));
}

TEST(TelemetryDaemon, StatsMatchRegistryFamilies) {
  // The counts stats() reports and the registry families an operator
  // scrapes tell the same story.
  const auto stream = four_drive_stream();
  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(fitted_model(), memory_config(&registry, 3, 0.5));
  daemon.start();
  for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.stop();

  const DaemonStats stats = daemon.stats();
  const obs::RegistrySnapshot metrics = registry.snapshot();
  EXPECT_EQ(stats.ingested, stream.size());
  EXPECT_EQ(static_cast<double>(stats.ingested),
            family_total(metrics, "daemon_records_ingested_total"));
  EXPECT_EQ(static_cast<double>(stats.scored),
            family_total(metrics, "daemon_records_scored_total"));
  EXPECT_EQ(static_cast<double>(stats.alerts), family_total(metrics, "daemon_alerts_total"));
  EXPECT_EQ(static_cast<double>(stats.non_finite),
            family_total(metrics, "daemon_non_finite_scores_total"));
  EXPECT_EQ(static_cast<double>(stats.quarantined),
            family_total(metrics, "sanitizer_quarantined_total"));
  EXPECT_EQ(static_cast<double>(stats.duplicates_dropped),
            family_total(metrics, "sanitizer_duplicates_dropped_total"));
  EXPECT_EQ(stats.drives_tracked, 4u);
  EXPECT_EQ(static_cast<double>(stats.drives_tracked),
            family_total(metrics, "daemon_drive_health"));
  for (std::size_t s = 0; s < kNumHealthStates; ++s) {
    const auto state = static_cast<HealthState>(s);
    const obs::Sample* gauge =
        metrics.find("daemon_drive_health", {{"state", std::string(health_state_name(state))}});
    ASSERT_NE(gauge, nullptr) << health_state_name(state);
    EXPECT_EQ(gauge->value, static_cast<double>(stats.health_counts[s]))
        << health_state_name(state);
  }
  EXPECT_LE(stats.scored, stream.size());  // the sanitizer may drop
}

TEST(TelemetryDaemon, LatencyHistogramHoldsOneObservationPerRecord) {
  // Small batches cut the stream at many places; each batch observes its
  // mean latency weighted by its record count, so the histogram's bucket
  // mass equals its count equals the records scored.
  const auto stream = four_drive_stream();
  obs::MetricsRegistry registry;
  DaemonConfig cfg = memory_config(&registry, 3);
  cfg.max_batch = 7;
  TelemetryDaemon daemon(fitted_model(), cfg);
  daemon.start();
  for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.stop();

  const obs::RegistrySnapshot metrics = registry.snapshot();
  const obs::Sample* latency = metrics.find("daemon_score_latency_us");
  ASSERT_NE(latency, nullptr);
  ASSERT_EQ(latency->buckets.size(), latency->bucket_bounds.size() + 1);
  std::uint64_t mass = 0;
  for (const std::uint64_t n : latency->buckets) mass += n;
  EXPECT_EQ(mass, latency->count);
  EXPECT_EQ(latency->count, daemon.stats().scored);
  EXPECT_GT(latency->count, 0u);
}

/// A clean day-ordered replay stream over a small simulated fleet.
std::vector<core::FleetObservation> replay_stream(std::uint32_t drives_per_model) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = drives_per_model;
  cfg.seed = 77;
  return core::day_ordered_stream(sim::FleetSimulator(cfg).generate_all());
}

TEST(TelemetryDaemon, CorruptedReplayRepairsOrQuarantinesEverything) {
  // Replay a ~10%-corrupted stream: no exceptions, exact dead-letter
  // accounting through the production per-shard bound (every quarantine
  // is either still queued or counted as evicted), and bit-identical
  // scores for the records the injector certifies as untainted.
  const auto stream = replay_stream(12);
  ASSERT_GT(stream.size(), 1000u);
  obs::MetricsRegistry registry;
  ScoreLog baseline;
  replay(fitted_model(), stream, memory_config(&registry, 4), baseline);

  robustness::FaultInjector injector(41, robustness::FaultRates::uniform(0.10));
  const auto corrupted = injector.corrupt(stream);
  ASSERT_GT(corrupted.total_injected(), 0u);
  DaemonConfig cfg = memory_config(&registry, 4);
  cfg.max_batch = 512;
  ScoreLog log;
  log.attach(cfg);
  TelemetryDaemon daemon(fitted_model(), cfg);
  daemon.start();
  for (const auto& obs : corrupted.observations)
    ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.stop();
  EXPECT_EQ(log.duplicate_keys(), 0u);

  for (std::size_t i = 0; i < corrupted.observations.size(); ++i) {
    const core::FleetObservation& obs = corrupted.observations[i];
    const auto label = corrupted.label[i];
    if (label == robustness::StreamLabel::kCorrupt) continue;
    // Clean and tainted (perturbed drive state upstream) records are
    // scored; an untouched record of untouched state scores bit-identically.
    const auto it = log.scores().find({obs.uid(), obs.record.day});
    ASSERT_NE(it, log.scores().end()) << "record at position " << i << " was dropped";
    if (label == robustness::StreamLabel::kClean) {
      EXPECT_EQ(it->second, baseline.at(stream[corrupted.origin[i]]))
          << "clean record at position " << i << " diverged from the clean run";
    }
  }

  // Every corrupted record is accounted for in exactly one outcome bucket.
  const DaemonStats stats = daemon.stats();
  const robustness::SanitizerSnapshot sanitizer = daemon.sanitizer();
  const std::uint64_t dropped = corrupted.observations.size() - log.scores().size();
  EXPECT_EQ(sanitizer.records_repaired + sanitizer.duplicates_dropped +
                sanitizer.records_quarantined,
            corrupted.count(robustness::StreamLabel::kCorrupt));
  EXPECT_EQ(sanitizer.records_quarantined + sanitizer.duplicates_dropped, dropped);
  EXPECT_EQ(stats.quarantined, sanitizer.records_quarantined);
  EXPECT_EQ(stats.duplicates_dropped, sanitizer.duplicates_dropped);
  EXPECT_EQ(stats.scored, log.scores().size());
  EXPECT_EQ(sanitizer.dead_letters.size() + sanitizer.dead_letter_evicted,
            sanitizer.records_quarantined);
  EXPECT_GT(sanitizer.dead_letter_evicted, 0u) << "the stream must overflow a shard's queue";
  EXPECT_EQ(sanitizer.dead_letter_evicted, sanitizer.dead_letter_overflow);
  EXPECT_LE(sanitizer.dead_letters.size(),
            cfg.shards * robustness::SanitizerConfig{}.dead_letter_capacity);
  EXPECT_EQ(stats.non_finite, 0u);
  EXPECT_FALSE(stats.degraded);
}

TEST(TelemetryDaemon, CorruptStreamOutcomesDoNotDependOnShardsOrBatches) {
  // One shard draining one record per batch and four shards draining up
  // to 512 give a corrupted stream the same score for every record and
  // the same repair, quarantine and duplicate counts.
  const auto stream = replay_stream(6);
  robustness::FaultInjector injector(43, robustness::FaultRates::uniform(0.10));
  const auto corrupted = injector.corrupt(stream);
  ASSERT_GT(corrupted.total_injected(), 0u);
  struct Outcome {
    ScoreLog log;
    DaemonStats stats;
    robustness::SanitizerSnapshot sanitizer;
  };
  const auto run = [&](std::size_t shards, std::size_t max_batch, Outcome& out) {
    obs::MetricsRegistry registry;
    DaemonConfig cfg = memory_config(&registry, shards);
    cfg.max_batch = max_batch;
    out.log.attach(cfg);
    TelemetryDaemon daemon(fitted_model(), cfg);
    daemon.start();
    for (const auto& obs : corrupted.observations)
      ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
    daemon.stop();
    out.stats = daemon.stats();
    out.sanitizer = daemon.sanitizer();
  };
  Outcome one;
  Outcome four;
  run(1, 1, one);
  run(4, 512, four);

  EXPECT_GT(one.stats.quarantined, 0u);
  EXPECT_EQ(one.log.duplicate_keys(), 0u);
  EXPECT_EQ(four.log.duplicate_keys(), 0u);
  EXPECT_EQ(one.log.scores(), four.log.scores());
  EXPECT_EQ(one.log.alerts(), four.log.alerts());
  EXPECT_EQ(one.stats.scored, four.stats.scored);
  EXPECT_EQ(one.stats.alerts, four.stats.alerts);
  EXPECT_EQ(one.stats.quarantined, four.stats.quarantined);
  EXPECT_EQ(one.stats.duplicates_dropped, four.stats.duplicates_dropped);
  EXPECT_EQ(one.sanitizer.records_repaired, four.sanitizer.records_repaired);
  EXPECT_EQ(one.sanitizer.repaired, four.sanitizer.repaired);
  EXPECT_EQ(one.sanitizer.quarantined, four.sanitizer.quarantined);
}

TEST(TelemetryDaemon, NonFiniteScoresClampToConservativeAlert) {
  // NaN and both infinities clamp to 1.0 and alert on every shard, one
  // non-finite count per clamped score.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(), kInf, -kInf}) {
    std::vector<core::FleetObservation> stream;
    for (std::uint32_t drive = 0; drive < 4; ++drive) {
      core::FleetObservation obs = record_on(0);
      obs.drive_index = drive;
      stream.push_back(obs);
    }
    obs::MetricsRegistry registry;
    DaemonConfig cfg = memory_config(&registry, 2);
    ScoreLog log;
    log.attach(cfg);
    TelemetryDaemon daemon(std::make_shared<ConstantModel>(bad), cfg);
    daemon.start();
    for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
    daemon.stop();

    ASSERT_EQ(log.scores().size(), stream.size()) << "model score " << bad;
    for (const auto& obs : stream) EXPECT_EQ(log.at(obs), 1.0f) << "model score " << bad;
    EXPECT_EQ(log.alerts(), stream.size()) << "model score " << bad;
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.alerts, stream.size()) << "model score " << bad;
    EXPECT_EQ(stats.non_finite, stream.size()) << "model score " << bad;
  }
}

TEST(TelemetryDaemon, HotModelSwapKeepsFeatureStateAndScores) {
  // Replay the first half of the stream on a broken (NaN) model, swap to
  // the real model mid-stream, and require post-swap scores to match a
  // daemon that ran the real model the whole time: feature state carries
  // over, only scoring changes.
  const auto stream = replay_stream(4);
  const std::size_t half = stream.size() / 2;
  obs::MetricsRegistry registry;
  ScoreLog reference;
  replay(fitted_model(), stream, memory_config(&registry, 3), reference);

  DaemonConfig cfg = memory_config(&registry, 3);
  ScoreLog log;
  log.attach(cfg);
  TelemetryDaemon swapped(
      std::make_shared<ConstantModel>(std::numeric_limits<float>::quiet_NaN()), cfg);
  swapped.start();
  for (std::size_t i = 0; i < half; ++i)
    ASSERT_EQ(swapped.push(stream[i]), PushResult::kAccepted);
  swapped.drain();
  swapped.set_model(fitted_model());
  for (std::size_t i = half; i < stream.size(); ++i)
    ASSERT_EQ(swapped.push(stream[i]), PushResult::kAccepted);
  swapped.stop();

  for (std::size_t i = half; i < stream.size(); ++i)
    EXPECT_EQ(log.at(stream[i]), reference.at(stream[i])) << "position " << i;
  EXPECT_FALSE(swapped.stats().degraded);
  EXPECT_EQ(swapped.stats().non_finite, half);
}

TEST(TelemetryDaemon, ScoresMatchAcrossShardCounts) {
  // A day-ordered replay scores identically one record per batch on one
  // shard, in full batches on one shard, and in full batches across eight.
  sim::FleetConfig cfg;
  cfg.drives_per_model = 12;
  cfg.window_days = 150;
  const auto stream = core::day_ordered_stream(sim::FleetSimulator(cfg).generate_all());
  ASSERT_GT(stream.size(), 1000u);

  obs::MetricsRegistry registry;
  DaemonConfig one_at_a_time = memory_config(&registry, 1);
  one_at_a_time.max_batch = 1;
  ScoreLog sequential;
  ScoreLog one_shard;
  ScoreLog eight_shards;
  replay(fitted_model(), stream, one_at_a_time, sequential);
  replay(fitted_model(), stream, memory_config(&registry, 1), one_shard);
  replay(fitted_model(), stream, memory_config(&registry, 8), eight_shards);
  ASSERT_EQ(sequential.scores().size(), stream.size());
  EXPECT_EQ(one_shard.scores(), sequential.scores());
  EXPECT_EQ(eight_shards.scores(), sequential.scores());
  EXPECT_EQ(eight_shards.alerts(), sequential.alerts());
}

TEST(TelemetryDaemon, ConcurrentProducersMatchSequential) {
  // Four producers each stream a disjoint subset of drives into one
  // 8-shard daemon; every record's score must equal a one-producer,
  // one-shard replay.
  sim::FleetConfig cfg;
  cfg.drives_per_model = 8;
  cfg.window_days = 120;
  const trace::FleetTrace fleet = sim::FleetSimulator(cfg).generate_all();
  std::vector<core::FleetObservation> all;
  for (const auto& drive : fleet.drives) {
    const auto records = drive_stream(drive);
    all.insert(all.end(), records.begin(), records.end());
  }

  obs::MetricsRegistry registry;
  DaemonConfig shared_cfg = memory_config(&registry, 8);
  ScoreLog shared_log;
  shared_log.attach(shared_cfg);
  TelemetryDaemon shared(fitted_model(), shared_cfg);
  shared.start();
  constexpr std::size_t kProducers = 4;
  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (std::size_t d = t; d < fleet.drives.size(); d += kProducers)
        for (const auto& obs : drive_stream(fleet.drives[d]))
          EXPECT_EQ(shared.push(obs), PushResult::kAccepted);
    });
  }
  for (auto& producer : producers) producer.join();
  shared.stop();

  ScoreLog solo;
  replay(fitted_model(), all, memory_config(&registry, 1), solo);
  ASSERT_EQ(solo.scores().size(), all.size());
  EXPECT_EQ(shared_log.scores(), solo.scores());
  EXPECT_EQ(shared.stats().scored, all.size());
  EXPECT_EQ(shared.stats().drives_tracked, fleet.drives.size());
}

TEST(TelemetryDaemon, RisingRiskBeforeFailure) {
  // Across many failed drives, the score on the failure day should on
  // average exceed the score 30 days earlier.
  sim::FleetConfig cfg;
  cfg.drives_per_model = 300;
  sim::FleetSimulator fleet(cfg);
  struct Watched {
    core::FleetObservation at_fail;  ///< the record on the failure day
    core::FleetObservation before;   ///< the last record >= 30 days earlier
  };
  std::vector<Watched> watched;
  std::vector<core::FleetObservation> stream;
  for (std::size_t i = 0; i < fleet.drive_count() && watched.size() < 40; ++i) {
    const trace::DriveHistory drive = fleet.simulate(i);
    const core::DriveTimeline timeline = core::derive_timeline(drive);
    if (timeline.failures.empty()) continue;
    const std::int32_t fail_day = timeline.failures[0].fail_day;
    std::vector<core::FleetObservation> records;
    for (const auto& obs : drive_stream(drive))
      if (obs.record.day <= fail_day) records.push_back(obs);
    const auto before = std::find_if(records.rbegin(), records.rend(), [&](const auto& obs) {
      return obs.record.day <= fail_day - 30;
    });
    if (records.empty() || records.back().record.day != fail_day || before == records.rend())
      continue;
    watched.push_back({records.back(), *before});
    stream.insert(stream.end(), records.begin(), records.end());
  }
  ASSERT_GE(watched.size(), 20u);

  obs::MetricsRegistry registry;
  ScoreLog log;
  replay(fitted_model(), stream, memory_config(&registry, 1, 0.5), log);
  double risk_at_failure = 0.0;
  double risk_before = 0.0;
  for (const Watched& w : watched) {
    risk_at_failure += log.at(w.at_fail);
    risk_before += log.at(w.before);
  }
  const auto n = static_cast<double>(watched.size());
  EXPECT_GT(risk_at_failure / n, risk_before / n + 0.1);
}

}  // namespace
}  // namespace ssdfail::daemon
