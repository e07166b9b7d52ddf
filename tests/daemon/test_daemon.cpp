// TelemetryDaemon tests: graceful drain accounting, WAL recovery
// bit-identity, retire-through-the-WAL, degraded modes, the non-finite
// score clamp, backpressure shedding, the watchdog, health state that
// does not depend on how the rings batch a corrupted stream, and retires
// and promotions that land at their place in the stream.

#include "daemon/daemon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "daemon_test_util.hpp"
#include "robustness/fault_injector.hpp"

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
  const auto alert_day = static_cast<std::int32_t>(cfg.health.alert_days) - 1;
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
  cfg.appender_hook = [&](std::uint32_t) {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
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
  cfg.watchdog_interval = std::chrono::milliseconds(5);
  cfg.stall_timeout = std::chrono::milliseconds(40);
  std::atomic<bool> release{false};
  cfg.appender_hook = [&](std::uint32_t) {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  TelemetryDaemon daemon(std::make_shared<StubModel>(), cfg);
  daemon.start();
  const auto stream = make_stream(2, 10);
  for (const auto& obs : stream) (void)daemon.push(obs);
  // The appender is wedged in the hook with a backlog; the watchdog must
  // notice within a few intervals.
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
    cfg.appender_hook = [&](std::uint32_t) {
      while (!queued.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
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
  cfg.appender_hook = [&](std::uint32_t) {
    while (!queued.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
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

TEST(TelemetryDaemon, PromotionResetsStrikesBeforeItsFirstBatch) {
  // Both models score every record at an alert strike and alert_days is 2.
  // The promotion lands on the iteration that holds the drive's second
  // record, so that record must be the first strike under the new model,
  // not the second on top of the old model's streak.
  obs::MetricsRegistry registry;
  auto cfg = base_config("", &registry);
  cfg.shards = 1;
  cfg.max_batch = 1;
  cfg.health.alert_days = 2;
  const float score = 0.95f;
  ASSERT_GE(score, cfg.health.alert_threshold);
  TelemetryDaemon* daemon_ptr = nullptr;
  int iteration = 0;
  std::atomic<bool> promoted{false};
  cfg.appender_hook = [&](std::uint32_t) {
    if (++iteration != 2) return;
    daemon_ptr->set_model(std::make_shared<ConstantModel>(score));
    promoted.store(true, std::memory_order_release);
  };
  std::vector<DriveAssessment> seen;  // one appender thread, read after stop()
  cfg.on_assessment = [&seen](const DriveAssessment& a) { seen.push_back(a); };
  TelemetryDaemon daemon(std::make_shared<ConstantModel>(score), cfg);
  daemon_ptr = &daemon;
  daemon.start();
  for (const auto& obs : make_stream(1, 2))
    ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  // The promotion happens while the daemon is live, not during stop().
  while (!promoted.load(std::memory_order_acquire))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  daemon.stop();

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].health, HealthState::kHealthy);
  EXPECT_NE(seen[1].health, HealthState::kAlert);
  EXPECT_EQ(daemon.stats().health_counts[static_cast<std::size_t>(HealthState::kAlert)],
            0u);
  EXPECT_EQ(registry.counter("daemon_strike_resets_total", {}, "").value(), 1u);
}

}  // namespace
}  // namespace ssdfail::daemon
