#include "daemon/daemon.hpp"

#include <atomic>

#include "ml/model_zoo.hpp"

namespace ssdfail::daemon {
namespace {

/// Instance label so concurrent daemons (tests, benches) sharing a
/// registry never clobber each other's gauges.
std::string next_daemon_label() {
  static std::atomic<std::uint64_t> next{0};
  return std::to_string(next.fetch_add(1, std::memory_order_relaxed));
}

/// An idle appender waits this long for its ring to gather a batch.
constexpr std::chrono::milliseconds kPollInterval{1};
/// The watchdog samples every appender's progress at this cadence ...
constexpr std::chrono::milliseconds kWatchdogInterval{20};
/// ... and flags a shard whose ring is non-empty with no progress this long.
constexpr std::chrono::milliseconds kStallTimeout{500};

/// daemon_score_latency_us buckets: 40 equal-width bins of 50us up to
/// 2000us, plus the implicit +Inf bucket.
const std::vector<double>& score_latency_bounds() {
  static const std::vector<double> bounds = obs::equal_width_bounds(0.0, 2000.0, 40);
  return bounds;
}

/// Holds a push() or retire() in flight on a shard (see appender_main).
class InFlight {
 public:
  explicit InFlight(std::atomic<std::uint32_t>& count) : count_(count) { count_.fetch_add(1); }
  ~InFlight() { count_.fetch_sub(1); }
  InFlight(const InFlight&) = delete;
  InFlight& operator=(const InFlight&) = delete;

 private:
  std::atomic<std::uint32_t>& count_;
};

}  // namespace

TelemetryDaemon::Shard::Shard(const DaemonConfig& config,
                              obs::MetricsRegistry& registry, std::uint32_t idx)
    : index(idx),
      ring(config.ring_capacity),
      scoring(config.threshold, robustness::SanitizerConfig{.registry = &registry}),
      health(HealthConfig{}, &registry) {}

TelemetryDaemon::TelemetryDaemon(std::shared_ptr<const ml::Classifier> model,
                                 DaemonConfig config)
    : config_(std::move(config)),
      registry_(config_.registry != nullptr ? config_.registry
                                            : &obs::MetricsRegistry::global()) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.max_batch == 0) config_.max_batch = 1;
  if (model != nullptr) model_ = ml::make_serving_model(std::move(model));

  const std::string instance = next_daemon_label();
  obs::MetricsRegistry& reg = *registry_;
  shed_metric_ = &reg.counter("daemon_records_shed_total", {},
                              "Records dropped by ring backpressure");
  scored_metric_ = &reg.counter("daemon_records_scored_total", {},
                                "Records that reached the model");
  alerts_metric_ = &reg.counter("daemon_alerts_total", {},
                                "Scores at or above the alert threshold");
  non_finite_metric_ = &reg.counter("daemon_non_finite_scores_total", {},
                                    "NaN/inf model scores clamped to 1.0");
  score_latency_metric_ =
      &reg.histogram("daemon_score_latency_us", score_latency_bounds(), {},
                     "Per-record scoring latency, observed once per batch");
  segments_metric_ = &reg.counter("daemon_wal_segments_appended_total", {},
                                  "WAL segments appended across shards");
  wal_bytes_metric_ = &reg.counter("daemon_wal_appended_bytes_total", {},
                                   "WAL bytes appended across shards");
  wal_errors_metric_ = &reg.counter("daemon_wal_errors_total", {},
                                    "WAL open/append/fsync failures");
  stalls_metric_ = &reg.counter("daemon_watchdog_stalls_total", {},
                                "Appender stall episodes detected by the watchdog");
  strike_resets_metric_ =
      &reg.counter("daemon_strike_resets_total", {},
                   "Per-drive strike streaks cleared by model promotion");
  recovered_segments_metric_ = &reg.counter("daemon_recovery_segments_total", {},
                                            "WAL segments replayed at startup");
  recovered_records_metric_ = &reg.counter("daemon_recovery_records_total", {},
                                           "Records replayed from the WAL at startup");
  degraded_metric_ = &reg.gauge("daemon_degraded", {{"daemon", instance}},
                                "1 while serving without a model");
  wal_degraded_metric_ = &reg.gauge("daemon_wal_degraded", {{"daemon", instance}},
                                    "1 while serving without a usable WAL");
  degraded_metric_->set(model_ == nullptr ? 1.0 : 0.0);

  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(
        std::make_unique<Shard>(config_, reg, static_cast<std::uint32_t>(s)));
    Shard& shard = *shards_.back();
    shard.ingested_metric =
        &reg.counter("daemon_records_ingested_total",
                     {{"shard", std::to_string(s)}}, "Records accepted into a ring");
    shard.depth_metric = &reg.gauge(
        "daemon_ring_depth", {{"daemon", instance}, {"shard", std::to_string(s)}},
        "Approximate records waiting in a shard ring");
  }
}

TelemetryDaemon::~TelemetryDaemon() { stop(); }

std::pair<std::shared_ptr<const ml::Classifier>, std::uint64_t>
TelemetryDaemon::current_model() const {
  std::scoped_lock lock(model_mutex_);
  return {model_, model_epoch_};
}

void TelemetryDaemon::set_model(std::shared_ptr<const ml::Classifier> model) {
  if (model != nullptr) model = ml::make_serving_model(std::move(model));
  const bool degraded = model == nullptr;
  {
    std::scoped_lock lock(model_mutex_);
    if (!degraded) ++model_epoch_;
    model_ = std::move(model);
  }
  degraded_metric_->set(degraded ? 1.0 : 0.0);
}

void TelemetryDaemon::mark_wal_degraded(Shard& shard) {
  shard.wal.reset();
  wal_errors_.fetch_add(1, std::memory_order_relaxed);
  wal_errors_metric_->inc();
  wal_degraded_.store(true, std::memory_order_relaxed);
  wal_degraded_metric_->set(1.0);
}

void TelemetryDaemon::recover_shard(Shard& shard) {
  const std::string path = wal_path(config_.wal_dir, shard.index);
  const auto on_segment = [&](const WalSegment& segment) {
    if (segment.type == SegmentType::kRecords) {
      process_records(shard, segment.records);
    } else {
      process_retires(shard, segment.retired_uids);
    }
  };
  // Sealed (rotated, not yet compacted) files carry the log's oldest
  // entries; replay them in seq order before the active file so recovery
  // sees the exact append order.
  WalReplayStats stats;
  std::uint64_t last_seq = 0;
  for (const std::string& sealed : list_sealed_wals(config_.wal_dir, shard.index)) {
    WalReplayStats s = replay_wal(sealed, on_segment);
    stats.merge(s);
    last_seq = std::max(last_seq, s.last_seq);
  }
  stats.merge(replay_wal(path, on_segment));
  publish_counts(shard);
  recovery_.merge(stats);
  recovered_segments_metric_->inc(stats.segments_replayed);
  recovered_records_metric_->inc(stats.records_replayed);
  try {
    shard.wal = std::make_unique<WalWriter>(path, shard.index, config_.fsync,
                                            std::max(last_seq, stats.last_seq) + 1);
  } catch (const std::exception&) {
    mark_wal_degraded(shard);
  }
}

void TelemetryDaemon::maybe_rotate_wal(Shard& shard) {
  if (config_.wal_rotate_bytes == 0 || shard.wal == nullptr) return;
  if (shard.wal->bytes_written() < config_.wal_rotate_bytes) return;
  if (shard.wal->segments_written() == 0) return;  // nothing to seal
  try {
    const std::uint64_t next_seq = shard.wal->next_seq();
    shard.wal->seal(
        sealed_wal_path(config_.wal_dir, shard.index, next_seq - 1));
    shard.wal = std::make_unique<WalWriter>(wal_path(config_.wal_dir, shard.index),
                                            shard.index, config_.fsync, next_seq);
  } catch (const std::exception&) {
    // A failed seal/reopen must not lose durability silently.
    shard.wal.reset();
    mark_wal_degraded(shard);
  }
}

void TelemetryDaemon::start() {
  if (running_.exchange(true)) return;
  stopping_.store(false);
  if (config_.wal_dir.empty()) {
    wal_degraded_.store(true, std::memory_order_relaxed);
    wal_degraded_metric_->set(1.0);
  } else {
    recovering_.store(true, std::memory_order_relaxed);
    for (auto& shard : shards_) recover_shard(*shard);
    recovering_.store(false, std::memory_order_relaxed);
  }
  for (auto& shard : shards_)
    shard->appender = std::thread(&TelemetryDaemon::appender_main, this,
                                  std::ref(*shard));
  watchdog_ = std::thread(&TelemetryDaemon::watchdog_main, this);
}

void TelemetryDaemon::wake_all() {
  std::scoped_lock lock(wake_mutex_);
  wake_seq_.fetch_add(1);
  wake_cv_.notify_all();
}

void TelemetryDaemon::stop() {
  if (!running_.load()) return;
  stopping_.store(true);
  wake_all();
  for (auto& shard : shards_)
    if (shard->appender.joinable()) shard->appender.join();
  if (watchdog_.joinable()) watchdog_.join();
  for (auto& shard : shards_) {
    if (shard->wal == nullptr) continue;
    try {
      shard->wal->sync();
    } catch (const std::exception&) {
      mark_wal_degraded(*shard);
    }
  }
  running_.store(false);
}

void TelemetryDaemon::drain() {
  if (!running_.load()) return;
  std::vector<std::uint64_t> targets;
  for (const auto& shard : shards_) targets.push_back(shard->ring.tickets());
  // A shard is drained once its appender went idle with every target cell
  // finished, or finished cells past the target (another producer keeps
  // it busy).  Waiting for the idle pop rather than the last batch keeps
  // the caller's next pushes out of that pop, so a push-drain loop is
  // batched as if it had polled.
  const auto drained = [&] {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const Shard& s = *shards_[i];
      if (s.idle_at.load() < targets[i] && s.processed.load() <= targets[i]) return false;
    }
    return true;
  };
  // Register before the first check (all sequentially consistent): an
  // appender that then publishes progress either sees the waiter and
  // notifies, or published before the check that reads it.
  drain_waiters_.fetch_add(1);
  wake_all();  // idle appenders pop now instead of after their poll
  std::unique_lock lock(wake_mutex_);
  drained_cv_.wait(lock, drained);
  drain_waiters_.fetch_sub(1);
}

PushResult TelemetryDaemon::push(const core::FleetObservation& obs) {
  Shard& shard = shard_for(obs.uid());
  // Announce the push before checking stopping_ (both sequentially
  // consistent): an appender that read stopping_ and then saw no push in
  // flight knows every later push sees stopping_ and is rejected.
  const InFlight in_flight(shard.in_flight);
  if (!running_.load() || stopping_.load()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return PushResult::kRejected;
  }
  const PushResult result =
      shard.ring.push(obs, config_.backpressure, config_.block_timeout);
  if (result == PushResult::kAccepted) {
    ingested_.fetch_add(1, std::memory_order_relaxed);
    shard.ingested_metric->inc();
  } else {
    shed_.fetch_add(1, std::memory_order_relaxed);
    shed_metric_->inc();
  }
  return result;
}

PushResult TelemetryDaemon::retire(trace::DriveModel drive_model,
                                  std::uint32_t drive_index) {
  const core::FleetObservation drive{drive_model, drive_index, 0, {}};
  Shard& shard = shard_for(drive.uid());
  const InFlight in_flight(shard.in_flight);
  const auto open = [this] { return running_.load() && !stopping_.load(); };
  if (!open() || !shard.ring.push_retire(drive, open)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return PushResult::kRejected;
  }
  return PushResult::kAccepted;
}

void TelemetryDaemon::wal_append(Shard& shard,
                                 std::span<const core::FleetObservation> batch,
                                 std::span<const std::uint64_t> retires) {
  if (shard.wal == nullptr) return;
  try {
    const std::uint64_t before = shard.wal->bytes_written();
    if (!batch.empty()) shard.wal->append(batch);
    if (!retires.empty()) shard.wal->append_retires(retires);
    const std::uint64_t segments = (batch.empty() ? 0 : 1) + (retires.empty() ? 0 : 1);
    segments_.fetch_add(segments, std::memory_order_relaxed);
    segments_metric_->inc(segments);
    const std::uint64_t delta = shard.wal->bytes_written() - before;
    wal_bytes_.fetch_add(delta, std::memory_order_relaxed);
    wal_bytes_metric_->inc(delta);
    maybe_rotate_wal(shard);
  } catch (const std::exception&) {
    // Durability lost, service continues: WAL-degraded mode.
    mark_wal_degraded(shard);
  }
}

void TelemetryDaemon::process_records(Shard& shard,
                                      std::span<const core::FleetObservation> batch) {
  if (batch.empty()) return;
  const auto [model, epoch] = current_model();
  // The first batch under a promoted model starts from cleared streaks:
  // strikes earned under the old model's score scale must not escalate.
  if (epoch != shard.model_epoch) {
    shard.model_epoch = epoch;
    strike_resets_metric_->inc(shard.health.reset_strikes());
  }
  BatchObserver* const observer =
      recovering_.load(std::memory_order_relaxed) ? nullptr : config_.batch_observer;
  const auto start = std::chrono::steady_clock::now();
  const core::ScoredBatch& scored = shard.scoring.score(batch, model.get());
  const std::chrono::duration<double, std::micro> score_time =
      std::chrono::steady_clock::now() - start;

  // Each record's health event lands at its position in the input: a
  // quarantine strike and a scored record for one drive reach its
  // HealthTracker in stream order, so the streaks (and the state digest)
  // do not depend on where the ring happened to cut the batches.
  std::vector<DriveAssessment> assessments;  // retained only when a tap listens
  if (observer != nullptr) assessments.reserve(scored.accepted());
  std::size_t row = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const core::ScoredRecord& r = scored.records[i];
    switch (r.action) {
      case robustness::SanitizeAction::kQuarantined:
        quarantined_.fetch_add(1, std::memory_order_relaxed);
        // Irreparable telemetry is itself a symptom: a ramp-tier strike,
        // but never a swap (a corrupt record's dead flag is not trusted).
        shard.health.observe(batch[i].uid(), 0.0, /*suspect=*/true, /*dead=*/false);
        continue;
      case robustness::SanitizeAction::kDuplicateDropped:
        duplicates_.fetch_add(1, std::memory_order_relaxed);
        continue;
      case robustness::SanitizeAction::kClean:
      case robustness::SanitizeAction::kRepaired:
        break;
    }
    const trace::DailyRecord& record = scored.sanitized[row++];
    DriveAssessment assessment;
    assessment.uid = batch[i].uid();
    assessment.day = record.day;
    assessment.scored = model != nullptr;
    assessment.score = r.score;
    assessment.alert = r.alert;
    assessment.dead = record.dead;
    assessment.health = shard.health.observe(
        assessment.uid, assessment.score,
        r.action == robustness::SanitizeAction::kRepaired, record.dead);
    if (config_.on_assessment) config_.on_assessment(assessment);
    if (observer != nullptr) assessments.push_back(assessment);
  }
  const std::size_t accepted = row;
  if (accepted == 0) return;
  if (observer != nullptr) observer->on_batch(scored.features, scored.sanitized, assessments);
  if (model != nullptr) {
    scored_.fetch_add(accepted, std::memory_order_relaxed);
    scored_metric_->inc(accepted);
    alerts_.fetch_add(scored.alerts, std::memory_order_relaxed);
    alerts_metric_->inc(scored.alerts);
    non_finite_.fetch_add(scored.non_finite, std::memory_order_relaxed);
    non_finite_metric_->inc(scored.non_finite);
    score_latency_metric_->observe(score_time.count() / static_cast<double>(accepted),
                                   accepted);
  }
}

void TelemetryDaemon::process_retires(Shard& shard,
                                      std::span<const std::uint64_t> uids) {
  if (uids.empty()) return;
  for (const std::uint64_t uid : uids) {
    if (shard.scoring.retire(uid)) retired_.fetch_add(1, std::memory_order_relaxed);
    shard.health.retire(uid);
  }
  if (config_.batch_observer != nullptr && !recovering_.load(std::memory_order_relaxed))
    config_.batch_observer->on_retired(uids);
}

void TelemetryDaemon::appender_main(Shard& shard) {
  std::vector<core::FleetObservation> batch;
  std::vector<std::uint64_t> retires;
  batch.reserve(config_.max_batch);
  std::uint64_t processed = 0;
  for (;;) {
    batch.clear();
    retires.clear();
    // Both read before the pop.  Once stop() has begun and no push or
    // retire is in flight, nothing more can enter the ring, so an empty
    // pop is final.  A wake-up sent after the read ends the idle wait at
    // once, so a drain() never waits out a poll behind its records.
    const std::uint64_t wake = wake_seq_.load();
    const bool closing = stopping_.load() && shard.in_flight.load() == 0;
    const std::size_t cells = shard.ring.pop_into(batch, retires, config_.max_batch);
    if (cells == 0) {
      if (shard.idle_at.load(std::memory_order_relaxed) != processed) {
        shard.idle_at.store(processed);
        notify_drainers();
      }
      if (closing) break;
      std::unique_lock lock(wake_mutex_);
      wake_cv_.wait_for(lock, kPollInterval, [&] { return wake_seq_.load() != wake; });
      continue;
    }
    if (config_.appender_hook) config_.appender_hook(shard.index);
    wal_append(shard, batch, retires);
    process_records(shard, batch);
    process_retires(shard, retires);
    publish_counts(shard);
    processed += cells;
    shard.processed.store(processed);
    notify_drainers();
  }
}

void TelemetryDaemon::notify_drainers() {
  if (drain_waiters_.load() == 0) return;
  // Taking the lock orders this notify after a drain() that checked its
  // predicate and is about to wait.
  { std::scoped_lock lock(wake_mutex_); }
  drained_cv_.notify_all();
}

void TelemetryDaemon::publish_counts(Shard& shard) {
  shard.drives_tracked.store(shard.scoring.drives_tracked());
  const auto counts = shard.health.counts();
  for (std::size_t s = 0; s < kNumHealthStates; ++s)
    shard.health_counts[s].store(counts[s]);
}

void TelemetryDaemon::watchdog_main() {
  struct Seen {
    std::uint64_t beat = 0;
    std::chrono::steady_clock::time_point changed;
    bool flagged = false;
  };
  std::vector<Seen> seen(shards_.size());
  const auto start = std::chrono::steady_clock::now();
  for (auto& s : seen) s.changed = start;

  for (;;) {
    {
      std::unique_lock lock(wake_mutex_);
      if (wake_cv_.wait_for(lock, kWatchdogInterval, [this] { return stopping_.load(); }))
        break;
    }
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& shard = *shards_[i];
      const std::size_t depth = shard.ring.size_approx();
      shard.depth_metric->set(static_cast<double>(depth));
      const std::uint64_t beat = shard.processed.load(std::memory_order_relaxed);
      if (beat != seen[i].beat) {
        seen[i] = {beat, now, false};
        continue;
      }
      // One stall episode per freeze: flag once, clear when the beat moves.
      if (depth > 0 && !seen[i].flagged && now - seen[i].changed > kStallTimeout) {
        seen[i].flagged = true;
        watchdog_stalls_.fetch_add(1, std::memory_order_relaxed);
        stalls_metric_->inc();
      }
    }
  }
  for (auto& shard : shards_) shard->depth_metric->set(0.0);
}

DaemonStats TelemetryDaemon::stats() const {
  DaemonStats out;
  out.ingested = ingested_.load();
  out.shed = shed_.load();
  out.rejected = rejected_.load();
  out.scored = scored_.load();
  out.alerts = alerts_.load();
  out.non_finite = non_finite_.load();
  out.quarantined = quarantined_.load();
  out.duplicates_dropped = duplicates_.load();
  out.drives_retired = retired_.load();
  out.segments_appended = segments_.load();
  out.wal_bytes = wal_bytes_.load();
  out.wal_errors = wal_errors_.load();
  out.watchdog_stalls = watchdog_stalls_.load();
  out.recovery = recovery_;
  out.degraded = current_model().first == nullptr;
  out.wal_degraded = wal_degraded_.load();
  for (const auto& shard : shards_) {
    out.drives_tracked += shard->drives_tracked.load();
    for (std::size_t s = 0; s < kNumHealthStates; ++s)
      out.health_counts[s] += shard->health_counts[s].load();
  }
  return out;
}

std::uint64_t TelemetryDaemon::state_digest() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_)
    total += shard->scoring.cursor_digest() + shard->health.digest();
  return total;
}

robustness::SanitizerSnapshot TelemetryDaemon::sanitizer() const {
  robustness::SanitizerSnapshot total;
  for (const auto& shard : shards_) total.merge(shard->scoring.sanitizer().snapshot());
  return total;
}

}  // namespace ssdfail::daemon
