#pragma once

// TelemetryDaemon: the long-running ingest service tying the PR together.
//
//   push(), retire() --> per-shard IngestRing (bounded, backpressure policy;
//                        retire markers queue in stream order, never shed)
//                     |
//               appender thread (one per shard)
//                     |--> WalWriter.append(raw batch)      [durability first]
//                     |--> core::ScoringShard                [sanitize, features,
//                     |                                        score, clamp, alert]
//                     |--> HealthTracker                     [escalate/page]
//
// Each shard's sanitizer keeps the default dead-letter bound
// (SanitizerConfig: the 64 most recent quarantines, evictions counted) and
// its health machine the default HealthConfig thresholds.
//
// Every streaming scorer runs here: the CLI's `daemon`, `serve` and
// `metrics`, the fleet-health example, and perfbench's ingest workload
// (the in-memory ones with an empty wal_dir).  Scoring is the shared
// kernel (core/scoring_shard.hpp); the daemon maps its per-record
// outcomes onto health strikes, stats, counters and the BatchObserver
// tap.  The WAL
// records RAW observations before any processing, so startup recovery
// replays them through the exact same kernel -> health path and lands on
// bit-identical per-drive state (the state_digest() invariant; pinned
// under real SIGKILL by tests/daemon/test_crash_recovery.cpp).
//
// Failure posture — the daemon degrades, it does not die:
//   * scorer unavailable (null model)  -> ingest + WAL + health continue,
//     scores read 0, `daemon_degraded` gauge is 1 until set_model().
//   * scorer broken (NaN/inf scores)   -> each such score is clamped to
//     1.0, alerts, and counts in `daemon_non_finite_scores_total`.
//   * store unavailable (WAL open or append fails) -> scoring continues
//     without durability, `daemon_wal_degraded` is 1 and every failure
//     counts in `daemon_wal_errors_total`.
//   * corrupt WAL on startup -> replay truncates the torn tail, never
//     throws (see daemon/wal.hpp's recovery contract).
//
// A watchdog thread samples each appender's progress every 20 ms and
// counts shards that sit on a non-empty ring without progress for 500 ms
// (`daemon_watchdog_stalls_total`).  An idle appender waits up to 1 ms
// for its ring to fill; push() never wakes it, so a busy stream is logged
// and scored in batches.  One wake-up signal cuts those waits short:
// drain() sends it and returns once everything accepted before the call
// is processed; stop() sends it, drains every ring, fsyncs, and joins all
// threads (the CLI wires SIGTERM/SIGINT to it).  An appender exits only
// once stop() has begun AND no push() or retire() is in flight on its
// shard, so a record accepted by a push that raced stop() is still logged
// and scored.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/scoring_shard.hpp"
#include "daemon/health.hpp"
#include "daemon/ingest_ring.hpp"
#include "daemon/wal.hpp"

namespace ssdfail::daemon {

/// One scored (or degraded-mode) observation, delivered to the optional
/// on_assessment sink in processing order per shard.
struct DriveAssessment {
  std::uint64_t uid = 0;
  std::int32_t day = 0;
  float score = 0.0f;
  bool scored = false;  ///< false when running without a model
  bool alert = false;
  bool dead = false;    ///< the (sanitized) record carried the dead flag
  HealthState health = HealthState::kHealthy;
};

/// Tap for the online-learning layer (src/online): everything the drift
/// detector and model arena need, delivered once per processed batch from
/// the appender thread that owns the shard.  `features` holds one row per
/// surviving record; `records[i]` is the SANITIZED record that produced
/// `features.row(i)` and `assessments[i]` (quarantined / duplicate records
/// never reach the tap).  Implementations must be thread-safe when
/// shards > 1 and cheap — this runs on the ingest hot path.  The tap is
/// NOT invoked during startup WAL replay: recovery rebuilds daemon state,
/// not downstream accumulators.
class BatchObserver {
 public:
  virtual ~BatchObserver() = default;
  virtual void on_batch(const ml::Matrix& features,
                        std::span<const trace::DailyRecord> records,
                        std::span<const DriveAssessment> assessments) = 0;
  /// Drives explicitly retired through the pipeline (censoring signal).
  virtual void on_retired(std::span<const std::uint64_t> uids) { (void)uids; }
};

struct DaemonConfig {
  std::size_t shards = 4;
  std::size_t ring_capacity = 1024;  ///< per shard, rounded up to a power of two
  Backpressure backpressure = Backpressure::kBlock;
  std::chrono::milliseconds block_timeout{100};  ///< kBlock patience before shedding
  std::size_t max_batch = 256;       ///< records drained per appender iteration

  /// Directory for per-shard WAL files; empty runs WITHOUT a WAL
  /// (`daemon_wal_degraded` is 1 from the start).
  std::string wal_dir;
  FsyncPolicy fsync = FsyncPolicy::kEverySegment;

  /// Rotate a shard's active WAL once it exceeds this many bytes: the file
  /// is sealed (fsync + rename to wal-<shard>-<seq>.sealed.swal) and a
  /// fresh active log continues the seq chain.  Sealed files are what the
  /// WAL->v3 compactor (daemon/compactor.hpp) consumes; recovery replays
  /// sealed files before the active one, so rotation never changes replay
  /// semantics.  0 (default) disables rotation.
  std::uint64_t wal_rotate_bytes = 0;

  double threshold = 0.5;  ///< alert when score >= threshold

  /// Registry for all daemon metric families; null uses the global one.
  obs::MetricsRegistry* registry = nullptr;

  /// Observability sink for every processed record (tests, CLI --verbose).
  /// Called from appender threads; must be thread-safe if shards > 1.
  std::function<void(const DriveAssessment&)> on_assessment;
  /// Test hook, invoked by an appender after it pops a non-empty batch and
  /// before it logs or processes it.  The watchdog test sleeps here to fake
  /// a stalled shard; the ordering tests hold or promote here to force a
  /// race instead of timing it.
  std::function<void(std::uint32_t shard)> appender_hook;
  /// Online-learning tap (non-owning; must outlive the daemon).  See
  /// BatchObserver.  Null disables the tap at zero cost.
  BatchObserver* batch_observer = nullptr;
};

/// Point-in-time daemon statistics (internal atomics, not the registry, so
/// a shared/global registry never bleeds other instances into these).
struct DaemonStats {
  std::uint64_t ingested = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;  ///< pushes after stop() began
  std::uint64_t scored = 0;
  std::uint64_t alerts = 0;
  std::uint64_t non_finite = 0;  ///< NaN/inf scores clamped to 1.0
  std::uint64_t quarantined = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t drives_retired = 0;  ///< retires that dropped a tracked drive
  std::uint64_t segments_appended = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_errors = 0;
  std::uint64_t watchdog_stalls = 0;
  std::size_t drives_tracked = 0;
  std::array<std::uint64_t, kNumHealthStates> health_counts{};
  WalReplayStats recovery;  ///< merged across shards (start() replay)
  bool degraded = false;      ///< serving without a model
  bool wal_degraded = false;  ///< serving without durability
};

class TelemetryDaemon {
 public:
  /// `model` may be null: the daemon starts degraded (see header comment).
  TelemetryDaemon(std::shared_ptr<const ml::Classifier> model, DaemonConfig config);
  ~TelemetryDaemon();
  TelemetryDaemon(const TelemetryDaemon&) = delete;
  TelemetryDaemon& operator=(const TelemetryDaemon&) = delete;

  /// Replay per-shard WALs (rebuilding all per-drive state), open the
  /// writers, and launch appender + watchdog threads.  Idempotent once
  /// running.  Never throws on corrupt WAL content.
  void start();

  /// Graceful drain: stop accepting, drain every ring through the full
  /// pipeline, fsync WALs, join all threads.  Safe to call twice.
  void stop();

  /// Block until every record and retire marker accepted before the call
  /// has been WAL-logged, processed and published to stats() — the fixed
  /// point a model swap, a metric tick or a learner step needs.  Wakes
  /// idle appenders instead of waiting out their poll.  Holds with or
  /// without a model; returns at once when the daemon is not running.
  /// Must not be called from an appender callback (it would wait on
  /// itself).
  void drain();

  /// Producer entry point (any thread).  Applies the configured
  /// backpressure policy; returns kRejected once stop() has begun.  A
  /// record it accepts is processed even when stop() races the push.
  PushResult push(const core::FleetObservation& obs);

  /// Route a drive swap through the pipeline: a retire marker queued in the
  /// drive's shard ring behind every record this caller pushed before it,
  /// applied and WAL-logged (as a kRetires segment, so recovery replays it
  /// at the same point in the stream) after those records.  Never shed: a
  /// full ring makes it wait.  Returns kRejected, like push(), when the
  /// daemon is not running or stop() has begun.
  PushResult retire(trace::DriveModel drive_model, std::uint32_t drive_index);

  /// Install (or restore) the scoring model; a non-null model clears
  /// degraded mode for subsequent batches.  Installing a model also starts
  /// a new promotion epoch: each shard resets every drive's consecutive-
  /// strike counters (HealthTracker::reset_strikes) right before it scores
  /// its first batch under the new model, so strikes earned under the
  /// previous model's score scale never carry into post-promotion
  /// escalation.  An idle shard resets on its next batch.
  void set_model(std::shared_ptr<const ml::Classifier> model);

  [[nodiscard]] std::size_t shards() const noexcept { return shards_.size(); }
  /// Safe from any thread at any time.  While running, drives_tracked and
  /// health_counts are each shard's as of its last finished batch.
  [[nodiscard]] DaemonStats stats() const;

  /// Order-independent digest over every shard's per-drive state (feature
  /// cursors + health machines).  Two daemons that processed equivalent
  /// streams — e.g. one uninterrupted, one SIGKILLed and recovered — must
  /// agree.  Call while quiesced (before start() or after stop()).
  [[nodiscard]] std::uint64_t state_digest() const;

  /// Every shard's sanitizer counters and dead letters, merged.  Call
  /// while quiesced, like state_digest().
  [[nodiscard]] robustness::SanitizerSnapshot sanitizer() const;

 private:
  struct Shard {
    explicit Shard(const DaemonConfig& config, obs::MetricsRegistry& registry,
                   std::uint32_t index);

    std::uint32_t index = 0;
    IngestRing ring;
    std::unique_ptr<WalWriter> wal;
    core::ScoringShard scoring;
    HealthTracker health;
    /// Promotion epoch of the model that scored this shard's last batch.
    std::uint64_t model_epoch = 0;

    std::thread appender;
    /// Ring cells (records and retire markers) the appender has finished:
    /// logged, processed and published; and that count as of its last
    /// empty pop.  drain() compares both with the ring's tickets; the
    /// watchdog reads `processed` as the shard's heartbeat.
    std::atomic<std::uint64_t> processed{0};
    std::atomic<std::uint64_t> idle_at{0};
    /// push()/retire() calls under way on this shard; its appender does
    /// not exit while one is.
    alignas(64) std::atomic<std::uint32_t> in_flight{0};
    /// Copies of scoring.drives_tracked() and health.counts() that the
    /// appender publishes after each batch, so stats() can read them while
    /// the appender mutates the originals.
    std::atomic<std::size_t> drives_tracked{0};
    std::array<std::atomic<std::uint64_t>, kNumHealthStates> health_counts{};

    obs::Counter* ingested_metric = nullptr;  ///< daemon_records_ingested_total{shard=}
    obs::Gauge* depth_metric = nullptr;       ///< daemon_ring_depth{shard=}
  };

  [[nodiscard]] Shard& shard_for(std::uint64_t uid) noexcept {
    return *shards_[core::shard_of(uid, shards_.size())];
  }
  /// The serving model and its promotion epoch, read under one lock.
  [[nodiscard]] std::pair<std::shared_ptr<const ml::Classifier>, std::uint64_t>
  current_model() const;

  void appender_main(Shard& shard);
  void watchdog_main();
  /// Bump wake_seq_ and wake every thread waiting on wake_cv_.
  void wake_all();
  /// Wake waiting drain() calls after an appender published progress.
  void notify_drainers();
  void recover_shard(Shard& shard);
  void maybe_rotate_wal(Shard& shard);
  void wal_append(Shard& shard, std::span<const core::FleetObservation> batch,
                  std::span<const std::uint64_t> retires);
  void process_records(Shard& shard, std::span<const core::FleetObservation> batch);
  void process_retires(Shard& shard, std::span<const std::uint64_t> uids);
  void mark_wal_degraded(Shard& shard);
  /// Publish the shard's drive and health-state counts for stats().
  static void publish_counts(Shard& shard);

  DaemonConfig config_;
  obs::MetricsRegistry* registry_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex model_mutex_;
  std::shared_ptr<const ml::Classifier> model_;
  std::uint64_t model_epoch_ = 0;  ///< bumped by every non-null set_model()

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  /// True while start() replays WALs: the batch observer stays silent
  /// (recovery rebuilds daemon state, not downstream accumulators).
  std::atomic<bool> recovering_{false};
  std::thread watchdog_;

  /// The one wake-up signal: idle appenders and the watchdog wait on
  /// wake_cv_ with their timeouts; stop() and drain() bump wake_seq_
  /// (under wake_mutex_) to cut those waits short.  drain() itself waits
  /// on drained_cv_, which an appender notifies only while one waits.
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable drained_cv_;
  std::atomic<std::uint64_t> wake_seq_{0};
  std::atomic<std::uint32_t> drain_waiters_{0};

  // Internal stat atomics (mirrored into registry counters as they move).
  std::atomic<std::uint64_t> ingested_{0}, shed_{0}, rejected_{0};
  std::atomic<std::uint64_t> scored_{0}, alerts_{0}, non_finite_{0};
  std::atomic<std::uint64_t> quarantined_{0}, duplicates_{0}, retired_{0};
  std::atomic<std::uint64_t> segments_{0}, wal_bytes_{0}, wal_errors_{0};
  std::atomic<std::uint64_t> watchdog_stalls_{0};
  std::atomic<bool> wal_degraded_{false};
  WalReplayStats recovery_;  ///< written by start() before threads exist

  obs::Counter* shed_metric_ = nullptr;
  obs::Counter* scored_metric_ = nullptr;
  obs::Counter* alerts_metric_ = nullptr;
  obs::Counter* non_finite_metric_ = nullptr;
  obs::Histogram* score_latency_metric_ = nullptr;
  obs::Counter* segments_metric_ = nullptr;
  obs::Counter* wal_bytes_metric_ = nullptr;
  obs::Counter* wal_errors_metric_ = nullptr;
  obs::Counter* stalls_metric_ = nullptr;
  obs::Counter* strike_resets_metric_ = nullptr;
  obs::Counter* recovered_segments_metric_ = nullptr;
  obs::Counter* recovered_records_metric_ = nullptr;
  obs::Gauge* degraded_metric_ = nullptr;
  obs::Gauge* wal_degraded_metric_ = nullptr;
};

}  // namespace ssdfail::daemon
