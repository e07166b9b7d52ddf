#pragma once

// OnlineLearner: the control loop closing the paper's open loop.
//
//   TelemetryDaemon (ingest, score, WAL)
//        | BatchObserver tap                 ^ set_model() on promotion
//        v                                   |
//   DriftDetector --alert--> Retrainer --challenger--> ModelArena
//        (PSI/KS)           (v3 shards)            (shadow AUC gate)
//
// One step() of the control loop, called by the learner's owner (the
// CLI's `daemon --online` calls it every K stream days, right after
// TelemetryDaemon::drain()):
//
//   1. compact sealed WALs into the v3 store at retrainer.store_dir
//      (daemon/compactor.hpp) so retraining always sees fresh,
//      label-complete history;
//   2. evaluate feature drift (bootstrap the reference from the store on
//      the first compaction if none was installed);
//   3. if drift is alerting and the arena's one challenger slot is empty,
//      retrain on the label-matured window and enter the result into the
//      arena under the tag retrain-d<window end day>;
//   4. run the promotion gate; on promote, persist the challenger through
//      ml::save_model_file (temp file, fsync, rename, directory fsync — a
//      SIGKILL or an OS crash leaves the old or the new file, never a torn
//      one), reload it through
//      load_serving_classifier_file (round-trips the bytes and recompiles/
//      verifies the FlatForest engine), hot-swap it into the daemon, and
//      adopt the drifted window as the new drift reference.  A challenger
//      that loses a verdict with enough data is dropped instead, so the
//      next alerting step retrains on newer history: a stale champion is
//      replaced even when the first retrain was not good enough.
//
// Wiring: construct the learner, set it as DaemonConfig::batch_observer,
// construct the daemon, then attach() the daemon.  Every setting has one
// owner: the store directory and the label horizon N live only in
// OnlineConfig::retrainer, and the arena matures its labels over that N.
//
// Nothing here blocks ingest.  The BatchObserver tap copies each batch
// into a bounded queue and returns; a dedicated shadow thread drains it,
// updating the drift sketches and shadow-scoring the arena's challenger
// off the appender path (bench/bench_online_shadow.cpp budgets one
// challenger at 10% of a fleet-day's processing time).  When the shadow
// thread falls behind, whole batches are dropped — counted in
// online_shadow_dropped_total — rather than ever stalling an appender.
// step() drains the queue first, so the control loop always judges
// everything the daemon had handed over before the step began.  step()
// shares no locks with the appender path, and its heavy work (compaction,
// dataset build, boosting) runs on the caller's thread plus the
// ThreadPool.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "daemon/compactor.hpp"
#include "daemon/daemon.hpp"
#include "online/arena.hpp"
#include "online/drift.hpp"
#include "online/retrainer.hpp"

namespace ssdfail::online {

struct OnlineConfig {
  /// Daemon WAL directory (sealed segments are compacted from here into
  /// retrainer.store_dir).  Empty skips compaction (the store is
  /// maintained externally).
  std::string wal_dir;
  /// Champion model file: promotions persist here (atomic temp + rename)
  /// before the hot swap, so a restart reloads the promoted model.  Empty
  /// promotes in memory only.
  std::string model_path;

  DriftConfig drift;
  ArenaConfig arena;
  /// Owns the two settings the whole loop shares: store_dir (compaction
  /// target, drift-reference source, retraining source) and lookahead_days
  /// (the horizon the challenger is trained for and the arena matures its
  /// labels over).
  RetrainerConfig retrainer;

  /// Registry for online_* metrics; null uses the global one.
  obs::MetricsRegistry* registry = nullptr;
};

/// What one control-loop step did (returned by step(); the CLI prints it).
struct StepReport {
  daemon::CompactionResult compaction;
  DriftReport drift;
  bool retrained = false;
  std::size_t train_rows = 0;
  std::size_t train_positives = 0;
  std::string challenger;  ///< tag entered into the arena this step
  ArenaVerdict verdict;
  bool promoted = false;
  /// The verdict judged the challenger on enough data and it did not win:
  /// it left the slot, and the next alerting step retrains.
  bool challenger_dropped = false;
};

class OnlineLearner final : public daemon::BatchObserver {
 public:
  explicit OnlineLearner(OnlineConfig config);
  ~OnlineLearner() override;

  /// Wire the daemon a promotion hot-swaps into (non-owning).  The learner
  /// is built first because DaemonConfig::batch_observer wants it before
  /// the daemon exists; call this before step().  Unattached, promotions
  /// still persist the model but skip the hot swap.
  void attach(daemon::TelemetryDaemon* daemon) noexcept { daemon_ = daemon; }
  OnlineLearner(const OnlineLearner&) = delete;
  OnlineLearner& operator=(const OnlineLearner&) = delete;

  // BatchObserver (appender threads; see daemon.hpp for the contract).
  // Both calls only copy into the bounded shadow queue and return.
  void on_batch(const ml::Matrix& features,
                std::span<const trace::DailyRecord> records,
                std::span<const daemon::DriveAssessment> assessments) override;
  void on_retired(std::span<const std::uint64_t> uids) override;

  /// Block until every queued batch has been folded into the drift
  /// sketches and the arena (step() calls this first; tests use it to make
  /// tap-then-inspect sequences deterministic).
  void drain_shadow();

  /// One control-loop iteration (compact -> drift -> retrain -> gate).
  /// Serialized against itself.
  StepReport step();

  /// Sketch the current store and install it as the drift reference.
  /// Returns false when the store cannot be opened.  (An explicit
  /// training-time reference goes through drift().set_reference().)
  bool set_drift_reference_from_store();

  [[nodiscard]] DriftDetector& drift() noexcept { return drift_; }
  [[nodiscard]] ModelArena& arena() noexcept { return arena_; }
  [[nodiscard]] const std::vector<PromotionEvent>& promotions() const {
    return arena_.promotions();
  }
  [[nodiscard]] std::uint64_t steps_run() const noexcept { return steps_.load(); }

 private:
  /// One queued unit of tap work: a copied batch, or a retire marker
  /// (kept in one queue so retires stay ordered after their batches).
  struct ShadowWork {
    ml::Matrix features;
    std::vector<trace::DailyRecord> records;
    std::vector<daemon::DriveAssessment> assessments;
    std::vector<std::uint64_t> retired;  ///< non-empty: retire marker
  };

  /// Persist + verify + hot-swap the promoted challenger.  Returns false
  /// (leaving the champion in place) if any stage fails.
  bool execute_promotion(const ArenaVerdict& verdict);

  void enqueue_shadow(ShadowWork work);
  void shadow_loop();

  daemon::TelemetryDaemon* daemon_ = nullptr;
  OnlineConfig config_;
  DriftDetector drift_;
  ModelArena arena_;
  Retrainer retrainer_;

  /// Serializes step() bodies and guards the two members below, which
  /// only step() and execute_promotion() touch.
  std::mutex step_mutex_;
  /// Last drift window big enough to judge (tumbling-window archive).
  FeatureSketches last_window_;
  /// The trainable model behind the arena's challenger (the arena holds
  /// the serving wrapper; save_model_file needs the GradientBoosting).
  std::shared_ptr<const ml::GradientBoosting> challenger_model_;

  /// Shadow tap: bounded queue + worker (runs from construction to
  /// destruction).
  std::mutex shadow_mutex_;
  std::condition_variable shadow_cv_;       ///< work available / stop
  std::condition_variable shadow_idle_cv_;  ///< queue empty and worker idle
  std::deque<ShadowWork> shadow_queue_;
  bool shadow_busy_ = false;
  bool shadow_stop_ = false;
  std::thread shadow_thread_;

  std::atomic<std::uint64_t> steps_{0};

  obs::Counter* steps_metric_ = nullptr;
  obs::Counter* shadow_dropped_metric_ = nullptr;
  obs::Counter* retrains_metric_ = nullptr;
  obs::Counter* promotion_failures_metric_ = nullptr;
  obs::Gauge* last_promotion_day_metric_ = nullptr;
};

}  // namespace ssdfail::online
