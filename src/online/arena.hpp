#pragma once

// Champion/challenger shadow evaluation (the promotion gate of the online
// learning loop).
//
// Every scored daemon batch is shadow-scored by each challenger at near-
// zero marginal cost: the feature matrix is already built and challengers
// are FlatForest-compiled (ml::make_serving_model), so a challenger adds
// one branchless block scan per batch (bench_online_shadow pins the
// overhead at <= 10% for one challenger).  The champion's scores arrive
// for free — they are the daemon's own assessments.
//
// Delayed labels: a scored row (uid, day) matures once the per-drive
// stream reaches day + lookahead (the observation-day watermark — never
// the wall clock, so tests and replay are deterministic).  Its label is
// positive iff the drive's failure signal (dead-flagged record, or an
// explicit retire) lands within the lookahead window.  Matured rows feed
// a bounded recent-window ring per model; ml::roc_auc over that window is
// the promotion currency, exactly the paper's evaluation statistic.
//
// Promotion gate: challenger AUC >= champion AUC + margin, over at least
// min_samples matured rows including min_positives positives.  Hysteresis:
// promote() clears the matured window, so a freshly promoted
// champion cannot be demoted until a full fresh window accumulates under
// its own scores; a cooldown of matured rows after every promotion
// suppresses flapping beyond that.  Every promotion (and every blocked
// evaluation) lands in an audit trail.
//
// Thread safety: observe_batch may run on every appender thread
// concurrently; evaluate/promote run on the learner's control thread.  One
// mutex guards the label bookkeeping; challenger scoring itself runs
// OUTSIDE the lock (it is the expensive part and is read-only).

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "daemon/daemon.hpp"
#include "ml/classifier.hpp"
#include "obs/metrics.hpp"

namespace ssdfail::online {

struct ArenaConfig {
  /// Label maturation horizon: a row labels positive iff the drive's
  /// failure signal lands within this many days (inclusive, matching
  /// DatasetBuildOptions::lookahead_days).
  int lookahead_days = 7;
  /// Matured rows required before any promotion verdict.
  std::size_t min_samples = 256;
  /// Matured positives required before any promotion verdict (AUC over a
  /// window with 1-2 positives is noise).
  std::size_t min_positives = 8;
  /// Challenger must beat the champion's recent-window AUC by this much.
  double promote_margin = 0.01;
  /// Matured-row ring capacity (the "recent window").
  std::size_t window_capacity = 8192;
  /// Additional matured rows required after a promotion before the next
  /// verdict (flap damping on top of the window reset).
  std::size_t cooldown_matured = 0;
};

/// One promotion-gate decision (kept in the audit trail when it promotes
/// or is blocked by the margin; pure not-enough-data verdicts are not
/// recorded).
struct ArenaVerdict {
  bool promote = false;
  bool enough_data = false;
  double champion_auc = 0.0;
  double challenger_auc = 0.0;
  std::size_t matured_rows = 0;
  std::size_t matured_positives = 0;
  std::int32_t watermark_day = 0;  ///< stream day at evaluation
  std::string challenger;          ///< tag of the best challenger
  std::string reason;              ///< human-readable gate outcome
};

/// Audit-trail entry for an executed promotion.
struct PromotionEvent {
  std::string challenger;
  double champion_auc = 0.0;
  double challenger_auc = 0.0;
  std::size_t matured_rows = 0;
  std::int32_t watermark_day = 0;
};

class ModelArena {
 public:
  ModelArena(ArenaConfig config, obs::MetricsRegistry* registry);

  /// Install (or replace) a challenger.  `model` is wrapped through
  /// ml::make_serving_model, so tree ensembles shadow-score through the
  /// compiled FlatForest engine.  Installing restarts the comparison:
  /// matured window and pending rows are dropped, because the gate is only
  /// fair on rows every competing model actually scored.
  void set_challenger(std::string tag, std::shared_ptr<const ml::Classifier> model);
  [[nodiscard]] std::size_t challenger_count() const;

  /// Fold one scored daemon batch (appender threads; see daemon::
  /// BatchObserver).  Shadow-scores all challengers outside the lock.
  void observe_batch(const ml::Matrix& features,
                     std::span<const trace::DailyRecord> records,
                     std::span<const daemon::DriveAssessment> assessments);

  /// Censoring signal: explicitly retired drives count as failure at the
  /// retire point (their pending rows label against the watermark).
  void observe_retires(std::span<const std::uint64_t> uids);

  /// Run the promotion gate over the matured window.  Exports online_*
  /// metrics.  Does not mutate roles — the caller promotes via promote()
  /// after persisting the new model.
  [[nodiscard]] ArenaVerdict evaluate();

  /// The named challenger becomes champion bookkeeping-wise: the matured
  /// window and every pending score reset (fresh start under the new
  /// champion), other challengers are kept, and the event is recorded.
  void promote(const ArenaVerdict& verdict);

  [[nodiscard]] const std::vector<PromotionEvent>& promotions() const {
    return promotions_;
  }
  [[nodiscard]] std::size_t matured_rows() const;
  [[nodiscard]] std::size_t pending_rows() const;
  [[nodiscard]] std::int32_t watermark_day() const;

  /// Matured-window AUC per role without gate side effects (tests, CLI).
  struct WindowAuc {
    double champion = 0.0;
    std::vector<double> challengers;
  };
  [[nodiscard]] WindowAuc window_auc() const;

 private:
  struct Challenger {
    std::string tag;
    std::shared_ptr<const ml::Classifier> model;
  };
  struct PendingRow {
    std::int32_t day = 0;
    float champion_score = 0.0f;
    std::vector<float> challenger_scores;
  };
  struct DriveLog {
    std::vector<PendingRow> pending;
    std::optional<std::int32_t> failure_day;
  };

  void mature_locked();
  void push_matured_locked(const PendingRow& row, bool positive);
  [[nodiscard]] double champion_window_auc_locked() const;

  ArenaConfig config_;
  mutable std::mutex mutex_;
  std::vector<Challenger> challengers_;
  std::unordered_map<std::uint64_t, DriveLog> drives_;
  std::int32_t watermark_ = 0;
  std::size_t pending_count_ = 0;
  std::size_t cooldown_left_ = 0;

  // Matured recent window (deques bounded by window_capacity; one score
  // column per model role).
  std::deque<float> window_labels_;
  std::deque<float> window_champion_;
  std::vector<std::deque<float>> window_challengers_;
  std::uint64_t matured_total_ = 0;
  std::uint64_t matured_positives_total_ = 0;

  std::vector<PromotionEvent> promotions_;

  obs::Counter* shadow_scored_total_ = nullptr;
  obs::Counter* matured_total_metric_ = nullptr;
  obs::Counter* evaluations_total_ = nullptr;
  obs::Counter* promotions_total_ = nullptr;
  obs::Gauge* pending_gauge_ = nullptr;
  obs::Gauge* champion_auc_gauge_ = nullptr;
  obs::Gauge* challenger_auc_gauge_ = nullptr;
  obs::Gauge* calibration_gap_gauge_ = nullptr;
};

}  // namespace ssdfail::online
