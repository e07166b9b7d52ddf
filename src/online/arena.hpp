#pragma once

// Champion/challenger shadow evaluation (the promotion gate of the online
// learning loop).
//
// The arena holds at most one challenger.  Every scored daemon batch is
// shadow-scored by it: the feature matrix is already built and the
// challenger is FlatForest-compiled (ml::make_serving_model), so it adds
// one branchless block scan per batch (bench_online_shadow budgets it at
// 10% of a fleet-day's processing time).  The champion's scores arrive
// for free — they are the daemon's own assessments.
//
// Delayed labels: a scored row (uid, day) matures once the per-drive
// stream reaches day + lookahead (the observation-day watermark — never
// the wall clock, so tests and replay are deterministic).  The lookahead
// is the label horizon N the challenger was trained for, passed in by the
// owner (the learner hands over RetrainerConfig::lookahead_days), so the
// gate and the retrainer can never disagree about N.  A row's label is
// positive iff the drive's failure signal (dead-flagged record, or an
// explicit retire) lands within the lookahead window.  Matured rows feed
// a recent window of the last 8192 rows holding both models' scores;
// ml::roc_auc over that window is the promotion currency, exactly the
// paper's evaluation statistic.
//
// Promotion gate: challenger AUC >= champion AUC + margin, over at least
// min_samples matured rows including min_positives positives.  Hysteresis:
// promote() clears the matured window, so a freshly promoted champion
// cannot be judged again until min_samples fresh rows accumulate under
// its own scores.  Every promotion lands in an audit trail.  A challenger
// that loses a verdict with enough data is dropped by its owner
// (clear_challenger), so the slot is free for one retrained on newer
// history.
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
  /// Matured rows required before any promotion verdict.
  std::size_t min_samples = 256;
  /// Matured positives required before any promotion verdict (AUC over a
  /// window with 1-2 positives is noise).
  std::size_t min_positives = 8;
  /// Challenger must beat the champion's recent-window AUC by this much.
  double promote_margin = 0.01;
};

/// One promotion-gate decision, with both window AUCs.  Only executed
/// promotions enter the audit trail (promotions()).
struct ArenaVerdict {
  bool promote = false;
  bool enough_data = false;
  double champion_auc = 0.0;
  double challenger_auc = 0.0;
  std::size_t matured_rows = 0;
  std::size_t matured_positives = 0;
  std::int32_t watermark_day = 0;  ///< stream day at evaluation
  std::string challenger;          ///< tag of the judged challenger
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
  /// `lookahead_days` is the label horizon: a row labels positive iff the
  /// drive's failure signal lands within this many days (inclusive,
  /// matching DatasetBuildOptions::lookahead_days).
  ModelArena(ArenaConfig config, int lookahead_days, obs::MetricsRegistry* registry);

  /// Install a challenger into the slot, replacing any current one.
  /// `model` is wrapped through ml::make_serving_model, so tree ensembles
  /// shadow-score through the compiled FlatForest engine.  Installing
  /// restarts the comparison: matured window and pending rows are dropped,
  /// because the gate is only fair on rows both models actually scored.
  void set_challenger(std::string tag, std::shared_ptr<const ml::Classifier> model);
  /// Empty the slot (the challenger lost); the champion's window is kept.
  void clear_challenger();
  [[nodiscard]] bool has_challenger() const;

  /// Fold one scored daemon batch (appender threads; see daemon::
  /// BatchObserver).  Shadow-scores the challenger outside the lock.
  void observe_batch(const ml::Matrix& features,
                     std::span<const daemon::DriveAssessment> assessments);

  /// Censoring signal: explicitly retired drives count as failure at the
  /// retire point (their pending rows label against the watermark).
  void observe_retires(std::span<const std::uint64_t> uids);

  /// Run the promotion gate over the matured window and report both AUCs.
  /// Exports online_* metrics.  Does not mutate roles — the caller
  /// promotes via promote() after persisting the new model.
  [[nodiscard]] ArenaVerdict evaluate();

  /// The verdict's challenger becomes champion bookkeeping-wise: the slot
  /// empties, the matured window and every pending score reset (fresh
  /// start under the new champion), and the event is recorded.  A no-op
  /// when the slot no longer holds that challenger.
  void promote(const ArenaVerdict& verdict);

  [[nodiscard]] const std::vector<PromotionEvent>& promotions() const {
    return promotions_;
  }
  [[nodiscard]] std::size_t matured_rows() const;
  [[nodiscard]] std::size_t pending_rows() const;
  [[nodiscard]] std::int32_t watermark_day() const;

 private:
  struct Challenger {
    std::string tag;
    std::shared_ptr<const ml::Classifier> model;
  };
  /// One scored row: both models' scores, and (once matured) its label.
  struct ScoredRow {
    std::int32_t day = 0;
    float champion = 0.0f;
    float challenger = 0.0f;
    float label = 0.0f;
  };
  struct DriveLog {
    std::vector<ScoredRow> pending;
    std::optional<std::int32_t> failure_day;
  };

  void mature_locked();
  void push_matured_locked(ScoredRow row, bool positive);
  void restart_comparison_locked();
  [[nodiscard]] double window_auc_locked(float ScoredRow::*score) const;

  ArenaConfig config_;
  int lookahead_days_;
  mutable std::mutex mutex_;
  std::optional<Challenger> challenger_;
  std::unordered_map<std::uint64_t, DriveLog> drives_;
  std::int32_t watermark_ = 0;
  std::size_t pending_count_ = 0;

  /// Matured recent window (the newest kWindowCapacity rows).
  std::deque<ScoredRow> window_;

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
