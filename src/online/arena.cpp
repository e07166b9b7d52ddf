#include "online/arena.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ml/metrics.hpp"
#include "ml/model_zoo.hpp"

namespace ssdfail::online {
namespace {

/// Matured rows kept in the recent window the gate judges.
constexpr std::size_t kWindowCapacity = 8192;

}  // namespace

ModelArena::ModelArena(ArenaConfig config, int lookahead_days,
                       obs::MetricsRegistry* registry)
    : config_(config), lookahead_days_(lookahead_days) {
  if (registry == nullptr) return;
  shadow_scored_total_ = &registry->counter(
      "online_shadow_scored_total", {}, "Rows shadow-scored by the challenger");
  matured_total_metric_ = &registry->counter(
      "online_matured_total", {}, "Scored rows whose labels matured");
  evaluations_total_ = &registry->counter(
      "online_evaluations_total", {}, "Promotion-gate evaluations run");
  promotions_total_ = &registry->counter(
      "online_promotions_total", {}, "Challenger promotions executed");
  pending_gauge_ = &registry->gauge(
      "online_pending_rows", {}, "Scored rows awaiting label maturation");
  champion_auc_gauge_ = &registry->gauge(
      "online_window_auc", {{"role", "champion"}},
      "Recent matured-window ROC AUC per model role");
  challenger_auc_gauge_ = &registry->gauge(
      "online_window_auc", {{"role", "challenger"}},
      "Recent matured-window ROC AUC per model role");
  calibration_gap_gauge_ = &registry->gauge(
      "online_calibration_gap", {},
      "Champion mean predicted probability minus observed swap rate, matured window");
}

void ModelArena::set_challenger(std::string tag,
                                std::shared_ptr<const ml::Classifier> model) {
  auto serving = ml::make_serving_model(std::move(model));
  std::scoped_lock lock(mutex_);
  challenger_ = Challenger{std::move(tag), std::move(serving)};
  // The gate is only fair on rows BOTH models scored: entering a
  // challenger restarts the comparison.
  restart_comparison_locked();
}

void ModelArena::clear_challenger() {
  std::scoped_lock lock(mutex_);
  challenger_.reset();
}

bool ModelArena::has_challenger() const {
  std::scoped_lock lock(mutex_);
  return challenger_.has_value();
}

void ModelArena::restart_comparison_locked() {
  window_.clear();
  for (auto& entry : drives_) {
    pending_count_ -= entry.second.pending.size();
    entry.second.pending.clear();
  }
}

void ModelArena::observe_batch(const ml::Matrix& features,
                               std::span<const daemon::DriveAssessment> assessments) {
  if (features.rows() == 0) return;
  // Shadow-score OUTSIDE the lock: predict_proba on the compiled engine is
  // the only nontrivial work here and it is read-only.  If the slot
  // changed while scoring, score again with the model now installed, so
  // every row carries the score of the challenger it is judged for.
  std::shared_ptr<const ml::Classifier> scored_by;
  std::vector<float> shadow;
  std::unique_lock lock(mutex_);
  while (challenger_ && challenger_->model != scored_by) {
    scored_by = challenger_->model;
    lock.unlock();
    shadow = scored_by->predict_proba(features);
    if (shadow_scored_total_ != nullptr) shadow_scored_total_->inc(features.rows());
    lock.lock();
  }

  for (std::size_t i = 0; i < assessments.size(); ++i) {
    const daemon::DriveAssessment& a = assessments[i];
    DriveLog& log = drives_[a.uid];
    if (a.dead && !log.failure_day) log.failure_day = a.day;
    watermark_ = std::max(watermark_, a.day);
    if (!a.scored) continue;  // degraded-mode rows carry no champion score
    log.pending.push_back({a.day, a.score, challenger_ ? shadow[i] : 0.0f});
    ++pending_count_;
  }
  mature_locked();
  if (pending_gauge_ != nullptr)
    pending_gauge_->set(static_cast<double>(pending_count_));
}

void ModelArena::observe_retires(std::span<const std::uint64_t> uids) {
  std::scoped_lock lock(mutex_);
  for (const std::uint64_t uid : uids) {
    DriveLog& log = drives_[uid];
    if (!log.failure_day) log.failure_day = watermark_;
  }
  mature_locked();
}

void ModelArena::mature_locked() {
  for (auto it = drives_.begin(); it != drives_.end();) {
    DriveLog& log = it->second;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < log.pending.size(); ++i) {
      const ScoredRow& row = log.pending[i];
      const bool failed_in_window =
          log.failure_day && *log.failure_day - row.day <= lookahead_days_ &&
          *log.failure_day >= row.day;
      const bool matured = failed_in_window || watermark_ >= row.day + lookahead_days_;
      if (!matured) {
        log.pending[kept++] = row;
        continue;
      }
      push_matured_locked(row, failed_in_window);
      --pending_count_;
    }
    log.pending.resize(kept);
    // A failed drive with no pending rows never produces more: drop it.
    if (log.pending.empty() && log.failure_day) {
      it = drives_.erase(it);
    } else {
      ++it;
    }
  }
}

void ModelArena::push_matured_locked(ScoredRow row, bool positive) {
  row.label = positive ? 1.0f : 0.0f;
  window_.push_back(row);
  if (window_.size() > kWindowCapacity) window_.pop_front();
  if (matured_total_metric_ != nullptr) matured_total_metric_->inc();
}

double ModelArena::window_auc_locked(float ScoredRow::*score) const {
  std::vector<float> scores;
  std::vector<float> labels;
  scores.reserve(window_.size());
  labels.reserve(window_.size());
  for (const ScoredRow& row : window_) {
    scores.push_back(row.*score);
    labels.push_back(row.label);
  }
  const double auc = ml::roc_auc(scores, labels);
  return std::isnan(auc) ? 0.0 : auc;
}

ArenaVerdict ModelArena::evaluate() {
  std::scoped_lock lock(mutex_);
  if (evaluations_total_ != nullptr) evaluations_total_->inc();

  ArenaVerdict verdict;
  verdict.watermark_day = watermark_;
  verdict.matured_rows = window_.size();
  double mean_score = 0.0;
  for (const ScoredRow& row : window_) {
    verdict.matured_positives += row.label > 0.5f ? 1 : 0;
    mean_score += row.champion;
  }
  verdict.champion_auc = window_auc_locked(&ScoredRow::champion);

  double observed_rate = 0.0;
  if (!window_.empty()) {
    const auto rows = static_cast<double>(window_.size());
    mean_score /= rows;
    observed_rate = static_cast<double>(verdict.matured_positives) / rows;
  }
  if (calibration_gap_gauge_ != nullptr)
    calibration_gap_gauge_->set(mean_score - observed_rate);
  if (champion_auc_gauge_ != nullptr)
    champion_auc_gauge_->set(verdict.champion_auc);

  if (challenger_) {
    verdict.challenger = challenger_->tag;
    verdict.challenger_auc = window_auc_locked(&ScoredRow::challenger);
  }
  if (challenger_auc_gauge_ != nullptr)
    challenger_auc_gauge_->set(verdict.challenger_auc);

  verdict.enough_data = verdict.matured_rows >= config_.min_samples &&
                        verdict.matured_positives >= config_.min_positives;
  if (!challenger_) {
    verdict.reason = "no challenger installed";
  } else if (!verdict.enough_data) {
    verdict.reason = "matured window below minimums";
  } else if (verdict.challenger_auc >= verdict.champion_auc + config_.promote_margin) {
    verdict.promote = true;
    verdict.reason = "challenger beats champion by margin";
  } else {
    verdict.reason = "challenger within margin of champion";
  }
  return verdict;
}

void ModelArena::promote(const ArenaVerdict& verdict) {
  std::scoped_lock lock(mutex_);
  if (!challenger_ || challenger_->tag != verdict.challenger) return;  // stale verdict
  challenger_.reset();
  // Hysteresis: the new champion starts with a clean slate — matured
  // window and every pending score reset, so demotion requires a full
  // fresh window scored by the new champion itself.
  restart_comparison_locked();
  promotions_.push_back({verdict.challenger, verdict.champion_auc,
                         verdict.challenger_auc, verdict.matured_rows,
                         verdict.watermark_day});
  if (promotions_total_ != nullptr) promotions_total_->inc();
  if (pending_gauge_ != nullptr)
    pending_gauge_->set(static_cast<double>(pending_count_));
}

std::size_t ModelArena::matured_rows() const {
  std::scoped_lock lock(mutex_);
  return window_.size();
}

std::size_t ModelArena::pending_rows() const {
  std::scoped_lock lock(mutex_);
  return pending_count_;
}

std::int32_t ModelArena::watermark_day() const {
  std::scoped_lock lock(mutex_);
  return watermark_;
}

}  // namespace ssdfail::online
