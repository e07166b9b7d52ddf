#include "online/arena.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ml/metrics.hpp"
#include "ml/model_zoo.hpp"

namespace ssdfail::online {
namespace {

double auc_of(const std::deque<float>& scores, const std::deque<float>& labels) {
  if (scores.size() != labels.size()) return 0.0;
  const std::vector<float> s(scores.begin(), scores.end());
  const std::vector<float> l(labels.begin(), labels.end());
  const double auc = ml::roc_auc(s, l);
  return std::isnan(auc) ? 0.0 : auc;
}

}  // namespace

ModelArena::ModelArena(ArenaConfig config, obs::MetricsRegistry* registry)
    : config_(config) {
  if (registry == nullptr) return;
  shadow_scored_total_ = &registry->counter(
      "online_shadow_scored_total", {}, "Rows shadow-scored by challengers");
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
  std::size_t slot = challengers_.size();
  for (std::size_t i = 0; i < challengers_.size(); ++i)
    if (challengers_[i].tag == tag) slot = i;
  if (slot == challengers_.size()) {
    challengers_.push_back({std::move(tag), std::move(serving)});
    window_challengers_.emplace_back();
  } else {
    challengers_[slot].model = std::move(serving);
  }
  // The gate is only fair on rows EVERY model scored: entering (or
  // replacing) a challenger restarts the comparison — matured window and
  // pending rows scored before this challenger existed are dropped.
  window_labels_.clear();
  window_champion_.clear();
  for (auto& col : window_challengers_) col.clear();
  for (auto& entry : drives_) {
    pending_count_ -= entry.second.pending.size();
    entry.second.pending.clear();
  }
}

std::size_t ModelArena::challenger_count() const {
  std::scoped_lock lock(mutex_);
  return challengers_.size();
}

void ModelArena::observe_batch(const ml::Matrix& features,
                               std::span<const trace::DailyRecord> records,
                               std::span<const daemon::DriveAssessment> assessments) {
  if (features.rows() == 0) return;
  // Shadow-score OUTSIDE the lock: predict_proba on the compiled engine is
  // the only nontrivial work here and it is read-only.  A challenger swap
  // racing this batch merely attributes one batch to the old model; its
  // columns reset at swap anyway.
  std::vector<Challenger> models;
  {
    std::scoped_lock lock(mutex_);
    models = challengers_;
  }
  std::vector<std::vector<float>> shadow(models.size());
  for (std::size_t m = 0; m < models.size(); ++m)
    shadow[m] = models[m].model->predict_proba(features);
  if (shadow_scored_total_ != nullptr && !models.empty())
    shadow_scored_total_->inc(features.rows() * models.size());

  std::scoped_lock lock(mutex_);
  const std::size_t n_challengers = challengers_.size();
  for (std::size_t i = 0; i < assessments.size(); ++i) {
    const daemon::DriveAssessment& a = assessments[i];
    DriveLog& log = drives_[a.uid];
    if (a.dead && !log.failure_day) log.failure_day = a.day;
    watermark_ = std::max(watermark_, a.day);
    if (!a.scored) continue;  // degraded-mode rows carry no champion score
    PendingRow row;
    row.day = a.day;
    row.champion_score = a.score;
    row.challenger_scores.assign(n_challengers, 0.0f);
    // The snapshot raced set_challenger only if sizes differ; those rows
    // keep zeros in the new column, same as a fresh challenger's reset.
    for (std::size_t m = 0; m < std::min(models.size(), n_challengers); ++m)
      row.challenger_scores[m] = shadow[m][i];
    log.pending.push_back(std::move(row));
    ++pending_count_;
  }
  (void)records;
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
      PendingRow& row = log.pending[i];
      const bool failed_in_window =
          log.failure_day && *log.failure_day - row.day <= config_.lookahead_days &&
          *log.failure_day >= row.day;
      const bool matured =
          failed_in_window ||
          watermark_ >= row.day + config_.lookahead_days;
      if (!matured) {
        // Guard the self-move: compacting in place, the write slot can be
        // the row itself, and a self-moved vector's contents are gone.
        if (kept != i) log.pending[kept] = std::move(row);
        ++kept;
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

void ModelArena::push_matured_locked(const PendingRow& row, bool positive) {
  window_labels_.push_back(positive ? 1.0f : 0.0f);
  window_champion_.push_back(row.champion_score);
  for (std::size_t m = 0; m < window_challengers_.size(); ++m)
    window_challengers_[m].push_back(
        m < row.challenger_scores.size() ? row.challenger_scores[m] : 0.0f);
  while (window_labels_.size() > config_.window_capacity) {
    window_labels_.pop_front();
    window_champion_.pop_front();
    for (auto& col : window_challengers_) col.pop_front();
  }
  ++matured_total_;
  if (positive) ++matured_positives_total_;
  if (cooldown_left_ > 0) --cooldown_left_;
  if (matured_total_metric_ != nullptr) matured_total_metric_->inc();
}

double ModelArena::champion_window_auc_locked() const {
  return auc_of(window_champion_, window_labels_);
}

ArenaVerdict ModelArena::evaluate() {
  std::scoped_lock lock(mutex_);
  if (evaluations_total_ != nullptr) evaluations_total_->inc();

  ArenaVerdict verdict;
  verdict.watermark_day = watermark_;
  verdict.matured_rows = window_labels_.size();
  std::size_t positives = 0;
  for (const float l : window_labels_) positives += l > 0.5f ? 1 : 0;
  verdict.matured_positives = positives;
  verdict.champion_auc = champion_window_auc_locked();

  double mean_score = 0.0;
  for (const float s : window_champion_) mean_score += s;
  if (!window_champion_.empty()) mean_score /= static_cast<double>(window_champion_.size());
  const double observed_rate =
      window_labels_.empty()
          ? 0.0
          : static_cast<double>(positives) / static_cast<double>(window_labels_.size());
  if (calibration_gap_gauge_ != nullptr)
    calibration_gap_gauge_->set(mean_score - observed_rate);
  if (champion_auc_gauge_ != nullptr)
    champion_auc_gauge_->set(verdict.champion_auc);

  double best_auc = -1.0;
  std::size_t best = challengers_.size();
  for (std::size_t m = 0; m < challengers_.size(); ++m) {
    const double auc = auc_of(window_challengers_[m], window_labels_);
    if (auc > best_auc) {
      best_auc = auc;
      best = m;
    }
  }
  if (best < challengers_.size()) {
    verdict.challenger = challengers_[best].tag;
    verdict.challenger_auc = best_auc;
  }
  if (challenger_auc_gauge_ != nullptr)
    challenger_auc_gauge_->set(best < challengers_.size() ? best_auc : 0.0);

  verdict.enough_data = verdict.matured_rows >= config_.min_samples &&
                        verdict.matured_positives >= config_.min_positives &&
                        cooldown_left_ == 0;
  if (challengers_.empty()) {
    verdict.reason = "no challenger installed";
  } else if (!verdict.enough_data) {
    verdict.reason = cooldown_left_ > 0 ? "promotion cooldown active"
                                        : "matured window below minimums";
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
  std::size_t slot = challengers_.size();
  for (std::size_t i = 0; i < challengers_.size(); ++i)
    if (challengers_[i].tag == verdict.challenger) slot = i;
  if (slot == challengers_.size()) return;  // challenger vanished; no-op
  challengers_.erase(challengers_.begin() + static_cast<std::ptrdiff_t>(slot));
  window_challengers_.erase(window_challengers_.begin() +
                            static_cast<std::ptrdiff_t>(slot));
  // Hysteresis: the new champion starts with a clean slate — matured
  // window and every pending score reset, so demotion requires a full
  // fresh window scored by the new champion itself.
  window_labels_.clear();
  window_champion_.clear();
  for (auto& col : window_challengers_) col.clear();
  for (auto& entry : drives_) {
    pending_count_ -= entry.second.pending.size();
    entry.second.pending.clear();
  }
  cooldown_left_ = config_.cooldown_matured;
  promotions_.push_back({verdict.challenger, verdict.champion_auc,
                         verdict.challenger_auc, verdict.matured_rows,
                         verdict.watermark_day});
  if (promotions_total_ != nullptr) promotions_total_->inc();
  if (pending_gauge_ != nullptr)
    pending_gauge_->set(static_cast<double>(pending_count_));
}

std::size_t ModelArena::matured_rows() const {
  std::scoped_lock lock(mutex_);
  return window_labels_.size();
}

std::size_t ModelArena::pending_rows() const {
  std::scoped_lock lock(mutex_);
  return pending_count_;
}

std::int32_t ModelArena::watermark_day() const {
  std::scoped_lock lock(mutex_);
  return watermark_;
}

ModelArena::WindowAuc ModelArena::window_auc() const {
  std::scoped_lock lock(mutex_);
  WindowAuc out;
  out.champion = champion_window_auc_locked();
  out.challengers.reserve(window_challengers_.size());
  for (const auto& col : window_challengers_)
    out.challengers.push_back(auc_of(col, window_labels_));
  return out;
}

}  // namespace ssdfail::online
