#include "online/learner.hpp"

#include <exception>
#include <utility>

#include "ml/model_zoo.hpp"
#include "ml/serialize.hpp"
#include "obs/metrics.hpp"
#include "store/sharded.hpp"

namespace ssdfail::online {
namespace {

/// Bound on batches queued for the shadow thread; beyond it, new batches
/// are dropped (online_shadow_dropped_total) instead of blocking ingest.
constexpr std::size_t kShadowQueueBatches = 64;

obs::MetricsRegistry& registry_of(const OnlineConfig& config) {
  return config.registry != nullptr ? *config.registry : obs::MetricsRegistry::global();
}

}  // namespace

OnlineLearner::OnlineLearner(OnlineConfig config)
    : config_(std::move(config)),
      drift_(config_.drift, &registry_of(config_)),
      arena_(config_.arena, config_.retrainer.lookahead_days, &registry_of(config_)),
      retrainer_(config_.retrainer) {
  obs::MetricsRegistry& registry = registry_of(config_);
  steps_metric_ = &registry.counter("online_steps_total", {},
                                    "Online control-loop steps executed");
  retrains_metric_ = &registry.counter("online_retrains_total", {},
                                       "Challenger models retrained");
  promotion_failures_metric_ =
      &registry.counter("online_promotion_failures_total", {},
                        "Promotions aborted by persist/verify failure");
  last_promotion_day_metric_ = &registry.gauge(
      "online_last_promotion_day", {}, "Stream day of the latest promotion");
  shadow_dropped_metric_ =
      &registry.counter("online_shadow_dropped_total", {},
                        "Rows dropped because the shadow queue was full");
  shadow_thread_ = std::thread([this] { shadow_loop(); });
}

OnlineLearner::~OnlineLearner() {
  {
    std::scoped_lock lock(shadow_mutex_);
    shadow_stop_ = true;
  }
  shadow_cv_.notify_all();
  if (shadow_thread_.joinable()) shadow_thread_.join();
}

void OnlineLearner::on_batch(const ml::Matrix& features,
                             std::span<const trace::DailyRecord> records,
                             std::span<const daemon::DriveAssessment> assessments) {
  ShadowWork work;
  work.features = features;
  work.records.assign(records.begin(), records.end());
  work.assessments.assign(assessments.begin(), assessments.end());
  enqueue_shadow(std::move(work));
}

void OnlineLearner::on_retired(std::span<const std::uint64_t> uids) {
  ShadowWork work;
  work.retired.assign(uids.begin(), uids.end());
  if (work.retired.empty()) return;
  enqueue_shadow(std::move(work));
}

void OnlineLearner::enqueue_shadow(ShadowWork work) {
  {
    std::scoped_lock lock(shadow_mutex_);
    if (shadow_queue_.size() >= kShadowQueueBatches) {
      // Never stall an appender: shed the whole batch and account for it.
      shadow_dropped_metric_->inc(
          work.retired.empty() ? work.records.size() : work.retired.size());
      return;
    }
    shadow_queue_.push_back(std::move(work));
  }
  shadow_cv_.notify_one();
}

void OnlineLearner::shadow_loop() {
  std::unique_lock lock(shadow_mutex_);
  for (;;) {
    shadow_cv_.wait(lock, [this] { return shadow_stop_ || !shadow_queue_.empty(); });
    if (shadow_queue_.empty()) return;  // stop requested and fully drained
    ShadowWork work = std::move(shadow_queue_.front());
    shadow_queue_.pop_front();
    shadow_busy_ = true;
    lock.unlock();
    if (!work.retired.empty()) {
      arena_.observe_retires(work.retired);
    } else {
      for (const trace::DailyRecord& rec : work.records) {
        drift_.observe(rec);
        if (rec.dead) drift_.observe_swap_day(rec.day);
      }
      arena_.observe_batch(work.features, work.assessments);
    }
    lock.lock();
    shadow_busy_ = false;
    if (shadow_queue_.empty()) shadow_idle_cv_.notify_all();
  }
}

void OnlineLearner::drain_shadow() {
  std::unique_lock lock(shadow_mutex_);
  shadow_idle_cv_.wait(lock,
                       [this] { return shadow_queue_.empty() && !shadow_busy_; });
}

bool OnlineLearner::set_drift_reference_from_store() {
  try {
    const auto view = store::ShardedFleetView::open(config_.retrainer.store_dir);
    drift_.set_reference(sketch_fleet(view));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

StepReport OnlineLearner::step() {
  std::scoped_lock step_lock(step_mutex_);
  // Judge everything the daemon handed over before this step began.
  drain_shadow();
  StepReport report;
  steps_.fetch_add(1);
  steps_metric_->inc();

  // 1. Fold sealed WAL segments into the v3 store so retraining sees
  //    everything the daemon has durably ingested.
  if (!config_.wal_dir.empty()) {
    try {
      report.compaction =
          daemon::compact_sealed_wals(config_.wal_dir, config_.retrainer.store_dir);
    } catch (const std::exception&) {
      // I/O failure writing the shard: skip this round, the sealed files
      // are still there for the next one.
    }
  }

  // 2. Drift.  Bootstrap the reference from the first compacted history if
  //    none was installed — "what the fleet looked like when the champion
  //    started serving" is the best available proxy for its training
  //    distribution.
  if (!drift_.has_reference() && report.compaction.shards_written > 0)
    (void)set_drift_reference_from_store();
  report.drift = drift_.evaluate();
  // Tumbling windows: once a window was big enough to judge, archive it
  // and start fresh — otherwise early history dilutes later drift and the
  // detector goes blind to gradual shifts.  The archived window is what a
  // promotion adopts as the new reference (it is the distribution the
  // challenger was judged against).
  if (report.drift.window_rows >= config_.drift.min_window_rows) {
    last_window_ = drift_.window_snapshot();
    drift_.reset_window();
  }

  // 3. While drift alerts, keep the challenger slot filled with a model
  //    retrained on the newest label-matured window.
  if (report.drift.alert && !arena_.has_challenger()) {
    const std::int32_t now_day = arena_.watermark_day();
    if (std::optional<RetrainResult> result = retrainer_.retrain(now_day)) {
      challenger_model_ =
          std::static_pointer_cast<const ml::GradientBoosting>(result->model);
      const std::string tag = "retrain-d" + std::to_string(result->window_end);
      arena_.set_challenger(tag, result->model);
      retrains_metric_->inc();
      report.retrained = true;
      report.train_rows = result->rows;
      report.train_positives = result->positives;
      report.challenger = tag;
    }
  }

  // 4. Promotion gate.  A challenger judged on enough data that does not
  //    win is dropped, so the next alerting step retrains on newer history.
  report.verdict = arena_.evaluate();
  if (report.verdict.promote) {
    report.promoted = execute_promotion(report.verdict);
  } else if (report.verdict.enough_data && !report.verdict.challenger.empty()) {
    arena_.clear_challenger();
    challenger_model_.reset();
    report.challenger_dropped = true;
  }
  return report;
}

bool OnlineLearner::execute_promotion(const ArenaVerdict& verdict) {
  if (challenger_model_ == nullptr) return false;

  std::shared_ptr<const ml::Classifier> serving;
  if (!config_.model_path.empty()) {
    // Persist first (io::commit_file: a crash here leaves the previous
    // champion file intact), then serve what was actually persisted — the
    // reload round-trips the bytes and recompiles the FlatForest engine,
    // so a corrupt write can never be hot-swapped in.
    try {
      ml::save_model_file(config_.model_path, *challenger_model_);
      serving = ml::load_serving_classifier_file(config_.model_path);
    } catch (const std::exception&) {
      promotion_failures_metric_->inc();
      return false;
    }
  } else {
    serving = ml::make_serving_model(challenger_model_);
  }

  if (daemon_ != nullptr) daemon_->set_model(serving);
  arena_.promote(verdict);
  challenger_model_.reset();
  // The promoted model was trained on the drifted fleet: the drifted
  // window IS its reference distribution now.
  if (last_window_.rows > 0) {
    drift_.set_reference(last_window_);
    drift_.reset_window();
  } else {
    drift_.adopt_window_as_reference();
  }
  last_promotion_day_metric_->set(static_cast<double>(verdict.watermark_day));
  return true;
}

}  // namespace ssdfail::online
