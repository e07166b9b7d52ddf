#include "core/online_monitor.hpp"

#include <atomic>
#include <chrono>
#include <string>

#include "ml/model_zoo.hpp"
#include "obs/trace_span.hpp"

namespace ssdfail::core {
namespace {

double elapsed_us(std::chrono::steady_clock::time_point start) noexcept {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

/// Monotonically increasing FleetMonitor instance id, used as the
/// `monitor` label so concurrent instances (tests, benches) never share
/// registry children.
std::string next_monitor_label() {
  static std::atomic<std::uint64_t> next{0};
  return std::to_string(next.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

FleetMonitor::FleetMonitor(std::shared_ptr<const ml::Classifier> model, double threshold,
                           std::size_t shards,
                           robustness::SanitizerConfig sanitizer_config,
                           obs::MetricsRegistry* registry)
    : model_(ml::make_serving_model(std::move(model))) {
  if (shards == 0) shards = 1;
  obs::MetricsRegistry& reg =
      registry != nullptr ? *registry : obs::MetricsRegistry::global();
  if (sanitizer_config.registry == nullptr) sanitizer_config.registry = &reg;
  const std::string instance = next_monitor_label();
  degraded_gauge_ = &reg.gauge("monitor_degraded", {{"monitor", instance}},
                               "1 while serving on the fallback model");
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s)
    shards_.push_back(std::make_unique<Shard>(
        threshold, sanitizer_config, reg,
        obs::Labels{{"monitor", instance}, {"shard", std::to_string(s)}}));
}

std::shared_ptr<const ml::Classifier> FleetMonitor::current_model() const {
  std::scoped_lock lock(model_mutex_);
  return model_;
}

void FleetMonitor::set_model(std::shared_ptr<const ml::Classifier> model) {
  // Compile for the serving engine outside the lock (scores are identical
  // either way; only speed changes).
  std::shared_ptr<const ml::Classifier> serving =
      ml::make_serving_model(std::move(model));
  std::scoped_lock lock(model_mutex_);
  model_ = std::move(serving);
}

RiskAssessment FleetMonitor::observe(trace::DriveModel drive_model,
                                     std::uint32_t drive_index, std::int32_t deploy_day,
                                     const trace::DailyRecord& record) {
  const FleetObservation obs{drive_model, drive_index, deploy_day, record};
  return observe_batch({&obs, 1})[0];
}

void FleetMonitor::score_group(const ml::Classifier& model, Shard& shard,
                               std::span<const FleetObservation> batch,
                               std::span<const std::size_t> at,
                               std::span<RiskAssessment> out) {
  if (at.empty()) return;
  static const obs::SiteId kSite = obs::intern_site("monitor.score_shard");
  obs::Span span(kSite);
  const auto start = std::chrono::steady_clock::now();
  std::vector<FleetObservation> group;
  group.reserve(at.size());
  for (std::size_t i : at) group.push_back(batch[i]);

  std::scoped_lock lock(shard.mutex);
  const std::size_t drives_before = shard.kernel.drives_tracked();
  const ScoredBatch& scored = shard.kernel.score(group, &model);
  for (std::size_t k = 0; k < at.size(); ++k) {
    const ScoredRecord& r = scored.records[k];
    RiskAssessment& a = out[at[k]];
    switch (r.action) {
      case robustness::SanitizeAction::kQuarantined:
        if (r.kind == trace::ViolationKind::kNonMonotoneDays)
          shard.metrics.on_out_of_order();
        a.quarantined = true;
        a.dropped = true;
        break;
      case robustness::SanitizeAction::kDuplicateDropped:
        a.dropped = true;
        break;
      case robustness::SanitizeAction::kClean:
      case robustness::SanitizeAction::kRepaired:
        a.risk = r.score;
        a.alert = r.alert;
        a.repaired = r.action == robustness::SanitizeAction::kRepaired;
        break;
    }
  }
  shard.metrics.on_drives_created(shard.kernel.drives_tracked() - drives_before);
  shard.metrics.on_non_finite(scored.non_finite);
  const std::size_t n = scored.accepted();
  if (n == 0) return;
  shard.metrics.on_scored(n, scored.alerts);
  shard.metrics.on_batch();
  shard.metrics.add_score_latency(elapsed_us(start) / static_cast<double>(n), n);
}

std::vector<RiskAssessment> FleetMonitor::observe_batch(
    std::span<const FleetObservation> batch, parallel::ThreadPool& pool) {
  static const obs::SiteId kSite = obs::intern_site("monitor.observe_batch");
  obs::Span span(kSite);
  std::vector<RiskAssessment> out(batch.size());
  std::vector<std::vector<std::size_t>> at(shards_.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    at[shard_of(batch[i].uid(), shards_.size())].push_back(i);

  const std::shared_ptr<const ml::Classifier> model = current_model();
  // A single record (every observe()) is not worth a pool dispatch.
  if (pool.size() <= 1 || batch.size() <= 1) {
    for (std::size_t s = 0; s < shards_.size(); ++s)
      score_group(*model, *shards_[s], batch, at[s], out);
    return out;
  }
  // Each worker owns a stripe of shards, so a shard's group is scored by
  // exactly one thread (predict_proba degrades to sequential inside a pool
  // worker — the shard, not the row range, is the unit of parallelism,
  // which is what makes shard count the scaling knob).
  pool.run_on_all([&](unsigned w) {
    for (std::size_t s = w; s < shards_.size(); s += pool.size())
      score_group(*model, *shards_[s], batch, at[s], out);
  });
  return out;
}

void FleetMonitor::retire(trace::DriveModel drive_model, std::uint32_t drive_index) {
  const std::uint64_t uid = trace::drive_uid(drive_model, drive_index);
  Shard& shard = *shards_[shard_of(uid, shards_.size())];
  std::scoped_lock lock(shard.mutex);
  if (shard.kernel.retire(uid)) shard.metrics.on_drive_retired();
}

std::size_t FleetMonitor::drives_tracked() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    n += shard->kernel.drives_tracked();
  }
  return n;
}

std::uint64_t FleetMonitor::alerts_raised() const { return metrics().alerts_raised; }

MonitorMetricsSnapshot FleetMonitor::metrics() const {
  MonitorMetricsSnapshot total;
  for (const auto& shard : shards_) {
    MonitorMetricsSnapshot s = shard->metrics.snapshot();
    {
      std::scoped_lock lock(shard->mutex);
      s.sanitizer = shard->kernel.sanitizer().snapshot();
    }
    total.merge(s);
  }
  total.shards = shards_.size();
  total.drives_tracked = drives_tracked();
  total.degraded = degraded();
  return total;
}

}  // namespace ssdfail::core
