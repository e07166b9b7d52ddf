#pragma once

// Online (streaming) failure monitoring: the production embodiment of the
// paper's Section 5 prediction models (beyond the paper's offline study).
// Each daily record of a drive yields a risk score and an optional alert
// against a configured threshold.
//
// FleetMonitor is the in-memory front end over the shared scoring kernel
// (core::ScoringShard, scoring_shard.hpp): drives are partitioned into N
// shards by uid hash, each shard holding one mutex, one ScoringShard and
// one metrics block, so observe() calls from many threads contend only
// when they hit the same shard.  observe_batch() routes a stream of
// records to their shards and runs each shard's group through the kernel
// (one predict_proba matrix call per group), shards in parallel on a
// thread pool; observe() is observe_batch() of one record.  Scores do not
// depend on the batching or the shard count.
//
// The kernel sanitizes every record first: repairable violations (counter
// regressions, factory-count drift, erase-on-idle garbage) are fixed and
// scored, exact duplicates are dropped, and irreparable records
// (out-of-order days, pre-deploy records, saturated garbage) are
// quarantined to a bounded dead-letter queue.  Nothing throws on bad data.
// Non-finite model scores are clamped to 1.0 (conservative alert) and
// counted, so a broken model degrades loudly instead of silently.  The
// telemetry daemon (src/daemon) runs the same kernel behind its WAL.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/monitor_metrics.hpp"
#include "core/scoring_shard.hpp"
#include "parallel/thread_pool.hpp"

namespace ssdfail::core {

/// Daily risk assessment for one drive.
struct RiskAssessment {
  float risk = 0.0f;        ///< model score in [0, 1]
  bool alert = false;       ///< risk >= threshold
  bool dropped = false;     ///< record not scored (quarantined or duplicate)
  bool repaired = false;    ///< scored after a sanitizer repair
  bool quarantined = false; ///< routed to the dead-letter queue
};

/// Sharded fleet-wide monitor: lazily creates a drive's state on first
/// sight; a retired drive's next observation recreates fresh state.
class FleetMonitor {
 public:
  /// `shards` >= 1 partitions drive state for concurrent callers; size it
  /// near the number of scoring threads (scores do not depend on it).
  /// Metrics are interned in `registry` (the process-global registry when
  /// null) under labels {monitor=<instance>, shard=<k>}, so each
  /// FleetMonitor gets its own registry children.
  FleetMonitor(std::shared_ptr<const ml::Classifier> model, double threshold,
               std::size_t shards = 1,
               robustness::SanitizerConfig sanitizer_config = {},
               obs::MetricsRegistry* registry = nullptr);

  /// Observe one record for the given drive: observe_batch() of one record
  /// (thread-safe; locks only the drive's shard).  A quarantined/duplicate
  /// record comes back with `dropped = true`.
  RiskAssessment observe(trace::DriveModel drive_model, std::uint32_t drive_index,
                         std::int32_t deploy_day, const trace::DailyRecord& record);

  /// Score a batch: records are grouped by shard, each shard's group runs
  /// through its ScoringShard (one predict_proba call), and shards run in
  /// parallel on `pool` (each worker owns a stripe of shards, so per-shard
  /// work stays sequential and deterministic).  Results are positionally
  /// aligned with `batch`.  Never throws on bad data.
  std::vector<RiskAssessment> observe_batch(
      std::span<const FleetObservation> batch,
      parallel::ThreadPool& pool = parallel::ThreadPool::global());

  /// Drop a drive's state (it was swapped out).  Thread-safe.
  void retire(trace::DriveModel drive_model, std::uint32_t drive_index);

  /// Hot-swap the scoring model (degraded-mode fallback / reload).
  /// Concurrent observers see either model; per-drive feature state
  /// carries over untouched.  Every batch scores on a model snapshot it
  /// holds alive for the duration of the call, so the swap is safe
  /// without stopping ingestion.
  void set_model(std::shared_ptr<const ml::Classifier> model);

  /// Mark (or clear) degraded mode; surfaced through metrics() and the
  /// monitor_degraded registry gauge.
  void set_degraded(bool degraded) noexcept {
    degraded_.store(degraded, std::memory_order_relaxed);
    degraded_gauge_->set(degraded ? 1.0 : 0.0);
  }
  [[nodiscard]] bool degraded() const noexcept {
    return degraded_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t drives_tracked() const;
  [[nodiscard]] std::uint64_t alerts_raised() const;

  /// Aggregated counters across all shards (monitor + sanitizer).
  [[nodiscard]] MonitorMetricsSnapshot metrics() const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    ScoringShard kernel;
    MonitorMetrics metrics;

    Shard(double threshold, robustness::SanitizerConfig config,
          obs::MetricsRegistry& registry, const obs::Labels& labels)
        : kernel(threshold, config), metrics(registry, labels) {}
  };

  /// Run the records batch[at[k]] through `shard`'s kernel and write the
  /// assessment of batch[at[k]] to out[at[k]].
  void score_group(const ml::Classifier& model, Shard& shard,
                   std::span<const FleetObservation> batch,
                   std::span<const std::size_t> at, std::span<RiskAssessment> out);
  [[nodiscard]] std::shared_ptr<const ml::Classifier> current_model() const;

  mutable std::mutex model_mutex_;  ///< guards model_ swap vs batch snapshot
  std::shared_ptr<const ml::Classifier> model_;
  std::atomic<bool> degraded_{false};
  obs::Gauge* degraded_gauge_;  ///< registry mirror of degraded_ (per instance)
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ssdfail::core
