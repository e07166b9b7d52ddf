#pragma once

// Operational counters for the fleet-scoring service (online_monitor.hpp;
// beyond the paper: serving infrastructure for its Section 5 models).
//
// Since the observability layer landed (src/obs/, docs/OBSERVABILITY.md),
// this is a FAÇADE over obs::MetricsRegistry: each shard's counter block
// interns registry families labeled {monitor=<id>, shard=<k>}, hot-path
// increments are the registry's striped lock-free atomics, and score
// latency lands in a registry histogram with the same 40 x 50us layout the
// old mutex-guarded stats::Histogram used (that mutex path is gone).
//
// The snapshot API is unchanged: callers still get a plain, mergeable
// MonitorMetricsSnapshot — snapshot() reads the registry values back and
// reconstructs the stats::Histogram bin-for-bin — while exposition
// (Prometheus text / JSON lines) reads the same families straight from the
// registry for free.
//
// Sanitizer counters (repairs, quarantines, dead letters) live in the
// per-shard robustness::RecordSanitizer under the shard mutex; the fleet
// snapshot folds them in here so one report covers the whole pipeline.

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "robustness/record_sanitizer.hpp"
#include "stats/histogram.hpp"
#include "trace/validation.hpp"

namespace ssdfail::core {

/// Score-latency histogram range: [0, kScoreLatencyMaxUs) microseconds per
/// record; out-of-range observations clamp to the edge bins.
inline constexpr double kScoreLatencyMaxUs = 2000.0;
inline constexpr std::size_t kScoreLatencyBins = 40;

/// Point-in-time aggregate of monitor counters (plain values, mergeable).
struct MonitorMetricsSnapshot {
  std::uint64_t records_scored = 0;
  std::uint64_t alerts_raised = 0;
  std::uint64_t drives_created = 0;
  std::uint64_t drives_retired = 0;
  std::uint64_t batches_scored = 0;
  std::uint64_t out_of_order_dropped = 0;
  std::uint64_t non_finite_scores = 0;  ///< model emitted NaN/inf; clamped to 1.0
  std::uint64_t drives_tracked = 0;  ///< currently resident (filled by FleetMonitor)
  std::uint64_t shards = 0;          ///< shard count (filled by FleetMonitor)
  bool degraded = false;             ///< serving on the fallback model (FleetMonitor)
  robustness::SanitizerSnapshot sanitizer;  ///< repairs/quarantines/dead letters
  stats::Histogram score_latency_us{0.0, kScoreLatencyMaxUs, kScoreLatencyBins};

  /// Fold another snapshot in (counter sums + histogram merge).
  void merge(const MonitorMetricsSnapshot& other);

  /// Per-record score latency quantile (microseconds) estimated from the
  /// histogram (upper edge of the bin where the cumulative mass crosses q);
  /// 0 when nothing was recorded.
  [[nodiscard]] double latency_quantile_us(double q) const;

  /// Multi-line human-readable dump (the CLI `serve` report).
  [[nodiscard]] std::string to_text() const;
};

/// One shard's counters, registry-backed.  Every increment — including
/// add_score_latency — is lock-free.
class MonitorMetrics {
 public:
  /// Interns this block's families in `registry` under `labels`; the
  /// FleetMonitor passes {monitor=<instance>, shard=<k>} so concurrent
  /// monitors (tests, benches) never share children.  The returned
  /// references are stable for the registry's lifetime, which must cover
  /// this object's.
  MonitorMetrics(obs::MetricsRegistry& registry, const obs::Labels& labels);

  void on_scored(std::uint64_t records, std::uint64_t alerts) noexcept {
    records_scored_.inc(records);
    alerts_raised_.inc(alerts);
  }
  void on_batch() noexcept { batches_scored_.inc(); }
  void on_drives_created(std::uint64_t drives) noexcept {
    drives_created_.inc(drives);
    drives_tracked_.add(static_cast<double>(drives));
  }
  void on_drive_retired() noexcept {
    drives_retired_.inc();
    drives_tracked_.add(-1.0);
  }
  void on_out_of_order() noexcept { out_of_order_dropped_.inc(); }
  void on_non_finite(std::uint64_t scores) noexcept { non_finite_scores_.inc(scores); }

  /// Record the mean per-record scoring latency for `records` records.
  void add_score_latency(double us_per_record, std::uint64_t records) noexcept {
    latency_us_.observe(us_per_record, records);
  }

  [[nodiscard]] MonitorMetricsSnapshot snapshot() const;

 private:
  obs::Counter& records_scored_;
  obs::Counter& alerts_raised_;
  obs::Counter& drives_created_;
  obs::Counter& drives_retired_;
  obs::Counter& batches_scored_;
  obs::Counter& out_of_order_dropped_;
  obs::Counter& non_finite_scores_;
  obs::Gauge& drives_tracked_;
  obs::Histogram& latency_us_;
};

}  // namespace ssdfail::core
