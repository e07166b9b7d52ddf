#include "online/drift.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "store/column_table.hpp"
#include "store/sharded.hpp"

namespace ssdfail::online {

std::size_t MarginalSketch::bin_of(std::int64_t v) noexcept {
  if (v <= 0) return 0;
  const std::size_t b = 1 + static_cast<std::size_t>(
                                std::bit_width(static_cast<std::uint64_t>(v)) - 1);
  return std::min(b, kDriftBins - 1);
}

void MarginalSketch::merge(const MarginalSketch& other) noexcept {
  for (std::size_t i = 0; i < kDriftBins; ++i) bins[i] += other.bins[i];
  n += other.n;
}

void FeatureSketches::add_record(const trace::DailyRecord& rec) noexcept {
  store::for_each_record_column(
      [&](std::size_t c, auto column) { columns[c].add(column.get(rec)); });
  ++rows;
}

void FeatureSketches::add_swap_day(std::int32_t day) noexcept {
  columns[static_cast<std::size_t>(store::ZoneColumn::kSwapDay)].add(day);
}

void FeatureSketches::merge(const FeatureSketches& other) noexcept {
  for (std::size_t c = 0; c < store::kNumZoneColumns; ++c)
    columns[c].merge(other.columns[c]);
  rows += other.rows;
}

std::string zone_column_name(store::ZoneColumn column) {
  return std::string(store::kColumnNames.at(static_cast<std::size_t>(column)));
}

FeatureSketches sketch_fleet(const store::ColumnarFleetView& view) {
  FeatureSketches out;
  for (std::size_t c = 0; c < view.chunk_count(); ++c) {
    const store::ChunkView& chunk = view.chunk(c);
    for (std::size_t i = 0; i < chunk.day.size(); ++i) out.add_record(chunk.record(i));
    for (const std::int32_t d : chunk.swap_days) out.add_swap_day(d);
  }
  return out;
}

FeatureSketches sketch_fleet(const store::ShardedFleetView& view) {
  FeatureSketches out;
  for (std::size_t s = 0; s < view.shard_count(); ++s)
    out.merge(sketch_fleet(view.shard(s)));
  return out;
}

DriftStat compare_sketches(const MarginalSketch& ref, const MarginalSketch& cur) noexcept {
  DriftStat stat;
  if (ref.n == 0 || cur.n == 0) return stat;
  // PSI with epsilon-smoothed proportions (empty bins otherwise blow the
  // log up); KS as the max gap between the two binned CDFs.
  constexpr double kEps = 1e-6;
  double cdf_ref = 0.0, cdf_cur = 0.0;
  for (std::size_t i = 0; i < kDriftBins; ++i) {
    const double p = std::max(static_cast<double>(ref.bins[i]) / ref.n, kEps);
    const double q = std::max(static_cast<double>(cur.bins[i]) / cur.n, kEps);
    stat.psi += (q - p) * std::log(q / p);
    cdf_ref += static_cast<double>(ref.bins[i]) / ref.n;
    cdf_cur += static_cast<double>(cur.bins[i]) / cur.n;
    stat.ks = std::max(stat.ks, std::abs(cdf_ref - cdf_cur));
  }
  return stat;
}

DriftReport compare_fleets(const FeatureSketches& reference,
                           const FeatureSketches& current, const DriftConfig& config) {
  DriftReport report;
  report.reference_rows = reference.rows;
  report.window_rows = current.rows;
  for (std::size_t c = 0; c < store::kNumZoneColumns; ++c) {
    report.columns[c] = compare_sketches(reference.columns[c], current.columns[c]);
    // Clock columns (day, swap day) drift by construction — two windows of
    // a live stream always cover different day ranges (binned KS is
    // exactly 1) — so they are reported but never drive the aggregates.
    if (c == static_cast<std::size_t>(store::ZoneColumn::kDay) ||
        c == static_cast<std::size_t>(store::ZoneColumn::kSwapDay))
      continue;
    if (report.columns[c].psi > report.max_psi) {
      report.max_psi = report.columns[c].psi;
      report.worst_column = c;
    }
    report.max_ks = std::max(report.max_ks, report.columns[c].ks);
  }
  report.alert = current.rows >= config.min_window_rows &&
                 (report.max_psi >= config.psi_alert || report.max_ks >= config.ks_alert);
  return report;
}

DriftDetector::DriftDetector(DriftConfig config, obs::MetricsRegistry* registry)
    : config_(config) {
  if (registry == nullptr) return;
  alerts_total_ = &registry->counter("online_drift_alerts_total", {},
                                     "Drift alerts fired (edge-triggered)");
  alert_gauge_ = &registry->gauge("online_drift_alert", {},
                                  "1 while feature drift exceeds thresholds");
  window_rows_gauge_ = &registry->gauge("online_drift_window_rows", {},
                                        "Records in the current drift window");
  max_psi_gauge_ = &registry->gauge("online_drift_max_psi", {},
                                    "Worst per-column PSI, window vs reference");
  max_ks_gauge_ = &registry->gauge("online_drift_max_ks", {},
                                   "Worst per-column binned KS distance");
  for (std::size_t c = 0; c < store::kNumZoneColumns; ++c) {
    const std::string column = zone_column_name(static_cast<store::ZoneColumn>(c));
    psi_gauges_[c] = &registry->gauge("online_drift_psi", {{"column", column}},
                                      "Per-column PSI, window vs reference");
    ks_gauges_[c] = &registry->gauge("online_drift_ks", {{"column", column}},
                                     "Per-column binned KS, window vs reference");
  }
}

void DriftDetector::set_reference(FeatureSketches reference) {
  std::scoped_lock lock(mutex_);
  reference_ = std::move(reference);
}

bool DriftDetector::has_reference() const {
  std::scoped_lock lock(mutex_);
  return reference_.has_value();
}

void DriftDetector::observe(const trace::DailyRecord& rec) {
  std::scoped_lock lock(mutex_);
  window_.add_record(rec);
}

void DriftDetector::observe_swap_day(std::int32_t day) {
  std::scoped_lock lock(mutex_);
  window_.add_swap_day(day);
}

DriftReport DriftDetector::evaluate() {
  DriftReport report;
  bool fired = false;
  {
    std::scoped_lock lock(mutex_);
    if (!reference_) {
      report.window_rows = window_.rows;
    } else {
      report = compare_fleets(*reference_, window_, config_);
    }
    fired = report.alert && !alerting_;
    alerting_ = report.alert;
  }
  if (alert_gauge_ != nullptr) {
    alert_gauge_->set(report.alert ? 1.0 : 0.0);
    window_rows_gauge_->set(static_cast<double>(report.window_rows));
    max_psi_gauge_->set(report.max_psi);
    max_ks_gauge_->set(report.max_ks);
    for (std::size_t c = 0; c < store::kNumZoneColumns; ++c) {
      psi_gauges_[c]->set(report.columns[c].psi);
      ks_gauges_[c]->set(report.columns[c].ks);
    }
    if (fired) alerts_total_->inc();
  }
  return report;
}

void DriftDetector::reset_window() {
  std::scoped_lock lock(mutex_);
  window_ = FeatureSketches{};
  alerting_ = false;
}

void DriftDetector::adopt_window_as_reference() {
  std::scoped_lock lock(mutex_);
  reference_ = window_;
  window_ = FeatureSketches{};
  alerting_ = false;
}

FeatureSketches DriftDetector::window_snapshot() const {
  std::scoped_lock lock(mutex_);
  return window_;
}

std::uint64_t DriftDetector::window_rows() const {
  std::scoped_lock lock(mutex_);
  return window_.rows;
}

}  // namespace ssdfail::online
