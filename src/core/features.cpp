#include "core/features.hpp"

#include <cmath>
#include <stdexcept>

namespace ssdfail::core {

const std::vector<std::string>& FeatureExtractor::names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> n;
    // Daily values.
    n.emplace_back("read_count");
    n.emplace_back("write_count");
    n.emplace_back("erase_count");
    for (trace::ErrorType e : trace::kAllErrorTypes)
      n.push_back(std::string(trace::error_name(e)) + "_error");
    n.emplace_back("new_bad_blocks");
    // Cumulative values.
    n.emplace_back("cum_read_count");
    n.emplace_back("cum_write_count");
    n.emplace_back("cum_erase_count");
    for (trace::ErrorType e : trace::kAllErrorTypes)
      n.push_back("cum_" + std::string(trace::error_name(e)) + "_error");
    n.emplace_back("cum_bad_block_count");
    // Scalars.
    n.emplace_back("pe_cycles");
    n.emplace_back("drive_age_days");
    n.emplace_back("status_read_only");
    n.emplace_back("corr_err_rate");
    // Class-specific channels (zero outside the owning device class, so
    // MLC-only datasets just carry constant columns the forest ignores).
    n.emplace_back("reallocated_sectors");   // HDD, cumulative in the record
    n.emplace_back("seek_errors");           // HDD, daily
    n.emplace_back("cum_seek_errors");
    n.emplace_back("media_wear");            // NVMe, cumulative in the record
    n.emplace_back("throttle_events");       // NVMe, daily
    n.emplace_back("cum_throttle_events");
    return n;
  }();
  return kNames;
}

std::size_t FeatureExtractor::index_of(const std::string& name) {
  const auto& all = names();
  for (std::size_t i = 0; i < all.size(); ++i)
    if (all[i] == name) return i;
  throw std::out_of_range("FeatureExtractor: unknown feature '" + name + "'");
}

std::size_t FeatureExtractor::age_index() {
  static const std::size_t kIndex = index_of("drive_age_days");
  return kIndex;
}

void FeatureExtractor::advance(State& state, const trace::DailyRecord& rec) noexcept {
  state.cum.apply(rec);
  state.cum_bad_blocks =
      static_cast<std::uint64_t>(rec.bad_blocks) + rec.factory_bad_blocks;
  state.new_bad_blocks_today =
      rec.bad_blocks >= state.prev_bad_blocks ? rec.bad_blocks - state.prev_bad_blocks : 0;
  state.prev_bad_blocks = rec.bad_blocks;
  state.cum_seek_errors += rec.seek_errors;
  state.cum_throttle_events += rec.throttle_events;
}

void FeatureExtractor::extract(std::int32_t deploy_day, const trace::DailyRecord& rec,
                               const State& state, std::span<float> out) {
  if (out.size() != count()) throw std::invalid_argument("FeatureExtractor: bad span size");
  std::size_t i = 0;
  // Daily values — raw counts, as in the paper's pipeline (tree models are
  // scale-invariant; the linear/distance models pay for the heavy tails,
  // which is part of why they trail the forest in Table 6).
  out[i++] = static_cast<float>(rec.reads);
  out[i++] = static_cast<float>(rec.writes);
  out[i++] = static_cast<float>(rec.erases);
  for (trace::ErrorType e : trace::kAllErrorTypes)
    out[i++] = static_cast<float>(rec.error(e));
  out[i++] = static_cast<float>(state.new_bad_blocks_today);
  // Cumulative values.
  out[i++] = static_cast<float>(state.cum.reads);
  out[i++] = static_cast<float>(state.cum.writes);
  out[i++] = static_cast<float>(state.cum.erases);
  for (trace::ErrorType e : trace::kAllErrorTypes)
    out[i++] = static_cast<float>(state.cum.error(e));
  out[i++] = static_cast<float>(state.cum_bad_blocks);
  // Scalars.
  out[i++] = static_cast<float>(rec.pe_cycles);
  out[i++] = static_cast<float>(rec.day - deploy_day);
  out[i++] = rec.read_only ? 1.0f : 0.0f;
  const double corr = static_cast<double>(state.cum.error(trace::ErrorType::kCorrectable));
  const double reads = static_cast<double>(state.cum.reads);
  out[i++] = static_cast<float>(corr / std::max(reads, 1.0));
  // Class-specific channels.
  out[i++] = static_cast<float>(rec.reallocated_sectors);
  out[i++] = static_cast<float>(rec.seek_errors);
  out[i++] = static_cast<float>(state.cum_seek_errors);
  out[i++] = static_cast<float>(rec.media_wear);
  out[i++] = static_cast<float>(rec.throttle_events);
  out[i++] = static_cast<float>(state.cum_throttle_events);
}

const std::vector<std::string>& RollingWindow::names() {
  static const std::vector<std::string> kNames = {
      "ue_7d",             // uncorrectable errors over the trailing window
      "final_read_7d",     // final read errors over the window
      "new_bad_blocks_7d", // bad blocks developed in the window
      "error_days_7d",     // days in the window with any non-transparent error
      "writes_rel_7d",     // today's writes relative to the window mean
  };
  return kNames;
}

void RollingWindow::evict(std::int32_t current_day) {
  std::erase_if(window_, [&](const DayEntry& e) {
    return e.day <= current_day - kWindowDays;
  });
}

void RollingWindow::advance(const trace::DailyRecord& rec, std::uint32_t new_bad_blocks) {
  evict(rec.day);
  DayEntry entry;
  entry.day = rec.day;
  entry.ue = rec.error(trace::ErrorType::kUncorrectable);
  entry.final_read = rec.error(trace::ErrorType::kFinalRead);
  entry.new_bad_blocks = new_bad_blocks;
  entry.writes = rec.writes;
  entry.any_nontransparent = rec.any_nontransparent_error();
  window_.push_back(entry);
}

void RollingWindow::extract(std::span<float> out) const {
  if (out.size() != count()) throw std::invalid_argument("RollingWindow: bad span size");
  double ue = 0.0;
  double final_read = 0.0;
  double bad_blocks = 0.0;
  double error_days = 0.0;
  double writes_sum = 0.0;
  for (const DayEntry& e : window_) {
    ue += e.ue;
    final_read += e.final_read;
    bad_blocks += e.new_bad_blocks;
    if (e.any_nontransparent) error_days += 1.0;
    writes_sum += e.writes;
  }
  const double today_writes = window_.empty() ? 0.0 : window_.back().writes;
  const double mean_writes = window_.empty()
                                 ? 0.0
                                 : writes_sum / static_cast<double>(window_.size());
  std::size_t i = 0;
  out[i++] = static_cast<float>(ue);
  out[i++] = static_cast<float>(final_read);
  out[i++] = static_cast<float>(bad_blocks);
  out[i++] = static_cast<float>(error_days);
  out[i++] = static_cast<float>(today_writes / std::max(mean_writes, 1.0));
}

DriveFeatureCursor::DriveFeatureCursor(trace::DriveModel /*drive_model*/,
                                       std::int32_t deploy_day)
    : deploy_day_(deploy_day), last_day_(deploy_day - 1) {}

void DriveFeatureCursor::advance_and_extract(const trace::DailyRecord& rec,
                                             std::span<float> out) {
  if (rec.day <= last_day_)
    throw std::invalid_argument("DriveFeatureCursor: records must be in day order");
  last_day_ = rec.day;
  ++days_observed_;
  FeatureExtractor::advance(state_, rec);
  FeatureExtractor::extract(deploy_day_, rec, state_, out);
}

}  // namespace ssdfail::core
