#pragma once

// Feature extraction (Section 5.1): for every workload/error statistic we
// include the DAILY value (current behavior) and the CUMULATIVE value
// (lifetime summary), plus drive age, P/E cycles, the read-only flag, and
// the correctable-error rate ("corr err rate", a Fig 16 feature).
//
// Counts are fed RAW (the paper's protocol).  Their heavy tails hurt the
// distance/gradient models even after z-scoring — a real effect that
// contributes to the forest's Table 6 lead.

#include <span>
#include <string>
#include <vector>

#include "trace/drive_history.hpp"

namespace ssdfail::core {

class FeatureExtractor {
 public:
  /// Feature names in column order (Fig 16 uses these labels).
  [[nodiscard]] static const std::vector<std::string>& names();

  [[nodiscard]] static std::size_t count() { return names().size(); }

  /// Column index of a named feature; throws std::out_of_range if absent.
  [[nodiscard]] static std::size_t index_of(const std::string& name);

  /// Running per-drive state; apply records in day order.
  struct State {
    trace::CumulativeState cum;
    std::uint64_t cum_bad_blocks = 0;      ///< latest observed (already cumulative)
    std::uint32_t prev_bad_blocks = 0;     ///< previous record's cumulative count
    std::uint32_t new_bad_blocks_today = 0;///< delta computed by advance()
    // Class-specific daily channels accumulated over the drive's life
    // (identically zero outside the owning device class).
    std::uint64_t cum_seek_errors = 0;     ///< HDD
    std::uint64_t cum_throttle_events = 0; ///< NVMe
  };

  /// Fold one record into the state (call before extract for that record).
  static void advance(State& state, const trace::DailyRecord& rec) noexcept;

  /// Fill `out` (size count()) with the feature vector for `rec` of a
  /// drive deployed on `deploy_day`, given the state AFTER
  /// advance(state, rec).
  static void extract(std::int32_t deploy_day, const trace::DailyRecord& rec,
                      const State& state, std::span<float> out);

  /// Index of the raw drive-age column (used by age-split experiments).
  [[nodiscard]] static std::size_t age_index();
};

/// The per-drive online feature state of the streaming scoring kernel
/// (core::ScoringShard, behind the telemetry daemon): it advances cumulative state record-by-record and emits one
/// feature row per accepted record, so the daemon's WAL recovery rebuilds
/// state through the exact code path the live path used — the
/// bit-identity the replay tests pin.
class DriveFeatureCursor {
 public:
  /// Features read only `deploy_day`; `drive_model` is not stored.
  DriveFeatureCursor(trace::DriveModel drive_model, std::int32_t deploy_day);

  /// Fold `rec` into the cumulative state and fill `out` (size
  /// FeatureExtractor::count()) with its feature row.  Records must arrive
  /// in strictly increasing day order; throws std::invalid_argument
  /// otherwise (sanitized streams never trip this).
  void advance_and_extract(const trace::DailyRecord& rec, std::span<float> out);

  [[nodiscard]] std::int32_t last_day() const noexcept { return last_day_; }
  [[nodiscard]] std::uint64_t days_observed() const noexcept { return days_observed_; }
  [[nodiscard]] const FeatureExtractor::State& state() const noexcept { return state_; }

 private:
  std::int32_t deploy_day_;
  FeatureExtractor::State state_;
  std::int32_t last_day_;
  std::uint64_t days_observed_ = 0;
};

/// EXTENSION (paper §7: "improve our prediction models for large N"):
/// trailing-window features summarizing the last kWindowDays of behavior.
/// The paper's features are daily + lifetime-cumulative; a drive's RECENT
/// error trajectory and relative activity level carry the medium-horizon
/// signal that daily snapshots miss.  Enabled via
/// DatasetBuildOptions::rolling_features; evaluated in bench_ext_rolling.
class RollingWindow {
 public:
  static constexpr std::int32_t kWindowDays = 7;

  /// Names of the extra feature columns.
  [[nodiscard]] static const std::vector<std::string>& names();
  [[nodiscard]] static std::size_t count() { return names().size(); }

  /// Fold in one record (records must arrive in day order).
  void advance(const trace::DailyRecord& rec, std::uint32_t new_bad_blocks);

  /// Fill `out` (size count()) with the window features for the most
  /// recently advanced day.
  void extract(std::span<float> out) const;

 private:
  struct DayEntry {
    std::int32_t day = 0;
    std::uint32_t ue = 0;
    std::uint32_t final_read = 0;
    std::uint32_t new_bad_blocks = 0;
    std::uint32_t writes = 0;
    bool any_nontransparent = false;
  };
  void evict(std::int32_t current_day);

  std::vector<DayEntry> window_;  // entries within [current-kWindowDays+1, current]
};

}  // namespace ssdfail::core
