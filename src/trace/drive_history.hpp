#pragma once

// Per-drive trace container plus simulator-side ground truth.
//
// Analysis code (src/core) must treat `records` + `swaps` as the only
// observable data, exactly like the paper's authors: failure points are
// *re-derived* from activity patterns, never read from GroundTruth.
// GroundTruth exists so tests can check that the re-derivation is correct.

#include <cstdint>
#include <optional>
#include <vector>

#include "trace/schema.hpp"

namespace ssdfail::trace {

/// Simulator-internal truth about a drive's life; hidden from analysis.
struct GroundTruth {
  /// Days on which the drive actually failed (simulator decision).
  std::vector<std::int32_t> failure_days;
  /// True if the drive was generated in the "silent failure" mode for the
  /// corresponding failure (no error symptoms at all).
  std::vector<bool> silent;
  /// Latent frailty multiplier (hazard scale) assigned to the drive.
  double frailty = 1.0;
  /// Latent error-proneness multiplier.
  double error_proneness = 1.0;
};

/// Complete observable history of one drive within the trace window.
struct DriveHistory {
  DriveModel model = DriveModel::MlcA;
  std::uint32_t drive_index = 0;   ///< unique within its model
  std::int32_t deploy_day = 0;     ///< first day the drive could report

  /// Daily records, strictly increasing in `day`.  Gaps are real: a missing
  /// day means the drive did not report (log loss or non-operation).
  std::vector<DailyRecord> records;

  /// Swap events, strictly increasing in `day`.
  std::vector<SwapEvent> swaps;

  /// Simulator-only ground truth (not populated when reading real traces).
  std::optional<GroundTruth> truth;

  /// Globally unique drive id across models (model-tagged).
  [[nodiscard]] std::uint64_t uid() const noexcept {
    return drive_uid(model, drive_index);
  }

  /// Day of the last record, or deploy_day-1 if the drive never reported.
  [[nodiscard]] std::int32_t last_observed_day() const noexcept {
    return records.empty() ? deploy_day - 1 : records.back().day;
  }

  /// Age (days since deploy) of the last observation ("Max Age" in Fig 1).
  [[nodiscard]] std::int32_t max_observed_age() const noexcept {
    return last_observed_day() - deploy_day + 1;
  }

  /// End-of-history cumulative counters.
  [[nodiscard]] CumulativeState final_cumulative() const noexcept {
    CumulativeState c;
    for (const auto& r : records) c.apply(r);
    return c;
  }
};

/// An in-memory fleet (used by tests, examples, and small experiments; the
/// bench pipeline streams drives instead of materializing the fleet).
struct FleetTrace {
  std::vector<DriveHistory> drives;

  [[nodiscard]] std::size_t total_records() const noexcept {
    std::size_t n = 0;
    for (const auto& d : drives) n += d.records.size();
    return n;
  }
  [[nodiscard]] std::size_t total_swaps() const noexcept {
    std::size_t n = 0;
    for (const auto& d : drives) n += d.swaps.size();
    return n;
  }
};

}  // namespace ssdfail::trace
