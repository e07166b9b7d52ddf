#pragma once

// The unit of fleet-scoring ingestion (beyond the paper: serving
// infrastructure for its Section 5 models), factored out of
// online_monitor.hpp so stream-level tooling (robustness::FaultInjector,
// replay drivers) can consume the type without depending on the monitor
// itself.

#include <cstdint>

#include "trace/schema.hpp"

namespace ssdfail::core {

/// One drive-day for the scoring paths.  Records for the same drive must
/// appear in increasing day order within and across batches; the sanitizer
/// quarantines the ones that don't.
struct FleetObservation {
  trace::DriveModel drive_model = trace::DriveModel::MlcA;
  std::uint32_t drive_index = 0;
  std::int32_t deploy_day = 0;
  trace::DailyRecord record;

  /// Globally unique drive id across models (matches DriveHistory::uid).
  [[nodiscard]] std::uint64_t uid() const noexcept {
    return trace::drive_uid(drive_model, drive_index);
  }
};

}  // namespace ssdfail::core
