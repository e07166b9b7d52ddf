#pragma once

// The unit of fleet-scoring ingestion (beyond the paper: serving
// infrastructure for its Section 5 models), kept apart from the daemon so
// stream-level tooling (robustness::FaultInjector, replay tools) can
// consume the type without depending on the scorer.  day_ordered_stream()
// is the one builder of a replay stream from a materialized fleet.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "trace/drive_history.hpp"
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

/// Every record of `fleet` as one replay stream, in the order a live fleet
/// reports: day-major, and in fleet order within a day.
inline std::vector<FleetObservation> day_ordered_stream(const trace::FleetTrace& fleet) {
  std::vector<FleetObservation> stream;
  stream.reserve(fleet.total_records());
  for (const trace::DriveHistory& d : fleet.drives)
    for (const trace::DailyRecord& r : d.records)
      stream.push_back({d.model, d.drive_index, d.deploy_day, r});
  std::stable_sort(stream.begin(), stream.end(),
                   [](const FleetObservation& a, const FleetObservation& b) {
                     return a.record.day < b.record.day;
                   });
  return stream;
}

}  // namespace ssdfail::core
