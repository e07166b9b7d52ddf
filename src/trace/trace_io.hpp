#pragma once

// Trace (de)serialization.
//
// CSV layout mirrors the daily-log schema one row per drive-day, plus a
// separate swap-event file — i.e. the same "two logs" structure the paper
// works from.  Ground truth is intentionally not serialized: a written
// trace contains exactly what a real data center would have.

#include <iosfwd>
#include <string>

#include "trace/drive_history.hpp"

namespace ssdfail::trace {

/// Header written as the first CSV row of a daily log.
[[nodiscard]] std::string daily_log_header();

/// Write all drives' daily records as CSV (one row per drive-day, every
/// DailyRecord column of store::kColumnTable).
void write_daily_log(std::ostream& out, const FleetTrace& fleet);

/// Write all swap events as CSV: drive uid, model, day.
void write_swap_log(std::ostream& out, const FleetTrace& fleet);

/// Read a fleet back from the two CSV logs produced above.  Daily logs
/// written before the class-specific counter columns existed (23 columns,
/// docs/DATA_FORMAT.md) still read, with those counters 0.
/// Throws std::runtime_error on malformed input.
[[nodiscard]] FleetTrace read_fleet(std::istream& daily_log, std::istream& swap_log);

}  // namespace ssdfail::trace
