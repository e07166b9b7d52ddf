#pragma once

// Exposition formats for a RegistrySnapshot.
//
// Two wire formats, both deterministic (family name asc, labels asc):
//
//  - Prometheus text format (version 0.0.4): `# HELP` / `# TYPE` headers
//    per family, `name{label="v"} value` samples, histograms expanded to
//    cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.
//    Validated by scripts/metrics_lint.py in CI.
//
//  - JSON lines: one self-contained JSON object per metric per line —
//    grep-able, appendable (the Snapshotter's streaming format), and
//    trivially consumed by the quick-bench harness:
//      {"name":"daemon_records_ingested_total","type":"counter",
//       "labels":{"shard":"3"},"value":12345}
//    Histograms carry "buckets":[{"le":50,"count":n},...] (cumulative,
//    final le is "+Inf"), "sum" and "count".

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"

namespace ssdfail::obs {

void write_prometheus(std::ostream& out, const RegistrySnapshot& snapshot);
[[nodiscard]] std::string to_prometheus(const RegistrySnapshot& snapshot);

void write_json_lines(std::ostream& out, const RegistrySnapshot& snapshot);
[[nodiscard]] std::string to_json_lines(const RegistrySnapshot& snapshot);

/// One JSON object (single line, no trailing newline) for one sample —
/// the Snapshotter emits these with an extra delta field.
[[nodiscard]] std::string to_json(const Sample& sample);

}  // namespace ssdfail::obs
