#pragma once

// Registry differ: each tick() captures a RegistrySnapshot and reports
// what moved since the previous capture.  The caller owns the clock: the
// CLI's `serve --metrics-stream` ticks once per replay day, right after
// TelemetryDaemon::drain(), so a replay gives the same stream every run.
//
// Counter samples report value + delta since the previous capture; gauge
// samples report value + delta; histogram samples report count/sum deltas
// through their Sample (the delta field carries the count delta).

#include <vector>

#include "obs/metrics.hpp"

namespace ssdfail::obs {

/// One metric's movement between two captures.
struct SampleDelta {
  Sample sample;       ///< current values
  double delta = 0.0;  ///< value change (histogram: observation-count change)
};

class Snapshotter {
 public:
  explicit Snapshotter(MetricsRegistry& registry) : registry_(registry) {}

  /// Capture now and return the deltas vs the previous capture.  New
  /// samples (and every sample on the first call) delta from zero.
  std::vector<SampleDelta> tick();

  /// Most recent capture (empty before the first tick).
  [[nodiscard]] const RegistrySnapshot& last() const { return last_; }

 private:
  MetricsRegistry& registry_;
  RegistrySnapshot last_;
};

}  // namespace ssdfail::obs
