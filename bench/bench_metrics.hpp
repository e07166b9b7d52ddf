#pragma once

// Bridge between the obs metrics registry and google-benchmark's counter
// JSON, so every bench binary reports pipeline telemetry with the same
// keys the exporters use (docs/OBSERVABILITY.md, docs/BENCHMARKS.md).
//
// Two pieces:
//
//  - RegistryDelta: snapshot the global registry when constructed; after
//    the measurement loop, export_into() diffs against a fresh snapshot
//    and reports each counter family that moved as a per-iteration rate
//    in state.counters.  Benches share one process (and one registry), so
//    a before/after diff is what attributes increments to *this* bench.
//    Label sets are summed per family — shard/daemon labels vary by
//    instance, and a stable key matters more to a JSON consumer than the
//    breakdown.
//
//  - SSDFAIL_BENCH_MAIN(): BENCHMARK_MAIN() plus a post-run hook: when
//    SSDFAIL_BENCH_METRICS_OUT=<file> is set, publishes span stats and
//    dumps the full registry (labels and all) as JSON lines for offline
//    inspection.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <string_view>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace ssdfail::bench {

class RegistryDelta {
 public:
  RegistryDelta() : before_(obs::MetricsRegistry::global().snapshot()) {}

  /// Export every counter family whose name starts with `prefix` (all
  /// when empty) and whose total moved since construction, divided by the
  /// iteration count — deterministic per-iteration work, independent of
  /// how many iterations the harness chose.
  void export_into(benchmark::State& state, std::string_view prefix = {}) const {
    const obs::RegistrySnapshot after = obs::MetricsRegistry::global().snapshot();
    std::map<std::string, double> family_delta;
    for (const obs::Sample& s : after.samples) {
      if (s.type != obs::MetricType::kCounter) continue;
      if (!prefix.empty() && s.name.rfind(prefix, 0) != 0) continue;
      double baseline = 0.0;
      if (const obs::Sample* b = before_.find(s.name, s.labels)) baseline = b->value;
      if (s.value != baseline) family_delta[s.name] += s.value - baseline;
    }
    for (const auto& [name, delta] : family_delta)
      state.counters[name] =
          benchmark::Counter(delta, benchmark::Counter::kAvgIterations);
  }

 private:
  obs::RegistrySnapshot before_;
};

inline int run_benchmark_main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (const char* path = std::getenv("SSDFAIL_BENCH_METRICS_OUT")) {
    obs::TraceCollector::global().publish(obs::MetricsRegistry::global());
    std::ofstream out(path);
    obs::write_json_lines(out, obs::MetricsRegistry::global().snapshot());
  }
  return 0;
}

}  // namespace ssdfail::bench

#define SSDFAIL_BENCH_MAIN()                               \
  int main(int argc, char** argv) {                        \
    return ssdfail::bench::run_benchmark_main(argc, argv); \
  }
