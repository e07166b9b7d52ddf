#pragma once

// Shared plumbing for the perfbench workloads: options, timing, the
// closed-loop runner, percentiles, peak-RSS control, span reading for
// traced runs, and the result record main() prints.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/fleet_observation.hpp"
#include "ml/dataset.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/fleet_simulator.hpp"
#include "trace/drive_history.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory inside the checkout
  unsigned nproc = 1;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one workload run reports: the operation counts for the result
/// line, the metrics of the requested mode, and human-readable context.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> report;  ///< printed before the result line
  std::map<std::string, std::string> config;  ///< recorded run configuration

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  void note(std::string line) { report.push_back(std::move(line)); }
};

/// Fails the run (nonzero exit, no result line) when an output check
/// does not hold.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Percentile by linear interpolation between closest ranks; sorts a copy.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(const std::vector<double>& values);

/// Reset the kernel's peak-RSS mark (VmHWM) to the current RSS, so what
/// follows reports its own peak.  Returns false if the kernel refused.
bool reset_peak_rss();
/// VmHWM of this process in MB.
[[nodiscard]] double peak_rss_mb();

/// Time `repeats` runs of `setup`, keep the last run's product, and
/// return the median wall time (setup_s).
[[nodiscard]] double timed_setup(int repeats, const std::function<void()>& setup);

/// Run `setup` in a forked child process and return the text it returns;
/// the child exits once it has written it, and the parent waits for it.
/// Set-up that only leaves files behind runs this way so that its heap
/// never enters the measured process: glibc's malloc_trim does not return
/// the free tops of the worker threads' arenas, and what fleet generation
/// leaves there varies from run to run by several MB.  The child must not
/// use the parent's thread pools; it may start its own.
[[nodiscard]] std::string run_in_child(const std::function<std::string()>& setup);

/// Generate a fleet with the drives spread over `pool`.  Drive i depends
/// only on (seed, model, i), so the result does not depend on the pool.
[[nodiscard]] ssdfail::trace::FleetTrace generate_fleet(
    const ssdfail::sim::FleetConfig& config, ssdfail::parallel::ThreadPool& pool);

/// The fleet's records as one stream in day order (drives in fleet order
/// within a day), the order a telemetry collector delivers them.
[[nodiscard]] std::vector<ssdfail::core::FleetObservation> day_ordered_stream(
    const ssdfail::trace::FleetTrace& fleet);

/// A study fleet as scan and train_cv use it: the paper's three MLC
/// models over the full six-year window.
[[nodiscard]] ssdfail::sim::FleetConfig study_fleet_config(std::uint64_t seed,
                                                           std::uint32_t drives_per_model);

/// A study fleet whose failure count does not depend on the seed: per
/// model, the first `failed` drives (in index order) that were swapped in
/// the window and the first `healthy` ones that were not.  Training work
/// scales with the failures, so a fleet drawn at random would make it
/// swing with the seed.
[[nodiscard]] ssdfail::trace::FleetTrace stratified_fleet(std::uint64_t seed,
                                                         std::uint32_t failed,
                                                         std::uint32_t healthy,
                                                         ssdfail::parallel::ThreadPool& pool);

/// Median of a registry histogram's observations made between two
/// snapshots, interpolated inside the bucket that holds it.
[[nodiscard]] double histogram_delta_median(std::string_view name,
                                            const ssdfail::obs::RegistrySnapshot& before,
                                            const ssdfail::obs::RegistrySnapshot& after);

/// Order-sensitive digest of a dataset's rows, labels and groups.
[[nodiscard]] std::uint64_t dataset_digest(const ssdfail::ml::Dataset& data);

/// Hash of a file's bytes (0 for a missing file).
[[nodiscard]] std::uint64_t file_digest(const std::string& path);

/// Memory operations per run: one per train_cv fleet.
inline constexpr int kMemoryOps = 8;

/// Closed-loop timing: one caller issues the next operation when the
/// previous one returns.  `op` times its own operation and returns
/// {seconds, rows}; `check` then verifies that operation's output, after
/// VmHWM is read, so the check's own allocations stay out of peak_rss_mb.
struct OpResult {
  double seconds = 0.0;
  double rows = 0.0;  ///< drive-day records the operation completed
};
struct LoopStats {
  std::vector<double> op_seconds;  ///< every completed timed operation
  std::vector<double> op_rows_per_s;
  std::vector<double> op_peak_rss_mb;  ///< VmHWM over each memory operation
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;        ///< threw or failed its output check
};
/// Runs `warmup` discarded operations, returns set-up's freed heap to the
/// kernel, then runs timed operations until `seconds` have passed and at
/// least `min_ops` completed (capped at four times `seconds`), then
/// kMemoryOps memory operations: each starts from a trimmed heap
/// (malloc_trim) with VmHWM reset, and reads VmHWM when it returns.  Every
/// operation's output is checked.  With `seconds` 0 it returns the warm-up
/// operations' stats: an untimed run that only checks outputs.
[[nodiscard]] LoopStats closed_loop(double seconds, int warmup, std::size_t min_ops,
                                    const std::function<OpResult()>& op,
                                    const std::function<bool()>& check);

/// Traced runs record spans with the library's own tracer (obs::Span,
/// obs::TraceCollector): the benchmark opens one root span per traced
/// operation and one span per layer call directly under it, and reads the
/// collector's per-site totals.  Layer spans do not nest, so a layer's
/// self time is its spans' total; library spans opened inside a layer
/// (forest.fit, store.open_view, ...) are that layer's internals.
/// Switches obs on (traced runs) or off (untraced runs) and empties the
/// collector.
void enable_tracing(bool on);

/// Per-site span totals in seconds, keyed by site name.
using SiteSeconds = std::map<std::string, double>;
[[nodiscard]] SiteSeconds span_totals();

/// Span totals recorded between construction and the first call to
/// seconds(), per site (0 for a site with no span in the window).
class SpanWindow {
 public:
  SpanWindow() : before_(span_totals()) {}
  [[nodiscard]] double seconds(const std::string& site) const;

 private:
  SiteSeconds before_;
  mutable SiteSeconds after_;
};

/// Sum of the layer sites' totals over the root site's total, over
/// everything the collector recorded.
[[nodiscard]] double trace_coverage(const std::string& root,
                                    const std::vector<std::string>& layers);

/// Enforce the stage-sum rule on a traced run: coverage in [0.9, 1.1].
void check_coverage(double coverage, const std::string& what);

/// Write the collector's per-site aggregates and its most recent raw
/// spans to `path` as one JSON object.
void write_trace(const std::string& path);

/// The end-to-end metrics of a closed-loop run: rows_per_s,
/// latency_p50_ms, latency_p90_ms, peak_rss_mb, store_bytes_per_row and
/// setup_s.
void add_end_to_end(Outcome& out, const LoopStats& loop, double store_bytes_per_row,
                    double setup_s);
/// Every per-layer metric, in the order BENCHMARK.json lists them; a layer
/// missing from `measured` (its workload does not run it) reads 0.
void add_layer_metrics(Outcome& out, const std::map<std::string, double>& measured);

Outcome run_ingest(const Options& options);
Outcome run_scan(const Options& options);
Outcome run_train_cv(const Options& options);
Outcome run_compact(const Options& options);

}  // namespace perfbench
