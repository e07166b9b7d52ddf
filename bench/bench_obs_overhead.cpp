// Cost of the observability layer itself (google-benchmark).
//
// The acceptance bar for src/obs/: the fully instrumented serving path
// (the telemetry daemon's counters, sanitizer mirrors and latency
// histogram live) must stay within 5% of the identical run with
// obs::set_enabled(false), and the disabled primitives must be near-no-ops
// (a relaxed load + branch).
//
//   BM_MonitorBatchScoring/obs:<0|1>  the macro check: one fleet-day per
//                                     iteration pushed into an 8-shard
//                                     in-memory TelemetryDaemon; obs:1 is
//                                     the instrumented path, obs:0 the
//                                     same code with the global switch
//                                     off.  Compare real_time of the two
//                                     rows.
//   BM_CounterInc/obs:<0|1>           one striped-counter increment
//   BM_HistogramObserve/obs:<0|1>     one fixed-bucket observation
//   BM_SpanScope/obs:<0|1>            one enter/exit of a scoped span
//   BM_RegistrySnapshot/<n>           snapshot of n counter families
//   BM_PrometheusExposition/<n>       snapshot + text exposition
//
// The enabled/disabled pairs share one binary run, so keep them adjacent
// when filtering; obs is re-enabled after every disabled measurement.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_metrics.hpp"
#include "core/dataset_builder.hpp"
#include "daemon/daemon.hpp"
#include "ml/downsample.hpp"
#include "ml/model_zoo.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "sim/fleet_simulator.hpp"

namespace {

using namespace ssdfail;

/// Flip the global switch for one benchmark's measurement loop and always
/// restore it — a disabled registry must never leak into the next bench.
class ScopedObsEnabled {
 public:
  explicit ScopedObsEnabled(bool on) { obs::set_enabled(on); }
  ~ScopedObsEnabled() { obs::set_enabled(true); }
  ScopedObsEnabled(const ScopedObsEnabled&) = delete;
  ScopedObsEnabled& operator=(const ScopedObsEnabled&) = delete;
};

const trace::FleetTrace& small_fleet() {
  static const trace::FleetTrace fleet = [] {
    sim::FleetConfig cfg;
    cfg.drives_per_model = 150;
    return sim::FleetSimulator(cfg).generate_all();
  }();
  return fleet;
}

std::shared_ptr<const ml::Classifier> scoring_model() {
  static const std::shared_ptr<const ml::Classifier> model = [] {
    core::DatasetBuildOptions opts;
    opts.lookahead_days = 1;
    opts.negative_keep_prob = 0.02;
    const ml::Dataset data = core::build_dataset(small_fleet(), opts);
    auto forest = ml::make_model(ml::ModelKind::kRandomForest);
    forest->fit(ml::downsample_negatives(data, 1.0, 1));
    return std::shared_ptr<const ml::Classifier>(std::move(forest));
  }();
  return model;
}

/// The serving path, parameterized on the global obs switch.  The
/// producer blocks on full rings, so the loop runs at the appenders'
/// pace; what is still queued when it ends (at most the rings' capacity)
/// drains untimed in stop().
void BM_MonitorBatchScoring(benchmark::State& state) {
  const bool instrumented = state.range(0) == 1;
  daemon::DaemonConfig config;
  config.shards = 8;
  config.ring_capacity = 256;
  config.threshold = 0.9;
  config.block_timeout = std::chrono::seconds(10);  // never shed
  std::vector<core::FleetObservation> batch;
  for (const auto& d : small_fleet().drives)
    if (!d.records.empty())
      batch.push_back({d.model, d.drive_index, 0, d.records.front()});

  const ScopedObsEnabled guard(instrumented);
  daemon::TelemetryDaemon daemon(scoring_model(), config);
  daemon.start();
  std::int32_t day = 0;
  std::uint64_t pushed = 0;
  for (auto _ : state) {
    for (auto& obs : batch) {
      obs.record.day = day;
      (void)daemon.push(obs);
    }
    ++day;
    pushed += batch.size();
  }
  daemon.stop();
  if (daemon.stats().scored != pushed) state.SkipWithError("a pushed record was not scored");
  state.SetItemsProcessed(static_cast<std::int64_t>(pushed));
  state.counters["records/s"] =
      benchmark::Counter(static_cast<double>(pushed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MonitorBatchScoring)->ArgName("obs")->Arg(0)->Arg(1)->UseRealTime();

void BM_CounterInc(benchmark::State& state) {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "bench_obs_increments_total", {}, "bench_obs_overhead scratch counter");
  const ScopedObsEnabled guard(state.range(0) == 1);
  for (auto _ : state) counter.inc();
}
BENCHMARK(BM_CounterInc)->ArgName("obs")->Arg(0)->Arg(1);

void BM_HistogramObserve(benchmark::State& state) {
  static const std::vector<double>& bounds =
      *new std::vector<double>(obs::equal_width_bounds(0.0, 2000.0, 40));
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "bench_obs_scratch_us", bounds, {}, "bench_obs_overhead scratch histogram");
  const ScopedObsEnabled guard(state.range(0) == 1);
  double v = 0.0;
  for (auto _ : state) {
    hist.observe(v);
    v += 17.0;
    if (v > 2100.0) v = 0.0;  // exercise interior buckets and +Inf
  }
}
BENCHMARK(BM_HistogramObserve)->ArgName("obs")->Arg(0)->Arg(1);

void BM_SpanScope(benchmark::State& state) {
  static const obs::SiteId kSite = obs::intern_site("bench.overhead_span");
  const ScopedObsEnabled guard(state.range(0) == 1);
  for (auto _ : state) {
    obs::Span span(kSite);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanScope)->ArgName("obs")->Arg(0)->Arg(1);

/// A private registry with n counter families (4 labeled children each)
/// and n/8 histograms — roughly the shape the pipeline populates.
obs::MetricsRegistry& synthetic_registry(std::size_t n) {
  static auto& registries = *new std::vector<std::unique_ptr<obs::MetricsRegistry>>();
  static auto& sizes = *new std::vector<std::size_t>();
  for (std::size_t i = 0; i < sizes.size(); ++i)
    if (sizes[i] == n) return *registries[i];
  auto reg = std::make_unique<obs::MetricsRegistry>();
  const std::vector<double> bounds = obs::equal_width_bounds(0.0, 2000.0, 40);
  for (std::size_t f = 0; f < n; ++f) {
    const std::string name = "bench_family_" + std::to_string(f) + "_total";
    for (int child = 0; child < 4; ++child)
      reg->counter(name, {{"shard", std::to_string(child)}}, "synthetic").inc(f + 1);
    if (f % 8 == 0)
      reg->histogram("bench_family_" + std::to_string(f) + "_us", bounds, {},
                     "synthetic")
          .observe(static_cast<double>(f));
  }
  registries.push_back(std::move(reg));
  sizes.push_back(n);
  return *registries.back();
}

void BM_RegistrySnapshot(benchmark::State& state) {
  obs::MetricsRegistry& reg = synthetic_registry(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const obs::RegistrySnapshot snap = reg.snapshot();
    benchmark::DoNotOptimize(snap.samples.data());
  }
}
BENCHMARK(BM_RegistrySnapshot)->Arg(16)->Arg(128);

void BM_PrometheusExposition(benchmark::State& state) {
  obs::MetricsRegistry& reg = synthetic_registry(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = obs::to_prometheus(reg.snapshot());
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
  }
  state.counters["exposition_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_PrometheusExposition)->Arg(16)->Arg(128);

}  // namespace

SSDFAIL_BENCH_MAIN();
