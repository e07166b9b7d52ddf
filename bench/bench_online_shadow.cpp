// Shadow-scoring overhead on the daemon hot path (google-benchmark).
//
//   BM_OnlineShadow/challengers:<0|1>
//
// One iteration pushes one fleet-day (kDrives records) through a running
// daemon whose BatchObserver tap is a full OnlineLearner, with the arena's
// challenger slot empty (0) or filled (1), and waits until the daemon and
// the learner's shadow thread have both finished the day: every batch is
// WAL-appended, sanitized, champion-scored, drift-sketched, and
// shadow-scored by the challenger.  challengers:0 is the tap-attached
// baseline, so the delta is exactly the compiled FlatForest shadow predict
// plus arena bookkeeping.  Registry counter deltas (daemon_* and online_*)
// are exported per iteration.
//
// After the harness runs, main() re-measures 0-vs-1 challengers directly
// (min over kCheckRepeats runs of kCheckDays fleet-days each) and fails
// the binary when one challenger costs more than kMaxOverhead of the
// baseline time per fleet-day — the promotion gate's shadow scoring must
// stay effectively free (docs/BENCHMARKS.md) — or when the shadow thread
// shed any row during the check, since a shed row is work the timing did
// not include.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_metrics.hpp"
#include "core/dataset_builder.hpp"
#include "daemon/daemon.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/model_zoo.hpp"
#include "obs/metrics.hpp"
#include "online/learner.hpp"
#include "sim/fleet_simulator.hpp"

namespace {

using namespace ssdfail;

constexpr std::uint32_t kDrives = 2048;  ///< records pushed per fleet-day
constexpr int kCheckDays = 200;          ///< fleet-days per overhead sample
constexpr int kCheckRepeats = 5;         ///< min-of-N de-noises the check
constexpr double kMaxOverhead = 0.10;    ///< budget for one challenger

/// One boosted forest trained on simulated fleet history, shared by the
/// champion and the challenger so the comparison is equal-cost.
std::shared_ptr<const ml::GradientBoosting> fixture_forest() {
  static const std::shared_ptr<const ml::GradientBoosting> model = [] {
    sim::FleetConfig fc;
    fc.drives_per_model = 12;
    fc.window_days = 200;
    fc.seed = 7;
    core::DatasetBuildOptions opts;
    opts.negative_keep_prob = 0.5;
    const ml::Dataset train =
        core::build_dataset(sim::FleetSimulator(fc).generate_all(), opts);
    ml::GradientBoosting::Params params;
    params.n_rounds = 30;
    params.max_depth = 4;
    auto gb = std::make_shared<ml::GradientBoosting>(params);
    gb->fit(train);
    return gb;
  }();
  return model;
}

core::FleetObservation observation_for(std::uint32_t drive, std::int32_t day) {
  trace::DailyRecord rec;
  rec.day = day;
  rec.reads = 100 + drive;
  rec.writes = 40 + static_cast<std::uint32_t>(day);
  rec.erases = 4;
  rec.pe_cycles = 10 + 2 * static_cast<std::uint32_t>(day);
  rec.bad_blocks = 1 + static_cast<std::uint32_t>(day) / 64;
  rec.factory_bad_blocks = 4;
  rec.errors[0] = drive % 3;
  return {trace::DriveModel::MlcA, drive, 0, rec};
}

/// Daemon + learner tap, with a challenger in the arena's slot or not.
/// No learner step() runs: only the hot-path tap is measured.
struct ShadowRig {
  explicit ShadowRig(bool challenger)
      : wal_dir((std::filesystem::temp_directory_path() /
                 ("ssdfail_bench_online_shadow" + std::to_string(challenger ? 1 : 0)))
                    .string()) {
    std::filesystem::remove_all(wal_dir);
    std::filesystem::create_directories(wal_dir);
    learner = std::make_unique<online::OnlineLearner>(online::OnlineConfig{});
    if (challenger) learner->arena().set_challenger("c", fixture_forest());

    daemon::DaemonConfig cfg;
    cfg.shards = 4;
    cfg.ring_capacity = 4096;
    cfg.max_batch = 512;
    cfg.backpressure = daemon::Backpressure::kBlock;
    cfg.block_timeout = std::chrono::milliseconds(50);
    cfg.wal_dir = wal_dir;
    cfg.fsync = daemon::FsyncPolicy::kNever;
    cfg.batch_observer = learner.get();
    daemon = std::make_unique<daemon::TelemetryDaemon>(
        ml::make_serving_model(fixture_forest()), cfg);
    daemon->start();
  }

  ~ShadowRig() {
    daemon->stop();
    std::filesystem::remove_all(wal_dir);
  }

  /// Push one fleet-day and wait until the daemon and the shadow thread
  /// have processed all of it.
  void run_day(std::int32_t day) {
    for (std::uint32_t d = 0; d < kDrives; ++d)
      (void)daemon->push(observation_for(d, day));
    daemon->drain();
    learner->drain_shadow();
  }

  std::string wal_dir;
  std::unique_ptr<online::OnlineLearner> learner;
  std::unique_ptr<daemon::TelemetryDaemon> daemon;
};

void BM_OnlineShadow(benchmark::State& state) {
  ShadowRig rig(state.range(0) != 0);
  const bench::RegistryDelta delta;
  std::int32_t day = 0;
  for (auto _ : state) rig.run_day(day++);
  state.SetItemsProcessed(state.iterations() * kDrives);
  delta.export_into(state, "daemon");
  delta.export_into(state, "online");
}

BENCHMARK(BM_OnlineShadow)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"challengers"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Wall-clock seconds one fresh rig takes for kCheckDays fleet-days.
double run_seconds(bool challenger) {
  ShadowRig rig(challenger);
  rig.run_day(0);  // warm-up day: ring, WAL, and engine caches settle
  const auto begin = std::chrono::steady_clock::now();
  for (int day = 1; day <= kCheckDays; ++day) rig.run_day(day);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - begin;
  return elapsed.count();
}

/// online_shadow_dropped_total in the global registry, where every rig's
/// learner reports.
double shadow_rows_dropped() {
  const obs::RegistrySnapshot snapshot = obs::MetricsRegistry::global().snapshot();
  const obs::Sample* dropped = snapshot.find("online_shadow_dropped_total");
  return dropped != nullptr ? dropped->value : 0.0;
}

int check_shadow_overhead() {
  const double dropped_before = shadow_rows_dropped();
  // Best of kCheckRepeats each, the two configurations alternating so a
  // slow stretch of the host hits both.
  double baseline = 1e300;
  double shadowed = 1e300;
  for (int r = 0; r < kCheckRepeats; ++r) {
    baseline = std::min(baseline, run_seconds(false));
    shadowed = std::min(shadowed, run_seconds(true));
  }
  const double dropped = shadow_rows_dropped() - dropped_before;
  const double overhead = shadowed / baseline - 1.0;
  std::printf("shadow_overhead_one_challenger: %.2f%% (limit %.0f%%)  "
              "baseline %.3fs shadowed %.3fs  shed rows %.0f\n",
              overhead * 100.0, kMaxOverhead * 100.0, baseline, shadowed, dropped);
  if (dropped != 0.0) {
    std::fprintf(stderr, "FAIL: the shadow thread shed %.0f rows during the check\n",
                 dropped);
    return 1;
  }
  if (overhead > kMaxOverhead) {
    std::fprintf(stderr,
                 "FAIL: one challenger costs %.1f%% of the baseline fleet-day "
                 "(budget %.0f%%)\n",
                 overhead * 100.0, kMaxOverhead * 100.0);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const int rc = ssdfail::bench::run_benchmark_main(argc, argv);
  if (rc != 0) return rc;
  return check_shadow_overhead();
}
