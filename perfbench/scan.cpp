// scan: one operation is online::Retrainer::build_training_set on a
// freshly opened store::ShardedFleetView of a v3 store — a full negative
// scan plus a positive scan pruned by the swap-day zone map.  v3 decode,
// CRC checks, zone-map pruning and core::build_dataset do the work; no
// ML and no WAL run, so this is the no-change control for ingest and
// scoring changes.

#include <filesystem>
#include <limits>

#include "bench.hpp"
#include "core/dataset_builder.hpp"
#include "obs/trace_span.hpp"
#include "online/retrainer.hpp"
#include "store/sharded.hpp"

namespace perfbench {
namespace {

using namespace ssdfail;
namespace fs = std::filesystem;

constexpr int kSetupRepeats = 3;
constexpr int kWarmupOps = 4;  ///< the first few after set-up run up to 40% slow
constexpr std::size_t kMinOps = 100;
constexpr std::uint32_t kDrivesPerModel = 200;
constexpr std::uint32_t kDrivesPerShard = 300;  // two shards
constexpr std::int32_t kNowDay = sim::kDefaultWindowDays;

online::RetrainerConfig retrainer_config(const std::string& store_dir) {
  online::RetrainerConfig config;
  config.store_dir = store_dir;
  config.lookahead_days = 7;
  config.window_days = 0;
  config.negative_keep_prob = 0.05;
  config.seed = 101;
  return config;
}

/// The two passes build_training_set makes, spelled out so the traced run
/// can time them and the reference can run them on the row path.
struct Passes {
  core::DatasetBuildOptions negatives;
  core::DatasetBuildOptions positives;
};
Passes training_passes(const online::RetrainerConfig& config) {
  core::DatasetBuildOptions base;
  base.lookahead_days = config.lookahead_days;
  base.seed = config.seed;
  base.max_day = kNowDay - config.lookahead_days;
  Passes p{base, base};
  p.negatives.negative_keep_prob = config.negative_keep_prob;
  p.negatives.positive_keep_prob = 0.0;
  p.positives.negative_keep_prob = 0.0;
  p.positives.positive_keep_prob = 1.0;
  p.positives.min_swap_day = std::numeric_limits<std::int32_t>::min();
  return p;
}

ml::Dataset concat(ml::Dataset out, const ml::Dataset& more) {
  if (out.feature_names.empty()) out.feature_names = more.feature_names;
  out.x.append_rows(more.x);
  out.y.insert(out.y.end(), more.y.begin(), more.y.end());
  out.groups.insert(out.groups.end(), more.groups.begin(), more.groups.end());
  return out;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

}  // namespace

Outcome run_scan(const Options& options) {
  // A 1-wide pool: the build runs on the calling thread.  Fanned out, an
  // operation waits for its slowest thread, and on a loaded shared host
  // that wait set the tail: latency_p90_ms spread 19% over ten seeds with
  // two workers, 5% over five on one thread.
  parallel::set_default_thread_count(1);
  parallel::ThreadPool& pool = parallel::ThreadPool::global();
  const std::string store_dir = options.work_dir + "/scan_store";
  const online::RetrainerConfig config = retrainer_config(store_dir);
  const online::Retrainer retrainer(config);
  const Passes passes = training_passes(config);

  trace::FleetTrace fleet;
  const double setup_s = timed_setup(options.trace ? 1 : kSetupRepeats, [&] {
    fleet = generate_fleet(study_fleet_config(options.seed, kDrivesPerModel), pool);
    fs::remove_all(store_dir);
    store::ShardedWriteOptions write;
    write.store.version = store::kColumnarVersionV3;
    write.drives_per_shard = kDrivesPerShard;
    store::write_sharded(store_dir, fleet, write);
  });

  // Reference: the same two passes on the row path over the in-memory
  // fleet — an independent walk that never touches the v3 codec.
  const std::uint64_t reference = dataset_digest(concat(
      core::build_dataset(fleet, passes.negatives), core::build_dataset(fleet, passes.positives)));
  const std::size_t records = fleet.total_records();
  fleet = {};
  const std::uint64_t store_bytes = dir_bytes(store_dir);

  Outcome out;
  out.config = {{"threads", "1"},
                {"pool_size", std::to_string(pool.size())},
                {"store_shards", std::to_string(store::read_manifest(store_dir).shards.size())},
                {"records", std::to_string(records)},
                {"drives_per_model", std::to_string(kDrivesPerModel)}};

  ml::Dataset data;
  const auto untraced_op = [&]() -> OpResult {
    const auto start = Clock::now();
    const store::ShardedFleetView view = store::ShardedFleetView::open(store_dir);
    data = retrainer.build_training_set(view, kNowDay);
    return {seconds_since(start), static_cast<double>(records)};
  };
  const auto check = [&] { return dataset_digest(data) == reference; };

  if (!options.trace) {
    const LoopStats loop =
        closed_loop(options.seconds, kWarmupOps, kMinOps, untraced_op, check);
    if (options.seconds <= 0.0) {
      out.attempted = loop.attempted;
      return out;
    }
    add_end_to_end(out, loop, static_cast<double>(store_bytes) / static_cast<double>(records),
                   setup_s);
    return out;
  }

  // Traced run: alternate an untraced operation with a traced replay of
  // it through the public calls, then a second build on the same view
  // (decode already done) to split decode from build.
  const obs::Counter& pruned = obs::MetricsRegistry::global().counter(
      "store_chunks_pruned_total", {},
      "columnar chunks skipped by zone-map predicate pushdown");
  const std::string kRoot = "perfbench.scan.op", kOpen = "perfbench.store.open",
                    kFirst = "perfbench.build.first", kSecond = "perfbench.build.second";
  const obs::SiteId root_site = obs::intern_site(kRoot), open_site = obs::intern_site(kOpen),
                    first_site = obs::intern_site(kFirst),
                    second_site = obs::intern_site(kSecond);
  std::vector<double> open_s, first_s, second_s, untraced_s, traced_s, read_frac, wait_us;
  for (int i = 0; i < kWarmupOps; ++i) {
    (void)untraced_op();
    if (!check()) throw CheckFailure("scan: dataset digest mismatch");
  }
  enable_tracing(true);  // the collector holds the timed phase only
  const auto start = Clock::now();
  while (seconds_since(start) < options.seconds || traced_s.size() < 3) {
    const obs::RegistrySnapshot before = obs::MetricsRegistry::global().snapshot();
    const OpResult plain = untraced_op();
    const obs::RegistrySnapshot after = obs::MetricsRegistry::global().snapshot();
    if (!check()) throw CheckFailure("scan: dataset digest mismatch");
    untraced_s.push_back(plain.seconds);
    wait_us.push_back(histogram_delta_median("threadpool_task_latency_us", before, after));

    const SpanWindow window;
    ml::Dataset replayed;
    store::ShardedFleetView view;  // released after the span, as untraced
    {
      obs::Span op(root_site);
      {
        obs::Span s(open_site);
        view = store::ShardedFleetView::open(store_dir);
      }
      std::size_t chunks = 0;
      for (std::size_t s = 0; s < view.shard_count(); ++s) chunks += view.shard(s).chunk_count();
      {
        obs::Span s(first_site);
        replayed = core::build_dataset(view, passes.negatives);
        const std::uint64_t pruned_before = pruned.value();
        replayed = concat(std::move(replayed), core::build_dataset(view, passes.positives));
        read_frac.push_back(1.0 - static_cast<double>(pruned.value() - pruned_before) /
                                      static_cast<double>(chunks));
      }
      {
        obs::Span s(second_site);
        (void)concat(core::build_dataset(view, passes.negatives),
                     core::build_dataset(view, passes.positives));
      }
    }
    if (dataset_digest(replayed) != reference)
      throw CheckFailure("scan: traced replay digest mismatch");
    traced_s.push_back(window.seconds(kOpen) + window.seconds(kFirst));
    open_s.push_back(window.seconds(kOpen));
    first_s.push_back(window.seconds(kFirst));
    second_s.push_back(window.seconds(kSecond));
  }
  const double coverage = trace_coverage(kRoot, {kOpen, kFirst, kSecond});
  check_coverage(coverage, "scan");
  write_trace(options.work_dir + "/trace-scan.json");

  std::vector<double> decode_s(first_s.size());
  for (std::size_t i = 0; i < first_s.size(); ++i) decode_s[i] = first_s[i] - second_s[i];
  const double n = static_cast<double>(records);
  out.attempted = untraced_s.size() + traced_s.size();
  const std::map<std::string, double> layer = {
      {"store.open_ms", 1e3 * median(open_s)},
      {"store.decode_ns_per_record", 1e9 * median(decode_s) / n},
      {"core.build_ns_per_record", 1e9 * median(second_s) / n},
      {"store.chunks_read_frac", median(read_frac)},
      {"parallel.task_wait_us_p50", median(wait_us)},
      {"bench.trace_coverage", coverage},
      {"bench.trace_overhead", median(traced_s) / median(untraced_s)},
  };
  add_layer_metrics(out, layer);
  out.note("traced operations: " + std::to_string(traced_s.size()));
  return out;
}

}  // namespace perfbench
