// ingest: one producer thread pushes a day-ordered stream into a 2-shard
// daemon::TelemetryDaemon with blocking backpressure; the WAL is written
// with FsyncPolicy::kNever and the model is a real RandomForest served as
// a FlatForest.  Each pass over the stream uses a fresh daemon.  The fleet
// is paper-wide (10k drives per model, 60-day window), so the per-drive
// cursor, sanitizer and health maps outgrow a 2 MiB L2.  This is the only
// workload that runs the ring, WAL append, sanitizer, feature cursor,
// scoring and health layers; it runs no store or training code.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "core/dataset_builder.hpp"
#include "daemon/daemon.hpp"
#include "daemon/health.hpp"
#include "daemon/wal.hpp"
#include "ml/downsample.hpp"
#include "ml/flat_forest.hpp"
#include "ml/random_forest.hpp"
#include "obs/trace_span.hpp"
#include "robustness/record_sanitizer.hpp"
#include "stats/rng.hpp"

namespace perfbench {
namespace {

using namespace ssdfail;
namespace fs = std::filesystem;

constexpr int kSetupRepeats = 3;
constexpr int kWarmupPasses = 1;
constexpr std::size_t kMinPasses = 5;
constexpr std::uint32_t kDrivesPerModel = 10000;
constexpr std::int32_t kWindowDays = 60;
constexpr std::uint32_t kTrainFailedPerModel = 20;
constexpr std::uint32_t kTrainHealthyPerModel = 60;
constexpr std::size_t kShards = 2;
constexpr std::size_t kRingCapacity = 4096;
/// An appender drains its whole ring per batch.  With a smaller batch the
/// one producer, blocked on one full ring, refills the other only as fast
/// as the full one drains, so that one stays near empty: half the records
/// wait a full ring and half do not, and the median latency sits on the
/// edge between the two.  Draining the whole ring lets the producer refill
/// both after every drain, so while the appenders run at the same speed
/// every record waits about the same.
constexpr std::size_t kMaxBatch = kRingCapacity;
/// Record latencies are pooled over every timed pass in buckets this wide.
constexpr std::int64_t kLatencyBucketNs = 10'000;
constexpr std::size_t kLatencyBuckets = 20'000;  ///< up to 200 ms, then one overflow bucket

/// Dense drive slot for the MLC fleet (model values 0..2, model-major).
constexpr std::size_t kDriveSlots = 3 * std::size_t{kDrivesPerModel};
std::size_t drive_slot(std::uint64_t uid) {
  return static_cast<std::size_t>(uid >> 32) * kDrivesPerModel + static_cast<std::uint32_t>(uid);
}

/// Serving decorator that times predict_proba and counts its calls and
/// rows: rows per call is the daemon's batch size.
class TimingClassifier final : public ml::Classifier {
 public:
  explicit TimingClassifier(std::shared_ptr<const ml::Classifier> inner)
      : inner_(std::move(inner)) {}
  void fit(const ml::Dataset&) override {
    throw std::logic_error("TimingClassifier is serving-only");
  }
  [[nodiscard]] std::vector<float> predict_proba(const ml::Matrix& x) const override {
    const auto start = Clock::now();
    std::vector<float> scores = inner_->predict_proba(x);
    nanos_.fetch_add(static_cast<std::uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
                             .count()),
                     std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
    rows_.fetch_add(x.rows(), std::memory_order_relaxed);
    return scores;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::unique_ptr<ml::Classifier> clone() const override {
    throw std::logic_error("TimingClassifier is serving-only");
  }
  [[nodiscard]] double rows_per_call() const {
    return static_cast<double>(rows_.load()) / static_cast<double>(calls_.load());
  }
  [[nodiscard]] double seconds() const { return static_cast<double>(nanos_.load()) * 1e-9; }

 private:
  std::shared_ptr<const ml::Classifier> inner_;
  mutable std::atomic<std::uint64_t> calls_{0}, rows_{0}, nanos_{0};
};

struct Inputs {
  std::vector<core::FleetObservation> stream;
  std::shared_ptr<const ml::Classifier> model;  ///< FlatForest serving wrapper
};

/// The daemon's routing: hash of the drive uid, modulo the shard count.
std::size_t shard_of(std::uint64_t uid) {
  return static_cast<std::size_t>(stats::hash_keys({uid}) % kShards);
}

Inputs make_inputs(std::uint64_t seed, unsigned nproc) {
  // Generation gets its own pool, joined before timing starts: the timed
  // phase runs only the producer, the appenders and the watchdog.
  parallel::ThreadPool generation_pool(nproc);
  sim::FleetConfig config;
  config.drives_per_model = kDrivesPerModel;
  config.window_days = kWindowDays;
  config.seed = seed;
  config.keep_ground_truth = false;
  const trace::FleetTrace fleet = generate_fleet(config, generation_pool);
  // The model is trained on six years of history from a fleet with a
  // fixed failure count, so its size does not swing with the seed.
  core::DatasetBuildOptions build;
  build.lookahead_days = 7;
  const ml::Dataset train = ml::downsample_negatives(
      core::build_dataset(
          stratified_fleet(seed, kTrainFailedPerModel, kTrainHealthyPerModel, generation_pool),
          build),
      1.0, seed);
  auto forest = std::make_shared<ml::RandomForest>();
  forest->fit(train);
  return {day_ordered_stream(fleet), std::make_shared<ml::FlatForestClassifier>(forest)};
}

daemon::DaemonConfig daemon_config(std::size_t shards, const std::string& wal_dir) {
  daemon::DaemonConfig config;
  config.shards = shards;
  config.ring_capacity = kRingCapacity;
  config.backpressure = daemon::Backpressure::kBlock;
  config.block_timeout = std::chrono::seconds(10);
  config.max_batch = kMaxBatch;
  config.wal_dir = wal_dir;
  config.fsync = daemon::FsyncPolicy::kNever;
  return config;
}

/// One pass of the stream through a fresh daemon.
struct Pass {
  double seconds = 0.0;
  double push_seconds = 0.0;  ///< producer time inside push() (traced passes)
  daemon::DaemonStats stats;
  std::uint64_t digest = 0;
  std::uint64_t latency_mismatches = 0;
};

class Ingest {
 public:
  Ingest(Inputs inputs, std::string wal_dir)
      : inputs_(std::move(inputs)),
        wal_dir_(std::move(wal_dir)),
        push_ns_(inputs_.stream.size()),
        latency_ns_(inputs_.stream.size()),
        latency_buckets_(kLatencyBuckets + 1, 0),
        drive_begin_(kDriveSlots + 1, 0),
        positions_(inputs_.stream.size()),
        seen_(kDriveSlots) {
    // Each drive's stream positions, in day order: a drive's k-th
    // assessment answers its k-th record (one shard, processed in order).
    for (const core::FleetObservation& obs : inputs_.stream) ++drive_begin_[drive_slot(obs.uid()) + 1];
    for (std::size_t d = 0; d < kDriveSlots; ++d) drive_begin_[d + 1] += drive_begin_[d];
    std::vector<std::uint32_t> fill(drive_begin_.begin(), drive_begin_.end() - 1);
    for (std::size_t i = 0; i < inputs_.stream.size(); ++i)
      positions_[fill[drive_slot(inputs_.stream[i].uid())]++] = static_cast<std::uint32_t>(i);
  }

  const std::vector<core::FleetObservation>& stream() const { return inputs_.stream; }
  const std::shared_ptr<const ml::Classifier>& model() const { return inputs_.model; }

  Pass run(std::shared_ptr<const ml::Classifier> model, std::size_t shards, bool wal,
           bool time_pushes) {
    const std::vector<core::FleetObservation>& stream = inputs_.stream;
    fs::remove_all(wal_dir_);
    if (wal) fs::create_directories(wal_dir_);
    daemon::DaemonConfig config = daemon_config(shards, wal ? wal_dir_ : std::string());
    std::atomic<std::uint64_t> mismatches{0};
    const auto origin = Clock::now();
    std::fill(seen_.begin(), seen_.end(), 0);
    config.on_assessment = [&](const daemon::DriveAssessment& a) {
      const auto now = Clock::now();
      const std::size_t slot = drive_slot(a.uid);
      const std::uint32_t k = seen_[slot]++;
      const std::uint32_t pos = positions_[drive_begin_[slot] + k];
      if (drive_begin_[slot] + k >= drive_begin_[slot + 1] || stream[pos].record.day != a.day) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      latency_ns_[pos] =
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - origin).count() -
          push_ns_[pos];
    };

    Pass pass;
    const auto start = Clock::now();
    {
      daemon::TelemetryDaemon d(std::move(model), config);
      d.start();
      std::int64_t inside_push = 0;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        const core::FleetObservation& obs = stream[i];
        const auto before = Clock::now();
        push_ns_[i] = std::chrono::duration_cast<std::chrono::nanoseconds>(before - origin).count();
        (void)d.push(obs);  // shed and rejected records show in stats()
        if (time_pushes)
          inside_push += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - before)
                             .count();
      }
      d.stop();
      pass.seconds = seconds_since(start);
      pass.push_seconds = static_cast<double>(inside_push) * 1e-9;
      pass.stats = d.stats();
      pass.digest = d.state_digest();
    }
    pass.latency_mismatches = mismatches.load();
    fs::remove_all(wal_dir_);
    return pass;
  }

  /// Add the last pass's record latencies to the pooled histogram.  Its
  /// buckets are allocated in set-up, so the timed phase's memory does not
  /// grow with the number of passes.
  void pool_latencies() {
    for (const std::int64_t ns : latency_ns_)
      ++latency_buckets_[std::min(static_cast<std::size_t>(std::max<std::int64_t>(ns, 0) /
                                                          kLatencyBucketNs),
                                  kLatencyBuckets)];
  }
  /// Records pooled so far.
  [[nodiscard]] std::uint64_t pooled() const {
    std::uint64_t n = 0;
    for (const std::uint64_t c : latency_buckets_) n += c;
    return n;
  }
  /// The q-quantile of the pooled record latencies in seconds,
  /// interpolated inside its bucket.
  [[nodiscard]] double pooled_latency_quantile(double q) const {
    const double target = q * static_cast<double>(pooled());
    double seen = 0.0;
    for (std::size_t i = 0; i < latency_buckets_.size(); ++i) {
      const auto count = static_cast<double>(latency_buckets_[i]);
      if (count > 0.0 && seen + count >= target)
        return static_cast<double>(kLatencyBucketNs) * 1e-9 *
               (static_cast<double>(i) + (target - seen) / count);
      seen += count;
    }
    return 0.0;
  }

 private:
  Inputs inputs_;
  std::string wal_dir_;
  std::vector<std::int64_t> push_ns_;
  std::vector<std::int64_t> latency_ns_;
  std::vector<std::uint64_t> latency_buckets_;
  std::vector<std::uint32_t> drive_begin_;
  std::vector<std::uint32_t> positions_;
  std::vector<std::uint32_t> seen_;  ///< assessments so far, per drive
};

/// Single-thread replay of the stream through the layers' public calls,
/// in the appenders' order (per shard, in batches of the live run's mean
/// size), with one span per layer per batch.
struct ReplayResult {
  std::uint64_t alerts = 0;
  std::uint64_t rows = 0;
  std::uint64_t wal_bytes = 0;
  std::array<std::uint64_t, daemon::kNumHealthStates> health{};
};
const std::string kReplayRoot = "perfbench.ingest.replay",
                  kWalAppend = "perfbench.daemon.wal_append",
                  kSanitize = "perfbench.robustness.sanitize",
                  kFeatures = "perfbench.core.features", kPredict = "perfbench.ml.predict",
                  kHealth = "perfbench.daemon.health";
ReplayResult replay(const std::vector<core::FleetObservation>& stream,
                    const ml::Classifier& model, std::size_t batch, const std::string& wal_dir) {
  static const obs::SiteId root_site = obs::intern_site(kReplayRoot),
                           wal_site = obs::intern_site(kWalAppend),
                           sanitize_site = obs::intern_site(kSanitize),
                           features_site = obs::intern_site(kFeatures),
                           predict_site = obs::intern_site(kPredict),
                           health_site = obs::intern_site(kHealth);
  fs::remove_all(wal_dir);
  fs::create_directories(wal_dir);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  struct Shard {
    std::vector<std::size_t> order;  ///< stream positions routed here
    std::unique_ptr<daemon::WalWriter> wal;
    std::unique_ptr<robustness::RecordSanitizer> sanitizer;
    std::unordered_map<std::uint64_t, core::DriveFeatureCursor> cursors;
    std::unique_ptr<daemon::HealthTracker> health;
    std::size_t next = 0;
  };
  std::vector<Shard> shards(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    shards[s].wal = std::make_unique<daemon::WalWriter>(
        daemon::wal_path(wal_dir, static_cast<std::uint32_t>(s)), static_cast<std::uint32_t>(s),
        daemon::FsyncPolicy::kNever);
    shards[s].sanitizer = std::make_unique<robustness::RecordSanitizer>(
        robustness::SanitizerConfig{64, &registry});
    shards[s].health = std::make_unique<daemon::HealthTracker>(daemon::HealthConfig{}, &registry);
  }
  for (std::size_t i = 0; i < stream.size(); ++i)
    shards[shard_of(stream[i].uid())].order.push_back(i);

  ReplayResult result;
  const double threshold = daemon::DaemonConfig{}.threshold;
  std::vector<core::FleetObservation> records;
  std::vector<robustness::SanitizeResult> clean;
  std::vector<float> row(core::FeatureExtractor::count());
  {
    obs::Span root(root_site);
    for (bool more = true; more;) {
      more = false;
      for (Shard& shard : shards) {
        if (shard.next >= shard.order.size()) continue;
        more = true;
        const std::size_t end = std::min(shard.next + batch, shard.order.size());
        records.clear();
        for (std::size_t k = shard.next; k < end; ++k) records.push_back(stream[shard.order[k]]);
        shard.next = end;
        {
          obs::Span s(wal_site);
          shard.wal->append(records);
        }
        {
          obs::Span s(sanitize_site);
          clean.clear();
          for (const core::FleetObservation& obs : records)
            clean.push_back(shard.sanitizer->sanitize(obs.uid(), obs.deploy_day, obs.record));
        }
        ml::Matrix rows;
        {
          obs::Span s(features_site);
          for (std::size_t k = 0; k < records.size(); ++k) {
            if (clean[k].action != robustness::SanitizeAction::kClean &&
                clean[k].action != robustness::SanitizeAction::kRepaired)
              throw CheckFailure("ingest: replay sanitizer rejected a record");
            auto [it, inserted] = shard.cursors.try_emplace(
                records[k].uid(), records[k].drive_model, records[k].deploy_day);
            it->second.advance_and_extract(clean[k].record, row);
            rows.push_row(row);
          }
        }
        std::vector<float> scores;
        {
          obs::Span s(predict_site);
          scores = model.predict_proba(rows);
        }
        {
          obs::Span s(health_site);
          for (std::size_t k = 0; k < records.size(); ++k) {
            if (scores[k] >= threshold) ++result.alerts;
            (void)shard.health->observe(
                records[k].uid(), scores[k],
                clean[k].action == robustness::SanitizeAction::kRepaired, clean[k].record.dead);
          }
        }
        result.rows += records.size();
      }
    }
  }
  for (Shard& shard : shards) {
    result.wal_bytes += shard.wal->bytes_written();
    const auto counts = shard.health->counts();
    for (std::size_t s = 0; s < daemon::kNumHealthStates; ++s) result.health[s] += counts[s];
  }
  shards.clear();
  fs::remove_all(wal_dir);
  return result;
}

}  // namespace

Outcome run_ingest(const Options& options) {
  // The appenders score on their own threads: a 1-wide global pool keeps
  // FlatForest prediction there instead of fanning out past nproc.
  parallel::set_default_thread_count(1);
  Inputs inputs;
  const double setup_s = timed_setup(options.trace ? 1 : kSetupRepeats, [&] {
    inputs = make_inputs(options.seed, options.nproc);
  });
  Ingest ingest(std::move(inputs), options.work_dir + "/ingest_wal");
  const std::size_t n = ingest.stream().size();

  // Reference: one shard, no WAL — the same per-drive state and alerts.
  const Pass reference = ingest.run(ingest.model(), 1, false, false);
  if (reference.stats.scored != n)
    throw CheckFailure("ingest: the 1-shard reference did not score every record");

  Outcome out;
  out.config = {{"threads", "4 (1 producer, " + std::to_string(kShards) +
                                " appenders, 1 watchdog)"},
                {"pool_size", std::to_string(parallel::ThreadPool::global().size())},
                {"shards", std::to_string(kShards)},
                {"ring_capacity", std::to_string(kRingCapacity)},
                {"max_batch", std::to_string(kMaxBatch)},
                {"records", std::to_string(n)},
                {"drives_per_model", std::to_string(kDrivesPerModel)},
                {"window_days", std::to_string(kWindowDays)}};

  const auto failed_records = [&](const Pass& p) -> std::uint64_t {
    if (p.digest != reference.digest || p.stats.alerts != reference.stats.alerts ||
        p.stats.scored + p.stats.quarantined + p.stats.shed + p.stats.rejected != n ||
        p.latency_mismatches != 0)
      return n;
    return p.stats.shed + p.stats.rejected + p.stats.quarantined;
  };

  if (!options.trace) {
    for (int i = 0; i < kWarmupPasses; ++i)
      if (failed_records(ingest.run(ingest.model(), kShards, true, false)) != 0)
        throw CheckFailure("ingest: warm-up pass differs from the 1-shard reference");
    if (options.seconds <= 0.0) {
      out.attempted = kWarmupPasses * n;
      return out;
    }
    std::vector<double> pass_seconds, pass_rss;
    std::uint64_t wal_bytes = 0;
    const auto start = Clock::now();
    while (seconds_since(start) < options.seconds || pass_seconds.size() < kMinPasses) {
      // The previous pass's daemon is gone; return its heap so each pass's
      // peak starts from the same live data.
      malloc_trim(0);
      reset_peak_rss();
      const Pass p = ingest.run(ingest.model(), kShards, true, false);
      pass_rss.push_back(peak_rss_mb());
      out.attempted += n;
      out.failed += failed_records(p);
      pass_seconds.push_back(p.seconds);
      wal_bytes += p.stats.wal_bytes;
      ingest.pool_latencies();
      if (seconds_since(start) > 4.0 * options.seconds) break;
    }
    const double records = static_cast<double>(n);
    out.add("rows_per_s", "rows/s", records / median(pass_seconds));
    out.add("latency_p50_ms", "ms", 1e3 * ingest.pooled_latency_quantile(0.5));
    out.add("latency_p90_ms", "ms", 1e3 * ingest.pooled_latency_quantile(0.9));
    out.add("peak_rss_mb", "MB", median(pass_rss));
    out.add("store_bytes_per_row", "B",
            static_cast<double>(wal_bytes) / (records * static_cast<double>(pass_seconds.size())));
    out.add("setup_s", "s", setup_s);
    out.note("passes timed: " + std::to_string(pass_seconds.size()) + ", records per pass: " +
             std::to_string(n) + ", latency samples: " + std::to_string(ingest.pooled()) +
             " (every record of every timed pass)");
    return out;
  }

  // Traced run: alternate an untraced pass, a live pass through the
  // timing decorator with push() timed, and the single-thread replay.
  std::vector<double> untraced_s, traced_s, blocked, batch_rows, live_predict, predict_ns,
      wal_ns, features_ns, sanitize_ns, health_ns, wal_bytes;
  for (int i = 0; i < kWarmupPasses; ++i) (void)ingest.run(ingest.model(), kShards, true, false);
  enable_tracing(true);  // the collector holds the timed phase only
  const auto start = Clock::now();
  while (seconds_since(start) < options.seconds || traced_s.size() < 2) {
    const Pass plain = ingest.run(ingest.model(), kShards, true, false);
    const auto counting = std::make_shared<TimingClassifier>(ingest.model());
    const Pass timed = ingest.run(counting, kShards, true, true);
    out.attempted += 2 * n;
    if (failed_records(plain) != 0 || failed_records(timed) != 0)
      throw CheckFailure("ingest: a pass differs from the 1-shard reference");
    untraced_s.push_back(plain.seconds);
    traced_s.push_back(timed.seconds);
    blocked.push_back(timed.push_seconds / timed.seconds);
    batch_rows.push_back(counting->rows_per_call());
    live_predict.push_back(counting->seconds() / (kShards * timed.seconds));

    const SpanWindow window;
    const ReplayResult r =
        replay(ingest.stream(), *ingest.model(),
               static_cast<std::size_t>(std::lround(counting->rows_per_call())),
               options.work_dir + "/ingest_replay_wal");
    if (r.alerts != reference.stats.alerts || r.health != reference.stats.health_counts)
      throw CheckFailure("ingest: replay alerts or health states differ from the reference");
    const double rows = static_cast<double>(r.rows);
    predict_ns.push_back(1e9 * window.seconds(kPredict) / rows);
    wal_ns.push_back(1e9 * window.seconds(kWalAppend) / rows);
    features_ns.push_back(1e9 * window.seconds(kFeatures) / rows);
    sanitize_ns.push_back(1e9 * window.seconds(kSanitize) / rows);
    health_ns.push_back(1e9 * window.seconds(kHealth) / rows);
    wal_bytes.push_back(static_cast<double>(r.wal_bytes) / rows);
  }
  const double coverage =
      trace_coverage(kReplayRoot, {kWalAppend, kSanitize, kFeatures, kPredict, kHealth});
  check_coverage(coverage, "ingest");
  write_trace(options.work_dir + "/trace-ingest.json");

  const std::map<std::string, double> layer = {
      {"ml.predict_ns_per_row", median(predict_ns)},
      {"daemon.wal_append_ns_per_row", median(wal_ns)},
      {"core.features_ns_per_row", median(features_ns)},
      {"robustness.sanitize_ns_per_row", median(sanitize_ns)},
      {"daemon.health_ns_per_row", median(health_ns)},
      {"daemon.wal_bytes_per_row", median(wal_bytes)},
      {"daemon.push_blocked_frac", median(blocked)},
      {"daemon.rows_per_batch", median(batch_rows)},
      {"bench.trace_coverage", coverage},
      {"bench.trace_overhead", median(traced_s) / median(untraced_s)},
  };
  add_layer_metrics(out, layer);
  out.note("traced rounds: " + std::to_string(traced_s.size()) +
           ", live predict_proba share of appender time: " +
           std::to_string(median(live_predict)));
  return out;
}

}  // namespace perfbench
