#include "core/dataset_builder.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/failure_timeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"
#include "store/columnar.hpp"
#include "store/sharded.hpp"

namespace ssdfail::core {
namespace {

obs::Counter& chunks_pruned_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "store_chunks_pruned_total", {},
      "columnar chunks skipped by zone-map predicate pushdown");
  return c;
}

/// Uniform drive access for the walk, so one walk implementation serves
/// both backings:
///   RowSource    — a materialized trace::DriveHistory (v1 / in-memory)
///   ColumnSource — a store::ChunkView drive slice, read straight from the
///                  mapped columns with no per-drive materialization
/// Both expose identical VALUES for every accessor, which is what makes
/// the two build paths bit-identical (same records -> same arithmetic).
struct RowSource {
  const trace::DriveHistory& d;
  [[nodiscard]] std::uint64_t uid() const { return d.uid(); }
  [[nodiscard]] std::int32_t deploy_day() const { return d.deploy_day; }
  [[nodiscard]] std::size_t size() const { return d.records.size(); }
  [[nodiscard]] const trace::DailyRecord& record(std::size_t i) const { return d.records[i]; }
  [[nodiscard]] std::int32_t day(std::size_t i) const { return d.records[i].day; }
  [[nodiscard]] std::uint32_t error(std::size_t i, trace::ErrorType type) const {
    return d.records[i].error(type);
  }
  [[nodiscard]] std::uint32_t bad_blocks(std::size_t i) const { return d.records[i].bad_blocks; }
};

struct ColumnSource {
  const store::ChunkView& chunk;
  const store::DriveRef& ref;
  [[nodiscard]] std::uint64_t uid() const { return ref.uid(); }
  [[nodiscard]] std::int32_t deploy_day() const { return ref.deploy_day; }
  [[nodiscard]] std::size_t size() const { return ref.row_count; }
  [[nodiscard]] trace::DailyRecord record(std::size_t i) const {
    return chunk.record(ref.row_begin + i);
  }
  [[nodiscard]] std::int32_t day(std::size_t i) const { return chunk.day[ref.row_begin + i]; }
  [[nodiscard]] std::uint32_t error(std::size_t i, trace::ErrorType type) const {
    return chunk.errors[static_cast<std::size_t>(type)][ref.row_begin + i];
  }
  [[nodiscard]] std::uint32_t bad_blocks(std::size_t i) const {
    return chunk.bad_blocks[ref.row_begin + i];
  }
};

/// Per-record "days until next occurrence of error type e" (exclusive of
/// the current day), computed right-to-left; INT32_MAX when none follows.
template <typename Source>
std::vector<std::int32_t> days_to_next_error(const Source& src, trace::ErrorType type) {
  std::vector<std::int32_t> out(src.size(), std::numeric_limits<std::int32_t>::max());
  std::int32_t next_day = -1;
  for (std::size_t i = src.size(); i-- > 0;) {
    if (next_day >= 0) out[i] = next_day - src.day(i);
    if (src.error(i, type) > 0) next_day = src.day(i);
  }
  return out;
}

/// Per-record "days until the cumulative bad-block count next increases"
/// (exclusive of the current day); INT32_MAX when it never does.
template <typename Source>
std::vector<std::int32_t> days_to_next_bad_block(const Source& src) {
  std::vector<std::int32_t> out(src.size(), std::numeric_limits<std::int32_t>::max());
  std::int32_t next_day = -1;
  for (std::size_t i = src.size(); i-- > 0;) {
    if (next_day >= 0) out[i] = next_day - src.day(i);
    const bool grew = i > 0 ? src.bad_blocks(i) > src.bad_blocks(i - 1)
                            : src.bad_blocks(i) > 0;
    if (grew) next_day = src.day(i);
  }
  return out;
}

/// Feature names implied by the options (base features, plus the rolling
/// window block when enabled).
std::vector<std::string> option_feature_names(const DatasetBuildOptions& options) {
  std::vector<std::string> names = FeatureExtractor::names();
  if (options.rolling_features) {
    const auto& extra = RollingWindow::names();
    names.insert(names.end(), extra.begin(), extra.end());
  }
  return names;
}

/// Final shape-up shared by every build path: fill in the schema when no
/// drive contributed one, and give a rowless matrix the schema's column
/// count so an empty fleet still yields a dataset that validates.
void finalize_dataset(ml::Dataset& out, const DatasetBuildOptions& options) {
  if (out.feature_names.empty()) out.feature_names = option_feature_names(options);
  if (out.x.rows() == 0) out.x = ml::Matrix(0, out.feature_names.size());
  out.validate();
}

/// The single per-drive walk behind append_drive AND SweepDatasetCache:
/// advance the cumulative feature state day by day, apply every
/// lookahead-INDEPENDENT filter (model, failed-state limbo, age), and hand
/// each candidate row to the sink as
///
///   sink(days_to_event, keep_draw_u, get_row)
///
/// where get_row() lazily extracts the feature vector (extraction is the
/// expensive part; sinks that drop the row based on (dtf, u) alone never
/// pay for it) and returns a span valid until the next record.
/// `days_to_event` carries the unified inclusive-boundary convention
/// documented on DatasetBuildOptions::lookahead_days: a row is positive
/// for window N iff days_to_event <= N.  `keep_draw_u` is the row's
/// uniform draw in [0, 1); build keeps the row for keep probability p iff
/// p >= 1 or u < p — exactly the bernoulli(p) decision the pre-cache
/// builder made, so cached and direct builds agree bit-for-bit.
template <typename Source, typename Sink>
void walk_source(const Source& src, const DriveTimeline& timeline, const DatasetBuildOptions& options,
                 Sink&& sink) {
  if (options.error_label && options.bad_block_label)
    throw std::invalid_argument(
        "DatasetBuildOptions: error_label and bad_block_label are exclusive");

  std::vector<std::int32_t> error_dtf;
  if (options.error_label) error_dtf = days_to_next_error(src, *options.error_label);
  if (options.bad_block_label) error_dtf = days_to_next_bad_block(src);

  FeatureExtractor::State state;
  RollingWindow rolling;
  const std::size_t base_count = FeatureExtractor::count();
  std::vector<float> row(base_count +
                         (options.rolling_features ? RollingWindow::count() : 0));
  // Drive-constant RNG prefix: the per-row stream is keyed
  // {seed, uid, day}; folding the first two keys once per drive replays
  // hash_keys({seed, uid, day}) exactly (see stats::hash_fold).
  const std::uint64_t rng_prefix =
      stats::hash_fold(stats::hash_fold(stats::kHashKeysInit, options.seed), src.uid());
  const std::size_t n = src.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Binds a reference for RowSource and lifetime-extends the by-value
    // record a ColumnSource assembles from the mapped columns.
    const trace::DailyRecord& rec = src.record(i);
    FeatureExtractor::advance(state, rec);
    if (options.rolling_features) rolling.advance(rec, state.new_bad_blocks_today);
    if (in_failed_state(timeline, rec.day)) continue;

    const std::int32_t age = rec.day - src.deploy_day();
    if (options.age_filter == DatasetBuildOptions::AgeFilter::kYoungOnly &&
        age > kInfantAgeDays)
      continue;
    if (options.age_filter == DatasetBuildOptions::AgeFilter::kOldOnly &&
        age <= kInfantAgeDays)
      continue;
    // Prediction-time day window (label maturation / retraining windows).
    // Only emission is windowed; the cumulative state above already
    // advanced, so windowed rows are bit-identical to the unwindowed
    // build's matching subset.
    if (options.min_day && rec.day < *options.min_day) continue;
    if (options.max_day && rec.day > *options.max_day) continue;

    // Unified boundary convention (see DatasetBuildOptions::lookahead_days):
    // a drive-day at day d is positive iff the labeled event occurs on or
    // before day d+N.  Both label kinds use the same inclusive upper bound;
    // they differ only in whether day d itself can be the event day
    // (failure: yes, dtf == 0; error/bad-block: no, today's count is a
    // feature, and error_dtf is computed exclusive of the current day).
    const std::int32_t dtf = (options.error_label || options.bad_block_label)
                                 ? error_dtf[i]
                                 : days_to_next_failure(timeline, rec.day);

    stats::Rng row_rng(stats::hash_fold(rng_prefix, static_cast<std::uint64_t>(rec.day)));
    const double u = row_rng.uniform();

    const auto get_row = [&]() -> std::span<const float> {
      FeatureExtractor::extract(src.deploy_day(), rec, state,
                                std::span<float>(row).first(base_count));
      if (options.rolling_features)
        rolling.extract(std::span<float>(row).subspan(base_count));
      return row;
    };
    sink(dtf, u, get_row);
  }
}

/// Drive-level swap-range filter: true when at least one of the drive's
/// swap days (`day_of` maps each element of `swaps` to its day) falls in
/// [min_swap_day, max_swap_day].  The chunk-granular mirror of this check
/// is ScanPredicate::{min_swap_day,max_swap_day} zone-map pruning.
template <typename Swaps, typename DayOf>
bool swap_range_admits(const DatasetBuildOptions& options, const Swaps& swaps,
                       DayOf day_of) {
  if (!options.wants_swap_range()) return true;
  return std::any_of(std::begin(swaps), std::end(swaps), [&](const auto& swap) {
    const std::int32_t d = day_of(swap);
    return (!options.min_swap_day || d >= *options.min_swap_day) &&
           (!options.max_swap_day || d <= *options.max_swap_day);
  });
}

template <typename Sink>
void walk_drive(const trace::DriveHistory& drive, const DatasetBuildOptions& options,
                Sink&& sink) {
  if (options.model_filter && *options.model_filter != drive.model) return;
  if (options.class_filter &&
      trace::device_class(drive.model) != *options.class_filter)
    return;
  if (!swap_range_admits(options, drive.swaps,
                         [](const trace::SwapEvent& s) { return s.day; }))
    return;
  const DriveTimeline timeline = derive_timeline(drive);
  walk_source(RowSource{drive}, timeline, options, std::forward<Sink>(sink));
}

/// bernoulli(keep_prob) decision replayed from the row's stored draw.
bool keeps_row(double keep_prob, double u) noexcept {
  return keep_prob >= 1.0 || u < keep_prob;
}

/// The sink shared by append_drive and the columnar fused walk: label,
/// replay the keep decision, and push the surviving row.
auto dataset_sink(ml::Dataset& out, std::uint64_t uid, const DatasetBuildOptions& options) {
  return [&out, uid, &options](std::int32_t dtf, double u, auto&& get_row) {
    const bool positive = dtf <= options.lookahead_days;
    const double keep_prob =
        positive ? options.positive_keep_prob : options.negative_keep_prob;
    if (!keeps_row(keep_prob, u)) return;
    out.x.push_row(get_row());
    out.y.push_back(positive ? 1.0f : 0.0f);
    out.groups.push_back(uid);
  };
}

/// Fold one column-backed drive into the dataset without materializing it.
/// Only for drives with NO swaps: their timeline is a single censored
/// period (exactly what derive_timeline computes in that case), so the
/// whole walk can run off the mapped columns.  Drives with swaps take the
/// gather + append_drive path, keeping failure-timeline derivation in one
/// implementation.
void append_columnar_drive(ml::Dataset& out, const store::ChunkView& chunk,
                           const store::DriveRef& ref, const DatasetBuildOptions& options) {
  if (out.feature_names.empty()) out.feature_names = option_feature_names(options);
  DriveTimeline timeline;
  if (ref.row_count > 0)
    timeline.periods.push_back({chunk.day[ref.row_begin],
                                chunk.day[ref.row_begin + ref.row_count - 1],
                                /*ended_in_failure=*/false});
  walk_source(ColumnSource{chunk, ref}, timeline, options,
              dataset_sink(out, ref.uid(), options));
}

}  // namespace

void append_drive(ml::Dataset& out, const trace::DriveHistory& drive,
                  const DatasetBuildOptions& options) {
  if (options.lookahead_days < 1)
    throw std::invalid_argument("DatasetBuildOptions: lookahead_days must be >= 1");
  if (out.feature_names.empty()) out.feature_names = option_feature_names(options);

  walk_drive(drive, options, dataset_sink(out, drive.uid(), options));
}

ml::Dataset build_dataset(const sim::FleetSimulator& fleet,
                          const DatasetBuildOptions& options) {
  auto result = fleet.visit(
      [] { return ml::Dataset{}; },
      [&](ml::Dataset& acc, const trace::DriveHistory& drive) {
        append_drive(acc, drive, options);
      },
      [](ml::Dataset& dst, const ml::Dataset& src) {
        dst.x.append_rows(src.x);
        dst.y.insert(dst.y.end(), src.y.begin(), src.y.end());
        dst.groups.insert(dst.groups.end(), src.groups.begin(), src.groups.end());
        if (dst.feature_names.empty()) dst.feature_names = src.feature_names;
      });
  finalize_dataset(result, options);
  return result;
}

ml::Dataset build_dataset(const trace::FleetTrace& fleet,
                          const DatasetBuildOptions& options) {
  ml::Dataset out;
  for (const auto& drive : fleet.drives) append_drive(out, drive, options);
  finalize_dataset(out, options);
  return out;
}

ml::Dataset build_dataset(const store::ColumnarFleetView& fleet,
                          const DatasetBuildOptions& options) {
  static const obs::SiteId kSite = obs::intern_site("core.build_dataset_columnar");
  obs::Span span(kSite);
  if (options.lookahead_days < 1)
    throw std::invalid_argument("DatasetBuildOptions: lookahead_days must be >= 1");

  // One partial dataset per chunk, merged in chunk order below; the writer
  // preserves fleet order across chunks, so the merged row order matches
  // the sequential row-path build exactly.
  // Zone-map pushdown: a chunk whose zone map proves "no drive of the
  // filtered model" never gets touched (and, for v3, never gets decoded).
  // Pruning is exactly the per-drive model filter below hoisted to chunk
  // granularity, so the surviving row set is identical.
  store::ScanPredicate predicate;
  predicate.model = options.model_filter;
  predicate.device_class = options.class_filter;
  predicate.min_day = options.min_day;
  predicate.max_day = options.max_day;
  predicate.min_swap_day = options.min_swap_day;
  predicate.max_swap_day = options.max_swap_day;

  std::vector<ml::Dataset> partials(fleet.chunk_count());
  const auto build_chunk = [&fleet, &options, &partials, &predicate](std::size_t c) {
    if (!fleet.zone_map(c).may_match(predicate)) {
      chunks_pruned_counter().inc();
      return;
    }
    const store::ChunkView& chunk = fleet.chunk(c);
    trace::DriveHistory scratch;
    for (const store::DriveRef& ref : chunk.drives) {
      // Filter pushdown: the drive index answers the model/class filters
      // without touching a single column byte.
      if (options.model_filter && *options.model_filter != ref.model) continue;
      if (options.class_filter &&
          trace::device_class(ref.model) != *options.class_filter)
        continue;
      // Swap-range drive filter: answered from the chunk's swap slots (the
      // per-drive mirror of the zone-map pruning above).
      if (!swap_range_admits(options,
                             chunk.swap_days.subspan(ref.swap_begin, ref.swap_count),
                             std::identity{}))
        continue;
      if (ref.swap_count == 0) {
        append_columnar_drive(partials[c], chunk, ref, options);
      } else {
        chunk.gather_drive(ref, scratch);
        append_drive(partials[c], scratch, options);
      }
    }
  };
  // Same sequential degradation as parallel_for: one worker (or one
  // chunk) means TaskGroup handoff is pure overhead.
  parallel::ThreadPool& pool = parallel::ThreadPool::current();
  if (pool.size() <= 1 || fleet.chunk_count() <= 1 || pool.on_worker_thread()) {
    for (std::size_t c = 0; c < fleet.chunk_count(); ++c) build_chunk(c);
  } else {
    parallel::TaskGroup group(pool);
    for (std::size_t c = 0; c < fleet.chunk_count(); ++c)
      group.submit([&build_chunk, c] { build_chunk(c); });
    group.wait();
  }

  ml::Dataset out;
  for (const ml::Dataset& partial : partials) {
    out.x.append_rows(partial.x);
    out.y.insert(out.y.end(), partial.y.begin(), partial.y.end());
    out.groups.insert(out.groups.end(), partial.groups.begin(), partial.groups.end());
    if (out.feature_names.empty()) out.feature_names = partial.feature_names;
  }
  finalize_dataset(out, options);
  return out;
}

ml::Dataset build_dataset(const store::ShardedFleetView& fleet,
                          const DatasetBuildOptions& options) {
  static const obs::SiteId kSite = obs::intern_site("core.build_dataset_sharded");
  obs::Span span(kSite);
  // Every per-row decision is keyed by (seed, drive uid, day), so building
  // shard by shard in manifest order yields exactly the rows a single-file
  // build of the concatenated fleet would (finalize_dataset is per-row).
  ml::Dataset out;
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    ml::Dataset part = build_dataset(fleet.shard(s), options);
    out.x.append_rows(part.x);
    out.y.insert(out.y.end(), part.y.begin(), part.y.end());
    out.groups.insert(out.groups.end(), part.groups.begin(), part.groups.end());
    if (out.feature_names.empty()) out.feature_names = std::move(part.feature_names);
  }
  finalize_dataset(out, options);
  return out;
}

namespace {

/// Per-worker partial of the sweep cache's columnar arrays.
struct CacheColumns {
  ml::Matrix x;
  std::vector<std::int32_t> dtf;
  std::vector<double> keep_u;
  std::vector<std::uint64_t> groups;

  void append(const CacheColumns& other) {
    x.append_rows(other.x);
    dtf.insert(dtf.end(), other.dtf.begin(), other.dtf.end());
    keep_u.insert(keep_u.end(), other.keep_u.begin(), other.keep_u.end());
    groups.insert(groups.end(), other.groups.begin(), other.groups.end());
  }
};

/// Cache one drive's candidate rows: everything that survives the keep
/// filter for at least one window N in [1, max_lookahead].
void append_drive_to_cache(CacheColumns& out, const trace::DriveHistory& drive,
                           const DatasetBuildOptions& options, int max_lookahead) {
  walk_drive(drive, options, [&](std::int32_t dtf, double u, auto&& get_row) {
    // Across the sweep the row is positive for N >= dtf and negative
    // below; cache it iff either class's keep filter would admit it.
    const bool ever_positive = dtf <= max_lookahead;
    const bool kept = (ever_positive && keeps_row(options.positive_keep_prob, u)) ||
                      keeps_row(options.negative_keep_prob, u);
    if (!kept) return;
    out.x.push_row(get_row());
    out.dtf.push_back(dtf);
    out.keep_u.push_back(u);
    out.groups.push_back(drive.uid());
  });
}

}  // namespace

SweepDatasetCache::SweepDatasetCache(const sim::FleetSimulator& fleet,
                                     const DatasetBuildOptions& base, int max_lookahead)
    : base_(base), max_lookahead_(max_lookahead) {
  if (max_lookahead < 1)
    throw std::invalid_argument("SweepDatasetCache: max_lookahead must be >= 1");
  CacheColumns columns = fleet.visit(
      [] { return CacheColumns{}; },
      [&](CacheColumns& acc, const trace::DriveHistory& drive) {
        append_drive_to_cache(acc, drive, base_, max_lookahead_);
      },
      [](CacheColumns& dst, const CacheColumns& src) { dst.append(src); });
  x_ = std::move(columns.x);
  dtf_ = std::move(columns.dtf);
  keep_u_ = std::move(columns.keep_u);
  groups_ = std::move(columns.groups);
  feature_names_ = option_feature_names(base_);
}

SweepDatasetCache::SweepDatasetCache(const trace::FleetTrace& fleet,
                                     const DatasetBuildOptions& base, int max_lookahead)
    : base_(base), max_lookahead_(max_lookahead) {
  if (max_lookahead < 1)
    throw std::invalid_argument("SweepDatasetCache: max_lookahead must be >= 1");
  CacheColumns columns;
  for (const auto& drive : fleet.drives)
    append_drive_to_cache(columns, drive, base_, max_lookahead_);
  x_ = std::move(columns.x);
  dtf_ = std::move(columns.dtf);
  keep_u_ = std::move(columns.keep_u);
  groups_ = std::move(columns.groups);
  feature_names_ = option_feature_names(base_);
}

ml::Dataset SweepDatasetCache::materialize(int lookahead_days) const {
  if (lookahead_days < 1 || lookahead_days > max_lookahead_)
    throw std::invalid_argument(
        "SweepDatasetCache: lookahead_days must be in [1, " +
        std::to_string(max_lookahead_) + "], got " + std::to_string(lookahead_days));
  ml::Dataset out;
  out.feature_names = feature_names_;
  for (std::size_t i = 0; i < x_.rows(); ++i) {
    const bool positive = dtf_[i] <= lookahead_days;
    const double keep_prob =
        positive ? base_.positive_keep_prob : base_.negative_keep_prob;
    if (!keeps_row(keep_prob, keep_u_[i])) continue;
    out.x.push_row(x_.row(i));
    out.y.push_back(positive ? 1.0f : 0.0f);
    out.groups.push_back(groups_[i]);
  }
  out.validate();
  return out;
}

}  // namespace ssdfail::core
