#pragma once

// Process-wide metrics registry: the collection core of the observability
// layer (docs/OBSERVABILITY.md).
//
// The paper's whole method rests on continuous fleet telemetry; this is
// the same discipline applied to the pipeline itself.  Idiom follows
// netdata's global-statistics pattern: the hot path is a relaxed atomic
// fetch-add on a per-stripe counter slot (no locks, no false sharing —
// each stripe owns a cache line and threads spread across stripes), and a
// reader builds a snapshot by summing the stripes.  Counters are
// monotonic, so a snapshot taken while writers run is always internally
// plausible.
//
// Metrics are interned lazily into labeled families:
//
//   obs::Counter& scored = obs::MetricsRegistry::global().counter(
//       "daemon_records_ingested_total", {{"shard", "3"}});
//   scored.inc();            // lock-free; cache the reference, never re-intern
//
// Interning takes the registry mutex once; callers hold the returned
// reference (stable for the registry's lifetime) and never pay it again.
// Naming conventions (enforced by scripts/metrics_lint.py): snake_case,
// counters end in `_total`, histograms carry a unit suffix (`_us`,
// `_bytes`, `_seconds`).
//
// Disabled mode: obs::set_enabled(false) turns every increment into a
// relaxed load + branch (near-no-op), for benchmarking the instrumentation
// itself (bench/bench_obs_overhead.cpp) and for latency-critical replays.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ssdfail::obs {

/// Global instrumentation switch (default on).  Disabling stops new
/// observations; already-recorded values remain readable.
void set_enabled(bool on) noexcept;
[[nodiscard]] bool enabled() noexcept;

/// Label set as (key, value) pairs; canonicalized (key-sorted) on intern.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {
/// Atomic add for doubles (no std::atomic<double>::fetch_add pre-C++20
/// library support guarantee); relaxed CAS loop.
inline void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Monotonic counter, striped across cache lines.  inc() is a relaxed
/// fetch-add on the calling thread's stripe; value() sums the stripes.
class Counter {
 public:
  static constexpr std::size_t kStripes = 8;

  void inc(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    stripes_[stripe_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const Stripe& s : stripes_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> v{0};
  };
  /// Threads are spread round-robin across stripes (stable per thread).
  static std::size_t stripe_index() noexcept;

  std::array<Stripe, kStripes> stripes_{};
};

/// Last-value gauge (double).  set/add are lock-free.
class Gauge {
 public:
  void set(double v) noexcept {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(double delta) noexcept {
    if (!enabled()) return;
    detail::atomic_add(value_, delta);
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram (Prometheus semantics: bucket i counts
/// observations <= bound i; an implicit +Inf bucket catches the rest).
/// observe() is lock-free: one relaxed fetch-add on the bucket plus a CAS
/// add on the running sum.
class Histogram {
 public:
  explicit Histogram(std::span<const double> bounds);

  /// Record `count` observations of `value` (weighted observe; the
  /// daemon records one mean latency for a batch of N records).
  void observe(double value, std::uint64_t count = 1) noexcept;

  [[nodiscard]] std::size_t bucket_count() const noexcept { return buckets_.size(); }
  /// Upper bound of bucket i; the last bucket's bound is +infinity.
  [[nodiscard]] double upper_bound(std::size_t i) const noexcept;
  /// Non-cumulative count in bucket i.
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_count() const noexcept;
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }

 private:
  std::vector<double> bounds_;  ///< strictly increasing, finite
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< bounds_.size() + 1 (+Inf)
  std::atomic<double> sum_{0.0};
};

enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string_view metric_type_name(MetricType type) noexcept;

/// Point-in-time value of one metric (one labeled child).
struct Sample {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  Labels labels;
  double value = 0.0;                   ///< counter/gauge
  std::vector<double> bucket_bounds;    ///< histogram only (+Inf implied at end)
  std::vector<std::uint64_t> buckets;   ///< non-cumulative, bounds.size()+1 entries
  std::uint64_t count = 0;              ///< histogram observation count
  double sum = 0.0;                     ///< histogram sum of observed values

  /// Canonical `name{k="v",...}` key (exposition- and bench-stable).
  [[nodiscard]] std::string key() const;
};

/// Deterministically ordered (family name asc, label key asc) snapshot.
struct RegistrySnapshot {
  std::vector<Sample> samples;

  /// First sample matching name (+ labels when given); nullptr if absent.
  [[nodiscard]] const Sample* find(std::string_view name) const noexcept;
  [[nodiscard]] const Sample* find(std::string_view name,
                                   const Labels& labels) const noexcept;
};

/// Named metric families with labeled children.  Interning is mutex-
/// guarded and idempotent: the same (name, labels) always returns the
/// same object; re-interning a name with a different type, help, or
/// bucket layout throws std::invalid_argument (duplicate registration).
/// Returned references live as long as the registry.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry (never destroyed: safe to touch from worker
  /// threads during static teardown).
  static MetricsRegistry& global();

  Counter& counter(std::string_view name, const Labels& labels = {},
                   std::string_view help = "");
  Gauge& gauge(std::string_view name, const Labels& labels = {},
               std::string_view help = "");
  Histogram& histogram(std::string_view name, std::span<const double> bounds,
                       const Labels& labels = {}, std::string_view help = "");

  [[nodiscard]] RegistrySnapshot snapshot() const;

  /// Number of interned (name, labels) children across all families.
  [[nodiscard]] std::size_t metric_count() const;

 private:
  struct Child {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    std::vector<double> bounds;               ///< histogram families only
    std::map<std::string, Child> children;    ///< keyed by canonical label string
  };

  Family& family_for(std::string_view name, MetricType type, std::string_view help,
                     std::span<const double> bounds);
  Child& child_for(Family& family, const Labels& labels);

  mutable std::mutex mutex_;
  std::map<std::string, Family, std::less<>> families_;
};

/// True iff `name` is a valid metric/label identifier:
/// [a-zA-Z_][a-zA-Z0-9_]*.
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;

/// Equal-width bucket bounds lo+w, lo+2w, ..., hi (hi inclusive as the
/// last finite bound) — the layout of daemon_score_latency_us, which
/// matches stats::Histogram(lo, hi, bins) bin-for-bin.
[[nodiscard]] std::vector<double> equal_width_bounds(double lo, double hi,
                                                     std::size_t bins);

}  // namespace ssdfail::obs
