#pragma once

// Scoped span timers forming a lightweight trace tree.
//
// A Span measures one scoped region against an interned *call-site* name:
//
//   void score_batch(...) {
//     static const obs::SiteId kSite = obs::intern_site("daemon.score_batch");
//     obs::Span span(kSite);
//     ...
//   }
//
// Spans nest on a per-thread stack: a span's SELF time is its duration
// minus the time spent inside child spans, so aggregated self-times tell
// you where wall-clock actually goes (flame-graph semantics without the
// graph).  Completed spans land in a per-thread buffer — running per-site
// aggregates plus a bounded ring of recent raw spans — and the global
// TraceCollector merges all threads into per-site stats
// (count / total / self / p50 / p99).
//
// Cross-thread propagation: parallel::TaskGroup captures the submitting
// thread's span context (obs::current_span_context()) with each task and
// adopts it on the executing thread (worker or a helper inside
// TaskGroup::wait) via obs::ScopedSpanContext — piggybacking on the same
// pool-context inheritance that keeps nested parallelism in budget.  A
// span opened inside a pool task is therefore attributed to the
// submitting call-site as its parent, whichever thread ran it.  Time a
// waiting span spends *helping* (running stolen tasks inline) is charged
// to those tasks' spans, not to the waiter's self time.
//
// Thread-safety: each thread writes only its own buffer under its own
// mutex (uncontended on the hot path); TraceCollector::aggregate() locks
// each buffer briefly, so exposition while spans close is race-free
// (TSan-clean by test).  When obs::enabled() is false, spans are inert.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ssdfail::obs {

class MetricsRegistry;

/// Interned call-site id; 0 is reserved for "no site" (trace roots).
using SiteId = std::uint32_t;

/// Intern a call-site name (idempotent; mutex-guarded — cache the id in a
/// static at the call site).  Names use the same dotted convention as
/// metrics: "layer.operation" (e.g. "cv.fold", "forest.tree").
[[nodiscard]] SiteId intern_site(std::string_view name);

/// Name of an interned site ("" for 0 / unknown ids).
[[nodiscard]] std::string site_name(SiteId site);

/// The calling thread's innermost active span site (for hand-off to
/// another thread); 0 when no span is active.
struct SpanContext {
  SiteId site = 0;
};
[[nodiscard]] SpanContext current_span_context() noexcept;

/// Adopt a captured context for the current scope: spans opened inside
/// report `ctx.site` as their parent.  Suspends (and on exit resumes) any
/// active span stack of this thread; the suspended span's self time is
/// NOT charged for the adopted scope's duration.
class ScopedSpanContext {
 public:
  explicit ScopedSpanContext(SpanContext ctx) noexcept;
  ~ScopedSpanContext();

  ScopedSpanContext(const ScopedSpanContext&) = delete;
  ScopedSpanContext& operator=(const ScopedSpanContext&) = delete;

 private:
  class Span* saved_span_;
  SpanContext saved_ambient_;
  std::uint64_t start_ns_;
};

/// RAII scoped timer.  Construct with a pre-interned SiteId on hot paths;
/// the const char* overload interns per call (fine for cold paths).
class Span {
 public:
  explicit Span(SiteId site) noexcept;
  explicit Span(const char* name) : Span(intern_site(name)) {}
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  friend class ScopedSpanContext;
  friend SpanContext current_span_context() noexcept;

  SiteId site_ = 0;
  SiteId parent_site_ = 0;
  Span* parent_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t child_ns_ = 0;
  bool active_ = false;
};

/// One completed span (ring-buffer entry).
struct SpanRecord {
  SiteId site = 0;
  SiteId parent_site = 0;
  std::uint64_t duration_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Aggregated stats for one call-site across all threads.
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  double p50_us = 0.0;  ///< log2-bucket upper-edge estimate
  double p99_us = 0.0;
};

/// Merges every thread's span buffers into per-site statistics.
class TraceCollector {
 public:
  /// Process-wide collector (never destroyed; see MetricsRegistry::global).
  static TraceCollector& global();

  /// Per-site stats, name-sorted (deterministic).
  [[nodiscard]] std::vector<SpanStats> aggregate() const;

  /// Most recent completed spans across all threads (triage aid; order is
  /// per-thread recency, not global time order).  At most `max` records.
  [[nodiscard]] std::vector<SpanRecord> recent(std::size_t max = 64) const;

  /// Publish aggregate() into `registry` as gauges:
  ///   trace_span_count{site=...}      trace_span_total_us{site=...}
  ///   trace_span_self_us{site=...}    trace_span_p50_us / trace_span_p99_us
  /// Idempotent (gauges are set, not added) — call before exposition.
  void publish(MetricsRegistry& registry) const;

  /// Drop all recorded spans and aggregates (tests and benches).
  void reset();
};

}  // namespace ssdfail::obs
