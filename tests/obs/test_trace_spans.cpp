#include "obs/trace_span.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace ssdfail::obs {
namespace {

const SpanStats* find_site(const std::vector<SpanStats>& stats, const std::string& name) {
  for (const SpanStats& s : stats)
    if (s.name == name) return &s;
  return nullptr;
}

/// Each test works against the process-global collector; reset first so
/// earlier tests (and fixture setup) don't leak spans in.
class TraceSpans : public ::testing::Test {
 protected:
  void SetUp() override { TraceCollector::global().reset(); }
};

TEST_F(TraceSpans, InterningIsIdempotent) {
  const SiteId a = intern_site("test.site_a");
  EXPECT_EQ(intern_site("test.site_a"), a);
  EXPECT_NE(intern_site("test.site_b"), a);
  EXPECT_EQ(site_name(a), "test.site_a");
  EXPECT_EQ(site_name(0), "");
}

TEST_F(TraceSpans, NestedSpansSplitSelfTime) {
  const SiteId parent = intern_site("test.parent");
  const SiteId child = intern_site("test.child");
  {
    Span outer(parent);
    for (int i = 0; i < 3; ++i) Span inner(child);
  }
  const auto stats = TraceCollector::global().aggregate();
  const SpanStats* p = find_site(stats, "test.parent");
  const SpanStats* c = find_site(stats, "test.child");
  ASSERT_NE(p, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(p->count, 1u);
  EXPECT_EQ(c->count, 3u);
  // Parent's self time excludes the children; every duration is non-negative.
  EXPECT_LE(p->self_us, p->total_us);
  EXPECT_GE(c->total_us, 0.0);
  EXPECT_GE(p->total_us, c->total_us);
}

TEST_F(TraceSpans, RecentRecordsCarryParentSite) {
  const SiteId parent = intern_site("test.ring_parent");
  const SiteId child = intern_site("test.ring_child");
  {
    Span outer(parent);
    Span inner(child);
  }
  bool found_child = false;
  for (const SpanRecord& r : TraceCollector::global().recent()) {
    if (r.site != child) continue;
    found_child = true;
    EXPECT_EQ(r.parent_site, parent);
    EXPECT_GE(r.duration_ns, r.self_ns);
  }
  EXPECT_TRUE(found_child);
}

TEST_F(TraceSpans, PublishExportsGauges) {
  const SiteId site = intern_site("test.published");
  { Span span(site); }
  MetricsRegistry reg;
  TraceCollector::global().publish(reg);
  const RegistrySnapshot snap = reg.snapshot();
  const Sample* count = snap.find("trace_span_count", {{"site", "test.published"}});
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->value, 1.0);
  EXPECT_NE(snap.find("trace_span_total_us", {{"site", "test.published"}}), nullptr);
  EXPECT_NE(snap.find("trace_span_self_us", {{"site", "test.published"}}), nullptr);
  EXPECT_NE(snap.find("trace_span_p50_us", {{"site", "test.published"}}), nullptr);
  EXPECT_NE(snap.find("trace_span_p99_us", {{"site", "test.published"}}), nullptr);
}

TEST_F(TraceSpans, ResetDropsEverything) {
  { Span span(intern_site("test.dropped")); }
  TraceCollector::global().reset();
  EXPECT_EQ(find_site(TraceCollector::global().aggregate(), "test.dropped"), nullptr);
  EXPECT_TRUE(TraceCollector::global().recent().empty());
}

TEST_F(TraceSpans, DisabledSpansAreInert) {
  set_enabled(false);
  { Span span(intern_site("test.disabled")); }
  set_enabled(true);
  EXPECT_EQ(find_site(TraceCollector::global().aggregate(), "test.disabled"), nullptr);
}

TEST_F(TraceSpans, ContextPropagatesAcrossPoolWorkers) {
  const SiteId parent = intern_site("test.submit_site");
  const SiteId child = intern_site("test.worker_span");
  parallel::ThreadPool pool(2);
  {
    Span submit_span(parent);
    parallel::TaskGroup group(pool);
    for (int i = 0; i < 16; ++i)
      group.submit([child] { Span span(child); });
    group.wait();
  }
  std::size_t attributed = 0;
  for (const SpanRecord& r : TraceCollector::global().recent(128))
    if (r.site == child) {
      EXPECT_EQ(r.parent_site, parent) << "worker span lost its submitter context";
      ++attributed;
    }
  EXPECT_EQ(attributed, 16u);
}

TEST_F(TraceSpans, ContextPropagatesThroughNestedWaitHelping) {
  // A task submits a nested group and wait()s inside the pool: with a
  // single worker the nested tasks can only run by the waiting thread
  // *helping* — spans they open must still attribute to the nested
  // submit site, and the outer tasks to the outer site.
  const SiteId outer_site = intern_site("test.outer_submit");
  const SiteId inner_site = intern_site("test.inner_submit");
  const SiteId leaf = intern_site("test.leaf");
  parallel::ThreadPool pool(1);
  {
    Span root(outer_site);
    parallel::TaskGroup group(pool);
    group.submit([&pool, inner_site, leaf] {
      Span nested(inner_site);
      parallel::TaskGroup inner(pool);
      for (int i = 0; i < 8; ++i)
        inner.submit([leaf] { Span span(leaf); });
      inner.wait();  // single worker is *this* thread: wait() helps
    });
    group.wait();
  }
  std::size_t leaves = 0;
  for (const SpanRecord& r : TraceCollector::global().recent(128))
    if (r.site == leaf) {
      EXPECT_EQ(r.parent_site, inner_site);
      ++leaves;
    }
  EXPECT_EQ(leaves, 8u);
  const auto stats = TraceCollector::global().aggregate();
  ASSERT_NE(find_site(stats, "test.inner_submit"), nullptr);
  EXPECT_EQ(find_site(stats, "test.inner_submit")->count, 1u);
}

// TSan target (ci.yml tsan job): exposition racing live span writers and
// counter increments must be clean — each thread's buffer has its own
// mutex, aggregate() locks them briefly.
TEST_F(TraceSpans, ExpositionWhileSpansCloseIsRaceFree) {
  const SiteId site = intern_site("test.racing_span");
  MetricsRegistry reg;
  Counter& hits = reg.counter("racing_span_total");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t)
    writers.emplace_back([&stop, &hits, site] {
      do {  // at least one span even if stop wins the scheduling race
        Span span(site);
        hits.inc();
      } while (!stop.load(std::memory_order_relaxed));
    });
  for (int i = 0; i < 50; ++i) {
    TraceCollector::global().publish(reg);
    const std::string text = to_prometheus(reg.snapshot());
    EXPECT_FALSE(text.empty());
    (void)TraceCollector::global().recent();
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  const auto aggregate = TraceCollector::global().aggregate();  // outlives `s`
  const SpanStats* s = find_site(aggregate, "test.racing_span");
  ASSERT_NE(s, nullptr);
  EXPECT_GT(s->count, 0u);
}

}  // namespace
}  // namespace ssdfail::obs
