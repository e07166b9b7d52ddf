#include "obs/snapshotter.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace ssdfail::obs {
namespace {

const SampleDelta* find_delta(const std::vector<SampleDelta>& deltas,
                              const std::string& name) {
  for (const SampleDelta& d : deltas)
    if (d.sample.name == name) return &d;
  return nullptr;
}

TEST(Snapshotter, FirstTickCapturesEverythingFromZero) {
  MetricsRegistry reg;
  reg.counter("boot_total").inc(5);
  Snapshotter snap(reg);
  const auto deltas = snap.tick();
  const SampleDelta* d = find_delta(deltas, "boot_total");
  ASSERT_NE(d, nullptr);
  EXPECT_DOUBLE_EQ(d->delta, 5.0);
  EXPECT_DOUBLE_EQ(d->sample.value, 5.0);
}

TEST(Snapshotter, DeltasAreSinceLastCaptureNotStart) {
  MetricsRegistry reg;
  Counter& c = reg.counter("steps_total");
  Snapshotter snap(reg);
  c.inc(2);
  (void)snap.tick();
  c.inc(7);
  const auto second = snap.tick();
  const SampleDelta* d = find_delta(second, "steps_total");
  ASSERT_NE(d, nullptr);
  EXPECT_DOUBLE_EQ(d->delta, 7.0);
  EXPECT_DOUBLE_EQ(d->sample.value, 9.0);
}

TEST(Snapshotter, NewMetricsDeltaFromZero) {
  MetricsRegistry reg;
  Snapshotter snap(reg);
  (void)snap.tick();
  reg.counter("late_total").inc(4);
  const auto deltas = snap.tick();
  EXPECT_DOUBLE_EQ(find_delta(deltas, "late_total")->delta, 4.0);
}

TEST(Snapshotter, HistogramDeltaIsObservationCount) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lag_us", std::vector<double>{10.0, 20.0});
  Snapshotter snap(reg);
  h.observe(5.0, 2);
  (void)snap.tick();
  h.observe(15.0, 3);
  const auto deltas = snap.tick();
  const SampleDelta* d = find_delta(deltas, "lag_us");
  ASSERT_NE(d, nullptr);
  EXPECT_DOUBLE_EQ(d->delta, 3.0);
  EXPECT_EQ(d->sample.count, 5u);
}

TEST(Snapshotter, LastHoldsMostRecentCapture) {
  MetricsRegistry reg;
  reg.gauge("level").set(2.5);
  Snapshotter snap(reg);
  EXPECT_TRUE(snap.last().samples.empty());
  (void)snap.tick();
  ASSERT_EQ(snap.last().samples.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.last().samples[0].value, 2.5);
}

}  // namespace
}  // namespace ssdfail::obs
