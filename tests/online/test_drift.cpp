// Drift-detection tests: log2 marginal sketches, the PSI/KS two-sample
// statistics, the clock-column exclusion from alert aggregates, the
// streaming detector's edge-triggered alerting, and the drifting-regime
// fleet generator (which must reduce exactly to FleetSimulator when the
// drifted fraction is zero).

#include "online/drift.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/drifting_fleet.hpp"
#include "sim/fleet_simulator.hpp"
#include "store/columnar.hpp"
#include "trace/drive_history.hpp"

namespace ssdfail::online {
namespace {

trace::DailyRecord record_with(std::int32_t day, std::uint32_t writes) {
  trace::DailyRecord rec;
  rec.day = day;
  rec.reads = 50;
  rec.writes = writes;
  rec.erases = 3;
  rec.pe_cycles = 10;
  rec.bad_blocks = 1;
  rec.factory_bad_blocks = 4;
  return rec;
}

constexpr std::size_t kDayCol = static_cast<std::size_t>(store::ZoneColumn::kDay);
constexpr std::size_t kSwapCol = static_cast<std::size_t>(store::ZoneColumn::kSwapDay);
constexpr std::size_t kWritesCol = static_cast<std::size_t>(store::ZoneColumn::kWrites);

// ---------------------------------------------------------------------------
// MarginalSketch / compare_sketches
// ---------------------------------------------------------------------------

TEST(MarginalSketch, Log2BinEdges) {
  EXPECT_EQ(MarginalSketch::bin_of(-7), 0u);
  EXPECT_EQ(MarginalSketch::bin_of(0), 0u);
  EXPECT_EQ(MarginalSketch::bin_of(1), 1u);
  EXPECT_EQ(MarginalSketch::bin_of(2), 2u);
  EXPECT_EQ(MarginalSketch::bin_of(3), 2u);
  EXPECT_EQ(MarginalSketch::bin_of(4), 3u);
  EXPECT_EQ(MarginalSketch::bin_of(7), 3u);
  EXPECT_EQ(MarginalSketch::bin_of(8), 4u);
  // Far beyond 2^30: clamped into the tail bucket.
  EXPECT_EQ(MarginalSketch::bin_of(std::int64_t{1} << 62), kDriftBins - 1);
}

TEST(MarginalSketch, MergeAddsBinsAndCounts) {
  MarginalSketch a, b;
  a.add(1);
  a.add(100);
  b.add(1);
  a.merge(b);
  EXPECT_EQ(a.n, 3u);
  EXPECT_EQ(a.bins[MarginalSketch::bin_of(1)], 2u);
  EXPECT_EQ(a.bins[MarginalSketch::bin_of(100)], 1u);
}

TEST(CompareSketches, IdenticalDistributionsScoreZero) {
  MarginalSketch ref, cur;
  for (int i = 0; i < 1000; ++i) {
    ref.add(i % 37);
    cur.add(i % 37);
  }
  const DriftStat stat = compare_sketches(ref, cur);
  EXPECT_NEAR(stat.psi, 0.0, 1e-9);
  EXPECT_NEAR(stat.ks, 0.0, 1e-9);
}

TEST(CompareSketches, DisjointDistributionsScoreLarge) {
  MarginalSketch ref, cur;
  for (int i = 0; i < 1000; ++i) {
    ref.add(2);            // bin 2
    cur.add(1 << 12);      // bin 13
  }
  const DriftStat stat = compare_sketches(ref, cur);
  EXPECT_GT(stat.psi, 1.0);
  EXPECT_NEAR(stat.ks, 1.0, 1e-9);
}

TEST(CompareSketches, EmptySketchesCompareAsZeroDrift) {
  MarginalSketch ref, empty;
  ref.add(5);
  EXPECT_EQ(compare_sketches(ref, empty).psi, 0.0);
  EXPECT_EQ(compare_sketches(empty, ref).ks, 0.0);
  EXPECT_EQ(compare_sketches(empty, empty).psi, 0.0);
}

TEST(FeatureSketches, AddRecordFillsEveryColumnExceptSwapDay) {
  FeatureSketches s;
  s.add_record(record_with(10, 500));
  EXPECT_EQ(s.rows, 1u);
  for (std::size_t c = 0; c < store::kNumZoneColumns; ++c) {
    if (c == kSwapCol) {
      EXPECT_EQ(s.columns[c].n, 0u);
    } else {
      EXPECT_EQ(s.columns[c].n, 1u) << "column " << c;
    }
  }
  s.add_swap_day(42);
  EXPECT_EQ(s.columns[kSwapCol].n, 1u);
  EXPECT_EQ(s.rows, 1u) << "swap days are not rows";
}

// The column-side sketch of a stored fleet equals folding its records
// one by one, on both columnar versions.
TEST(FeatureSketches, SketchFleetMatchesAddRecordOverMaterializedFleet) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = 6;
  cfg.window_days = 500;
  cfg.seed = 31;
  const trace::FleetTrace fleet = sim::FleetSimulator(cfg.mixed()).generate_all();
  for (const std::uint32_t version : {store::kColumnarVersion, store::kColumnarVersionV3}) {
    std::ostringstream out(std::ios::binary);
    store::write_columnar(out, fleet, {4, version});
    const std::string bytes = out.str();
    const auto view = store::ColumnarFleetView::from_buffer({bytes.begin(), bytes.end()});

    FeatureSketches expected;
    for (const trace::DriveHistory& drive : store::materialize(view).drives) {
      for (const trace::DailyRecord& rec : drive.records) expected.add_record(rec);
      for (const trace::SwapEvent& swap : drive.swaps) expected.add_swap_day(swap.day);
    }
    const FeatureSketches got = sketch_fleet(view);
    ASSERT_GT(got.rows, 0u);
    EXPECT_EQ(got.rows, expected.rows) << "v" << version;
    for (std::size_t c = 0; c < store::kNumZoneColumns; ++c) {
      EXPECT_EQ(got.columns[c].n, expected.columns[c].n)
          << "v" << version << " column " << c;
      EXPECT_EQ(got.columns[c].bins, expected.columns[c].bins)
          << "v" << version << " column " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// compare_fleets: the clock columns never drive the aggregates
// ---------------------------------------------------------------------------

TEST(CompareFleets, ClockColumnsAreReportedButExcludedFromAggregates) {
  // Two windows whose FEATURE distributions are identical and whose day /
  // swap-day ranges are disjoint — exactly what any live stream produces.
  FeatureSketches ref, cur;
  for (std::int32_t d = 0; d < 600; ++d) {
    ref.add_record(record_with(d, 500));
    cur.add_record(record_with(d + 4096, 500));
  }
  ref.add_swap_day(100);
  cur.add_swap_day(8000);

  DriftConfig cfg;
  cfg.min_window_rows = 1;
  const DriftReport report = compare_fleets(ref, cur, cfg);

  // The clock columns do drift (disjoint bins -> KS at 1)...
  EXPECT_GT(report.columns[kDayCol].ks, 0.5);
  EXPECT_NEAR(report.columns[kSwapCol].ks, 1.0, 1e-9);
  // ...but the aggregates and the alert ignore them.
  EXPECT_NEAR(report.max_psi, 0.0, 1e-9);
  EXPECT_NEAR(report.max_ks, 0.0, 1e-9);
  EXPECT_FALSE(report.alert);
}

TEST(CompareFleets, FeatureShiftDrivesTheAggregatesAndAlert) {
  FeatureSketches ref, cur;
  for (std::int32_t d = 0; d < 600; ++d) {
    ref.add_record(record_with(d, 8));
    cur.add_record(record_with(d, 4000));  // writes shifted by ~9 bins
  }
  DriftConfig cfg;
  cfg.min_window_rows = 1;
  const DriftReport report = compare_fleets(ref, cur, cfg);
  EXPECT_GE(report.max_psi, cfg.psi_alert);
  EXPECT_EQ(report.worst_column, kWritesCol);
  EXPECT_TRUE(report.alert);

  // The same shift below the minimum window size never alerts.
  cfg.min_window_rows = 10'000;
  EXPECT_FALSE(compare_fleets(ref, cur, cfg).alert);
}

// ---------------------------------------------------------------------------
// DriftDetector: streaming window, edge-triggered alert counter
// ---------------------------------------------------------------------------

TEST(DriftDetector, AlertsEdgeTriggeredAndWindowResets) {
  obs::MetricsRegistry registry;
  DriftConfig cfg;
  cfg.min_window_rows = 64;
  DriftDetector detector(cfg, &registry);

  // No reference installed: evaluate reports only the window size.
  detector.observe(record_with(0, 8));
  EXPECT_FALSE(detector.has_reference());
  EXPECT_EQ(detector.evaluate().window_rows, 1u);
  detector.reset_window();

  FeatureSketches reference;
  for (std::int32_t d = 0; d < 500; ++d) reference.add_record(record_with(d, 8));
  detector.set_reference(reference);
  ASSERT_TRUE(detector.has_reference());

  obs::Counter& alerts =
      registry.counter("online_drift_alerts_total", {}, "Drift alerts fired (edge-triggered)");

  // Shifted window: alert fires once, stays level-high, counts one edge.
  for (std::int32_t d = 0; d < 200; ++d) detector.observe(record_with(d, 4000));
  EXPECT_EQ(detector.window_rows(), 200u);
  EXPECT_TRUE(detector.evaluate().alert);
  EXPECT_TRUE(detector.evaluate().alert);
  EXPECT_EQ(alerts.value(), 1u);

  // Window reset rearms the edge and clears the rows.
  detector.reset_window();
  EXPECT_EQ(detector.window_rows(), 0u);
  for (std::int32_t d = 0; d < 200; ++d) detector.observe(record_with(d, 4000));
  EXPECT_TRUE(detector.evaluate().alert);
  EXPECT_EQ(alerts.value(), 2u);

  // Adopting the window as reference ends the drift: fresh windows drawn
  // from the same (shifted) distribution now compare clean.
  detector.adopt_window_as_reference();
  for (std::int32_t d = 0; d < 200; ++d) detector.observe(record_with(d, 4000));
  const DriftReport adopted = detector.evaluate();
  EXPECT_FALSE(adopted.alert);
  EXPECT_NEAR(adopted.max_psi, 0.0, 1e-9);
  EXPECT_EQ(alerts.value(), 2u);
}

// ---------------------------------------------------------------------------
// DriftingFleetSimulator
// ---------------------------------------------------------------------------

sim::DriftingFleetConfig small_drift_config(double fraction, std::int32_t drift_day) {
  sim::DriftingFleetConfig cfg;
  cfg.base.drives_per_model = 8;
  cfg.base.window_days = 400;
  cfg.base.seed = 77;
  cfg.drift.drifted_fraction = fraction;
  cfg.drift.drift_day = drift_day;
  return cfg;
}

void expect_same_history(const trace::DriveHistory& a, const trace::DriveHistory& b) {
  ASSERT_EQ(a.uid(), b.uid());
  EXPECT_EQ(a.deploy_day, b.deploy_day);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const trace::DailyRecord& ra = a.records[i];
    const trace::DailyRecord& rb = b.records[i];
    ASSERT_EQ(ra.day, rb.day);
    EXPECT_EQ(ra.reads, rb.reads);
    EXPECT_EQ(ra.writes, rb.writes);
    EXPECT_EQ(ra.erases, rb.erases);
    EXPECT_EQ(ra.pe_cycles, rb.pe_cycles);
    EXPECT_EQ(ra.bad_blocks, rb.bad_blocks);
    EXPECT_EQ(ra.errors, rb.errors);
    EXPECT_EQ(ra.dead, rb.dead);
  }
  ASSERT_EQ(a.swaps.size(), b.swaps.size());
  for (std::size_t i = 0; i < a.swaps.size(); ++i)
    EXPECT_EQ(a.swaps[i].day, b.swaps[i].day);
}

TEST(DriftingFleet, ZeroFractionReducesToFleetSimulator) {
  const auto cfg = small_drift_config(0.0, 200);
  sim::DriftingFleetSimulator drifting(cfg);
  sim::FleetSimulator plain(cfg.base);
  ASSERT_EQ(drifting.drive_count(), plain.drive_count());
  for (std::size_t i = 0; i < drifting.drive_count(); ++i) {
    EXPECT_FALSE(drifting.is_drifted(i));
    expect_same_history(drifting.simulate(i), plain.simulate(i));
  }
}

TEST(DriftingFleet, BaselineCohortIsBitIdenticalAndDriftedCohortStartsLate) {
  const auto cfg = small_drift_config(0.5, 200);
  sim::DriftingFleetSimulator drifting(cfg);
  sim::FleetSimulator plain(cfg.base);
  std::size_t drifted = 0;
  for (std::size_t i = 0; i < drifting.drive_count(); ++i) {
    if (!drifting.is_drifted(i)) {
      expect_same_history(drifting.simulate(i), plain.simulate(i));
      continue;
    }
    ++drifted;
    // The drifted batch deploys at/after drift_day: before it the stream
    // is indistinguishable from the baseline fleet.
    const trace::DriveHistory d = drifting.simulate(i);
    EXPECT_GE(d.deploy_day, cfg.drift.drift_day);
    for (const auto& rec : d.records) EXPECT_GE(rec.day, cfg.drift.drift_day);
  }
  // ceil(0.5 * 8) = 4 per configured model (the default MLC-only fleet).
  EXPECT_EQ(drifted, 4u * cfg.base.models.size());
}

TEST(DriftingFleet, PostDriftWindowShiftsFeatureMarginals) {
  const auto split_sketch = [](const trace::FleetTrace& fleet, std::int32_t day) {
    std::pair<FeatureSketches, FeatureSketches> out;
    for (const auto& drive : fleet.drives)
      for (const auto& rec : drive.records)
        (rec.day < day ? out.first : out.second).add_record(rec);
    return out;
  };
  const std::int32_t drift_day = 200;
  DriftConfig cfg;
  cfg.min_window_rows = 1;

  const auto drifted = small_drift_config(0.6, drift_day);
  const auto [dref, dcur] = split_sketch(sim::DriftingFleetSimulator(drifted).generate_all(), drift_day);
  const auto [bref, bcur] =
      split_sketch(sim::FleetSimulator(drifted.base).generate_all(), drift_day);

  // The drifted cohort's post-drift records shift the marginals well beyond
  // whatever pre/post difference fleet aging alone produces.
  const double drifted_psi = compare_fleets(dref, dcur, cfg).max_psi;
  const double baseline_psi = compare_fleets(bref, bcur, cfg).max_psi;
  EXPECT_GT(drifted_psi, 2.0 * baseline_psi);
}

}  // namespace
}  // namespace ssdfail::online
