// train_cv: one operation is the paper's Section 5 path — open the v3
// file, core::build_dataset with N = 7, then core::evaluate_auc of the
// default RandomForest (5 drive-partitioned folds, 1:1 downsampling).
// Training dominates; the dataset build is a small share, so a scan gain
// shows here only at that share.
//
// Operations cycle over kFleets small seeded fleets with a fixed failure
// count each: fit time follows a fleet's failure pattern, and a run's
// median over several fleets swings far less with the seed than one
// fleet's would.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "core/dataset_builder.hpp"
#include "core/prediction.hpp"
#include "ml/downsample.hpp"
#include "ml/random_forest.hpp"
#include "obs/trace_span.hpp"
#include "stats/rng.hpp"
#include "store/columnar.hpp"

namespace perfbench {
namespace {

using namespace ssdfail;
namespace fs = std::filesystem;

constexpr int kSetupRepeats = 3;
constexpr std::size_t kMinOps = 100;
constexpr std::uint32_t kFailedPerModel = 10;
constexpr std::uint32_t kHealthyPerModel = 70;
constexpr std::size_t kFleets = 8;

core::DatasetBuildOptions build_options() {
  core::DatasetBuildOptions options;
  options.lookahead_days = 7;
  return options;
}

/// Digest of every fleet's reference fold AUC bit patterns, pinned per
/// seed.  A seed with no pin is checked against the benchmark's own fold
/// computation and the plausibility bound only.
const std::map<std::uint64_t, std::uint64_t>& pinned_auc_digests() {
  static const std::map<std::uint64_t, std::uint64_t> pins = {
      {0, 0x8755c2cac8674cd3ULL},
      {1, 0x2668d45865386a09ULL},
      {2, 0xbe68d5e67cb87017ULL},
      {3, 0xc819867d039990e8ULL},
      {4, 0x262fb5ce5db6040cULL},
      {5, 0x81de089787792084ULL},
      {6, 0x39f430b8045bf1caULL},
      {7, 0x75c24f05c10d1a90ULL},
      {8, 0xbfeed092745d339fULL},
      {9, 0x8c08c5b53c296817ULL},
      {10, 0x1ae07ed75cc55546ULL},
      {11, 0xbf0c7bccafd22bddULL},
      {12, 0x14b9352a8129ec38ULL},
      {13, 0x542fab21e14ef3adULL},
      {14, 0x84eb9aca05eb4342ULL},
      {15, 0xa6eb845e7bc1e9baULL},
      {16, 0x41588b6753a56227ULL},
      {17, 0xd6ca49e117e9b7eaULL},
      {18, 0xf31c156b6d1f321dULL},
      {19, 0xebc6da96d39e5a86ULL},
      {20, 0xc8eb9fce77a05757ULL},
  };
  return pins;
}

std::vector<std::uint64_t> auc_bits(const std::vector<double>& aucs) {
  std::vector<std::uint64_t> bits;
  for (const double a : aucs) bits.push_back(std::bit_cast<std::uint64_t>(a));
  return bits;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Span sites of a traced run: the operation with its layer calls, and
/// each fold (on whichever thread runs it) with its own.
const std::string kOpRoot = "perfbench.train_cv.op", kOpen = "perfbench.store.open",
                  kBuild = "perfbench.core.build", kSplit = "perfbench.ml.group_k_fold",
                  kCv = "perfbench.ml.cv";
const std::string kFoldRoot = "perfbench.cv.fold", kSubset = "perfbench.ml.subset",
                  kDownsample = "perfbench.ml.downsample", kFit = "perfbench.ml.fit",
                  kScore = "perfbench.ml.score", kAuc = "perfbench.ml.auc";

/// One cross-validation fold as core::evaluate_auc runs it (subset,
/// downsample the training side, fit a clone, score, AUC), with a span per
/// layer when tracing is on.
struct FoldRun {
  double auc = 0.0;
  bool ok = false;
  std::size_t test_rows = 0;
};
FoldRun run_fold(const ml::Dataset& data, const ml::FoldSplit& split, std::size_t fold,
                 const core::EvalProtocol& protocol) {
  static const obs::SiteId root_site = obs::intern_site(kFoldRoot),
                           subset_site = obs::intern_site(kSubset),
                           downsample_site = obs::intern_site(kDownsample),
                           fit_site = obs::intern_site(kFit),
                           score_site = obs::intern_site(kScore),
                           auc_site = obs::intern_site(kAuc);
  FoldRun run;
  obs::Span root(root_site);
  ml::Dataset train, test;
  {
    obs::Span s(subset_site);
    train = data.subset(split.train);
    test = data.subset(split.test);
  }
  {
    obs::Span s(downsample_site);
    train = ml::downsample_negatives(train, protocol.train_downsample_ratio,
                                     protocol.seed * 1000 + fold);
  }
  if (train.positives() == 0 || train.positives() == train.size()) return run;
  if (test.positives() == 0 || test.positives() == test.size()) return run;
  std::unique_ptr<ml::Classifier> model;
  {
    obs::Span s(fit_site);
    model = ml::RandomForest{}.clone();
    model->fit(train);
  }
  std::vector<float> scores;
  {
    obs::Span s(score_site);
    scores = model->predict_proba(test.x);
  }
  {
    obs::Span s(auc_site);
    run.auc = ml::roc_auc(scores, test.y);
  }
  run.ok = !std::isnan(run.auc);
  run.test_rows = test.size();
  return run;
}

/// The fold AUCs of core::evaluate_auc's protocol, computed by the
/// benchmark itself one fold after another on the calling thread.
std::vector<double> sequential_fold_aucs(const ml::Dataset& data,
                                         const core::EvalProtocol& protocol) {
  std::vector<double> aucs;
  const std::vector<ml::FoldSplit> splits = ml::group_k_fold(data, protocol.folds, protocol.seed);
  for (std::size_t f = 0; f < splits.size(); ++f) {
    const FoldRun run = run_fold(data, splits[f], f, protocol);
    if (run.ok) aucs.push_back(run.auc);  // cross_validate skips degenerate folds
  }
  return aucs;
}

/// Per-fleet reference fold AUCs, computed in set-up by
/// sequential_fold_aucs — an orchestration independent of
/// cross_validate and of the thread pool.  Their mean must be a plausible
/// forest AUC, and their digest must equal the value pinned for the seed
/// when the seed has a pin.
class References {
 public:
  void add(const std::vector<double>& aucs) {
    if (aucs.empty()) throw CheckFailure("train_cv: a reference fleet has no usable fold");
    for (const double a : aucs) {
      if (!(a >= 0.0 && a <= 1.0))
        throw CheckFailure("train_cv: reference fold AUC " + std::to_string(a) +
                           " is outside [0, 1]");
      sum_ += a;
      ++count_;
    }
    aucs_.push_back(auc_bits(aucs));
  }
  [[nodiscard]] double mean() const { return sum_ / static_cast<double>(count_); }
  /// Fold AUCs of these small fleets range from about 0.45 to 0.95 and
  /// average about 0.72 over the 40 folds; scores that carry no signal
  /// average 0.5.
  void check_plausible() const {
    if (!(mean() >= kMinPlausibleMeanAuc))
      throw CheckFailure("train_cv: mean reference fold AUC " + std::to_string(mean()) +
                         " is below " + std::to_string(kMinPlausibleMeanAuc));
  }
  [[nodiscard]] bool matches(std::size_t fleet, const std::vector<double>& aucs) const {
    return auc_bits(aucs) == aucs_.at(fleet);
  }
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = stats::hash_keys({kFleets});
    for (const auto& fleet : aucs_)
      for (const std::uint64_t bits : fleet) h = stats::hash_keys({h, bits});
    return h;
  }
  /// The pin for this seed, when there is one.  Returns whether it had one.
  bool check_pin(std::uint64_t seed) const {
    const auto it = pinned_auc_digests().find(seed);
    if (it == pinned_auc_digests().end()) return false;
    if (it->second != digest())
      throw CheckFailure("train_cv: fold AUC digest " + hex(digest()) + " differs from the pin " +
                         hex(it->second) + " for seed " + std::to_string(seed));
    return true;
  }

 private:
  static constexpr double kMinPlausibleMeanAuc = 0.6;
  std::vector<std::vector<std::uint64_t>> aucs_;
  double sum_ = 0.0;
  std::size_t count_ = 0;
};

}  // namespace

Outcome run_train_cv(const Options& options) {
  // cross_validate's waiting caller runs fold tasks too, so the five folds
  // run on the pool plus the caller: three threads take them in two
  // rounds, as four would, and an operation waits for one thread fewer.
  parallel::set_default_thread_count(std::min(2u, std::max(1u, options.nproc - 1)));
  parallel::ThreadPool& pool = parallel::ThreadPool::global();
  const core::DatasetBuildOptions build = build_options();
  const core::EvalProtocol protocol;  // 5 folds, 1:1 downsampling, seed 5
  const auto store_path = [&options](std::size_t k) {
    return options.work_dir + "/train_cv-" + std::to_string(k) + ".ssdf2";
  };

  // Set-up leaves only the store files, so it runs in a child process
  // (see run_in_child) on a pool of its own, and reports its time and the
  // record counts.
  std::vector<std::size_t> records(kFleets);
  double setup_s = 0.0;
  {
    std::istringstream report(run_in_child([&] {
      parallel::ThreadPool generation_pool(options.nproc);
      const double seconds = timed_setup(options.trace ? 1 : kSetupRepeats, [&] {
        for (std::size_t k = 0; k < kFleets; ++k) {
          const trace::FleetTrace fleet =
              stratified_fleet(stats::hash_keys({options.seed, k}), kFailedPerModel,
                               kHealthyPerModel, generation_pool);
          store::ColumnarWriteOptions write;
          write.version = store::kColumnarVersionV3;
          store::write_columnar_file(store_path(k), fleet, write);
          records[k] = fleet.total_records();
        }
      });
      std::ostringstream out;
      out.precision(17);
      out << seconds;
      for (const std::size_t r : records) out << ' ' << r;
      return out.str();
    }));
    report >> setup_s;
    for (std::size_t& r : records) report >> r;
    if (!report) throw std::runtime_error("train_cv: unreadable set-up report");
  }
  double store_bytes = 0.0, total_records = 0.0;
  References references;
  for (std::size_t k = 0; k < kFleets; ++k) {
    store_bytes += static_cast<double>(fs::file_size(store_path(k)));
    total_records += static_cast<double>(records[k]);
    references.add(sequential_fold_aucs(
        core::build_dataset(store::ColumnarFleetView::open(store_path(k)), build), protocol));
  }
  references.check_plausible();
  const bool pinned = references.check_pin(options.seed);

  Outcome out;
  out.config = {{"threads", std::to_string(pool.size() + 1) + " (pool + caller)"},
                {"pool_size", std::to_string(pool.size())},
                {"fleets", std::to_string(kFleets)},
                {"records", std::to_string(static_cast<std::size_t>(total_records))},
                {"drives_per_model", std::to_string(kFailedPerModel) + " swapped + " +
                                         std::to_string(kHealthyPerModel) + " not, per fleet"},
                {"folds", std::to_string(protocol.folds)}};
  out.note("fold AUC digest: " + hex(references.digest()) +
           (pinned ? " (equals the seed's pin)" : " (no pin for this seed)") +
           ", mean fold AUC: " + std::to_string(references.mean()));

  std::size_t next_fleet = 0, fleet = 0;
  ml::CvResult cv;
  const auto untraced_op = [&]() -> OpResult {
    fleet = next_fleet++ % kFleets;
    const auto start = Clock::now();
    const store::ColumnarFleetView view = store::ColumnarFleetView::open(store_path(fleet));
    const ml::Dataset data = core::build_dataset(view, build);
    cv = core::evaluate_auc(ml::RandomForest{}, data, protocol);
    return {seconds_since(start), static_cast<double>(records[fleet])};
  };
  const auto check = [&] { return references.matches(fleet, cv.fold_aucs); };

  if (!options.trace) {
    const LoopStats loop = closed_loop(options.seconds, kFleets, kMinOps, untraced_op, check);
    if (options.seconds <= 0.0) {
      out.attempted = loop.attempted;
      return out;
    }
    add_end_to_end(out, loop, store_bytes / total_records, setup_s);
    return out;
  }

  // Traced run: the same operation through the public calls, folds
  // submitted to the pool exactly as cross_validate does.
  static const obs::SiteId root_site = obs::intern_site(kOpRoot),
                           open_site = obs::intern_site(kOpen),
                           build_site = obs::intern_site(kBuild),
                           split_site = obs::intern_site(kSplit), cv_site = obs::intern_site(kCv);
  std::vector<double> open_s, build_s, downsample_s, fit_s, score_ns, auc_s, busy,
      untraced_s, traced_s, wait_us, build_ns;
  for (std::size_t i = 0; i < kFleets; ++i) {
    (void)untraced_op();
    if (!check()) throw CheckFailure("train_cv: fold AUCs differ from the reference");
  }
  enable_tracing(true);  // the collector holds the timed phase only
  const auto start = Clock::now();
  while (seconds_since(start) < options.seconds || traced_s.size() < kFleets) {
    const obs::RegistrySnapshot before = obs::MetricsRegistry::global().snapshot();
    const OpResult plain = untraced_op();
    const obs::RegistrySnapshot after = obs::MetricsRegistry::global().snapshot();
    if (!check()) throw CheckFailure("train_cv: fold AUCs differ from the reference");
    untraced_s.push_back(plain.seconds);
    wait_us.push_back(histogram_delta_median("threadpool_task_latency_us", before, after));

    const std::size_t k = fleet;  // the fleet just run untraced
    const SpanWindow window;
    std::vector<FoldRun> folds;
    {
      obs::Span op(root_site);
      std::optional<store::ColumnarFleetView> view;
      {
        obs::Span s(open_site);
        view = store::ColumnarFleetView::open(store_path(k));
      }
      ml::Dataset data;
      {
        obs::Span s(build_site);
        data = core::build_dataset(*view, build);
      }
      std::vector<ml::FoldSplit> splits;
      {
        obs::Span s(split_site);
        splits = ml::group_k_fold(data, protocol.folds, protocol.seed);
      }
      folds.resize(splits.size());
      {
        obs::Span s(cv_site);
        parallel::TaskGroup group(pool);
        for (std::size_t f = 0; f < splits.size(); ++f)
          group.submit([&data, &splits, &protocol, &folds, f] {
            folds[f] = run_fold(data, splits[f], f, protocol);
          });
        group.wait();
      }
    }
    traced_s.push_back(window.seconds(kOpRoot));

    std::vector<double> aucs;
    std::size_t test_rows = 0;
    for (const FoldRun& run : folds) {
      if (!run.ok) continue;  // cross_validate skips degenerate folds
      aucs.push_back(run.auc);
      test_rows += run.test_rows;
    }
    if (!references.matches(k, aucs))
      throw CheckFailure("train_cv: traced fold AUCs differ from the reference");
    const auto n_folds = static_cast<double>(aucs.size());
    open_s.push_back(window.seconds(kOpen));
    build_s.push_back(window.seconds(kBuild));
    build_ns.push_back(1e9 * window.seconds(kBuild) / static_cast<double>(records[k]));
    downsample_s.push_back(window.seconds(kDownsample) / n_folds);
    fit_s.push_back(window.seconds(kFit) / n_folds);
    score_ns.push_back(1e9 * window.seconds(kScore) / static_cast<double>(test_rows));
    auc_s.push_back(window.seconds(kAuc) / n_folds);
    busy.push_back(window.seconds(kFoldRoot) /
                   (static_cast<double>(pool.size() + 1) * window.seconds(kCv)));
  }
  const double coverage = trace_coverage(kOpRoot, {kOpen, kBuild, kSplit, kCv});
  check_coverage(coverage, "train_cv");
  check_coverage(trace_coverage(kFoldRoot, {kSubset, kDownsample, kFit, kScore, kAuc}),
                 "train_cv folds");
  write_trace(options.work_dir + "/trace-train_cv.json");

  out.attempted = untraced_s.size() + traced_s.size();
  const std::map<std::string, double> layer = {
      {"store.open_ms", 1e3 * median(open_s)},
      {"core.build_ms", 1e3 * median(build_s)},
      {"core.build_ns_per_record", median(build_ns)},
      {"ml.downsample_ms", 1e3 * median(downsample_s)},
      {"ml.fit_ms_per_fold", 1e3 * median(fit_s)},
      {"ml.score_ns_per_row", median(score_ns)},
      {"ml.auc_ms", 1e3 * median(auc_s)},
      {"parallel.busy_frac", median(busy)},
      {"parallel.task_wait_us_p50", median(wait_us)},
      {"bench.trace_coverage", coverage},
      {"bench.trace_overhead", median(traced_s) / median(untraced_s)},
  };
  add_layer_metrics(out, layer);
  out.note("traced operations: " + std::to_string(traced_s.size()));
  return out;
}

}  // namespace perfbench
