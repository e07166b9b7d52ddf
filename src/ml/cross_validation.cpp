#include "ml/cross_validation.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "ml/model_zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "stats/rng.hpp"

namespace ssdfail::ml {

std::size_t group_fold(std::uint64_t group_id, std::size_t k, std::uint64_t seed) {
  if (k == 0) throw std::invalid_argument("group_fold: k must be > 0");
  return static_cast<std::size_t>(stats::hash_keys({seed, group_id}) % k);
}

std::vector<FoldSplit> group_k_fold(const Dataset& data, std::size_t k,
                                    std::uint64_t seed) {
  data.validate();
  std::vector<FoldSplit> splits(k);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::size_t fold = group_fold(data.groups[i], k, seed);
    for (std::size_t f = 0; f < k; ++f)
      (f == fold ? splits[f].test : splits[f].train).push_back(i);
  }
  return splits;
}

CvResult cross_validate(const Classifier& model, const Dataset& data,
                        const CvOptions& options) {
  static const obs::SiteId kCvSite = obs::intern_site("cv.cross_validate");
  obs::Span cv_span(kCvSite);
  const auto splits = group_k_fold(data, options.folds, options.seed);
  CvResult result;
  result.folds_requested = splits.size();

  // One fully independent task per fold: clone, transform, fit, score.
  // Everything a fold does is a pure function of (data, options, f), so
  // the outcome is identical whether folds run serially or concurrently.
  std::vector<double> fold_auc(splits.size());
  std::vector<char> fold_ok(splits.size(), 0);
  const auto eval_fold = [&](std::size_t f) {
    // One span per fold; the task carries the submitter's context, so
    // these nest under cv.cross_validate whichever thread runs them.
    static const obs::SiteId kFoldSite = obs::intern_site("cv.fold");
    obs::Span fold_span(kFoldSite);
    if (splits[f].train.empty() || splits[f].test.empty()) return;
    Dataset train = data.subset(splits[f].train);
    Dataset test = data.subset(splits[f].test);
    if (options.train_transform) train = options.train_transform(train, f);
    if (options.test_transform) test = options.test_transform(test, f);
    if (train.positives() == 0 || train.positives() == train.size()) return;
    if (test.positives() == 0 || test.positives() == test.size()) return;

    std::shared_ptr<Classifier> fold_model = model.clone();
    fold_model->fit(train);
    // Tree ensembles score through the compiled engine, bit-identical to
    // their pointer walk.
    const auto scores = make_serving_model(std::move(fold_model))->predict_proba(test.x);
    const double auc = roc_auc(scores, test.y);
    if (std::isnan(auc)) return;
    fold_auc[f] = auc;
    fold_ok[f] = 1;
  };

  // Submit through a TaskGroup even for a 1-thread pool so the fold
  // bodies run *inside* the pool context: any nested parallel_for in a
  // model's fit/predict then stays within this pool's thread budget
  // instead of fanning out on the global pool.
  parallel::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : parallel::ThreadPool::current();
  parallel::TaskGroup group(pool);
  for (std::size_t f = 0; f < splits.size(); ++f) {
    group.submit([&eval_fold, f] { eval_fold(f); });
  }
  group.wait();

  // Collect in fold order so the result is independent of completion order.
  for (std::size_t f = 0; f < splits.size(); ++f) {
    if (fold_ok[f])
      result.fold_aucs.push_back(fold_auc[f]);
    else
      ++result.folds_skipped;
  }
  static obs::Counter& folds_counter = obs::MetricsRegistry::global().counter(
      "cv_folds_evaluated_total", {}, "non-degenerate folds scored by cross_validate");
  static obs::Counter& skipped_counter = obs::MetricsRegistry::global().counter(
      "cv_folds_skipped_total", {}, "degenerate folds skipped by cross_validate");
  folds_counter.inc(result.fold_aucs.size());
  skipped_counter.inc(result.folds_skipped);
  if (result.fold_aucs.empty())
    throw std::runtime_error(
        "cross_validate: all " + std::to_string(result.folds_requested) +
        " folds were degenerate (empty split or single-class train/test); "
        "the data cannot be cross-validated");
  return result;
}

}  // namespace ssdfail::ml
