#include "ml/random_forest.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace ssdfail::ml {

void RandomForest::fit(const Dataset& train) {
  static const obs::SiteId kFitSite = obs::intern_site("forest.fit");
  obs::Span fit_span(kFitSite);
  train.validate();
  if (train.size() == 0) throw std::invalid_argument("RandomForest: empty train set");
  n_features_ = train.x.cols();

  DecisionTree::Params tree_params;
  tree_params.max_depth = params_.max_depth;
  tree_params.min_samples_leaf = params_.min_samples_leaf;
  tree_params.min_samples_split = params_.min_samples_split;
  tree_params.max_features =
      params_.max_features > 0
          ? params_.max_features
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(std::sqrt(static_cast<double>(n_features_))));

  trees_.assign(params_.n_trees, DecisionTree(tree_params));
  const std::size_t n = train.size();
  const RankEncoding ranks(train.x);  // shared by every tree

  static obs::Counter& trees_counter = obs::MetricsRegistry::global().counter(
      "forest_trees_fitted_total", {}, "bootstrap trees fitted by RandomForest");
  parallel::parallel_for(params_.n_trees, [&](std::size_t t) {
    static const obs::SiteId kTreeSite = obs::intern_site("forest.tree");
    obs::Span tree_span(kTreeSite);
    trees_counter.inc();
    stats::Rng rng({params_.seed, 0x7265657473ULL /*'trees'*/, t});
    // Bootstrap sample (with replacement).
    std::vector<std::size_t> sample(n);
    for (std::size_t i = 0; i < n; ++i)
      sample[i] = static_cast<std::size_t>(rng.uniform_index(n));
    DecisionTree::Params p = tree_params;
    p.seed = stats::hash_keys({params_.seed, 0x73706c6974ULL /*'split'*/, t});
    trees_[t] = DecisionTree(p);
    trees_[t].fit_on(train, ranks, std::move(sample));
  });
}

std::vector<float> RandomForest::predict_proba(const Matrix& x) const {
  return predict_proba(x, parallel::ThreadPool::current());
}

std::vector<float> RandomForest::predict_proba(const Matrix& x,
                                               parallel::ThreadPool& pool) const {
  if (trees_.empty()) throw std::logic_error("RandomForest: predict before fit");
  check_columns(x, n_features_, "RandomForest");
  std::vector<float> out(x.rows(), 0.0f);
  const auto score_row = [&](std::size_t r) {
    double sum = 0.0;
    const auto row = x.row(r);
    for (const DecisionTree& tree : trees_) sum += tree.predict_row(row);
    out[r] = static_cast<float>(sum / static_cast<double>(trees_.size()));
  };
  // Tiny batches (the single-drive observe path) skip pool dispatch; rows
  // score independently, so serial and parallel outputs are bit-identical.
  if (x.rows() < kSerialPredictRows || pool.size() <= 1) {
    for (std::size_t r = 0; r < x.rows(); ++r) score_row(r);
    return out;
  }
  parallel::parallel_for(x.rows(), score_row, pool);
  return out;
}

std::vector<double> RandomForest::feature_importance() const {
  if (trees_.empty()) throw std::logic_error("RandomForest: importance before fit");
  std::vector<double> total(n_features_, 0.0);
  for (const DecisionTree& tree : trees_) {
    const auto& imp = tree.impurity_importance();
    for (std::size_t f = 0; f < n_features_; ++f) total[f] += imp[f];
  }
  const double sum = std::accumulate(total.begin(), total.end(), 0.0);
  if (sum > 0.0)
    for (double& v : total) v /= sum;
  return total;
}

}  // namespace ssdfail::ml
