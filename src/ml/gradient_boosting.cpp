#include "ml/gradient_boosting.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace ssdfail::ml {
namespace {

double sigmoid(double z) noexcept { return 1.0 / (1.0 + std::exp(-z)); }

}  // namespace

void GradientBoosting::fit(const Dataset& train) {
  static const obs::SiteId kFitSite = obs::intern_site("boosting.fit");
  obs::Span fit_span(kFitSite);
  train.validate();
  const std::size_t n = train.size();
  if (n == 0) throw std::invalid_argument("GradientBoosting: empty train set");
  if (params_.n_rounds == 0)
    throw std::invalid_argument("GradientBoosting: n_rounds must be at least 1");
  n_features_ = train.x.cols();
  importance_.assign(n_features_, 0.0);
  trees_.clear();

  const double pos = static_cast<double>(train.positives());
  const double base = std::clamp(pos / static_cast<double>(n), 1e-6, 1.0 - 1e-6);
  prior_ = std::log(base / (1.0 - base));

  std::vector<double> score(n, prior_);
  std::vector<double> grad(n);
  std::vector<double> hess(n);
  stats::Rng rng(params_.seed);
  // All features at every node; a split needs min_samples_leaf rows a side.
  const GrowLimits limits{params_.max_depth, 2 * params_.min_samples_leaf,
                          params_.min_samples_leaf, 0, 0};
  const RankEncoding ranks(train.x);  // shared by every round

  static obs::Counter& rounds_counter = obs::MetricsRegistry::global().counter(
      "boosting_rounds_total", {}, "boosting rounds (trees) fitted");
  for (std::size_t round = 0; round < params_.n_rounds; ++round) {
    static const obs::SiteId kRoundSite = obs::intern_site("boosting.round");
    obs::Span round_span(kRoundSite);
    rounds_counter.inc();
    for (std::size_t i = 0; i < n; ++i) {
      const double p = sigmoid(score[i]);
      grad[i] = static_cast<double>(train.y[i]) - p;  // negative gradient
      hess[i] = std::max(p * (1.0 - p), 1e-12);
    }

    // Stochastic row subsample for this round.
    std::vector<std::size_t> idx;
    idx.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      if (params_.subsample >= 1.0 || rng.bernoulli(params_.subsample))
        idx.push_back(i);
    if (idx.size() < 2 * params_.min_samples_leaf) {
      idx.resize(n);
      std::iota(idx.begin(), idx.end(), std::size_t{0});
    }

    Tree tree;
    grow(train.x, ranks, Newton{grad, hess}, limits, idx, tree, importance_);
    // Update scores with the damped tree output (ALL rows, not just the
    // subsample — the tree generalizes its Newton steps).  Per-row and
    // order-independent, so the parallel update is bit-identical.
    parallel::parallel_for(n, [&](std::size_t i) {
      score[i] += params_.learning_rate * walk(tree, train.x.row(i));
    });
    trees_.push_back(std::move(tree));
  }
}

std::vector<float> GradientBoosting::predict_proba(const Matrix& x) const {
  if (trees_.empty()) throw std::logic_error("GradientBoosting: predict before fit");
  check_columns(x, n_features_, "GradientBoosting");
  std::vector<float> out(x.rows());
  parallel::parallel_for(x.rows(), [&](std::size_t r) {
    double score = prior_;
    const auto row = x.row(r);
    for (const Tree& tree : trees_) score += params_.learning_rate * walk(tree, row);
    out[r] = static_cast<float>(sigmoid(score));
  });
  return out;
}

std::vector<double> GradientBoosting::feature_importance() const {
  if (trees_.empty()) throw std::logic_error("GradientBoosting: importance before fit");
  std::vector<double> normalized = importance_;
  const double total = std::accumulate(normalized.begin(), normalized.end(), 0.0);
  if (total > 0.0)
    for (double& v : normalized) v /= total;
  return normalized;
}

}  // namespace ssdfail::ml
