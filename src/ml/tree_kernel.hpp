#pragma once

// The one CART kernel behind every tree learner in ml/: DecisionTree (the
// "CART" row of Table 6), the RandomForest bagged from it, and the
// GradientBoosting regression trees.  One node layout, one walk and one
// recursive grower; the learners differ only in the split criterion:
//
//   Gini    payload = the row's 0/1 label, node statistic = positive count,
//           leaf = positive fraction (float), importance = gain * rows.
//   Newton  payload = the row index into (grad, hess), node statistic =
//           (sum grad, sum hess), leaf = G / (H + 1) (double),
//           importance = gain; never pure.
//
// Split search: for each candidate feature, sort the node's (value,
// payload) pairs, sweep every boundary between adjacent distinct values
// that leaves min_samples_leaf rows on both sides, and keep the first
// strictly-greater gain; the threshold is the midpoint 0.5f * (a + b).
// Candidate features fan out over parallel_reduce at big nodes; partials
// merge in candidate order with the same strictly-greater comparison, so
// the winner is the one the serial first-wins loop picks and the fitted
// tree is bit-identical at any thread count (pinned by
// tests/ml/test_parallel_training.cpp and the fit pins in test_trees.cpp).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ml/matrix.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace ssdfail::ml {

/// NaN feature routing is part of the model's frozen semantics: every
/// split evaluates `value <= threshold ? left : right`, and every ordered
/// comparison against NaN is false, so a NaN feature ALWAYS routes to the
/// RIGHT child — during training partition and during prediction, in both
/// the pointer-walk and compiled flat engines.  Pinned by
/// tests/ml/test_flat_forest.cpp (NaN rows score identically to +Inf rows,
/// which take the same all-right path).
inline constexpr bool kNanRoutesRight = true;

/// One node of a fitted tree, stored in preorder (the root is node 0).
/// Internal node: feature/threshold valid, children set.  Leaf: left == -1
/// and `value` holds the output.  `Leaf` is float for CART trees and double
/// for boosting trees; model files store it at that width.
template <typename Leaf>
struct TreeNode {
  std::int32_t feature = -1;
  float threshold = 0.0f;
  std::int32_t left = -1;
  std::int32_t right = -1;
  Leaf value{};
};

/// The leaf value `row` reaches.  NaN fails `<=` and routes right — the
/// frozen contract (kNanRoutesRight); the flat engine replicates it exactly.
template <typename Leaf>
[[nodiscard]] Leaf walk(const std::vector<TreeNode<Leaf>>& nodes,
                        std::span<const float> row) {
  std::int32_t cur = 0;
  while (nodes[cur].left != -1) {
    const TreeNode<Leaf>& node = nodes[cur];
    cur = row[static_cast<std::size_t>(node.feature)] <= node.threshold ? node.left
                                                                        : node.right;
  }
  return nodes[cur].value;
}

/// Scoring input must have the columns the model was fit on: the walks
/// index each row by feature id unchecked.  One check per call.
inline void check_columns(const Matrix& x, std::size_t n_features, const char* model) {
  if (x.cols() != n_features)
    throw std::invalid_argument(std::string(model) + ": matrix has " +
                                std::to_string(x.cols()) + " columns, model was fit on " +
                                std::to_string(n_features));
}

/// Growth limits; every learner maps its own Params onto these.
struct GrowLimits {
  std::size_t max_depth = 0;
  std::size_t min_samples_split = 0;
  std::size_t min_samples_leaf = 0;
  /// 0 = all features; otherwise a fresh random subset of this many per node.
  std::size_t max_features = 0;
  std::uint64_t seed = 0;  ///< feature-subset draws (unused with all features)
};

/// Gini impurity on 0/1 labels (classification trees).
struct Gini {
  using Leaf = float;
  using Payload = float;  ///< the row's label
  struct Stats {
    double pos = 0.0;
  };
  static constexpr double kMinGain = 1e-12;

  const std::vector<float>& y;

  static double gini(double pos, double n) noexcept {
    if (n <= 0.0) return 0.0;
    const double p = pos / n;
    return 2.0 * p * (1.0 - p);
  }

  [[nodiscard]] Payload payload(std::size_t row) const noexcept { return y[row]; }
  void add(Stats& s, Payload label) const noexcept {
    if (label > 0.5f) s.pos += 1.0;
  }
  [[nodiscard]] double parent_score(const Stats& s, std::size_t n) const noexcept {
    return gini(s.pos, static_cast<double>(n));
  }
  [[nodiscard]] bool pure(double parent) const noexcept { return parent == 0.0; }
  [[nodiscard]] double gain(const Stats& node, double parent, const Stats& left,
                            std::size_t n_left, std::size_t n) const noexcept {
    const double nl = static_cast<double>(n_left);
    const double nr = static_cast<double>(n) - nl;
    return parent - (nl * gini(left.pos, nl) + nr * gini(node.pos - left.pos, nr)) /
                        static_cast<double>(n);
  }
  [[nodiscard]] Leaf leaf(const Stats& s, std::size_t n) const noexcept {
    return static_cast<float>(s.pos / static_cast<double>(n));
  }
  [[nodiscard]] double importance(double gain, std::size_t n) const noexcept {
    return gain * static_cast<double>(n);
  }
};

/// Newton gain on logistic-loss (gradient, hessian) targets (boosting
/// trees): gain = GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l), leaf = G/(H+l).
struct Newton {
  using Leaf = double;
  using Payload = std::size_t;  ///< the row index into grad/hess
  struct Stats {
    double grad = 0.0;
    double hess = 0.0;
  };
  static constexpr double kMinGain = 1e-9;
  static constexpr double kLambda = 1.0;  ///< L2 damping of leaf values

  const std::vector<double>& grad;
  const std::vector<double>& hess;

  static double score(double g, double h) noexcept { return g * g / (h + kLambda); }

  [[nodiscard]] Payload payload(std::size_t row) const noexcept { return row; }
  void add(Stats& s, Payload row) const noexcept {
    s.grad += grad[row];
    s.hess += hess[row];
  }
  [[nodiscard]] double parent_score(const Stats& s, std::size_t) const noexcept {
    return score(s.grad, s.hess);
  }
  [[nodiscard]] bool pure(double) const noexcept { return false; }
  [[nodiscard]] double gain(const Stats& node, double parent, const Stats& left,
                            std::size_t, std::size_t) const noexcept {
    return score(left.grad, left.hess) +
           score(node.grad - left.grad, node.hess - left.hess) - parent;
  }
  [[nodiscard]] Leaf leaf(const Stats& s, std::size_t) const noexcept {
    return s.grad / (s.hess + kLambda);
  }
  [[nodiscard]] double importance(double gain, std::size_t) const noexcept { return gain; }
};

namespace detail {

/// Minimum rows*candidates at a node before the split search fans out
/// across the pool.  Below this the sort is cheaper than the dispatch.
inline constexpr std::size_t kMinParallelSplitWork = 1u << 15;

template <typename Criterion>
struct Grower {
  using Leaf = typename Criterion::Leaf;
  using Stats = typename Criterion::Stats;

  struct Best {
    double gain = 0.0;
    std::size_t feature = 0;
    float threshold = 0.0f;
  };
  struct Scan {
    Best best;
    std::vector<std::pair<float, typename Criterion::Payload>> vals;  // reused
  };

  const Matrix& x;
  const Criterion& criterion;
  const GrowLimits& limits;
  std::vector<std::size_t>& idx;
  std::vector<TreeNode<Leaf>>& nodes;
  std::vector<double>& importance;
  stats::Rng rng;

  /// Sweep one feature's boundaries over rows idx[begin, end).  A pure
  /// function of (rows, feature), so scans may run in any order.
  void scan(Scan& acc, std::size_t begin, std::size_t end, const Stats& node,
            double parent, std::size_t feat) const {
    auto& vals = acc.vals;
    vals.clear();
    for (std::size_t i = begin; i < end; ++i)
      vals.emplace_back(x(idx[i], feat), criterion.payload(idx[i]));
    std::sort(vals.begin(), vals.end());
    if (vals.front().first == vals.back().first) return;  // constant

    const std::size_t n = end - begin;
    Stats left;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      criterion.add(left, vals[i].second);
      if (vals[i].first == vals[i + 1].first) continue;  // not a boundary
      const std::size_t nl = i + 1;
      if (nl < limits.min_samples_leaf || n - nl < limits.min_samples_leaf) continue;
      const double gain = criterion.gain(node, parent, left, nl, n);
      if (gain > acc.best.gain)
        acc.best = {gain, feat, 0.5f * (vals[i].first + vals[i + 1].first)};
    }
  }

  std::int32_t leaf(const Stats& s, std::size_t n) {
    TreeNode<Leaf> node;
    node.value = criterion.leaf(s, n);
    nodes.push_back(node);
    return static_cast<std::int32_t>(nodes.size() - 1);
  }

  std::int32_t grow(std::size_t begin, std::size_t end, std::size_t depth) {
    const std::size_t n = end - begin;
    Stats stats;
    for (std::size_t i = begin; i < end; ++i) criterion.add(stats, criterion.payload(idx[i]));
    const double parent = criterion.parent_score(stats, n);
    if (depth >= limits.max_depth || n < limits.min_samples_split || criterion.pure(parent))
      return leaf(stats, n);

    // Candidate feature set: all, or a fresh random subset (forest mode).
    std::vector<std::size_t> features(x.cols());
    std::iota(features.begin(), features.end(), std::size_t{0});
    std::size_t n_candidates = features.size();
    if (limits.max_features > 0 && limits.max_features < n_candidates) {
      // Partial Fisher-Yates: first max_features entries become the sample.
      for (std::size_t i = 0; i < limits.max_features; ++i) {
        const auto j = i + static_cast<std::size_t>(rng.uniform_index(features.size() - i));
        std::swap(features[i], features[j]);
      }
      n_candidates = limits.max_features;
    }

    const auto scan_candidate = [&](Scan& acc, std::size_t j) {
      scan(acc, begin, end, stats, parent, features[j]);
    };
    Best best;
    if (n * n_candidates >= kMinParallelSplitWork) {
      best = parallel::parallel_reduce(
                 n_candidates, [] { return Scan{}; }, scan_candidate,
                 [](Scan& dst, const Scan& src) {
                   if (src.best.gain > dst.best.gain) dst.best = src.best;
                 })
                 .best;
    } else {
      Scan acc;
      acc.vals.reserve(n);
      for (std::size_t j = 0; j < n_candidates; ++j) scan_candidate(acc, j);
      best = acc.best;
    }
    if (best.gain <= Criterion::kMinGain) return leaf(stats, n);

    // Partition in place: rows with value <= threshold go left.
    const auto mid_it = std::partition(
        idx.begin() + static_cast<std::ptrdiff_t>(begin),
        idx.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t row) { return x(row, best.feature) <= best.threshold; });
    const auto mid = static_cast<std::size_t>(mid_it - idx.begin());
    if (mid == begin || mid == end) return leaf(stats, n);  // numeric edge case

    importance[best.feature] += criterion.importance(best.gain, n);

    const auto id = static_cast<std::int32_t>(nodes.size());
    nodes.emplace_back();
    nodes[id].feature = static_cast<std::int32_t>(best.feature);
    nodes[id].threshold = best.threshold;
    const std::int32_t left = grow(begin, mid, depth + 1);
    const std::int32_t right = grow(mid, end, depth + 1);
    nodes[id].left = left;
    nodes[id].right = right;
    return id;
  }
};

}  // namespace detail

/// Grow one tree over the rows in `idx` (reordered in place) and append
/// its nodes to `nodes`, adding each split's criterion importance to
/// `importance[feature]`.
template <typename Criterion>
void grow(const Matrix& x, const Criterion& criterion, const GrowLimits& limits,
          std::vector<std::size_t>& idx,
          std::vector<TreeNode<typename Criterion::Leaf>>& nodes,
          std::vector<double>& importance) {
  detail::Grower<Criterion> grower{x,     criterion,  limits, idx,
                                   nodes, importance, stats::Rng(limits.seed)};
  grower.grow(0, idx.size(), 0);
}

}  // namespace ssdfail::ml
