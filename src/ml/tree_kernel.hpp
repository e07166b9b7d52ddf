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
// Split search runs on ranks.  Each learner's fit rank-encodes its
// training matrix once (RankEncoding): per column the sorted distinct
// values, and per cell the row's dense u32 rank among them, column-major.
// RandomForest shares one encoding across its bootstrap trees and
// GradientBoosting across its rounds, so the memory cost is one u32 per
// matrix cell (plus at most one float per cell of distinct values) per
// concurrent fit.
//
// For each candidate feature the grower orders the node's rows by (rank,
// row index): by a counting pass over the ranks when the feature has few
// ranks next to the node's rows (counting_pass_fits; the grower keeps each
// node's rows in ascending order, so each rank's rows come out ascending),
// otherwise by sorting packed (rank << 32 | row) keys.  One sweep over that
// order serves both criteria: it visits every boundary between adjacent
// ranks present in the node that leaves min_samples_leaf rows on both
// sides, keeps the first strictly-greater gain, and takes the threshold
// 0.5f * (a + b) from the two ranks' stored values.  A sort of (value,
// payload) pairs gives the same trees: Gini's boundary counts do not
// depend on the order within a rank, and Newton's payload is the row
// index, so its floating-point sums add the rows in the same sequence
// (pinned by the fit pins in test_trees.cpp and test_tree_kernel.cpp).

// NaN training values rank above +Inf (-0.0 and +0.0 share one rank), the
// side the partition routes them (kNanRoutesRight).  The boundary into the
// NaN rank is never offered: its midpoint is NaN, and a NaN threshold
// would send every row right.
//
// Candidate features fan out over parallel_reduce at big nodes; partials
// merge in candidate order with the same strictly-greater comparison, so
// the winner is the one the serial first-wins loop picks and the fitted
// tree is bit-identical at any thread count (pinned by
// tests/ml/test_parallel_training.cpp).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
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

/// A training matrix rank-encoded for the split search: per column, the
/// sorted distinct values, and per row its dense rank among them.  Ranks
/// order like the values they stand for; -0.0 and +0.0 share a rank, and
/// NaN, when the column has any, takes the top rank.  Ranks are stored
/// column-major, one u32 per cell.  Built once per fit and shared, read
/// only, by every tree the fit grows.
class RankEncoding {
 public:
  explicit RankEncoding(const Matrix& x) : rows_(x.rows()), cols_(x.cols()) {
    // The split search packs a row index into the low half of a u64 key.
    if (rows_ > std::numeric_limits<std::uint32_t>::max())
      throw std::length_error("RankEncoding: more than 2^32 - 1 rows");
    ranks_.resize(rows_ * cols_);
    offsets_.reserve(cols_ + 1);
    offsets_.push_back(0);
    ordered_.reserve(cols_);
    std::vector<float> distinct;
    distinct.reserve(rows_);
    for (std::size_t c = 0; c < cols_; ++c) {
      distinct.clear();
      bool has_nan = false;
      for (std::size_t r = 0; r < rows_; ++r) {
        const float v = x(r, c);
        if (std::isnan(v))
          has_nan = true;
        else
          distinct.push_back(v);
      }
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
      const auto ordered = static_cast<std::uint32_t>(distinct.size());
      std::uint32_t* rank = ranks_.data() + c * rows_;
      for (std::size_t r = 0; r < rows_; ++r) {
        const float v = x(r, c);
        rank[r] = std::isnan(v) ? ordered
                                : static_cast<std::uint32_t>(
                                      std::lower_bound(distinct.begin(), distinct.end(), v) -
                                      distinct.begin());
      }
      values_.insert(values_.end(), distinct.begin(), distinct.end());
      if (has_nan) values_.push_back(std::numeric_limits<float>::quiet_NaN());
      offsets_.push_back(values_.size());
      ordered_.push_back(ordered);
    }
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  /// Every row's rank in column `col`.
  [[nodiscard]] std::span<const std::uint32_t> ranks(std::size_t col) const noexcept {
    return {ranks_.data() + col * rows_, rows_};
  }
  /// Column `col`'s distinct values in rank order (NaN last, if present).
  [[nodiscard]] std::span<const float> values(std::size_t col) const noexcept {
    return {values_.data() + offsets_[col], offsets_[col + 1] - offsets_[col]};
  }
  /// Ranks below this hold numbers; a rank equal to it is NaN.
  [[nodiscard]] std::uint32_t ordered(std::size_t col) const noexcept { return ordered_[col]; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint32_t> ranks_;
  std::vector<float> values_;          ///< every column's distinct values, back to back
  std::vector<std::size_t> offsets_;   ///< column c's values: [offsets_[c], offsets_[c + 1])
  std::vector<std::uint32_t> ordered_;
};

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
/// across the pool.  Below this one feature's scan is cheaper than the
/// dispatch.
inline constexpr std::size_t kMinParallelSplitWork = 1u << 15;

/// Whether a feature with `ranks` distinct values orders a node of `rows`
/// rows by a counting pass (O(ranks + rows), over one small per-rank
/// array) rather than a key sort (O(rows log rows)).  The counting pass
/// stays the cheaper one well past ranks == rows: forest fits on the
/// train_cv folds ran fastest with the cutoff between 16 and 64.
[[nodiscard]] constexpr bool counting_pass_fits(std::size_t ranks, std::size_t rows) noexcept {
  return ranks <= 16 * rows;
}

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
    std::vector<std::uint64_t> keys;     ///< the node's (rank << 32 | row), reused
    std::vector<std::uint32_t> offsets;  ///< counting pass: per-rank slot, reused
  };

  Grower(const Matrix& x_, const RankEncoding& encoding_, const Criterion& criterion_,
         const GrowLimits& limits_, std::vector<std::size_t>& idx_,
         std::vector<TreeNode<Leaf>>& nodes_, std::vector<double>& importance_)
      : x(x_),
        encoding(encoding_),
        criterion(criterion_),
        limits(limits_),
        idx(idx_),
        nodes(nodes_),
        importance(importance_),
        rng(limits_.seed),
        rows(idx_.size()),
        spill(idx_.size()) {
    std::transform(idx.begin(), idx.end(), rows.begin(),
                   [](std::size_t row) { return static_cast<std::uint32_t>(row); });
    std::sort(rows.begin(), rows.end());
  }

  const Matrix& x;
  const RankEncoding& encoding;
  const Criterion& criterion;
  const GrowLimits& limits;
  std::vector<std::size_t>& idx;
  std::vector<TreeNode<Leaf>>& nodes;
  std::vector<double>& importance;
  stats::Rng rng;
  /// The rows of idx[begin, end) in ascending order, partitioned stably
  /// alongside idx, so a counting pass keeps each rank's rows ascending.
  std::vector<std::uint32_t> rows;
  std::vector<std::uint32_t> spill;   ///< right-hand rows during that partition
  std::vector<std::size_t> features;  ///< candidate features, refilled per node
  Scan serial;                        ///< scratch of the serial split search

  /// Order the node's rows by (rank, row) in `feat` and sweep its
  /// boundaries.  A pure function of (rows, feature), so scans may run in
  /// any order.
  void scan(Scan& acc, std::size_t begin, std::size_t end, const Stats& node,
            double parent, std::size_t feat) const {
    const std::uint32_t ordered = encoding.ordered(feat);
    if (ordered < 2) return;  // no boundary between two numbers
    const std::span<const std::uint32_t> rank = encoding.ranks(feat);
    const std::span<const float> values = encoding.values(feat);
    const std::uint32_t* const seg = rows.data() + begin;
    const std::size_t n = end - begin;
    auto& keys = acc.keys;
    keys.resize(n);
    if (counting_pass_fits(values.size(), n)) {
      auto& offsets = acc.offsets;
      offsets.assign(values.size(), 0);
      for (std::size_t i = 0; i < n; ++i) ++offsets[rank[seg[i]]];
      if (offsets[rank[seg[0]]] == n) return;  // one value in this node
      std::uint32_t slot = 0;
      for (std::uint32_t& o : offsets) slot += std::exchange(o, slot);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t r = rank[seg[i]];
        keys[offsets[r]++] = (std::uint64_t{r} << 32) | seg[i];
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) keys[i] = (std::uint64_t{rank[seg[i]]} << 32) | seg[i];
      std::sort(keys.begin(), keys.end());
      if (keys.front() >> 32 == keys.back() >> 32) return;  // one value in this node
    }

    Stats left;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      criterion.add(left, criterion.payload(static_cast<std::uint32_t>(keys[i])));
      const auto lo = static_cast<std::uint32_t>(keys[i] >> 32);
      const auto hi = static_cast<std::uint32_t>(keys[i + 1] >> 32);
      if (lo == hi) continue;  // not a boundary
      if (hi == ordered) break;  // number -> NaN: no midpoint, and NaN is last
      const std::size_t nl = i + 1;
      if (nl < limits.min_samples_leaf || n - nl < limits.min_samples_leaf) continue;
      const double gain = criterion.gain(node, parent, left, nl, n);
      if (gain > acc.best.gain) acc.best = {gain, feat, 0.5f * (values[lo] + values[hi])};
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
    features.resize(x.cols());
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
      serial.best = Best{};
      for (std::size_t j = 0; j < n_candidates; ++j) scan_candidate(serial, j);
      best = serial.best;
    }
    if (best.gain <= Criterion::kMinGain) return leaf(stats, n);

    // Partition in place: rows with value <= threshold go left.
    const auto goes_left = [&](std::size_t row) {
      return x(row, best.feature) <= best.threshold;
    };
    const auto mid_it = std::partition(idx.begin() + static_cast<std::ptrdiff_t>(begin),
                                       idx.begin() + static_cast<std::ptrdiff_t>(end),
                                       goes_left);
    const auto mid = static_cast<std::size_t>(mid_it - idx.begin());
    if (mid == begin || mid == end) return leaf(stats, n);  // numeric edge case
    std::size_t kept = begin, spilled = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t row = rows[i];
      if (goes_left(row))
        rows[kept++] = row;
      else
        spill[spilled++] = row;
    }
    std::copy_n(spill.begin(), spilled, rows.begin() + static_cast<std::ptrdiff_t>(kept));

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
/// `importance[feature]`.  `encoding` must be RankEncoding(x).
template <typename Criterion>
void grow(const Matrix& x, const RankEncoding& encoding, const Criterion& criterion,
          const GrowLimits& limits, std::vector<std::size_t>& idx,
          std::vector<TreeNode<typename Criterion::Leaf>>& nodes,
          std::vector<double>& importance) {
  if (encoding.rows() != x.rows() || encoding.cols() != x.cols())
    throw std::invalid_argument("grow: the rank encoding is of another matrix");
  detail::Grower<Criterion> grower(x, encoding, criterion, limits, idx, nodes, importance);
  grower.grow(0, idx.size(), 0);
}

}  // namespace ssdfail::ml
