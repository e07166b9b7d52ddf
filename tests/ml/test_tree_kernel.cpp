#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "ml/decision_tree.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/random_forest.hpp"
#include "ml/tree_kernel.hpp"
#include "stats/rng.hpp"
#include "tree_test_util.hpp"

namespace ssdfail::ml {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

TEST(RankEncoding, RanksAreDenseOrderedAndShareSignedZero) {
  const std::vector<float> column = {3.0f, -1.0f, 3.0f, 0.5f,  -0.0f,
                                     0.0f, kNan,  kInf, -kInf, kNan};
  Matrix x(column.size(), 4);
  for (std::size_t r = 0; r < column.size(); ++r) {
    x(r, 0) = column[r];
    x(r, 1) = 7.0f;                               // constant
    x(r, 2) = kNan;                               // all NaN
    x(r, 3) = static_cast<float>(column.size() - r);  // one value per row
  }
  const RankEncoding encoding(x);
  ASSERT_EQ(encoding.rows(), column.size());
  ASSERT_EQ(encoding.cols(), 4u);

  const auto values = encoding.values(0);
  ASSERT_EQ(values.size(), 7u);  // -inf -1 0 0.5 3 inf NaN
  EXPECT_EQ(encoding.ordered(0), 6u);
  EXPECT_TRUE(std::isnan(values[6]));
  for (std::size_t v = 0; v + 2 < values.size(); ++v) EXPECT_LT(values[v], values[v + 1]);

  const auto ranks = encoding.ranks(0);
  std::vector<bool> used(values.size(), false);
  for (std::size_t a = 0; a < column.size(); ++a) {
    ASSERT_LT(ranks[a], values.size());
    used[ranks[a]] = true;
    if (std::isnan(column[a])) {
      EXPECT_EQ(ranks[a], encoding.ordered(0));
      continue;
    }
    EXPECT_EQ(values[ranks[a]], column[a]);
    for (std::size_t b = 0; b < column.size(); ++b) {
      if (std::isnan(column[b])) continue;
      EXPECT_EQ(column[a] < column[b], ranks[a] < ranks[b]) << a << " vs " << b;
      EXPECT_EQ(column[a] == column[b], ranks[a] == ranks[b]) << a << " vs " << b;
    }
  }
  EXPECT_TRUE(std::all_of(used.begin(), used.end(), [](bool u) { return u; }));
  EXPECT_EQ(ranks[4], ranks[5]);  // -0.0 and +0.0

  EXPECT_EQ(encoding.values(1).size(), 1u);
  EXPECT_EQ(encoding.ordered(1), 1u);
  EXPECT_EQ(encoding.values(2).size(), 1u);
  EXPECT_EQ(encoding.ordered(2), 0u);
  EXPECT_EQ(encoding.values(3).size(), column.size());
  for (std::size_t r = 0; r < column.size(); ++r)
    EXPECT_EQ(encoding.ranks(3)[r], column.size() - 1 - r);
}

TEST(RankEncoding, GrowRejectsTheEncodingOfAnotherMatrix) {
  const Matrix x(6, 2, 1.0f);
  const RankEncoding other(Matrix(5, 2, 1.0f));
  const std::vector<float> y(6, 0.0f);
  std::vector<std::size_t> idx(6);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::vector<TreeNode<float>> nodes;
  std::vector<double> importance(2, 0.0);
  EXPECT_THROW(grow(x, other, Gini{y}, GrowLimits{4, 2, 1, 0, 1}, idx, nodes, importance),
               std::invalid_argument);
}

/// Tie-heavy task: one column of each cardinality the split search sees on
/// fleet data.  Column 0 is constant, 1 and 3 take two values (3 mixes
/// -0.0 and +0.0 in its zeros), 2 and 5 a few, 4 one value per row.
Dataset make_tie_task(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  Dataset d;
  d.x = Matrix(n, 6);
  d.y.resize(n);
  d.groups.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const auto flag = rng.uniform_index(4) == 0 ? 1u : 0u;
    const auto level = rng.uniform_index(5);
    const bool zero = rng.uniform_index(3) != 0;
    const double wear = rng.normal();
    d.x(r, 0) = 3.0f;
    d.x(r, 1) = static_cast<float>(flag);
    d.x(r, 2) = static_cast<float>(level);
    d.x(r, 3) = zero ? (rng.uniform_index(2) == 0 ? -0.0f : 0.0f) : 2.0f;
    d.x(r, 4) = static_cast<float>(wear);
    d.x(r, 5) = static_cast<float>(rng.uniform_index(12));
    const double risk = 0.05 + 0.25 * flag + 0.06 * static_cast<double>(level) +
                        (zero ? 0.0 : 0.1) + (wear > 0.8 ? 0.2 : 0.0);
    d.y[r] = rng.bernoulli(std::min(risk, 0.95)) ? 1.0f : 0.0f;
    d.groups[r] = r;
  }
  return d;
}

/// The node `row` ends in, and every node on its way there.
template <typename Leaf>
std::vector<std::int32_t> path_of(const std::vector<TreeNode<Leaf>>& nodes,
                                  std::span<const float> row) {
  std::vector<std::int32_t> path{0};
  while (nodes[path.back()].left != -1) {
    const TreeNode<Leaf>& node = nodes[path.back()];
    path.push_back(row[static_cast<std::size_t>(node.feature)] <= node.threshold ? node.left
                                                                                 : node.right);
  }
  return path;
}

/// Training rows reaching each node of a tree grown over every row of x.
template <typename Leaf>
std::vector<std::size_t> node_rows(const std::vector<TreeNode<Leaf>>& nodes, const Matrix& x) {
  std::vector<std::size_t> count(nodes.size(), 0);
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (const std::int32_t id : path_of(nodes, x.row(r))) ++count[id];
  return count;
}

// The tie-heavy task drives both orderings of the split search: at the
// nodes a full-depth CART tree scans, some (feature, node) pairs take the
// counting pass and some the key sort.
TEST(TieHeavyFitPins, TheTaskTakesBothOrderings) {
  const Dataset train = make_tie_task(900, 77);
  const RankEncoding encoding(train.x);
  std::vector<std::size_t> idx(train.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::vector<TreeNode<float>> nodes;
  std::vector<double> importance(train.x.cols(), 0.0);
  grow(train.x, encoding, Gini{train.y}, GrowLimits{16, 2, 1, 0, 1}, idx, nodes, importance);

  const std::vector<std::size_t> count = node_rows(nodes, train.x);
  std::size_t counted = 0, sorted = 0;
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    if (nodes[id].left == -1) continue;
    for (std::size_t f = 0; f < train.x.cols(); ++f) {
      if (encoding.ordered(f) < 2) continue;  // returns before ordering rows
      (detail::counting_pass_fits(encoding.values(f).size(), count[id]) ? counted : sorted) += 1;
    }
  }
  EXPECT_GT(counted, 100u);
  EXPECT_GT(sorted, 100u);
}

// Bit-exact pins of every learner on the tie-heavy task.  The constants
// were captured from the kernel that sorted (value, payload) pairs at each
// node, before the rank-encoded search replaced it.
TEST(TieHeavyFitPins, FitsAreBitIdenticalToThePairSortSearch) {
  const Dataset train = make_tie_task(900, 77);

  DecisionTree all_features;
  all_features.fit(train);
  EXPECT_EQ(tree_digest(all_features, train.x), 0x871cd2d201bd78fdULL);

  DecisionTree::Params subset;
  subset.max_features = 2;
  subset.min_samples_leaf = 1;
  subset.min_samples_split = 2;
  subset.max_depth = 16;
  DecisionTree sampled(subset);
  sampled.fit(train);
  EXPECT_EQ(tree_digest(sampled, train.x), 0x1ccebbfb9c2cca1eULL);

  RandomForest::Params rf;  // bootstrap samples repeat rows
  rf.n_trees = 12;
  RandomForest forest(rf);
  forest.fit(train);
  EXPECT_EQ(model_file_digest(forest), 0xa1fb032fd696d96aULL);

  GradientBoosting::Params gb;
  gb.n_rounds = 20;
  gb.subsample = 0.7;
  gb.max_depth = 6;
  gb.min_samples_leaf = 4;
  GradientBoosting boosted(gb);
  boosted.fit(train);
  EXPECT_EQ(model_file_digest(boosted), 0x80a492823e95f175ULL);
}

/// Telemetry with gaps: column 0 is few-valued with NaNs, 1 continuous
/// with NaNs, 2 all NaN, 3 few-valued and complete.  A NaN in column 0
/// raises the risk, so the trees want to split on it.
Dataset make_nan_task(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  Dataset d;
  d.x = Matrix(n, 4);
  d.y.resize(n);
  d.groups.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const bool gap = rng.uniform_index(5) == 0;
    const auto level = rng.uniform_index(4);
    const double wear = rng.normal();
    d.x(r, 0) = gap ? kNan : static_cast<float>(level);
    d.x(r, 1) = rng.uniform_index(10) == 0 ? kNan : static_cast<float>(wear);
    d.x(r, 2) = kNan;
    d.x(r, 3) = static_cast<float>(rng.uniform_index(3));
    const double risk = 0.1 + (gap ? 0.5 : 0.05 * static_cast<double>(level)) +
                        (wear > 1.0 ? 0.2 : 0.0);
    d.y[r] = rng.bernoulli(risk) ? 1.0f : 0.0f;
    d.groups[r] = r;
  }
  return d;
}

TEST(NanTraining, FitsAreDeterministic) {
  const Dataset train = make_nan_task(1200, 5);
  DecisionTree a, b;
  a.fit(train);
  b.fit(train);
  EXPECT_EQ(tree_digest(a, train.x), tree_digest(b, train.x));
  EXPECT_GT(a.node_count(), 1u);

  RandomForest::Params rf;
  rf.n_trees = 8;
  RandomForest fa(rf), fb(rf);
  fa.fit(train);
  fb.fit(train);
  EXPECT_EQ(model_file_digest(fa), model_file_digest(fb));

  GradientBoosting::Params gb;
  gb.n_rounds = 10;
  GradientBoosting ga(gb), gbm(gb);
  ga.fit(train);
  gbm.fit(train);
  EXPECT_EQ(model_file_digest(ga), model_file_digest(gbm));
}

// A split never gets a NaN threshold, and the partition sends every NaN
// training row right: each leaf holds exactly the positive fraction of the
// training rows the walk routes to it, and the walk routes NaN right.
TEST(NanTraining, NanRowsLandInRightChildren) {
  const Dataset train = make_nan_task(1200, 6);
  const RankEncoding encoding(train.x);
  std::vector<std::size_t> idx(train.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::vector<TreeNode<float>> nodes;
  std::vector<double> importance(train.x.cols(), 0.0);
  grow(train.x, encoding, Gini{train.y}, GrowLimits{10, 4, 2, 0, 1}, idx, nodes, importance);

  for (const TreeNode<float>& node : nodes) {
    if (node.left != -1) {
      EXPECT_FALSE(std::isnan(node.threshold));
    }
  }

  std::vector<double> rows(nodes.size(), 0.0), positives(nodes.size(), 0.0);
  std::size_t nan_steps = 0;
  for (std::size_t r = 0; r < train.size(); ++r) {
    const auto row = train.x.row(r);
    const std::vector<std::int32_t> path = path_of(nodes, row);
    for (std::size_t step = 0; step + 1 < path.size(); ++step) {
      const TreeNode<float>& node = nodes[path[step]];
      if (!std::isnan(row[static_cast<std::size_t>(node.feature)])) continue;
      ++nan_steps;
      EXPECT_EQ(path[step + 1], node.right);
    }
    rows[path.back()] += 1.0;
    if (train.y[r] > 0.5f) positives[path.back()] += 1.0;
  }
  EXPECT_GT(nan_steps, 100u);
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    if (nodes[id].left != -1) continue;
    ASSERT_GT(rows[id], 0.0) << "leaf " << id << " holds no training row";
    EXPECT_EQ(std::bit_cast<std::uint32_t>(nodes[id].value),
              std::bit_cast<std::uint32_t>(static_cast<float>(positives[id] / rows[id])))
        << "leaf " << id;
  }
}

}  // namespace
}  // namespace ssdfail::ml
