#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "ml/decision_tree.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "stats/rng.hpp"
#include "tree_test_util.hpp"

namespace ssdfail::ml {
namespace {

/// XOR-style task: label = (x0 > 0) != (x1 > 0).  Linear models cannot
/// solve this; trees must (the reason the paper cites for forests winning:
/// "they work well with discrete data and model nonlinear effects").
Dataset make_xor_task(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  Dataset d;
  d.x = Matrix(n, 3);
  d.y.resize(n);
  d.groups.resize(n);
  d.feature_names = {"x0", "x1", "noise"};
  for (std::size_t r = 0; r < n; ++r) {
    const double x0 = rng.normal();
    const double x1 = rng.normal();
    d.x(r, 0) = static_cast<float>(x0);
    d.x(r, 1) = static_cast<float>(x1);
    d.x(r, 2) = static_cast<float>(rng.normal());
    d.y[r] = ((x0 > 0.0) != (x1 > 0.0)) ? 1.0f : 0.0f;
    d.groups[r] = r;
  }
  return d;
}

TEST(DecisionTree, SolvesXor) {
  const Dataset train = make_xor_task(2000, 1);
  const Dataset test = make_xor_task(500, 2);
  DecisionTree::Params p;
  p.max_depth = 6;
  DecisionTree tree(p);
  tree.fit(train);
  EXPECT_GT(roc_auc(tree.predict_proba(test.x), test.y), 0.95);
}

TEST(DecisionTree, PureNodeBecomesLeaf) {
  Dataset d;
  d.x = Matrix(4, 1);
  d.y = {1.0f, 1.0f, 1.0f, 1.0f};
  d.groups = {0, 1, 2, 3};
  DecisionTree tree;
  tree.fit(d);
  EXPECT_EQ(tree.node_count(), 1u);
  Matrix q(1, 1);
  EXPECT_FLOAT_EQ(tree.predict_proba(q)[0], 1.0f);
}

TEST(DecisionTree, RespectsMaxDepth) {
  const Dataset train = make_xor_task(2000, 3);
  DecisionTree::Params p;
  p.max_depth = 1;
  DecisionTree stump(p);
  stump.fit(train);
  // A depth-1 tree has at most 3 nodes (root + 2 leaves).
  EXPECT_LE(stump.node_count(), 3u);
}

TEST(DecisionTree, MinSamplesLeafHonored) {
  const Dataset train = make_xor_task(200, 4);
  DecisionTree::Params p;
  p.min_samples_leaf = 150;  // impossible to satisfy -> no split
  DecisionTree tree(p);
  tree.fit(train);
  EXPECT_EQ(tree.node_count(), 1u);
}

TEST(DecisionTree, ImportanceConcentratesOnSignalFeatures) {
  const Dataset train = make_xor_task(3000, 5);
  DecisionTree tree;
  tree.fit(train);
  const auto& imp = tree.impurity_importance();
  ASSERT_EQ(imp.size(), 3u);
  EXPECT_GT(imp[0] + imp[1], 20.0 * imp[2]);
}

TEST(DecisionTree, ConstantFeaturesYieldLeaf) {
  Dataset d;
  d.x = Matrix(10, 2, 1.0f);
  d.y.assign(10, 0.0f);
  d.y[0] = 1.0f;
  d.groups.resize(10);
  std::iota(d.groups.begin(), d.groups.end(), 0);
  DecisionTree tree;
  tree.fit(d);
  EXPECT_EQ(tree.node_count(), 1u);
  Matrix q(1, 2, 1.0f);
  EXPECT_NEAR(tree.predict_proba(q)[0], 0.1f, 1e-6);
}

TEST(RandomForest, SolvesXorBetterThanAStump) {
  const Dataset train = make_xor_task(2000, 6);
  const Dataset test = make_xor_task(500, 7);
  RandomForest::Params p;
  p.n_trees = 50;
  RandomForest forest(p);
  forest.fit(train);
  EXPECT_GT(roc_auc(forest.predict_proba(test.x), test.y), 0.97);
}

TEST(RandomForest, DeterministicRegardlessOfThreads) {
  const Dataset train = make_xor_task(800, 8);
  const Dataset test = make_xor_task(100, 9);
  RandomForest::Params p;
  p.n_trees = 16;
  RandomForest a(p);
  RandomForest b(p);
  a.fit(train);
  b.fit(train);
  const auto sa = a.predict_proba(test.x);
  const auto sb = b.predict_proba(test.x);
  for (std::size_t i = 0; i < sa.size(); ++i) ASSERT_FLOAT_EQ(sa[i], sb[i]);
}

TEST(RandomForest, SeedChangesTrees) {
  const Dataset train = make_xor_task(800, 10);
  const Dataset test = make_xor_task(200, 11);
  RandomForest::Params pa;
  pa.n_trees = 8;
  pa.seed = 1;
  RandomForest::Params pb = pa;
  pb.seed = 2;
  RandomForest a(pa);
  RandomForest b(pb);
  a.fit(train);
  b.fit(train);
  const auto sa = a.predict_proba(test.x);
  const auto sb = b.predict_proba(test.x);
  int differing = 0;
  for (std::size_t i = 0; i < sa.size(); ++i)
    if (sa[i] != sb[i]) ++differing;
  EXPECT_GT(differing, 10);
}

TEST(RandomForest, ImportanceIsNormalized) {
  const Dataset train = make_xor_task(1500, 12);
  RandomForest::Params p;
  p.n_trees = 30;
  RandomForest forest(p);
  forest.fit(train);
  const auto imp = forest.feature_importance();
  ASSERT_EQ(imp.size(), 3u);
  EXPECT_NEAR(std::accumulate(imp.begin(), imp.end(), 0.0), 1.0, 1e-9);
  EXPECT_GT(imp[0] + imp[1], 0.8);
}

TEST(RandomForest, MoreTreesReduceVariance) {
  // Spread of predictions on ambiguous points narrows with ensemble size.
  const Dataset train = make_xor_task(1000, 13);
  Matrix ambiguous(1, 3);  // the origin: perfectly ambiguous for XOR
  auto spread = [&](std::size_t n_trees, std::uint64_t seed_base) {
    std::vector<double> preds;
    for (std::uint64_t s = 0; s < 8; ++s) {
      RandomForest::Params p;
      p.n_trees = n_trees;
      p.seed = seed_base + s;
      RandomForest f(p);
      f.fit(train);
      preds.push_back(f.predict_proba(ambiguous)[0]);
    }
    const auto ms = mean_sd(preds);
    return ms.sd;
  };
  EXPECT_LT(spread(64, 100), spread(2, 200) + 1e-12);
}

/// Integer-valued, tie-heavy task shaped like daily error counters: most
/// columns take a handful of distinct values, so every split search sorts
/// long runs of equal keys and tie order decides the boosting sums.
Dataset make_counter_task(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  Dataset d;
  d.x = Matrix(n, 6);
  d.y.resize(n);
  d.groups.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const auto errors = rng.uniform_index(4) * rng.uniform_index(3);  // 0..6, half 0
    const auto bad_blocks = rng.uniform_index(6);
    const auto age = rng.uniform_index(40);
    const auto read_only = rng.uniform_index(10) == 0 ? 1u : 0u;
    d.x(r, 0) = static_cast<float>(errors);
    d.x(r, 1) = static_cast<float>(bad_blocks);
    d.x(r, 2) = static_cast<float>(age);
    d.x(r, 3) = static_cast<float>(read_only);
    d.x(r, 4) = static_cast<float>(rng.uniform_index(3));  // pure noise
    d.x(r, 5) = static_cast<float>(errors + bad_blocks);
    const double risk = 0.04 + 0.08 * static_cast<double>(errors) +
                        0.05 * static_cast<double>(bad_blocks) +
                        0.3 * static_cast<double>(read_only) +
                        (age > 30 ? 0.1 : 0.0);
    d.y[r] = rng.bernoulli(std::min(risk, 0.95)) ? 1.0f : 0.0f;
    d.groups[r] = r;
  }
  return d;
}

// Bit-exact pins of every tree learner's fit: the digests cover each split
// (feature, threshold, child links), leaf value and importance entry, so
// any change to the split search, tie handling, partition or node order
// shows here.  Constants were captured from the separate CART and
// boosting builders that the shared tree kernel replaced.
TEST(TreeFitPins, FitsAreBitIdenticalToTheReferenceBuilders) {
  const Dataset train = make_counter_task(4000, 2024);

  DecisionTree all_features;
  all_features.fit(train);
  EXPECT_EQ(tree_digest(all_features, train.x), 0xae2ef9863a177c5bULL);

  DecisionTree::Params subset;
  subset.max_features = 3;
  DecisionTree sampled(subset);
  sampled.fit(train);
  EXPECT_EQ(tree_digest(sampled, train.x), 0x0a8898537b8f4650ULL);

  RandomForest::Params rf;
  rf.n_trees = 20;
  RandomForest forest(rf);
  forest.fit(train);
  EXPECT_EQ(model_file_digest(forest), 0x85f8fa67c9172182ULL);

  GradientBoosting::Params gb;
  gb.n_rounds = 30;
  GradientBoosting boosted(gb);
  boosted.fit(train);
  EXPECT_EQ(model_file_digest(boosted), 0xaebf73f77690c8f8ULL);
}

}  // namespace
}  // namespace ssdfail::ml
