// Compiled flat-forest engine: bit-identity with the pointer-walk path,
// the frozen NaN routing contract, the serial small-batch cutoff, and the
// Classifier wrapper / serving-model factory semantics.

#include "ml/flat_forest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "ml/gradient_boosting.hpp"
#include "ml/logistic.hpp"
#include "ml/model_zoo.hpp"
#include "ml/random_forest.hpp"
#include "stats/rng.hpp"

namespace ssdfail::ml {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Small learnable binary task (two shifted gaussian blobs).
Dataset make_task(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  stats::Rng rng(seed);
  Dataset d;
  d.x = Matrix(rows, cols);
  d.y.resize(rows);
  d.groups.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const bool positive = rng.bernoulli(0.4);
    for (std::size_t c = 0; c < cols; ++c)
      d.x(r, c) = static_cast<float>(rng.normal() + (positive ? 0.8 : -0.2));
    d.y[r] = positive ? 1.0f : 0.0f;
    d.groups[r] = r;
  }
  return d;
}

Matrix probe_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      m(r, c) = static_cast<float>(3.0 * rng.normal());
  return m;
}

/// A probe with NaN and +/-Inf features scattered through real data.
Matrix hostile_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m = probe_matrix(rows, cols, seed);
  stats::Rng rng(seed + 1);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      const double dice = rng.uniform();
      if (dice < 0.1)
        m(r, c) = kNaN;
      else if (dice < 0.15)
        m(r, c) = kInf;
      else if (dice < 0.2)
        m(r, c) = -kInf;
    }
  return m;
}

RandomForest fitted_forest(std::size_t n_trees = 20) {
  RandomForest::Params params;
  params.n_trees = n_trees;
  RandomForest forest(params);
  forest.fit(make_task(400, 6, 1));
  return forest;
}

GradientBoosting fitted_boosting() {
  GradientBoosting::Params params;
  params.n_rounds = 40;
  GradientBoosting model(params);
  model.fit(make_task(400, 6, 2));
  return model;
}

void expect_identical(const std::vector<float>& a, const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "row " << i;
}

// Row counts straddling the scalar step group (16), the serial cutoff (64),
// the row block (128, the only size the vector walk scores), and the
// parallel chunk (256).
const std::size_t kProbeSizes[] = {1,   7,   16,  17,  63,  64,  65,  127,
                                   128, 129, 192, 200, 257, 300, 1000};

TEST(FlatForest, BitIdenticalToForestWalker) {
  const RandomForest forest = fitted_forest();
  const FlatForest engine = FlatForest::compile(forest);
  EXPECT_EQ(engine.kind(), FlatForest::Kind::kAverage);
  EXPECT_EQ(engine.tree_count(), forest.tree_count());
  for (const std::size_t rows : kProbeSizes) {
    const Matrix probe = probe_matrix(rows, 6, 10 + rows);
    expect_identical(engine.predict_proba(probe), forest.predict_proba(probe));
  }
}

TEST(FlatForest, BitIdenticalToBoostingWalker) {
  const GradientBoosting model = fitted_boosting();
  const FlatForest engine = FlatForest::compile(model);
  EXPECT_EQ(engine.kind(), FlatForest::Kind::kLogitSum);
  for (const std::size_t rows : kProbeSizes) {
    const Matrix probe = probe_matrix(rows, 6, 20 + rows);
    expect_identical(engine.predict_proba(probe), model.predict_proba(probe));
  }
}

TEST(FlatForest, BitIdenticalOnNanAndInfRows) {
  const RandomForest forest = fitted_forest();
  const GradientBoosting boosting = fitted_boosting();
  const FlatForest flat_forest = FlatForest::compile(forest);
  const FlatForest flat_boosting = FlatForest::compile(boosting);
  for (const std::size_t rows : {1u, 16u, 100u, 128u, 129u, 300u}) {
    const Matrix probe = hostile_matrix(rows, 6, 30 + rows);
    expect_identical(flat_forest.predict_proba(probe), forest.predict_proba(probe));
    expect_identical(flat_boosting.predict_proba(probe), boosting.predict_proba(probe));
    for (const float s : flat_forest.predict_proba(probe))
      EXPECT_TRUE(std::isfinite(s));  // tree outputs are leaf fractions
  }
}

TEST(FlatForest, NanRoutesRightLikePlusInfinity) {
  // The frozen contract (kNanRoutesRight): every comparison against NaN
  // fails, so a NaN feature takes the right child — the exact path an
  // always-greater feature (+Inf) takes.
  static_assert(kNanRoutesRight);
  const RandomForest forest = fitted_forest();
  const GradientBoosting boosting = fitted_boosting();
  const FlatForest flat_forest = FlatForest::compile(forest);
  const FlatForest flat_boosting = FlatForest::compile(boosting);
  const Matrix nan_row(1, 6, kNaN);
  const Matrix inf_row(1, 6, kInf);
  EXPECT_EQ(forest.predict_proba(nan_row)[0], forest.predict_proba(inf_row)[0]);
  EXPECT_EQ(flat_forest.predict_proba(nan_row)[0], flat_forest.predict_proba(inf_row)[0]);
  EXPECT_EQ(flat_forest.predict_proba(nan_row)[0], forest.predict_proba(nan_row)[0]);
  EXPECT_EQ(boosting.predict_proba(nan_row)[0], boosting.predict_proba(inf_row)[0]);
  EXPECT_EQ(flat_boosting.predict_proba(nan_row)[0],
            boosting.predict_proba(nan_row)[0]);
}

TEST(FlatForest, PredictRowMatchesBatchPath) {
  const RandomForest forest = fitted_forest();
  const FlatForest engine = FlatForest::compile(forest);
  const Matrix probe = probe_matrix(50, 6, 40);
  const auto batch = engine.predict_proba(probe);
  for (std::size_t r = 0; r < probe.rows(); ++r)
    EXPECT_EQ(engine.predict_row(probe.row(r)), batch[r]) << "row " << r;
}

// predict_row always takes the scalar walk, and full 128-row blocks of a
// batch take the vector walk wherever the host has one, so this pins the
// two walks against each other on hostile rows.
TEST(FlatForest, VectorBlocksMatchTheScalarRowWalk) {
  const FlatForest flat_forest = FlatForest::compile(fitted_forest());
  const FlatForest flat_boosting = FlatForest::compile(fitted_boosting());
  const Matrix probe = hostile_matrix(1000, 6, 45);
  for (const FlatForest* engine : {&flat_forest, &flat_boosting}) {
    const auto batch = engine->predict_proba(probe);
    for (std::size_t r = 0; r < probe.rows(); ++r)
      EXPECT_EQ(engine->predict_row(probe.row(r)), batch[r]) << "row " << r;
  }
}

// One-class labels make every tree a depth-0 root leaf: no walk takes a
// step, and each row scores the leaf.
TEST(FlatForest, StumpForestScoresItsLeaves) {
  Dataset train = make_task(200, 6, 46);
  std::fill(train.y.begin(), train.y.end(), 1.0f);
  RandomForest::Params params;
  params.n_trees = 7;
  RandomForest forest(params);
  forest.fit(train);
  const FlatForest engine = FlatForest::compile(forest);
  EXPECT_EQ(engine.max_depth(), 0u);
  const Matrix probe = hostile_matrix(256, 6, 47);
  const auto scores = engine.predict_proba(probe);
  expect_identical(scores, forest.predict_proba(probe));
  for (const float s : scores) EXPECT_EQ(s, 1.0f);
}

TEST(FlatForest, SerialAndParallelScoresAreBitIdentical) {
  const RandomForest forest = fitted_forest();
  const FlatForest engine = FlatForest::compile(forest);
  parallel::ThreadPool pool1(1);
  parallel::ThreadPool pool8(8);
  for (const std::size_t rows : kProbeSizes) {
    const Matrix probe = probe_matrix(rows, 6, 50 + rows);
    expect_identical(engine.predict_proba(probe, pool1),
                     engine.predict_proba(probe, pool8));
  }
}

TEST(FlatForest, CompileBeforeFitThrows) {
  EXPECT_THROW((void)FlatForest::compile(RandomForest{}), std::logic_error);
  EXPECT_THROW((void)FlatForest::compile(GradientBoosting{}), std::logic_error);
  EXPECT_THROW((void)FlatForest{}.predict_proba(Matrix(1, 1)), std::logic_error);
}

// A model fit on 6 columns must refuse a narrower matrix instead of
// reading past each row's end.
TEST(DecisionTree, RejectsAMatrixWithTheWrongColumnCount) {
  DecisionTree tree;
  tree.fit(make_task(200, 6, 3));
  EXPECT_THROW((void)tree.predict_proba(Matrix(1, 2)), std::invalid_argument);
}

TEST(RandomForest, RejectsAMatrixWithTheWrongColumnCount) {
  EXPECT_THROW((void)fitted_forest(5).predict_proba(Matrix(1, 2)), std::invalid_argument);
}

TEST(GradientBoosting, RejectsAMatrixWithTheWrongColumnCount) {
  EXPECT_THROW((void)fitted_boosting().predict_proba(Matrix(1, 2)), std::invalid_argument);
}

TEST(FlatForest, RejectsAMatrixWithTheWrongColumnCountOrRowRange) {
  const FlatForest engine = FlatForest::compile(fitted_forest(5));
  EXPECT_THROW((void)engine.predict_proba(Matrix(1, 2)), std::invalid_argument);
  std::vector<float> out(4);
  EXPECT_THROW(engine.predict_into(Matrix(1, 2), 0, 1, out.data()), std::invalid_argument);
  EXPECT_THROW(engine.predict_into(Matrix(3, 6), 2, 2, out.data()), std::invalid_argument);
  engine.predict_into(Matrix(3, 6), 1, 2, out.data());  // in range: scores
}

TEST(FlatForest, StructuralHashIsStableAndDiscriminating) {
  const RandomForest forest = fitted_forest();
  const FlatForest a = FlatForest::compile(forest);
  const FlatForest b = FlatForest::compile(forest);
  EXPECT_EQ(a.structural_hash(), b.structural_hash());
  const FlatForest other = FlatForest::compile(fitted_forest(21));
  EXPECT_NE(a.structural_hash(), other.structural_hash());
}

// ---------------------------------------------------------------------------
// RandomForest serial small-batch cutoff (satellite: tiny batches must not
// pay pool dispatch, and the cutoff must not move any score bit).
// ---------------------------------------------------------------------------

TEST(RandomForestCutoff, SerialAndParallelPredictionsAreBitIdentical) {
  const RandomForest forest = fitted_forest();
  parallel::ThreadPool pool1(1);
  parallel::ThreadPool pool8(8);
  for (const std::size_t rows :
       {std::size_t{1}, RandomForest::kSerialPredictRows - 1,
        RandomForest::kSerialPredictRows, RandomForest::kSerialPredictRows + 1,
        std::size_t{500}}) {
    const Matrix probe = probe_matrix(rows, 6, 60 + rows);
    const auto serial = forest.predict_proba(probe, pool1);
    const auto parallel_scores = forest.predict_proba(probe, pool8);
    const auto default_pool = forest.predict_proba(probe);
    expect_identical(serial, parallel_scores);
    expect_identical(serial, default_pool);
  }
}

// ---------------------------------------------------------------------------
// Classifier wrapper + serving factory.
// ---------------------------------------------------------------------------

TEST(FlatForestClassifier, ServingWrapperScoresIdenticallyAndKeepsName) {
  auto forest = std::make_shared<RandomForest>(fitted_forest());
  FlatForestClassifier wrapper{std::shared_ptr<const Classifier>(forest)};
  EXPECT_EQ(wrapper.name(), "random_forest");
  const Matrix probe = probe_matrix(100, 6, 70);
  expect_identical(wrapper.predict_proba(probe), forest->predict_proba(probe));
  EXPECT_THROW(wrapper.fit(make_task(50, 6, 71)), std::logic_error);
}

TEST(FlatForestClassifier, TrainableWrapperFitsAndClones) {
  FlatForestClassifier wrapper(
      std::unique_ptr<Classifier>(std::make_unique<RandomForest>()));
  const Dataset train = make_task(300, 6, 80);
  wrapper.fit(train);
  const Matrix probe = probe_matrix(50, 6, 81);
  RandomForest reference;
  reference.fit(train);
  expect_identical(wrapper.predict_proba(probe), reference.predict_proba(probe));

  // clone() hands back an unfitted trainable wrapper (the CV protocol).
  auto cloned = wrapper.clone();
  EXPECT_EQ(cloned->name(), "random_forest");
  cloned->fit(train);
  expect_identical(cloned->predict_proba(probe), reference.predict_proba(probe));
}

TEST(FlatForestClassifier, RejectsNonEnsembles) {
  auto logistic = std::make_shared<LogisticRegression>();
  logistic->fit(make_task(200, 4, 90));
  EXPECT_THROW(FlatForestClassifier{std::shared_ptr<const Classifier>(logistic)},
               std::invalid_argument);
  EXPECT_THROW(
      FlatForestClassifier{
          std::unique_ptr<Classifier>(std::make_unique<LogisticRegression>())},
      std::invalid_argument);
  EXPECT_THROW(FlatForestClassifier{std::shared_ptr<const Classifier>{}},
               std::invalid_argument);
}

TEST(MakeServingModel, WrapsFittedEnsemblesOnly) {
  auto forest = std::make_shared<RandomForest>(fitted_forest());
  const auto serving = make_serving_model(forest);
  ASSERT_NE(serving, nullptr);
  EXPECT_NE(dynamic_cast<const FlatForestClassifier*>(serving.get()), nullptr);
  // Idempotent: wrapping a wrapped model is a passthrough.
  EXPECT_EQ(make_serving_model(serving), serving);

  // Non-ensembles, unfitted ensembles, and null pass through untouched.
  auto logistic = std::make_shared<LogisticRegression>();
  logistic->fit(make_task(200, 4, 91));
  EXPECT_EQ(make_serving_model(logistic).get(), logistic.get());
  auto unfitted = std::make_shared<RandomForest>();
  EXPECT_EQ(make_serving_model(unfitted).get(), unfitted.get());
  EXPECT_EQ(make_serving_model(nullptr), nullptr);
}

}  // namespace
}  // namespace ssdfail::ml
