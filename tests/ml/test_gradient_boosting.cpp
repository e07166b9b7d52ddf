#include "ml/gradient_boosting.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "ml/metrics.hpp"
#include "stats/rng.hpp"

namespace ssdfail::ml {
namespace {

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

Dataset make_linear_task(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  Dataset d;
  d.x = Matrix(n, 2);
  d.y.resize(n);
  d.groups.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const double x0 = rng.normal();
    d.x(r, 0) = static_cast<float>(x0);
    d.x(r, 1) = static_cast<float>(rng.normal());
    d.y[r] = x0 + 0.4 * rng.normal() > 0.0 ? 1.0f : 0.0f;
    d.groups[r] = r;
  }
  return d;
}

TEST(GradientBoosting, SolvesXor) {
  const Dataset train = make_xor_task(2000, 1);
  const Dataset test = make_xor_task(600, 2);
  GradientBoosting model;
  model.fit(train);
  EXPECT_GT(roc_auc(model.predict_proba(test.x), test.y), 0.97);
}

TEST(GradientBoosting, SolvesLinearTask) {
  const Dataset train = make_linear_task(1500, 3);
  const Dataset test = make_linear_task(600, 4);
  GradientBoosting model;
  model.fit(train);
  EXPECT_GT(roc_auc(model.predict_proba(test.x), test.y), 0.90);
}

TEST(GradientBoosting, MoreRoundsHelpUpToConvergence) {
  // Depth-2 trees: a handful of rounds cannot tile XOR's four quadrants,
  // a hundred can.
  const Dataset train = make_xor_task(1500, 5);
  const Dataset test = make_xor_task(600, 6);
  auto auc_with = [&](std::size_t rounds) {
    GradientBoosting::Params p;
    p.n_rounds = rounds;
    p.max_depth = 2;
    p.learning_rate = 0.05;
    GradientBoosting model(p);
    model.fit(train);
    return roc_auc(model.predict_proba(test.x), test.y);
  };
  EXPECT_GT(auc_with(100), auc_with(2) + 0.05);
}

TEST(GradientBoosting, DeterministicForFixedSeed) {
  const Dataset train = make_xor_task(800, 7);
  const Dataset test = make_xor_task(200, 8);
  GradientBoosting a;
  GradientBoosting b;
  a.fit(train);
  b.fit(train);
  const auto sa = a.predict_proba(test.x);
  const auto sb = b.predict_proba(test.x);
  for (std::size_t i = 0; i < sa.size(); ++i) ASSERT_FLOAT_EQ(sa[i], sb[i]);
}

TEST(GradientBoosting, ScoresAreProbabilities) {
  const Dataset train = make_linear_task(500, 9);
  GradientBoosting model;
  model.fit(train);
  for (float s : model.predict_proba(train.x)) {
    EXPECT_GE(s, 0.0f);
    EXPECT_LE(s, 1.0f);
  }
}

TEST(GradientBoosting, PredictBeforeFitThrows) {
  GradientBoosting model;
  Matrix x(1, 3);
  EXPECT_THROW((void)model.predict_proba(x), std::logic_error);
}

TEST(GradientBoosting, CloneCarriesParams) {
  GradientBoosting::Params p;
  p.n_rounds = 17;
  GradientBoosting model(p);
  auto copy = model.clone();
  const Dataset train = make_linear_task(300, 10);
  copy->fit(train);
  EXPECT_EQ(static_cast<GradientBoosting*>(copy.get())->rounds_fitted(), 17u);
}

TEST(GradientBoosting, ImportanceConcentratesOnSignal) {
  const Dataset train = make_xor_task(3000, 11);
  GradientBoosting model;
  model.fit(train);
  const auto imp = model.feature_importance();
  ASSERT_EQ(imp.size(), 3u);
  EXPECT_NEAR(std::accumulate(imp.begin(), imp.end(), 0.0), 1.0, 1e-9);
  EXPECT_GT(imp[0] + imp[1], 0.9);
}

TEST(GradientBoosting, FitRejectsZeroRounds) {
  // A zero-round model could never score anything (predict_proba refuses
  // an ensemble with no trees), so fit refuses to produce one.
  GradientBoosting::Params p;
  p.n_rounds = 0;
  GradientBoosting model(p);
  const Dataset d = make_linear_task(1000, 12);
  EXPECT_THROW(model.fit(d), std::invalid_argument);
  EXPECT_EQ(model.rounds_fitted(), 0u);
}

}  // namespace
}  // namespace ssdfail::ml
