#pragma once

// Gradient-boosted decision trees on the logistic loss — an EXTENSION
// beyond the paper's six models (Section 6 surveys ML failure predictors;
// boosting is the modern default for tabular telemetry).  Compared in
// bench_ext_boosting against the paper's random forest.
//
// Standard formulation: F_0 = prior log-odds; each round fits a small
// regression tree to the negative gradient (residual y - p) with Newton-gain
// splits and single-Newton-step leaf values, damped by the learning rate.
// The trees are grown by the shared tree kernel (ml/tree_kernel.hpp) with
// the Newton criterion.

#include <cstdint>

#include "ml/classifier.hpp"
#include "ml/tree_kernel.hpp"

namespace ssdfail::ml {

class GradientBoosting final : public Classifier {
 public:
  struct Params {
    std::size_t n_rounds = 150;
    std::size_t max_depth = 4;
    std::size_t min_samples_leaf = 8;
    double learning_rate = 0.15;
    /// Row subsampling per round (stochastic gradient boosting).
    double subsample = 0.7;
    std::uint64_t seed = 1;
  };

  GradientBoosting() = default;
  explicit GradientBoosting(Params params) : params_(params) {}

  /// Throws std::invalid_argument on an empty train set or n_rounds == 0.
  void fit(const Dataset& train) override;
  [[nodiscard]] std::vector<float> predict_proba(const Matrix& x) const override;
  [[nodiscard]] std::string name() const override { return "gradient_boosting"; }
  [[nodiscard]] std::unique_ptr<Classifier> clone() const override {
    return std::make_unique<GradientBoosting>(params_);
  }

  [[nodiscard]] std::size_t rounds_fitted() const noexcept { return trees_.size(); }

  /// Total Newton split gain attributed to each feature, normalized.
  [[nodiscard]] std::vector<double> feature_importance() const;

 private:
  friend struct ModelSerializer;     // binary save/load (ml/serialize.hpp)
  friend struct FlatForestCompiler;  // compiled engine (ml/flat_forest.hpp)

  /// One regression tree; leaf values are undamped log-odds increments.
  using Tree = std::vector<TreeNode<double>>;

  Params params_{};
  double prior_ = 0.0;  // F_0: log-odds of the base rate
  std::vector<Tree> trees_;
  std::vector<double> importance_;
  std::size_t n_features_ = 0;
};

}  // namespace ssdfail::ml
