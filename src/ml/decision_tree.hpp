#pragma once

// CART decision tree (gini impurity, binary splits on numeric features) —
// the "CART" row of Table 6, and the base learner behind the paper's
// headline random forest.  Supports per-node random feature subsetting so
// RandomForest can reuse the same builder.  Leaf scores are positive-class
// fractions.  Grown by the shared tree kernel (ml/tree_kernel.hpp) with the
// Gini criterion.

#include <cstdint>

#include "ml/classifier.hpp"
#include "ml/tree_kernel.hpp"

namespace ssdfail::ml {

class DecisionTree final : public Classifier {
 public:
  struct Params {
    std::size_t max_depth = 12;
    std::size_t min_samples_split = 8;
    std::size_t min_samples_leaf = 4;
    /// 0 = use all features; otherwise sample this many per node.
    std::size_t max_features = 0;
    std::uint64_t seed = 1;
  };

  DecisionTree() = default;
  explicit DecisionTree(Params params) : params_(params) {}

  void fit(const Dataset& train) override;

  /// Fit on an explicit row multiset (bootstrap support for forests),
  /// with `ranks` = RankEncoding(train.x) built once by the caller.
  void fit_on(const Dataset& train, const RankEncoding& ranks,
              std::vector<std::size_t> row_indices);

  [[nodiscard]] std::vector<float> predict_proba(const Matrix& x) const override;
  [[nodiscard]] float predict_row(std::span<const float> row) const;

  [[nodiscard]] std::string name() const override { return "decision_tree"; }
  [[nodiscard]] std::unique_ptr<Classifier> clone() const override {
    return std::make_unique<DecisionTree>(params_);
  }

  /// Total gini-impurity decrease attributed to each feature (unnormalized).
  [[nodiscard]] const std::vector<double>& impurity_importance() const noexcept {
    return importance_;
  }

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }

 private:
  friend struct ModelSerializer;     // binary save/load (ml/serialize.hpp)
  friend struct FlatForestCompiler;  // compiled engine (ml/flat_forest.hpp)

  Params params_{};
  std::vector<TreeNode<float>> nodes_;
  std::vector<double> importance_;
  std::size_t n_features_ = 0;
};

}  // namespace ssdfail::ml
