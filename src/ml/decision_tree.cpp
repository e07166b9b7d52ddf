#include "ml/decision_tree.hpp"

#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ssdfail::ml {

void DecisionTree::fit(const Dataset& train) {
  std::vector<std::size_t> idx(train.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  fit_on(train, RankEncoding(train.x), std::move(idx));
}

void DecisionTree::fit_on(const Dataset& train, const RankEncoding& ranks,
                          std::vector<std::size_t> row_indices) {
  train.validate();
  if (row_indices.empty()) throw std::invalid_argument("DecisionTree: empty train set");
  nodes_.clear();
  n_features_ = train.x.cols();
  importance_.assign(n_features_, 0.0);
  const GrowLimits limits{params_.max_depth, params_.min_samples_split,
                          params_.min_samples_leaf, params_.max_features, params_.seed};
  grow(train.x, ranks, Gini{train.y}, limits, row_indices, nodes_, importance_);
}

float DecisionTree::predict_row(std::span<const float> row) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree: predict before fit");
  return walk(nodes_, row);
}

std::vector<float> DecisionTree::predict_proba(const Matrix& x) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree: predict before fit");
  check_columns(x, n_features_, "DecisionTree");
  std::vector<float> out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out[r] = predict_row(x.row(r));
  return out;
}

}  // namespace ssdfail::ml
