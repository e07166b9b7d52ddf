#pragma once

// Bit-exact digests of fitted tree learners, shared by the fit pins in
// test_trees.cpp and test_tree_kernel.cpp.  A digest covers every split
// (feature, threshold, child links), leaf value and importance entry, so
// any change to the split search, tie handling, partition or node order
// changes it.

#include <bit>
#include <cstdint>
#include <sstream>

#include "ml/decision_tree.hpp"
#include "ml/serialize.hpp"
#include "stats/rng.hpp"

namespace ssdfail::ml {

/// Scores of every row of `x`, the importance vector and the node count.
inline std::uint64_t tree_digest(const DecisionTree& tree, const Matrix& x) {
  std::uint64_t h = stats::kFnv1aInit;
  for (const float p : tree.predict_proba(x))
    h = stats::fnv1a_mix(h, std::bit_cast<std::uint32_t>(p));
  for (const double v : tree.impurity_importance())
    h = stats::fnv1a_mix(h, std::bit_cast<std::uint64_t>(v));
  return stats::fnv1a_mix(h, tree.node_count());
}

/// Every byte of the saved model file.
template <typename Model>
std::uint64_t model_file_digest(const Model& model) {
  std::stringstream out;
  save_model(out, model);
  std::uint64_t h = stats::kFnv1aInit;
  for (const char c : out.str()) h = stats::fnv1a_mix(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace ssdfail::ml
