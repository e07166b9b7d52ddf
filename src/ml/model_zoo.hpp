#pragma once

// The paper's six predictors (Table 6) behind one factory, plus the small
// hyperparameter grids Section 5.2 describes searching over.

#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/grid_search.hpp"

namespace ssdfail::ml {

enum class ModelKind {
  kLogisticRegression,
  kKnn,
  kSvm,
  kNeuralNetwork,
  kDecisionTree,
  kRandomForest,
  kThresholdBaseline,  // extra: the statistical baseline
};

/// The six models of Table 6, in the paper's row order.
[[nodiscard]] const std::vector<ModelKind>& paper_models();

/// Display name matching the paper's Table 6 rows.
[[nodiscard]] std::string model_display_name(ModelKind kind);

/// A model with reasonable defaults (the configurations the grids settle
/// on for this data).
[[nodiscard]] std::unique_ptr<Classifier> make_model(ModelKind kind,
                                                     std::uint64_t seed = 1);

/// The hyperparameter grid for one model kind (for grid_search()).
[[nodiscard]] std::vector<Candidate> model_grid(ModelKind kind, std::uint64_t seed = 1);

/// Wrap a fitted model for serving: when `model` is a fitted tree ensemble
/// (RandomForest or GradientBoosting), returns a FlatForestClassifier
/// compiled from it; anything else (non-ensemble classifiers, unfitted
/// models, already-wrapped models, null) passes through unchanged.
/// Scores are bit-identical either way — this only changes speed.
[[nodiscard]] std::shared_ptr<const Classifier> make_serving_model(
    std::shared_ptr<const Classifier> model);

}  // namespace ssdfail::ml
