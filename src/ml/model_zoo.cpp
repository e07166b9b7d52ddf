#include "ml/model_zoo.hpp"

#include <stdexcept>

#include "ml/decision_tree.hpp"
#include "ml/knn.hpp"
#include "ml/logistic.hpp"
#include "ml/neural_net.hpp"
#include "ml/flat_forest.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/random_forest.hpp"
#include "ml/svm.hpp"
#include "ml/threshold_baseline.hpp"

namespace ssdfail::ml {

const std::vector<ModelKind>& paper_models() {
  static const std::vector<ModelKind> kModels = {
      ModelKind::kLogisticRegression, ModelKind::kKnn,
      ModelKind::kSvm,                ModelKind::kNeuralNetwork,
      ModelKind::kDecisionTree,       ModelKind::kRandomForest};
  return kModels;
}

std::string model_display_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kLogisticRegression: return "Logistic Reg.";
    case ModelKind::kKnn: return "k-NN";
    case ModelKind::kSvm: return "SVM";
    case ModelKind::kNeuralNetwork: return "Neural Network";
    case ModelKind::kDecisionTree: return "Decision Tree";
    case ModelKind::kRandomForest: return "Random Forest";
    case ModelKind::kThresholdBaseline: return "Threshold Baseline";
  }
  return "?";
}

std::unique_ptr<Classifier> make_model(ModelKind kind, std::uint64_t seed) {
  switch (kind) {
    case ModelKind::kLogisticRegression:
      return std::make_unique<LogisticRegression>(LogisticRegression::Params{1e-3, 0.5, 300});
    case ModelKind::kKnn:
      return std::make_unique<KNearestNeighbors>(KNearestNeighbors::Params{15, true});
    case ModelKind::kSvm:
      return std::make_unique<LinearSvm>(LinearSvm::Params{1e-4, 30, seed});
    case ModelKind::kNeuralNetwork:
      return std::make_unique<NeuralNetwork>(
          NeuralNetwork::Params{{32, 16}, 1e-3, 1e-5, 40, 64, seed});
    case ModelKind::kDecisionTree: {
      DecisionTree::Params p;
      p.max_depth = 10;
      p.min_samples_leaf = 8;
      p.min_samples_split = 16;
      p.seed = seed;
      return std::make_unique<DecisionTree>(p);
    }
    case ModelKind::kRandomForest: {
      RandomForest::Params p;
      p.n_trees = 100;
      p.max_depth = 14;
      p.seed = seed;
      return std::make_unique<RandomForest>(p);
    }
    case ModelKind::kThresholdBaseline:
      return std::make_unique<ThresholdBaseline>();
  }
  throw std::invalid_argument("make_model: unknown kind");
}

std::vector<Candidate> model_grid(ModelKind kind, std::uint64_t seed) {
  std::vector<Candidate> grid;
  switch (kind) {
    case ModelKind::kLogisticRegression:
      for (double l2 : {1e-4, 1e-3, 1e-2})
        grid.push_back({"lr_l2=" + std::to_string(l2), [=] {
                          return std::make_unique<LogisticRegression>(
                              LogisticRegression::Params{l2, 0.5, 300});
                        }});
      break;
    case ModelKind::kKnn:
      for (std::size_t k : {5, 15, 31})
        grid.push_back({"knn_k=" + std::to_string(k), [=] {
                          return std::make_unique<KNearestNeighbors>(
                              KNearestNeighbors::Params{k, true});
                        }});
      break;
    case ModelKind::kSvm:
      for (double lambda : {1e-5, 1e-4, 1e-3})
        grid.push_back({"svm_lambda=" + std::to_string(lambda), [=] {
                          return std::make_unique<LinearSvm>(
                              LinearSvm::Params{lambda, 30, seed});
                        }});
      break;
    case ModelKind::kNeuralNetwork:
      for (std::size_t width : {16, 32, 64})
        grid.push_back({"nn_width=" + std::to_string(width), [=] {
                          return std::make_unique<NeuralNetwork>(NeuralNetwork::Params{
                              {width, width / 2}, 1e-3, 1e-5, 40, 64, seed});
                        }});
      break;
    case ModelKind::kDecisionTree:
      for (std::size_t depth : {6, 10, 14}) {
        DecisionTree::Params p;
        p.max_depth = depth;
        p.min_samples_leaf = 8;
        p.min_samples_split = 16;
        p.seed = seed;
        grid.push_back({"tree_depth=" + std::to_string(depth),
                        [=] { return std::make_unique<DecisionTree>(p); }});
      }
      break;
    case ModelKind::kRandomForest:
      for (std::size_t depth : {10, 14, 18}) {
        RandomForest::Params p;
        p.n_trees = 100;
        p.max_depth = depth;
        p.seed = seed;
        grid.push_back({"rf_depth=" + std::to_string(depth),
                        [=] { return std::make_unique<RandomForest>(p); }});
      }
      break;
    case ModelKind::kThresholdBaseline:
      grid.push_back({"threshold", [] { return std::make_unique<ThresholdBaseline>(); }});
      break;
  }
  return grid;
}

std::shared_ptr<const Classifier> make_serving_model(
    std::shared_ptr<const Classifier> model) {
  if (!model) return model;
  if (dynamic_cast<const FlatForestClassifier*>(model.get()) != nullptr) return model;
  if (const auto* rf = dynamic_cast<const RandomForest*>(model.get())) {
    if (rf->tree_count() == 0) return model;  // unfitted: nothing to compile
    return std::make_shared<const FlatForestClassifier>(std::move(model));
  }
  if (const auto* gb = dynamic_cast<const GradientBoosting*>(model.get())) {
    if (gb->rounds_fitted() == 0) return model;
    return std::make_shared<const FlatForestClassifier>(std::move(model));
  }
  return model;
}

}  // namespace ssdfail::ml
