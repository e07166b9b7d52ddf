#pragma once

// Group-aware k-fold cross-validation — the paper's Table 6 evaluation
// protocol (Section 5.1).
//
// Folds are assigned per GROUP (drive), not per row: the paper partitions
// drive IDs so no drive's days appear in both train and test (Section 5.1
// — drive days are highly autocorrelated, so row-level splits leak).
//
// Folds evaluate in parallel: each fold is one thread-pool task (clone,
// transform, fit, score).  All per-fold randomness is derived from
// (seed, fold), so the result is bit-identical to the serial path at any
// thread count (pinned by tests/ml/test_parallel_training.cpp).

#include <cstdint>
#include <functional>

#include "ml/classifier.hpp"
#include "ml/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace ssdfail::ml {

/// Deterministic fold id for a group: hash-based, uniform across folds and
/// stable no matter which subset of groups is present.
[[nodiscard]] std::size_t group_fold(std::uint64_t group_id, std::size_t k,
                                     std::uint64_t seed);

/// Train/test row indices for one fold.
struct FoldSplit {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

/// Build all k splits of `data` by group.
[[nodiscard]] std::vector<FoldSplit> group_k_fold(const Dataset& data, std::size_t k,
                                                  std::uint64_t seed);

/// Result of a cross-validated evaluation.
///
/// `fold_aucs` holds one entry per fold that actually evaluated;
/// `folds_skipped` counts degenerate folds (empty split, single-class
/// train/test after transforms, or NaN AUC) so callers can tell a true
/// k-fold result from a partial one.  Invariant:
/// fold_aucs.size() + folds_skipped == folds_requested.
struct CvResult {
  std::vector<double> fold_aucs;
  std::size_t folds_requested = 0;
  std::size_t folds_skipped = 0;
  [[nodiscard]] MeanSd auc() const { return mean_sd(fold_aucs); }
};

/// Optional per-fold set transforms (the paper's protocol downsamples the
/// training fold and may subsample the test fold).  Identity when empty.
struct CvOptions {
  std::size_t folds = 5;
  std::uint64_t seed = 5;
  std::function<Dataset(const Dataset&, std::size_t fold)> train_transform;
  std::function<Dataset(const Dataset&, std::size_t fold)> test_transform;
  /// Pool for fold-level parallelism; nullptr = the calling thread's
  /// current pool (ThreadPool::current()).  Transforms must be safe to
  /// call concurrently for distinct folds (pure functions of their
  /// arguments and the fold index, like the paper's seeded downsampler).
  parallel::ThreadPool* pool = nullptr;
};

/// k-fold cross-validated ROC AUC of `model` on `data`.  The model is
/// cloned per fold (fresh state), trained on the transformed train fold,
/// and scored on the transformed test fold (a fitted RandomForest or
/// GradientBoosting through make_serving_model's compiled engine, whose
/// scores are bit-identical to the walk).  Degenerate folds are skipped
/// and counted in CvResult::folds_skipped; if EVERY fold is degenerate the
/// data cannot be cross-validated at all and std::runtime_error is thrown
/// (never an empty result masquerading as a k-fold evaluation).
[[nodiscard]] CvResult cross_validate(const Classifier& model, const Dataset& data,
                                      const CvOptions& options = {});

}  // namespace ssdfail::ml
