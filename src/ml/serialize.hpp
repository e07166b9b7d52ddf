#pragma once

// Versioned binary model persistence: train once, serve forever (beyond
// the paper — the deployment path for its Table 6 models).
//
// Same envelope discipline as trace/binary_io: a 4-byte magic ("SSDM"), a
// u32 format version, then a u8 model-kind tag and the model body.
// Little-endian, raw IEEE-754 payloads — a save/load round trip is
// bit-exact, so a deserialized model reproduces predict_proba outputs
// identically (pinned by tests/ml/test_serialize.cpp).
//
// Version history:
//   v1 — random forest, logistic regression (with its Standardizer),
//        standalone Standardizer.
//   v2 — adds gradient boosting (kind 4) and, after every tree-ensemble
//        body, a compiled-engine manifest: node/tree counts, max depth,
//        and the FlatForest structural hash.  Loaders recompile the flat
//        engine from the walker body and verify it against the manifest,
//        so any tree-body corruption that still parses is rejected
//        instead of served.  v1 files load unchanged (no manifest); their
//        tree structure is still checked by compiling the flat engine.
//
// Covered models are the ones the serving path needs: the paper's headline
// random forest, gradient boosting, logistic regression, and a standalone
// Standardizer for external pipelines.

#include <iosfwd>
#include <memory>
#include <string>

#include "ml/classifier.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/logistic.hpp"
#include "ml/random_forest.hpp"
#include "ml/standardizer.hpp"

namespace ssdfail::ml {

/// Current model-file format version (readers accept 1 and 2).
inline constexpr std::uint32_t kModelFormatVersion = 2;

/// Stable on-disk model-kind ids (append-only; never renumber).
enum class SavedModelKind : std::uint8_t {
  kRandomForest = 1,
  kLogisticRegression = 2,
  kStandardizer = 3,
  kGradientBoosting = 4,  // v2+
};

/// Serialize a fitted model (one write of the encoded bytes).  Throws
/// std::logic_error if unfitted.
void save_model(std::ostream& out, const RandomForest& model);
void save_model(std::ostream& out, const GradientBoosting& model);
void save_model(std::ostream& out, const LogisticRegression& model);
void save_model(std::ostream& out, const Standardizer& scaler);

/// Deserialize a model of a known kind from the rest of the stream (read
/// whole, then decoded).  Throws std::runtime_error on bad
/// magic, unsupported version, kind mismatch, a truncated/corrupt body, or
/// (v2 ensembles) an engine manifest that does not match the recompiled
/// flat engine.
[[nodiscard]] RandomForest load_random_forest(std::istream& in);
[[nodiscard]] GradientBoosting load_gradient_boosting(std::istream& in);
[[nodiscard]] LogisticRegression load_logistic_regression(std::istream& in);
[[nodiscard]] Standardizer load_standardizer(std::istream& in);

/// Deserialize whichever classifier the stream holds (forest, boosting,
/// or logistic), dispatching on the kind tag.  Throws std::runtime_error
/// for a non-classifier payload (e.g. a standalone Standardizer).
[[nodiscard]] std::unique_ptr<Classifier> load_classifier(std::istream& in);

/// Atomically persist a model to `path` through io::commit_file: the bytes
/// go to `path + ".tmp"`, which is fsync'd and renamed over the target, and
/// the directory is fsync'd.  A SIGKILL or an OS crash at any point leaves
/// the previous file (or none) or the complete new one — never a truncated
/// model a reader could load half of.  Throws std::runtime_error (after
/// removing the temp file) on any failure.
void save_model_file(const std::string& path, const RandomForest& model);
void save_model_file(const std::string& path, const GradientBoosting& model);
void save_model_file(const std::string& path, const LogisticRegression& model);

/// Load whichever classifier `path` holds.  Throws std::runtime_error on a
/// missing, truncated, or corrupt file.
[[nodiscard]] std::unique_ptr<Classifier> load_classifier_file(const std::string& path);

/// Load a classifier and wrap it for serving (make_serving_model): tree
/// ensembles come back compiled to the flat engine.  The CLI's `serve`
/// and `daemon` and the online learner's promotion reload use this.
[[nodiscard]] std::shared_ptr<const Classifier> load_serving_classifier_file(
    const std::string& path);

}  // namespace ssdfail::ml
