#include "ml/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "ml/flat_forest.hpp"
#include "ml/gradient_boosting.hpp"
#include "stats/rng.hpp"

namespace ssdfail::ml {
namespace {

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

TEST(Serialize, RandomForestRoundTripIsBitExact) {
  const Dataset train = make_task(400, 6, 1);
  RandomForest::Params params;
  params.n_trees = 20;
  RandomForest forest(params);
  forest.fit(train);

  std::stringstream stream;
  save_model(stream, forest);
  const RandomForest loaded = load_random_forest(stream);

  EXPECT_EQ(loaded.tree_count(), forest.tree_count());
  const Matrix probe = probe_matrix(200, 6, 2);
  const auto before = forest.predict_proba(probe);
  const auto after = loaded.predict_proba(probe);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before[i], after[i]) << "row " << i;  // bit-exact, not NEAR

  const auto imp_before = forest.feature_importance();
  const auto imp_after = loaded.feature_importance();
  ASSERT_EQ(imp_before.size(), imp_after.size());
  for (std::size_t f = 0; f < imp_before.size(); ++f)
    EXPECT_DOUBLE_EQ(imp_before[f], imp_after[f]);
}

TEST(Serialize, LogisticRegressionRoundTripIsBitExact) {
  const Dataset train = make_task(500, 5, 3);
  LogisticRegression model;
  model.fit(train);

  std::stringstream stream;
  save_model(stream, model);
  const LogisticRegression loaded = load_logistic_regression(stream);

  ASSERT_EQ(loaded.weights().size(), model.weights().size());
  for (std::size_t c = 0; c < model.weights().size(); ++c)
    EXPECT_EQ(loaded.weights()[c], model.weights()[c]);
  EXPECT_EQ(loaded.bias(), model.bias());

  const Matrix probe = probe_matrix(150, 5, 4);
  const auto before = model.predict_proba(probe);
  const auto after = loaded.predict_proba(probe);
  for (std::size_t i = 0; i < before.size(); ++i) EXPECT_EQ(before[i], after[i]);
}

TEST(Serialize, StandardizerRoundTrip) {
  Standardizer scaler;
  scaler.fit(probe_matrix(100, 4, 5));

  std::stringstream stream;
  save_model(stream, scaler);
  const Standardizer loaded = load_standardizer(stream);
  ASSERT_TRUE(loaded.fitted());
  ASSERT_EQ(loaded.mean().size(), 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(loaded.mean()[c], scaler.mean()[c]);
    EXPECT_EQ(loaded.stddev()[c], scaler.stddev()[c]);
  }
}

TEST(Serialize, GenericLoadDispatchesOnKind) {
  const Dataset train = make_task(300, 4, 6);

  std::stringstream forest_stream;
  RandomForest::Params params;
  params.n_trees = 5;
  RandomForest forest(params);
  forest.fit(train);
  save_model(forest_stream, forest);
  EXPECT_EQ(load_classifier(forest_stream)->name(), "random_forest");

  std::stringstream logistic_stream;
  LogisticRegression logistic;
  logistic.fit(train);
  save_model(logistic_stream, logistic);
  EXPECT_EQ(load_classifier(logistic_stream)->name(), "logistic_regression");
}

TEST(Serialize, UnfittedModelsRefuseToSave) {
  std::stringstream stream;
  EXPECT_THROW(save_model(stream, RandomForest{}), std::logic_error);
  EXPECT_THROW(save_model(stream, LogisticRegression{}), std::logic_error);
  EXPECT_THROW(save_model(stream, Standardizer{}), std::logic_error);
}

TEST(Serialize, RejectsBadMagicKindMismatchAndTruncation) {
  std::stringstream garbage("definitely not a model file");
  EXPECT_THROW((void)load_random_forest(garbage), std::runtime_error);

  const Dataset train = make_task(300, 4, 7);
  LogisticRegression logistic;
  logistic.fit(train);
  std::stringstream logistic_stream;
  save_model(logistic_stream, logistic);
  EXPECT_THROW((void)load_random_forest(logistic_stream), std::runtime_error);

  std::stringstream full;
  RandomForest::Params params;
  params.n_trees = 3;
  RandomForest forest(params);
  forest.fit(train);
  save_model(full, forest);
  const std::string bytes = full.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW((void)load_random_forest(truncated), std::runtime_error);

  // A standalone standardizer is not a classifier.
  Standardizer scaler;
  scaler.fit(probe_matrix(50, 4, 8));
  std::stringstream scaler_stream;
  save_model(scaler_stream, scaler);
  EXPECT_THROW((void)load_classifier(scaler_stream), std::runtime_error);
}

TEST(SerializeFile, AtomicSaveRoundTripsThroughDisk) {
  const std::string path = testing::TempDir() + "ssdfail_model_roundtrip.bin";
  const Dataset train = make_task(300, 4, 9);
  RandomForest::Params params;
  params.n_trees = 5;
  RandomForest forest(params);
  forest.fit(train);
  save_model_file(path, forest);

  const auto loaded = load_classifier_file(path);
  const Matrix probe = probe_matrix(100, 4, 10);
  const auto before = forest.predict_proba(probe);
  const auto after = loaded->predict_proba(probe);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) EXPECT_EQ(before[i], after[i]);
  // The commit was atomic: no temp file left behind.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(SerializeFile, PartialWriteNeverReplacesThePreviousModel) {
  // Simulate a crash mid-write: a stale .tmp exists and the "new" model
  // write fails (unfitted model throws after the temp file is opened).
  // The previously committed model file must survive byte-for-byte.
  const std::string path = testing::TempDir() + "ssdfail_model_partial.bin";
  const Dataset train = make_task(300, 4, 11);
  LogisticRegression logistic;
  logistic.fit(train);
  save_model_file(path, logistic);
  std::string committed;
  {
    std::ifstream in(path, std::ios::binary);
    committed.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_FALSE(committed.empty());

  EXPECT_THROW(save_model_file(path, LogisticRegression{}), std::logic_error);
  // Failed write: target untouched, temp cleaned up.
  std::string after;
  {
    std::ifstream in(path, std::ios::binary);
    after.assign(std::istreambuf_iterator<char>(in), {});
  }
  EXPECT_EQ(after, committed);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  // A reader pointed at a half-written file (the simulated torn write the
  // rename protects against) refuses to load it rather than serving junk.
  const std::string torn_path = path + ".torn";
  {
    std::ofstream torn(torn_path, std::ios::binary);
    torn.write(committed.data(),
               static_cast<std::streamsize>(committed.size() / 2));
  }
  EXPECT_THROW((void)load_classifier_file(torn_path), std::runtime_error);
  std::remove(torn_path.c_str());
  std::remove(path.c_str());
}

TEST(Serialize, GradientBoostingRoundTripIsBitExact) {
  const Dataset train = make_task(400, 6, 12);
  GradientBoosting::Params params;
  params.n_rounds = 30;
  GradientBoosting model(params);
  model.fit(train);

  std::stringstream stream;
  save_model(stream, model);
  const GradientBoosting loaded = load_gradient_boosting(stream);

  EXPECT_EQ(loaded.rounds_fitted(), model.rounds_fitted());
  const Matrix probe = probe_matrix(200, 6, 13);
  const auto before = model.predict_proba(probe);
  const auto after = loaded.predict_proba(probe);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before[i], after[i]) << "row " << i;

  std::stringstream again;
  save_model(again, model);
  EXPECT_EQ(load_classifier(again)->name(), "gradient_boosting");
}

TEST(Serialize, LoadedEnsemblesCompileToTheSameFlatEngine) {
  const Dataset train = make_task(400, 6, 14);
  const Matrix probe = probe_matrix(150, 6, 15);

  RandomForest::Params fp;
  fp.n_trees = 10;
  RandomForest forest(fp);
  forest.fit(train);
  std::stringstream fs;
  save_model(fs, forest);
  const RandomForest forest_loaded = load_random_forest(fs);
  const FlatForest a = FlatForest::compile(forest);
  const FlatForest b = FlatForest::compile(forest_loaded);
  EXPECT_EQ(a.structural_hash(), b.structural_hash());
  EXPECT_EQ(a.predict_proba(probe), b.predict_proba(probe));

  GradientBoosting::Params gp;
  gp.n_rounds = 20;
  GradientBoosting gb(gp);
  gb.fit(train);
  std::stringstream gs;
  save_model(gs, gb);
  const GradientBoosting gb_loaded = load_gradient_boosting(gs);
  const FlatForest c = FlatForest::compile(gb);
  const FlatForest d = FlatForest::compile(gb_loaded);
  EXPECT_EQ(c.structural_hash(), d.structural_hash());
  EXPECT_EQ(c.predict_proba(probe), d.predict_proba(probe));
}

/// The 29-byte engine manifest appended after v2 ensemble bodies:
/// u8 tag + u64 nodes + u64 trees + u32 depth + u64 hash.
constexpr std::size_t kManifestBytes = 1 + 8 + 8 + 4 + 8;

TEST(Serialize, VersionOneStreamsStillLoad) {
  const Dataset train = make_task(300, 4, 16);
  RandomForest::Params params;
  params.n_trees = 5;
  RandomForest forest(params);
  forest.fit(train);
  std::stringstream v2;
  save_model(v2, forest);
  std::string bytes = v2.str();
  ASSERT_GT(bytes.size(), kManifestBytes + 9);

  // Rewrite as a v1 stream: version field back to 1, manifest stripped —
  // exactly what a pre-engine writer produced.
  const std::uint32_t one = 1;
  std::memcpy(bytes.data() + 4, &one, sizeof(one));
  bytes.resize(bytes.size() - kManifestBytes);

  std::stringstream v1(bytes);
  const RandomForest loaded = load_random_forest(v1);
  const Matrix probe = probe_matrix(100, 4, 17);
  EXPECT_EQ(loaded.predict_proba(probe), forest.predict_proba(probe));
}

// v1 streams carry no engine manifest and the loader takes any float
// threshold, so an internal node can reach the compiled engine holding
// NaN.  The walker routes every row right there (NaN fails `<=`); the
// engine must too, and must not take the node for a leaf (leaves are the
// nodes that hold NaN in its compiled layout).
TEST(Serialize, VersionOneNanThresholdsScoreLikeTheWalker) {
  const Dataset train = make_task(300, 4, 16);
  RandomForest::Params params;
  params.n_trees = 5;
  RandomForest forest(params);
  forest.fit(train);
  std::stringstream v2;
  save_model(v2, forest);
  std::string bytes = v2.str();
  const std::uint32_t one = 1;
  std::memcpy(bytes.data() + 4, &one, sizeof(one));
  bytes.resize(bytes.size() - kManifestBytes);

  // Walk the v1 body: 9 header bytes and 7 forest u64s, the tree count,
  // then per tree 6 u64s, the node count, 20-byte nodes (i32 feature, f32
  // threshold, i32 left, i32 right, f32 value) and the f64 importances.
  // Every tree's root (node 0) gets a quiet-NaN threshold.
  const auto u64_at = [&bytes](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return static_cast<std::size_t>(v);
  };
  constexpr std::size_t kNodeBytes = 20;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::size_t pos = 9 + 7 * 8;
  const std::size_t trees = u64_at(pos);
  ASSERT_EQ(trees, params.n_trees);
  pos += 8;
  for (std::size_t t = 0; t < trees; ++t) {
    pos += 6 * 8;
    const std::size_t nodes = u64_at(pos);
    pos += 8;
    std::int32_t root_left = 0;
    std::memcpy(&root_left, bytes.data() + pos + 8, sizeof(root_left));
    ASSERT_NE(root_left, -1) << "tree " << t << " is a single leaf";
    std::memcpy(bytes.data() + pos + 4, &nan, sizeof(nan));
    pos += nodes * kNodeBytes;
    pos += 8 + u64_at(pos) * 8;
  }
  ASSERT_EQ(pos, bytes.size());

  std::stringstream v1(bytes);
  const RandomForest loaded = load_random_forest(v1);
  const FlatForest engine = FlatForest::compile(loaded);
  // 256 rows: two full blocks, the size the vector walk scores.
  const Matrix probe = probe_matrix(256, 4, 19);
  const auto walker = loaded.predict_proba(probe);
  EXPECT_NE(walker, forest.predict_proba(probe));  // the NaN roots took effect
  EXPECT_EQ(engine.predict_proba(probe), walker);
}

TEST(SerializeFuzz, VersionOneStreamsWithBadChildLinksAreRejected) {
  const Dataset train = make_task(300, 4, 16);
  RandomForest::Params params;
  params.n_trees = 5;
  RandomForest forest(params);
  forest.fit(train);
  std::stringstream v2;
  save_model(v2, forest);
  std::string bytes = v2.str();
  const std::uint32_t one = 1;
  std::memcpy(bytes.data() + 4, &one, sizeof(one));
  bytes.resize(bytes.size() - kManifestBytes);

  // The first tree's root `left` link: 9 header bytes, 8 forest u64s and
  // 7 tree u64s, then the root's feature and threshold.  v1 streams carry
  // no manifest, but the tree structure must still be checked: an
  // out-of-range child reads past the node array, and a root that is its
  // own child loops forever.
  constexpr std::size_t kRootLeftOffset = 9 + 8 * 8 + 7 * 8 + 4 + 4;
  for (const std::int32_t bad_left : {std::int32_t{0x7fffffff}, std::int32_t{0}}) {
    std::string corrupt = bytes;
    std::memcpy(corrupt.data() + kRootLeftOffset, &bad_left, sizeof(bad_left));
    std::stringstream as_forest(corrupt);
    EXPECT_THROW((void)load_random_forest(as_forest), std::runtime_error) << bad_left;
    std::stringstream as_classifier(corrupt);
    EXPECT_THROW((void)load_classifier(as_classifier), std::runtime_error) << bad_left;
  }
}

TEST(Serialize, VersionOneStreamsRejectGradientBoostingKind) {
  // Kind tag 4 (gradient boosting) did not exist in v1 — a v1 header
  // claiming it is corrupt, not forward-compatible.
  const Dataset train = make_task(300, 4, 18);
  GradientBoosting::Params params;
  params.n_rounds = 5;
  GradientBoosting model(params);
  model.fit(train);
  std::stringstream out;
  save_model(out, model);
  std::string bytes = out.str();
  const std::uint32_t one = 1;
  std::memcpy(bytes.data() + 4, &one, sizeof(one));
  std::stringstream doctored(bytes);
  EXPECT_THROW((void)load_classifier(doctored), std::runtime_error);
}

TEST(SerializeFuzz, EveryTruncatedPrefixIsRejected) {
  const Dataset train = make_task(300, 5, 19);
  GradientBoosting::Params params;
  params.n_rounds = 8;
  GradientBoosting model(params);
  model.fit(train);
  std::stringstream out;
  save_model(out, model);
  const std::string bytes = out.str();

  // Every strict prefix must fail: the trailing manifest means even a
  // stream cut exactly at the end of the tree body is caught.
  const std::size_t step = std::max<std::size_t>(1, bytes.size() / 97);
  for (std::size_t len = 0; len < bytes.size(); len += step) {
    std::stringstream truncated(bytes.substr(0, len));
    EXPECT_THROW((void)load_classifier(truncated), std::runtime_error)
        << "prefix of " << len << " of " << bytes.size() << " bytes loaded";
  }
}

TEST(SerializeFuzz, BitFlipsEitherThrowOrLeaveScoresUntouched) {
  const Dataset train = make_task(300, 5, 20);
  RandomForest::Params params;
  params.n_trees = 6;
  RandomForest forest(params);
  forest.fit(train);
  std::stringstream out;
  save_model(out, forest);
  const std::string bytes = out.str();
  const Matrix probe = probe_matrix(120, 5, 21);
  const auto truth = forest.predict_proba(probe);

  // Flip one bit at a time across the stream.  Loads may fail (good) but a
  // successful load must score bit-identically: the engine manifest pins
  // every threshold, feature index, child link, and leaf value, so the
  // only flippable bytes are ones inference never reads.
  const std::size_t step = std::max<std::size_t>(1, bytes.size() / 211);
  std::size_t survived = 0;
  for (std::size_t pos = 0; pos < bytes.size(); pos += step) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1u << (pos % 8)));
    std::stringstream in(corrupt);
    std::unique_ptr<Classifier> loaded;
    try {
      loaded = load_classifier(in);
    } catch (const std::exception&) {
      continue;  // rejected: the desired outcome for most positions
    }
    ++survived;
    EXPECT_EQ(loaded->predict_proba(probe), truth)
        << "bit flip at byte " << pos << " changed scores silently";
  }
  // Sanity: the loop exercised real corruption, not just rejections.
  SUCCEED() << survived << " flips loaded cleanly";
}

TEST(SerializeFuzz, ManifestHashCorruptionIsRejected) {
  const Dataset train = make_task(300, 4, 22);
  RandomForest::Params params;
  params.n_trees = 4;
  RandomForest forest(params);
  forest.fit(train);
  std::stringstream out;
  save_model(out, forest);
  std::string bytes = out.str();
  // Last 8 bytes are the structural hash.
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x10);
  std::stringstream corrupt(bytes);
  EXPECT_THROW((void)load_random_forest(corrupt), std::runtime_error);
}

TEST(SerializeFile, ServingLoaderCompilesUnderFlatEngine) {
  const std::string path = testing::TempDir() + "ssdfail_model_serving.bin";
  const Dataset train = make_task(300, 4, 23);
  RandomForest::Params params;
  params.n_trees = 5;
  RandomForest forest(params);
  forest.fit(train);
  save_model_file(path, forest);

  const auto serving = load_serving_classifier_file(path);
  ASSERT_NE(serving, nullptr);
  EXPECT_NE(dynamic_cast<const FlatForestClassifier*>(serving.get()), nullptr);
  EXPECT_EQ(serving->name(), "random_forest");
  const Matrix probe = probe_matrix(100, 4, 24);
  EXPECT_EQ(serving->predict_proba(probe), forest.predict_proba(probe));
  std::remove(path.c_str());
}

TEST(SerializeFile, LoadFromMissingPathThrows) {
  EXPECT_THROW((void)load_classifier_file(testing::TempDir() + "nope/missing.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace ssdfail::ml
