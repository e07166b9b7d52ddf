#include "ml/serialize.hpp"

#include "ml/flat_forest.hpp"
#include "ml/model_zoo.hpp"

#include <cstring>
#include <istream>
#include <iterator>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "io/bytes.hpp"
#include "io/file.hpp"

namespace ssdfail::ml {
namespace {

constexpr char kMagic[4] = {'S', 'S', 'D', 'M'};

// Defensive caps: a 64-bit count from a corrupt stream must not OOM us.
constexpr std::uint64_t kMaxTrees = 1ull << 20;
constexpr std::uint64_t kMaxNodes = 1ull << 28;
constexpr std::uint64_t kMaxFeatures = 1ull << 20;

using io::put;

constexpr const char* kTruncated = "ml::serialize: truncated stream";

// Every model body is one walk over its fields (ModelSerializer::body),
// run by an Encoder to write it or a Decoder to read it back, so the two
// directions cannot drift apart.  Counts are u64; the Decoder checks each
// against its cap before allocating.

struct Encoder {
  std::string& out;

  template <typename Wire, typename T>
  void field(const T& value) {
    put<Wire>(out, static_cast<Wire>(value));
  }
  template <typename T, typename Each>
  void items(const std::vector<T>& v, std::uint64_t, const char*, Each each) {
    put<std::uint64_t>(out, v.size());
    for (const T& item : v) each(item);
  }
};

struct Decoder {
  io::ByteReader& in;

  template <typename Wire, typename T>
  void field(T& value) {
    value = static_cast<T>(in.get<Wire>());
  }
  template <typename T, typename Each>
  void items(std::vector<T>& v, std::uint64_t max, const char* what, Each each) {
    const auto n = in.get<std::uint64_t>();
    if (n > max) throw std::runtime_error(std::string("ml::serialize: implausible ") + what);
    if (n > in.remaining()) throw std::runtime_error(kTruncated);  // >= 1 byte per item
    v.resize(static_cast<std::size_t>(n));
    for (T& item : v) each(item);
  }
};

template <typename Codec, typename Vector>
void values(Codec& c, Vector& v) {
  c.items(v, kMaxFeatures, "vector size",
          [&](auto& x) { c.template field<std::remove_cvref_t<decltype(x)>>(x); });
}

/// `T` is `Model`, const or not (a const model is being written).
template <typename T, typename Model>
concept Is = std::is_same_v<std::remove_const_t<T>, Model>;

void check_feature_count(std::size_t n) {
  if (n > kMaxFeatures) throw std::runtime_error("ml::serialize: implausible feature count");
}

// Tree nodes: u64 count, then per node i32 feature, f32 threshold, i32
// left, i32 right and the leaf value at its model's width (f32 for CART
// trees, f64 for boosting trees).
template <typename Codec, typename Nodes>
void nodes(Codec& c, Nodes& ns) {
  c.items(ns, kMaxNodes, "node count", [&](auto& n) {
    c.template field<std::int32_t>(n.feature);
    c.template field<float>(n.threshold);
    c.template field<std::int32_t>(n.left);
    c.template field<std::int32_t>(n.right);
    c.template field<decltype(n.value)>(n.value);
  });
}

std::string header(SavedModelKind kind) {
  std::string out(kMagic, sizeof(kMagic));
  put<std::uint32_t>(out, kModelFormatVersion);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(kind));
  return out;
}

struct Header {
  SavedModelKind kind;
  std::uint32_t version;
};

Header read_header(io::ByteReader& in) {
  if (in.remaining() < sizeof(kMagic) ||
      std::memcmp(in.take(sizeof(kMagic)).data(), kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("ml::serialize: bad magic (not an ssdfail model file)");
  const auto version = in.get<std::uint32_t>();
  if (version < 1 || version > kModelFormatVersion)
    throw std::runtime_error("ml::serialize: unsupported format version " +
                             std::to_string(version));
  const auto kind = in.get<std::uint8_t>();
  const auto max_kind = version >= 2
                            ? static_cast<std::uint8_t>(SavedModelKind::kGradientBoosting)
                            : static_cast<std::uint8_t>(SavedModelKind::kStandardizer);
  if (kind < static_cast<std::uint8_t>(SavedModelKind::kRandomForest) || kind > max_kind)
    throw std::runtime_error("ml::serialize: unknown model kind " + std::to_string(kind));
  return {static_cast<SavedModelKind>(kind), version};
}

// Engine manifest (v2, ensembles only): the compiled flat engine's shape
// and structural hash, written after the walker body.  A loader recompiles
// and verifies — tree-body corruption that still parses fails loudly here
// instead of serving wrong scores.
constexpr std::uint8_t kEngineManifestTag = 1;

std::string engine_manifest(const FlatForest& engine) {
  std::string out;
  put<std::uint8_t>(out, kEngineManifestTag);
  put<std::uint64_t>(out, engine.node_count());
  put<std::uint64_t>(out, engine.tree_count());
  put<std::uint32_t>(out, engine.max_depth());
  put<std::uint64_t>(out, engine.structural_hash());
  return out;
}

void verify_engine_manifest(io::ByteReader& in, const FlatForest& engine) {
  const std::string want = engine_manifest(engine);
  if (std::memcmp(in.take(want.size()).data(), want.data(), want.size()) != 0)
    throw std::runtime_error(
        "ml::serialize: engine manifest mismatch (corrupt tree body or manifest)");
}

void expect_kind(SavedModelKind actual, SavedModelKind wanted) {
  if (actual != wanted)
    throw std::runtime_error("ml::serialize: model kind mismatch (stream holds kind " +
                             std::to_string(static_cast<int>(actual)) + ", caller wants " +
                             std::to_string(static_cast<int>(wanted)) + ")");
}

}  // namespace

/// Friend of every serializable model: walks the private state the
/// public APIs deliberately do not expose.
struct ModelSerializer {
  template <typename Model>
  static void write(std::string& out, const Model& model) {
    Encoder c{out};
    body(c, model);
  }

  template <typename Model>
  static Model read(io::ByteReader& in) {
    Model model;
    Decoder c{in};
    body(c, model);
    return model;
  }

 private:
  template <typename Codec, Is<Standardizer> S>
  static void body(Codec& c, S& s) {
    if (std::is_const_v<S> && !s.fitted())
      throw std::logic_error("ml::serialize: Standardizer not fitted");
    values(c, s.mean_);
    values(c, s.sd_);
    if (s.mean_.size() != s.sd_.size())
      throw std::runtime_error("ml::serialize: standardizer mean/sd size mismatch");
  }

  template <typename Codec, Is<DecisionTree> T>
  static void body(Codec& c, T& t) {
    c.template field<std::uint64_t>(t.params_.max_depth);
    c.template field<std::uint64_t>(t.params_.min_samples_split);
    c.template field<std::uint64_t>(t.params_.min_samples_leaf);
    c.template field<std::uint64_t>(t.params_.max_features);
    c.template field<std::uint64_t>(t.params_.seed);
    c.template field<std::uint64_t>(t.n_features_);
    check_feature_count(t.n_features_);
    nodes(c, t.nodes_);
    values(c, t.importance_);
  }

  template <typename Codec, Is<RandomForest> F>
  static void body(Codec& c, F& f) {
    if (std::is_const_v<F> && f.trees_.empty())
      throw std::logic_error("ml::serialize: RandomForest not fitted");
    c.template field<std::uint64_t>(f.params_.n_trees);
    c.template field<std::uint64_t>(f.params_.max_depth);
    c.template field<std::uint64_t>(f.params_.min_samples_leaf);
    c.template field<std::uint64_t>(f.params_.min_samples_split);
    c.template field<std::uint64_t>(f.params_.max_features);
    c.template field<std::uint64_t>(f.params_.seed);
    c.template field<std::uint64_t>(f.n_features_);
    check_feature_count(f.n_features_);
    c.items(f.trees_, kMaxTrees, "tree count", [&](auto& t) { body(c, t); });
    if (f.trees_.empty()) throw std::runtime_error("ml::serialize: implausible tree count");
  }

  template <typename Codec, Is<GradientBoosting> M>
  static void body(Codec& c, M& m) {
    if (std::is_const_v<M> && m.trees_.empty())
      throw std::logic_error("ml::serialize: GradientBoosting not fitted");
    c.template field<std::uint64_t>(m.params_.n_rounds);
    c.template field<std::uint64_t>(m.params_.max_depth);
    c.template field<std::uint64_t>(m.params_.min_samples_leaf);
    c.template field<double>(m.params_.learning_rate);
    c.template field<double>(m.params_.subsample);
    c.template field<std::uint64_t>(m.params_.seed);
    c.template field<double>(m.prior_);
    c.template field<std::uint64_t>(m.n_features_);
    check_feature_count(m.n_features_);
    values(c, m.importance_);
    c.items(m.trees_, kMaxTrees, "tree count", [&](auto& t) { nodes(c, t); });
    if (m.trees_.empty()) throw std::runtime_error("ml::serialize: implausible tree count");
  }

  template <typename Codec, Is<LogisticRegression> M>
  static void body(Codec& c, M& m) {
    if (std::is_const_v<M> && !m.scaler_.fitted())
      throw std::logic_error("ml::serialize: LogisticRegression not fitted");
    c.template field<double>(m.params_.l2);
    c.template field<double>(m.params_.learning_rate);
    c.template field<std::int32_t>(m.params_.epochs);
    body(c, m.scaler_);
    values(c, m.weights_);
    c.template field<double>(m.bias_);
    if (m.weights_.size() != m.scaler_.mean().size())
      throw std::runtime_error("ml::serialize: logistic weight/scaler size mismatch");
  }
};


namespace {

/// Compile a loaded ensemble — the compiler rejects malformed tree structure
/// (out-of-range or shared children, back-edges, bad feature ids), so no
/// stream of any version reaches the pointer walker unchecked — and verify
/// it against the engine manifest that v2 streams carry.
template <typename Model>
FlatForest compile_loaded(io::ByteReader& in, const Header& header, const Model& model) {
  FlatForest engine = FlatForest::compile(model);
  if (header.version >= 2) verify_engine_manifest(in, engine);
  return engine;
}

/// The rest of `in`, read whole.
std::string slurp(std::istream& in) { return {std::istreambuf_iterator<char>(in), {}}; }

std::vector<char> model_file(const std::string& path) {
  std::optional<std::vector<char>> bytes = io::read_file(path);
  if (!bytes) throw std::runtime_error("ml::serialize: cannot open " + path);
  return std::move(*bytes);
}

// Shared body of load_classifier / load_serving_classifier_file.  When
// `engine_out` is non-null and the stream holds an ensemble, the FlatForest
// compiled for verification is moved into *engine_out so the serving
// loader does not compile the same ensemble twice.
std::unique_ptr<Classifier> read_classifier(std::span<const char> bytes,
                                            FlatForest* engine_out) {
  io::ByteReader in(bytes, kTruncated);
  const Header header = read_header(in);
  const auto ensemble = [&](auto model) -> std::unique_ptr<Classifier> {
    FlatForest engine = compile_loaded(in, header, *model);
    if (engine_out) *engine_out = std::move(engine);
    return model;
  };
  switch (header.kind) {
    case SavedModelKind::kRandomForest:
      return ensemble(std::make_unique<RandomForest>(ModelSerializer::read<RandomForest>(in)));
    case SavedModelKind::kGradientBoosting:
      return ensemble(
          std::make_unique<GradientBoosting>(ModelSerializer::read<GradientBoosting>(in)));
    case SavedModelKind::kLogisticRegression:
      return std::make_unique<LogisticRegression>(ModelSerializer::read<LogisticRegression>(in));
    case SavedModelKind::kStandardizer:
      break;
  }
  throw std::runtime_error("ml::serialize: stream does not hold a classifier");
}


/// Tree ensembles carry the compiled engine's manifest after their body.
template <typename Model>
constexpr bool kEnsemble =
    std::is_same_v<Model, RandomForest> || std::is_same_v<Model, GradientBoosting>;

template <typename Model>
void save(std::ostream& out, SavedModelKind kind, const Model& model) {
  std::string bytes = header(kind);
  ModelSerializer::write(bytes, model);
  if constexpr (kEnsemble<Model>) bytes += engine_manifest(FlatForest::compile(model));
  out << bytes;
}

template <typename Model>
Model load(std::istream& in, SavedModelKind kind) {
  const std::string bytes = slurp(in);
  io::ByteReader reader(bytes, kTruncated);
  const Header header = read_header(reader);
  expect_kind(header.kind, kind);
  Model model = ModelSerializer::read<Model>(reader);
  if constexpr (kEnsemble<Model>) (void)compile_loaded(reader, header, model);
  return model;
}

}  // namespace

void save_model(std::ostream& out, const RandomForest& model) {
  save(out, SavedModelKind::kRandomForest, model);
}
void save_model(std::ostream& out, const GradientBoosting& model) {
  save(out, SavedModelKind::kGradientBoosting, model);
}
void save_model(std::ostream& out, const LogisticRegression& model) {
  save(out, SavedModelKind::kLogisticRegression, model);
}
void save_model(std::ostream& out, const Standardizer& scaler) {
  save(out, SavedModelKind::kStandardizer, scaler);
}

RandomForest load_random_forest(std::istream& in) {
  return load<RandomForest>(in, SavedModelKind::kRandomForest);
}
GradientBoosting load_gradient_boosting(std::istream& in) {
  return load<GradientBoosting>(in, SavedModelKind::kGradientBoosting);
}
LogisticRegression load_logistic_regression(std::istream& in) {
  return load<LogisticRegression>(in, SavedModelKind::kLogisticRegression);
}
Standardizer load_standardizer(std::istream& in) {
  return load<Standardizer>(in, SavedModelKind::kStandardizer);
}

std::unique_ptr<Classifier> load_classifier(std::istream& in) {
  return read_classifier(slurp(in), nullptr);
}

// The commit makes the model file durable before it replaces the old one:
// readers, and a crash at any point, see the old file or the new.
void save_model_file(const std::string& path, const RandomForest& model) {
  io::commit_file(path, [&](std::ostream& out) { save_model(out, model); });
}

void save_model_file(const std::string& path, const GradientBoosting& model) {
  io::commit_file(path, [&](std::ostream& out) { save_model(out, model); });
}

void save_model_file(const std::string& path, const LogisticRegression& model) {
  io::commit_file(path, [&](std::ostream& out) { save_model(out, model); });
}

std::unique_ptr<Classifier> load_classifier_file(const std::string& path) {
  return read_classifier(model_file(path), nullptr);
}

std::shared_ptr<const Classifier> load_serving_classifier_file(const std::string& path) {
  FlatForest engine;
  std::shared_ptr<const Classifier> fitted(read_classifier(model_file(path), &engine));
  // An ensemble already compiled its engine while loading; hand it to the
  // serving wrapper instead of recompiling.  Non-ensembles fall through to
  // make_serving_model.
  if (!engine.empty())
    return std::make_shared<const FlatForestClassifier>(std::move(fitted),
                                                        std::move(engine));
  return make_serving_model(std::move(fitted));
}

}  // namespace ssdfail::ml
