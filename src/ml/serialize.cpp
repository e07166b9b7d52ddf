#include "ml/serialize.hpp"

#include "ml/flat_forest.hpp"
#include "ml/model_zoo.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace ssdfail::ml {
namespace {

constexpr char kMagic[4] = {'S', 'S', 'D', 'M'};

// Defensive caps: a 64-bit count from a corrupt stream must not OOM us.
constexpr std::uint64_t kMaxTrees = 1ull << 20;
constexpr std::uint64_t kMaxNodes = 1ull << 28;
constexpr std::uint64_t kMaxFeatures = 1ull << 20;

template <typename T>
void put(std::ostream& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T get(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("ml::serialize: truncated stream");
  return value;
}

template <typename T>
void put_vector(std::ostream& out, const std::vector<T>& v) {
  put<std::uint64_t>(out, v.size());
  for (const T& x : v) put<T>(out, x);
}

template <typename T>
std::vector<T> get_vector(std::istream& in, std::uint64_t max_size) {
  const auto n = get<std::uint64_t>(in);
  if (n > max_size) throw std::runtime_error("ml::serialize: implausible vector size");
  std::vector<T> v;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(get<T>(in));
  return v;
}

// Tree nodes: u64 count, then per node i32 feature, f32 threshold, i32
// left, i32 right and the leaf value at its model's width (f32 for CART
// trees, f64 for boosting trees).
template <typename Leaf>
void write_nodes(std::ostream& out, const std::vector<TreeNode<Leaf>>& nodes) {
  put<std::uint64_t>(out, nodes.size());
  for (const TreeNode<Leaf>& n : nodes) {
    put<std::int32_t>(out, n.feature);
    put<float>(out, n.threshold);
    put<std::int32_t>(out, n.left);
    put<std::int32_t>(out, n.right);
    put<Leaf>(out, n.value);
  }
}

template <typename Leaf>
std::vector<TreeNode<Leaf>> read_nodes(std::istream& in) {
  const auto n_nodes = get<std::uint64_t>(in);
  if (n_nodes > kMaxNodes) throw std::runtime_error("ml::serialize: implausible node count");
  std::vector<TreeNode<Leaf>> nodes;
  nodes.reserve(static_cast<std::size_t>(n_nodes));
  for (std::uint64_t i = 0; i < n_nodes; ++i) {
    TreeNode<Leaf>& n = nodes.emplace_back();
    n.feature = get<std::int32_t>(in);
    n.threshold = get<float>(in);
    n.left = get<std::int32_t>(in);
    n.right = get<std::int32_t>(in);
    n.value = get<Leaf>(in);
  }
  return nodes;
}

void write_header(std::ostream& out, SavedModelKind kind) {
  out.write(kMagic, sizeof(kMagic));
  put<std::uint32_t>(out, kModelFormatVersion);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(kind));
}

struct Header {
  SavedModelKind kind;
  std::uint32_t version;
};

Header read_header(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("ml::serialize: bad magic (not an ssdfail model file)");
  const auto version = get<std::uint32_t>(in);
  if (version < 1 || version > kModelFormatVersion)
    throw std::runtime_error("ml::serialize: unsupported format version " +
                             std::to_string(version));
  const auto kind = get<std::uint8_t>(in);
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

void write_engine_manifest(std::ostream& out, const FlatForest& engine) {
  put<std::uint8_t>(out, kEngineManifestTag);
  put<std::uint64_t>(out, engine.node_count());
  put<std::uint64_t>(out, engine.tree_count());
  put<std::uint32_t>(out, engine.max_depth());
  put<std::uint64_t>(out, engine.structural_hash());
}

void read_and_verify_engine_manifest(std::istream& in, const FlatForest& engine) {
  if (get<std::uint8_t>(in) != kEngineManifestTag)
    throw std::runtime_error("ml::serialize: bad engine manifest tag");
  const auto nodes = get<std::uint64_t>(in);
  const auto trees = get<std::uint64_t>(in);
  const auto depth = get<std::uint32_t>(in);
  const auto hash = get<std::uint64_t>(in);
  if (nodes != engine.node_count() || trees != engine.tree_count() ||
      depth != engine.max_depth() || hash != engine.structural_hash())
    throw std::runtime_error(
        "ml::serialize: engine manifest mismatch (corrupt tree body)");
}

void expect_kind(SavedModelKind actual, SavedModelKind wanted) {
  if (actual != wanted)
    throw std::runtime_error("ml::serialize: model kind mismatch (stream holds kind " +
                             std::to_string(static_cast<int>(actual)) + ", caller wants " +
                             std::to_string(static_cast<int>(wanted)) + ")");
}

}  // namespace

/// Friend of every serializable model: reads/writes the private state the
/// public APIs deliberately do not expose.
struct ModelSerializer {
  static void write_standardizer_body(std::ostream& out, const Standardizer& s) {
    if (!s.fitted()) throw std::logic_error("ml::serialize: Standardizer not fitted");
    put_vector(out, s.mean_);
    put_vector(out, s.sd_);
  }

  static Standardizer read_standardizer_body(std::istream& in) {
    Standardizer s;
    s.mean_ = get_vector<float>(in, kMaxFeatures);
    s.sd_ = get_vector<float>(in, kMaxFeatures);
    if (s.mean_.size() != s.sd_.size())
      throw std::runtime_error("ml::serialize: standardizer mean/sd size mismatch");
    return s;
  }

  static void write_tree_body(std::ostream& out, const DecisionTree& t) {
    put<std::uint64_t>(out, t.params_.max_depth);
    put<std::uint64_t>(out, t.params_.min_samples_split);
    put<std::uint64_t>(out, t.params_.min_samples_leaf);
    put<std::uint64_t>(out, t.params_.max_features);
    put<std::uint64_t>(out, t.params_.seed);
    put<std::uint64_t>(out, t.n_features_);
    write_nodes(out, t.nodes_);
    put_vector(out, t.importance_);
  }

  static DecisionTree read_tree_body(std::istream& in) {
    DecisionTree::Params p;
    p.max_depth = static_cast<std::size_t>(get<std::uint64_t>(in));
    p.min_samples_split = static_cast<std::size_t>(get<std::uint64_t>(in));
    p.min_samples_leaf = static_cast<std::size_t>(get<std::uint64_t>(in));
    p.max_features = static_cast<std::size_t>(get<std::uint64_t>(in));
    p.seed = get<std::uint64_t>(in);
    DecisionTree t(p);
    t.n_features_ = static_cast<std::size_t>(get<std::uint64_t>(in));
    if (t.n_features_ > kMaxFeatures)
      throw std::runtime_error("ml::serialize: implausible feature count");
    t.nodes_ = read_nodes<float>(in);
    t.importance_ = get_vector<double>(in, kMaxFeatures);
    return t;
  }

  static void write_forest_body(std::ostream& out, const RandomForest& f) {
    if (f.trees_.empty()) throw std::logic_error("ml::serialize: RandomForest not fitted");
    put<std::uint64_t>(out, f.params_.n_trees);
    put<std::uint64_t>(out, f.params_.max_depth);
    put<std::uint64_t>(out, f.params_.min_samples_leaf);
    put<std::uint64_t>(out, f.params_.min_samples_split);
    put<std::uint64_t>(out, f.params_.max_features);
    put<std::uint64_t>(out, f.params_.seed);
    put<std::uint64_t>(out, f.n_features_);
    put<std::uint64_t>(out, f.trees_.size());
    for (const DecisionTree& t : f.trees_) write_tree_body(out, t);
  }

  static RandomForest read_forest_body(std::istream& in) {
    RandomForest::Params p;
    p.n_trees = static_cast<std::size_t>(get<std::uint64_t>(in));
    p.max_depth = static_cast<std::size_t>(get<std::uint64_t>(in));
    p.min_samples_leaf = static_cast<std::size_t>(get<std::uint64_t>(in));
    p.min_samples_split = static_cast<std::size_t>(get<std::uint64_t>(in));
    p.max_features = static_cast<std::size_t>(get<std::uint64_t>(in));
    p.seed = get<std::uint64_t>(in);
    RandomForest f(p);
    f.n_features_ = static_cast<std::size_t>(get<std::uint64_t>(in));
    if (f.n_features_ > kMaxFeatures)
      throw std::runtime_error("ml::serialize: implausible feature count");
    const auto n_trees = get<std::uint64_t>(in);
    if (n_trees == 0 || n_trees > kMaxTrees)
      throw std::runtime_error("ml::serialize: implausible tree count");
    f.trees_.reserve(static_cast<std::size_t>(n_trees));
    for (std::uint64_t t = 0; t < n_trees; ++t) f.trees_.push_back(read_tree_body(in));
    return f;
  }

  static void write_gb_body(std::ostream& out, const GradientBoosting& m) {
    if (m.trees_.empty())
      throw std::logic_error("ml::serialize: GradientBoosting not fitted");
    put<std::uint64_t>(out, m.params_.n_rounds);
    put<std::uint64_t>(out, m.params_.max_depth);
    put<std::uint64_t>(out, m.params_.min_samples_leaf);
    put<double>(out, m.params_.learning_rate);
    put<double>(out, m.params_.subsample);
    put<std::uint64_t>(out, m.params_.seed);
    put<double>(out, m.prior_);
    put<std::uint64_t>(out, m.n_features_);
    put_vector(out, m.importance_);
    put<std::uint64_t>(out, m.trees_.size());
    for (const GradientBoosting::Tree& t : m.trees_) write_nodes(out, t);
  }

  static GradientBoosting read_gb_body(std::istream& in) {
    GradientBoosting::Params p;
    p.n_rounds = static_cast<std::size_t>(get<std::uint64_t>(in));
    p.max_depth = static_cast<std::size_t>(get<std::uint64_t>(in));
    p.min_samples_leaf = static_cast<std::size_t>(get<std::uint64_t>(in));
    p.learning_rate = get<double>(in);
    p.subsample = get<double>(in);
    p.seed = get<std::uint64_t>(in);
    GradientBoosting m(p);
    m.prior_ = get<double>(in);
    m.n_features_ = static_cast<std::size_t>(get<std::uint64_t>(in));
    if (m.n_features_ > kMaxFeatures)
      throw std::runtime_error("ml::serialize: implausible feature count");
    m.importance_ = get_vector<double>(in, kMaxFeatures);
    const auto n_trees = get<std::uint64_t>(in);
    if (n_trees == 0 || n_trees > kMaxTrees)
      throw std::runtime_error("ml::serialize: implausible tree count");
    m.trees_.reserve(static_cast<std::size_t>(n_trees));
    for (std::uint64_t t = 0; t < n_trees; ++t) m.trees_.push_back(read_nodes<double>(in));
    return m;
  }

  static void write_logistic_body(std::ostream& out, const LogisticRegression& m) {
    if (!m.scaler_.fitted())
      throw std::logic_error("ml::serialize: LogisticRegression not fitted");
    put<double>(out, m.params_.l2);
    put<double>(out, m.params_.learning_rate);
    put<std::int32_t>(out, m.params_.epochs);
    write_standardizer_body(out, m.scaler_);
    put_vector(out, m.weights_);
    put<double>(out, m.bias_);
  }

  static LogisticRegression read_logistic_body(std::istream& in) {
    LogisticRegression::Params p;
    p.l2 = get<double>(in);
    p.learning_rate = get<double>(in);
    p.epochs = get<std::int32_t>(in);
    LogisticRegression m(p);
    m.scaler_ = read_standardizer_body(in);
    m.weights_ = get_vector<double>(in, kMaxFeatures);
    m.bias_ = get<double>(in);
    if (m.weights_.size() != m.scaler_.mean().size())
      throw std::runtime_error("ml::serialize: logistic weight/scaler size mismatch");
    return m;
  }
};

void save_model(std::ostream& out, const RandomForest& model) {
  write_header(out, SavedModelKind::kRandomForest);
  ModelSerializer::write_forest_body(out, model);
  write_engine_manifest(out, FlatForest::compile(model));
}

void save_model(std::ostream& out, const GradientBoosting& model) {
  write_header(out, SavedModelKind::kGradientBoosting);
  ModelSerializer::write_gb_body(out, model);
  write_engine_manifest(out, FlatForest::compile(model));
}

void save_model(std::ostream& out, const LogisticRegression& model) {
  write_header(out, SavedModelKind::kLogisticRegression);
  ModelSerializer::write_logistic_body(out, model);
}

void save_model(std::ostream& out, const Standardizer& scaler) {
  write_header(out, SavedModelKind::kStandardizer);
  ModelSerializer::write_standardizer_body(out, scaler);
}

namespace {

/// Compile a loaded ensemble — the compiler rejects malformed tree structure
/// (out-of-range or shared children, back-edges, bad feature ids), so no
/// stream of any version reaches the pointer walker unchecked — and verify
/// it against the engine manifest that v2 streams carry.
template <typename Model>
FlatForest compile_loaded(std::istream& in, const Header& header, const Model& model) {
  FlatForest engine = FlatForest::compile(model);
  if (header.version >= 2) read_and_verify_engine_manifest(in, engine);
  return engine;
}

}  // namespace

RandomForest load_random_forest(std::istream& in) {
  const Header header = read_header(in);
  expect_kind(header.kind, SavedModelKind::kRandomForest);
  RandomForest forest = ModelSerializer::read_forest_body(in);
  (void)compile_loaded(in, header, forest);
  return forest;
}

GradientBoosting load_gradient_boosting(std::istream& in) {
  const Header header = read_header(in);
  expect_kind(header.kind, SavedModelKind::kGradientBoosting);
  GradientBoosting model = ModelSerializer::read_gb_body(in);
  (void)compile_loaded(in, header, model);
  return model;
}

LogisticRegression load_logistic_regression(std::istream& in) {
  expect_kind(read_header(in).kind, SavedModelKind::kLogisticRegression);
  return ModelSerializer::read_logistic_body(in);
}

Standardizer load_standardizer(std::istream& in) {
  expect_kind(read_header(in).kind, SavedModelKind::kStandardizer);
  return ModelSerializer::read_standardizer_body(in);
}

namespace {

// Shared body of load_classifier / load_serving_classifier_file.  When
// `engine_out` is non-null and the stream holds an ensemble, the FlatForest
// compiled for verification is moved into *engine_out so the serving
// loader does not compile the same ensemble twice.
std::unique_ptr<Classifier> load_classifier_impl(std::istream& in,
                                                 FlatForest* engine_out) {
  const Header header = read_header(in);
  const auto ensemble = [&](auto model) -> std::unique_ptr<Classifier> {
    FlatForest engine = compile_loaded(in, header, *model);
    if (engine_out) *engine_out = std::move(engine);
    return model;
  };
  switch (header.kind) {
    case SavedModelKind::kRandomForest:
      return ensemble(std::make_unique<RandomForest>(ModelSerializer::read_forest_body(in)));
    case SavedModelKind::kGradientBoosting:
      return ensemble(
          std::make_unique<GradientBoosting>(ModelSerializer::read_gb_body(in)));
    case SavedModelKind::kLogisticRegression:
      return std::make_unique<LogisticRegression>(ModelSerializer::read_logistic_body(in));
    case SavedModelKind::kStandardizer:
      break;
  }
  throw std::runtime_error("ml::serialize: stream does not hold a classifier");
}

}  // namespace

std::unique_ptr<Classifier> load_classifier(std::istream& in) {
  return load_classifier_impl(in, nullptr);
}

namespace {

template <typename Model>
void save_model_file_impl(const std::string& path, const Model& model) {
  const std::string tmp = path + ".tmp";
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) throw std::runtime_error("ml::serialize: cannot open " + tmp);
      save_model(out, model);
      out.flush();
      if (!out) throw std::runtime_error("ml::serialize: short write to " + tmp);
    }
    // The rename is the commit point: readers see the old file (or none)
    // until the new bytes are complete on disk.
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
      throw std::runtime_error("ml::serialize: cannot rename " + tmp + " -> " + path);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

}  // namespace

void save_model_file(const std::string& path, const RandomForest& model) {
  save_model_file_impl(path, model);
}

void save_model_file(const std::string& path, const GradientBoosting& model) {
  save_model_file_impl(path, model);
}

void save_model_file(const std::string& path, const LogisticRegression& model) {
  save_model_file_impl(path, model);
}

std::unique_ptr<Classifier> load_classifier_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("ml::serialize: cannot open " + path);
  return load_classifier(in);
}

std::shared_ptr<const Classifier> load_serving_classifier_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("ml::serialize: cannot open " + path);
  FlatForest engine;
  std::shared_ptr<const Classifier> fitted(load_classifier_impl(in, &engine));
  // An ensemble already compiled its engine while loading; hand it to the
  // serving wrapper instead of recompiling.  Non-ensembles fall through to
  // make_serving_model.
  if (!engine.empty() && inference_engine() == InferenceEngine::kFlat)
    return std::make_shared<const FlatForestClassifier>(std::move(fitted),
                                                        std::move(engine));
  return make_serving_model(std::move(fitted));
}

}  // namespace ssdfail::ml
