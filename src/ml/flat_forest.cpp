#include "ml/flat_forest.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "ml/gradient_boosting.hpp"
#include "ml/random_forest.hpp"
#include "stats/rng.hpp"

namespace ssdfail::ml {
namespace {

/// Matches the walker paths exactly: gradient_boosting.cpp's sigmoid.
double sigmoid(double z) noexcept { return 1.0 / (1.0 + std::exp(-z)); }

/// Child links and roots are stored PRE-SCALED as byte offsets into the
/// node array (id << kNodeShift).  x86 scaled addressing tops out at *8,
/// so indexing 16-byte nodes by id would put a shift on the dependent-load
/// chain of every step; byte offsets make the address base + cur directly.
constexpr std::int32_t kNodeShift = 4;
static_assert(sizeof(FlatNode) == (std::size_t{1} << kNodeShift),
              "kNodeShift must match sizeof(FlatNode)");

std::atomic<InferenceEngine> g_engine{InferenceEngine::kFlat};

}  // namespace

InferenceEngine inference_engine() noexcept {
  return g_engine.load(std::memory_order_relaxed);
}

void set_inference_engine(InferenceEngine engine) noexcept {
  g_engine.store(engine, std::memory_order_relaxed);
}

std::string_view inference_engine_name(InferenceEngine engine) noexcept {
  return engine == InferenceEngine::kWalker ? "walker" : "flat";
}

std::optional<InferenceEngine> parse_inference_engine(std::string_view name) noexcept {
  if (name == "walker") return InferenceEngine::kWalker;
  if (name == "flat") return InferenceEngine::kFlat;
  return std::nullopt;
}

/// Friend of the walker models: reads the private node arrays the public
/// APIs deliberately do not expose.
struct FlatForestCompiler {
  /// Append one walker tree in level order.  `scale` folds the boosting
  /// learning rate into the stored leaf payload (exact: double * double,
  /// the same product the walker computes per row).
  template <typename Leaf>
  static void append_tree(FlatForest& ff, const std::vector<TreeNode<Leaf>>& src,
                          double scale) {
    if (src.empty())
      throw std::runtime_error("FlatForest: malformed tree (no nodes)");
    // Byte offsets (id << kNodeShift) must stay in int32: cap node ids.
    if (ff.nodes_.size() + src.size() > (std::size_t{1} << (31 - kNodeShift)))
      throw std::runtime_error("FlatForest: ensemble too large to compile");
    const auto base = static_cast<std::int32_t>(ff.nodes_.size());
    // BFS order over walker ids; children get adjacent flat slots.
    std::vector<std::int32_t> order;
    std::vector<std::int32_t> flat_of(src.size(), -1);
    std::vector<std::uint32_t> depth_of(src.size(), 0);
    order.reserve(src.size());
    order.push_back(0);
    flat_of[0] = base;
    std::int32_t next = base + 1;
    std::uint32_t max_depth = 0;
    for (std::size_t head = 0; head < order.size(); ++head) {
      const auto w = static_cast<std::size_t>(order[head]);
      if (src[w].left == -1) continue;  // leaf
      // Trees may come from a deserialized stream: reject out-of-range
      // children, shared children, and back-edges before dereferencing.
      const std::int32_t li = src[w].left;
      const std::int32_t ri = src[w].right;
      if (li < 0 || ri < 0 || static_cast<std::size_t>(li) >= src.size() ||
          static_cast<std::size_t>(ri) >= src.size() || li == ri ||
          flat_of[static_cast<std::size_t>(li)] != -1 ||
          flat_of[static_cast<std::size_t>(ri)] != -1 || src[w].feature < 0 ||
          static_cast<std::size_t>(src[w].feature) >= ff.n_features_)
        throw std::runtime_error("FlatForest: malformed tree structure");
      const auto left = static_cast<std::size_t>(src[w].left);
      const auto right = static_cast<std::size_t>(src[w].right);
      flat_of[left] = next++;
      flat_of[right] = next++;
      depth_of[left] = depth_of[right] = depth_of[w] + 1;
      max_depth = std::max(max_depth, depth_of[w] + 1);
      order.push_back(src[w].left);
      order.push_back(src[w].right);
    }

    ff.nodes_.resize(ff.nodes_.size() + src.size());
    ff.values_.resize(ff.nodes_.size(), 0.0);
    for (const std::int32_t w_id : order) {
      const auto w = static_cast<std::size_t>(w_id);
      const std::int32_t f = flat_of[w];
      FlatNode& node = ff.nodes_[static_cast<std::size_t>(f)];
      if (src[w].left == -1) {
        // Self-parking: the NaN threshold fails every comparison, so the
        // step always lands on left + one node == the leaf itself.  f >= 1
        // always (the sentinel owns slot 0), so f - 1 stays in-array.
        node.threshold = std::numeric_limits<float>::quiet_NaN();
        node.feature = 0;
        node.left = (f - 1) << kNodeShift;
        ff.values_[static_cast<std::size_t>(f)] = static_cast<double>(src[w].value) * scale;
      } else {
        node.threshold = src[w].threshold;
        node.feature = src[w].feature;
        const std::int32_t left_id = flat_of[static_cast<std::size_t>(src[w].left)];
        node.left = left_id << kNodeShift;
        // BFS assigned the right child the very next slot; assert the
        // invariant the implicit-right step relies on.
        if (flat_of[static_cast<std::size_t>(src[w].right)] != left_id + 1)
          throw std::logic_error("FlatForest: BFS sibling adjacency broken");
      }
    }
    ff.roots_.push_back(base << kNodeShift);
    ff.depths_.push_back(max_depth);
    ff.max_depth_ = std::max(ff.max_depth_, max_depth);
  }

  /// An empty engine sized for `trees` trees of `total_nodes` nodes.  Slot
  /// 0 is a parked sentinel so every real node id is >= 1 — a leaf at id f
  /// then always has a valid in-array `left = f - 1`.  The sentinel is
  /// never a root or a child, so it is never visited; its self-parking link
  /// (-1 node) is for uniformity only.
  static FlatForest start(FlatForest::Kind kind, double bias, std::size_t n_features,
                          std::size_t trees, std::size_t total_nodes) {
    FlatForest ff;
    ff.kind_ = kind;
    ff.bias_ = bias;
    ff.n_features_ = n_features;
    ff.nodes_.reserve(total_nodes + 1);
    ff.values_.reserve(total_nodes + 1);
    ff.roots_.reserve(trees);
    ff.depths_.reserve(trees);
    FlatNode sentinel;
    sentinel.threshold = std::numeric_limits<float>::quiet_NaN();
    sentinel.left = std::int32_t{-1} << kNodeShift;
    ff.nodes_.push_back(sentinel);
    ff.values_.push_back(0.0);
    return ff;
  }

  static FlatForest compile(const RandomForest& forest) {
    if (forest.trees_.empty())
      throw std::logic_error("FlatForest: compile before fit (RandomForest)");
    std::size_t total = 0;
    for (const DecisionTree& t : forest.trees_) total += t.nodes_.size();
    FlatForest ff = start(FlatForest::Kind::kAverage, 0.0, forest.n_features_,
                          forest.trees_.size(), total);
    for (const DecisionTree& t : forest.trees_) append_tree(ff, t.nodes_, 1.0);
    return ff;
  }

  static FlatForest compile(const GradientBoosting& model) {
    if (model.trees_.empty())
      throw std::logic_error("FlatForest: compile before fit (GradientBoosting)");
    std::size_t total = 0;
    for (const GradientBoosting::Tree& t : model.trees_) total += t.size();
    FlatForest ff = start(FlatForest::Kind::kLogitSum, model.prior_, model.n_features_,
                          model.trees_.size(), total);
    for (const GradientBoosting::Tree& t : model.trees_)
      append_tree(ff, t, model.params_.learning_rate);
    return ff;
  }
};

FlatForest FlatForest::compile(const RandomForest& forest) {
  return FlatForestCompiler::compile(forest);
}

FlatForest FlatForest::compile(const GradientBoosting& model) {
  return FlatForestCompiler::compile(model);
}

void FlatForest::finalize_block(const double* acc, std::size_t n, float* out) const {
  if (kind_ == Kind::kAverage) {
    const auto trees = static_cast<double>(roots_.size());
    for (std::size_t r = 0; r < n; ++r) out[r] = static_cast<float>(acc[r] / trees);
  } else {
    for (std::size_t r = 0; r < n; ++r) out[r] = static_cast<float>(sigmoid(acc[r]));
  }
}

namespace {

/// One traversal step.  `cur` is a BYTE offset into the node array (the
/// compiler stored child links pre-scaled by sizeof(FlatNode)), so the
/// dependent-load address is base + cur with no shift on the chain; the
/// branch flag is shifted instead, off the critical path.  The step takes
/// the right sibling (left + 16 bytes) on both `v > t` and NaN, exactly
/// like the walker (kNanRoutesRight), and parks on leaves (NaN threshold).
inline std::uint32_t walk_step(const char* nodes, const float* row,
                               std::uint32_t cur) noexcept {
  const FlatNode node = *reinterpret_cast<const FlatNode*>(nodes + cur);
  const float v = row[static_cast<std::size_t>(node.feature)];
  // Branchless on purpose (a ternary compiles to a ~50%-mispredicted
  // branch here): !(v <= t) is true on NaN too, so NaN takes the right
  // sibling (left + one node), matching the walker (kNanRoutesRight).
  return static_cast<std::uint32_t>(node.left) +
         (static_cast<std::uint32_t>(!(v <= node.threshold)) << kNodeShift);
}

/// Walk one tree for `NB` rows at fixed depth, accumulating leaf values.
/// NB is a compile-time constant so the inner step fully unrolls and the
/// NB offset chains stay in registers — they are independent, so the CPU
/// overlaps their (dependent) node loads across rows.
template <std::size_t NB>
inline void walk_tree(const char* nodes, const float* const* row_of,
                      std::uint32_t root, std::uint32_t depth, const double* values,
                      double* acc) {
  // Groups of 16: the offsets and row pointers stay (mostly) register-
  // resident across the whole depth loop instead of round-tripping
  // through stack arrays each level, and 16 independent step chains hide
  // the dependent-load latency.  Measured ~25% faster than groups of 8;
  // 32 spills and loses it all.
  constexpr std::size_t kGroup = 16;
  static_assert(NB % kGroup == 0);
  for (std::size_t g = 0; g < NB; g += kGroup) {
    std::uint32_t cur[kGroup];
    const float* rp[kGroup];
    for (std::size_t r = 0; r < kGroup; ++r) {
      cur[r] = root;
      rp[r] = row_of[g + r];
    }
    for (std::uint32_t d = 0; d < depth; ++d)
      for (std::size_t r = 0; r < kGroup; ++r)
        cur[r] = walk_step(nodes, rp[r], cur[r]);
    for (std::size_t r = 0; r < kGroup; ++r)
      acc[g + r] += values[static_cast<std::size_t>(cur[r]) >> kNodeShift];
  }
}

/// Runtime-width tail (fewer than kBlock rows left).
inline void walk_tree_tail(const char* nodes, const float* const* row_of,
                           std::size_t nb, std::uint32_t root, std::uint32_t depth,
                           const double* values, double* acc) {
  std::uint32_t cur[FlatForest::kBlockRows];
  for (std::size_t r = 0; r < nb; ++r) cur[r] = root;
  for (std::uint32_t d = 0; d < depth; ++d)
    for (std::size_t r = 0; r < nb; ++r) cur[r] = walk_step(nodes, row_of[r], cur[r]);
  for (std::size_t r = 0; r < nb; ++r)
    acc[r] += values[static_cast<std::size_t>(cur[r]) >> kNodeShift];
}

}  // namespace

void FlatForest::predict_into(const Matrix& x, std::size_t begin, std::size_t count,
                              float* out) const {
  if (empty()) throw std::logic_error("FlatForest: predict before compile");
  check_columns(x, n_features_, "FlatForest");
  if (begin > x.rows() || count > x.rows() - begin)
    throw std::invalid_argument("FlatForest: row range past the matrix end");
  // Row blocks: each tree's hot top levels stay cached across the block,
  // and the per-row index chains are independent.
  const std::size_t cols = x.cols();
  const float* data = x.data().data();
  const char* nodes = reinterpret_cast<const char*>(nodes_.data());
  const double* values = values_.data();
  double acc[kBlockRows];
  const float* row_of[kBlockRows];
  for (std::size_t b = 0; b < count; b += kBlockRows) {
    const std::size_t nb = std::min(kBlockRows, count - b);
    // Per-row base pointers hoist the row * cols multiply out of the walk.
    for (std::size_t r = 0; r < nb; ++r) {
      row_of[r] = data + (begin + b + r) * cols;
      acc[r] = bias_;
    }
    for (std::size_t t = 0; t < roots_.size(); ++t) {
      if (nb == kBlockRows)
        walk_tree<kBlockRows>(nodes, row_of, static_cast<std::uint32_t>(roots_[t]),
                              depths_[t], values, acc);
      else
        walk_tree_tail(nodes, row_of, nb, static_cast<std::uint32_t>(roots_[t]),
                       depths_[t], values, acc);
    }
    finalize_block(acc, nb, out + b);
  }
}

float FlatForest::predict_row(std::span<const float> row) const {
  if (empty()) throw std::logic_error("FlatForest: predict before compile");
  double acc = bias_;
  const char* nodes = reinterpret_cast<const char*>(nodes_.data());
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    auto cur = static_cast<std::uint32_t>(roots_[t]);
    for (std::uint32_t d = 0; d < depths_[t]; ++d)
      cur = walk_step(nodes, row.data(), cur);
    acc += values_[static_cast<std::size_t>(cur) >> kNodeShift];
  }
  float out;
  finalize_block(&acc, 1, &out);
  return out;
}

std::vector<float> FlatForest::predict_proba(const Matrix& x,
                                             parallel::ThreadPool& pool) const {
  if (empty()) throw std::logic_error("FlatForest: predict before compile");
  check_columns(x, n_features_, "FlatForest");  // before any worker runs
  std::vector<float> out(x.rows());
  const std::size_t rows = x.rows();
  if (rows == 0) return out;
  // Small batches (the single-drive observe path) stay on the calling
  // thread: pool dispatch costs more than the scoring itself.
  if (rows < kSerialPredictRows || pool.size() <= 1 || pool.on_worker_thread()) {
    predict_into(x, 0, rows, out.data());
    return out;
  }
  constexpr std::size_t kParChunk = 256;
  const std::size_t n_chunks = (rows + kParChunk - 1) / kParChunk;
  parallel::parallel_for(
      n_chunks,
      [&](std::size_t c) {
        const std::size_t begin = c * kParChunk;
        predict_into(x, begin, std::min(kParChunk, rows - begin), out.data() + begin);
      },
      pool);
  return out;
}

std::uint64_t FlatForest::structural_hash() const noexcept {
  // FNV-1a 64 over the compiled layout, field by field (no padding bytes).
  std::uint64_t h = stats::kFnv1aInit;
  const auto mix = [&h](std::uint64_t v) noexcept { h = stats::fnv1a_mix(h, v); };
  mix(static_cast<std::uint64_t>(kind_));
  mix(static_cast<std::uint64_t>(n_features_));
  mix(std::bit_cast<std::uint64_t>(bias_));
  mix(roots_.size());
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    mix(static_cast<std::uint64_t>(roots_[t]));
    mix(depths_[t]);
  }
  mix(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const FlatNode& n = nodes_[i];
    mix(std::bit_cast<std::uint32_t>(n.threshold));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(n.feature)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(n.left)));
    mix(std::bit_cast<std::uint64_t>(values_[i]));
  }
  return h;
}

namespace {

FlatForest compile_any(const Classifier& fitted) {
  if (const auto* rf = dynamic_cast<const RandomForest*>(&fitted))
    return FlatForest::compile(*rf);
  if (const auto* gb = dynamic_cast<const GradientBoosting*>(&fitted))
    return FlatForest::compile(*gb);
  throw std::invalid_argument("FlatForestClassifier: '" + fitted.name() +
                              "' is not a compilable tree ensemble");
}

}  // namespace

FlatForestClassifier::FlatForestClassifier(std::shared_ptr<const Classifier> fitted) {
  if (!fitted) throw std::invalid_argument("FlatForestClassifier: null model");
  engine_ = compile_any(*fitted);
  fitted_ = std::move(fitted);
}

FlatForestClassifier::FlatForestClassifier(std::shared_ptr<const Classifier> fitted,
                                           FlatForest engine)
    : fitted_(std::move(fitted)), engine_(std::move(engine)) {
  if (!fitted_) throw std::invalid_argument("FlatForestClassifier: null model");
  if (engine_.empty())
    throw std::invalid_argument("FlatForestClassifier: empty engine");
}

FlatForestClassifier::FlatForestClassifier(std::unique_ptr<Classifier> trainable)
    : trainable_(std::move(trainable)) {
  if (!trainable_) throw std::invalid_argument("FlatForestClassifier: null model");
  if (dynamic_cast<const RandomForest*>(trainable_.get()) == nullptr &&
      dynamic_cast<const GradientBoosting*>(trainable_.get()) == nullptr)
    throw std::invalid_argument("FlatForestClassifier: '" + trainable_->name() +
                                "' is not a compilable tree ensemble");
}

void FlatForestClassifier::fit(const Dataset& train) {
  if (!trainable_)
    throw std::logic_error("FlatForestClassifier: serving wrapper is immutable");
  trainable_->fit(train);
  engine_ = compile_any(*trainable_);
}

std::vector<float> FlatForestClassifier::predict_proba(const Matrix& x) const {
  return engine_.predict_proba(x);
}

const Classifier& FlatForestClassifier::walker() const {
  return fitted_ ? *fitted_ : *trainable_;
}

std::string FlatForestClassifier::name() const { return walker().name(); }

std::unique_ptr<Classifier> FlatForestClassifier::clone() const {
  if (trainable_) return std::make_unique<FlatForestClassifier>(trainable_->clone());
  return std::unique_ptr<Classifier>(new FlatForestClassifier(fitted_, engine_));
}

}  // namespace ssdfail::ml
