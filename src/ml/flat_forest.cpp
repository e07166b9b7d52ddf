#include "ml/flat_forest.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <utility>

#include "ml/gradient_boosting.hpp"
#include "ml/random_forest.hpp"
#include "stats/rng.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

}  // namespace

void set_inference_engine(InferenceEngine /*engine*/) noexcept {}

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

#if defined(__x86_64__)

// GCC's AVX-512 intrinsics start many results from an "undefined" register
// and then warn (-Wmaybe-uninitialized) wherever they inline.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/// One vector step's view of 16 lanes' current nodes.
struct LaneNodes {
  __m512 threshold;
  __m512i feature;
  __m512i left;
};

/// Gather the nodes the lanes in `m` sit on: the threshold (node + 0), and
/// the (feature, left) pair (node + 4) as two 8-lane qword gathers split
/// with vpermt2d.  Lanes outside `m` read zero.
__attribute__((target("avx512f"))) inline LaneNodes gather_nodes(const char* nodes,
                                                                 __m512i cur,
                                                                 __mmask16 m) {
  const __m512i even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24,
                                         26, 28, 30);
  const __m512i odd = _mm512_add_epi32(even, _mm512_set1_epi32(1));
  const char* pairs = nodes + offsetof(FlatNode, feature);
  const __m512i lo = _mm512_mask_i32gather_epi64(_mm512_setzero_si512(),
                                                 static_cast<__mmask8>(m),
                                                 _mm512_castsi512_si256(cur), pairs, 1);
  const __m512i hi = _mm512_mask_i32gather_epi64(_mm512_setzero_si512(),
                                                 static_cast<__mmask8>(m >> 8),
                                                 _mm512_extracti64x4_epi64(cur, 1), pairs, 1);
  return {_mm512_mask_i32gather_ps(_mm512_setzero_ps(), m, cur, nodes, 1),
          _mm512_permutex2var_epi32(lo, even, hi), _mm512_permutex2var_epi32(lo, odd, hi)};
}

/// A tree's first kTopNodes nodes, held in registers: one pair of
/// registers per field.  BFS order puts every node of depth < 5 among
/// them, so the top levels of a walk permute instead of gathering.
struct TopNodes {
  static constexpr std::size_t kTopNodes = 32;
  __m512i field[3][2];  ///< threshold bits, feature, left; nodes 0-15, 16-31
};

/// Load and transpose the first `avail` (<= kTopNodes) nodes from `root`;
/// the rest of the table reads zero and is never looked up.
__attribute__((target("avx512f"))) inline TopNodes load_top(const char* nodes,
                                                            std::int32_t root,
                                                            std::size_t avail) {
  constexpr std::size_t kNodesPerLoad = 64 / sizeof(FlatNode);
  constexpr std::size_t kLoads = TopNodes::kTopNodes / kNodesPerLoad;
  __m512i raw[kLoads];
  for (std::size_t j = 0; j < kLoads; ++j) {
    const std::size_t first = j * kNodesPerLoad;
    const std::size_t n = avail > first ? std::min(kNodesPerLoad, avail - first) : 0;
    // Four words per node; the mask keeps the load inside the node array.
    raw[j] = n == 0 ? _mm512_setzero_si512()
                    : _mm512_maskz_loadu_epi32(static_cast<__mmask16>((1u << (4 * n)) - 1),
                                               nodes + root + first * sizeof(FlatNode));
  }
  // Word 4 * node + field of four consecutive loads, for nodes 0-7 in the
  // low eight lanes (the high eight repeat them).
  const __m512i word = _mm512_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28, 0, 4, 8, 12, 16, 20,
                                         24, 28);
  TopNodes top;
  for (int f = 0; f < 3; ++f) {
    const __m512i sel = _mm512_add_epi32(word, _mm512_set1_epi32(f));
    for (int h = 0; h < 2; ++h) {
      const __m512i lo = _mm512_permutex2var_epi32(raw[4 * h], sel, raw[4 * h + 1]);
      const __m512i hi = _mm512_permutex2var_epi32(raw[4 * h + 2], sel, raw[4 * h + 3]);
      top.field[f][h] = _mm512_shuffle_i64x2(lo, hi, 0x44);
    }
  }
  return top;
}

__attribute__((target("avx512f"))) inline LaneNodes lookup_top(const TopNodes& top,
                                                               __m512i local) {
  return {_mm512_castsi512_ps(
              _mm512_permutex2var_epi32(top.field[0][0], local, top.field[0][1])),
          _mm512_permutex2var_epi32(top.field[1][0], local, top.field[1][1]),
          _mm512_permutex2var_epi32(top.field[2][0], local, top.field[2][1])};
}

/// AVX-512 walk of one full kBlockRows block through every tree.  Each
/// lane carries one row's byte offset into the node array; four 16-lane
/// vectors (64 rows) step together so their loads overlap.  One step
/// fetches each lane's node (from the tree's top-node registers while
/// every lane is among them, else by gathers), gathers the row value at
/// row * cols + feature, then takes next = left + (!(v <= t) << 4) with
/// an ordered compare, so NaN goes right exactly as in walk_step.
///
/// A lane that did not move sits on a leaf: BFS puts both children after
/// their parent, so an internal node always moves its lane and a leaf
/// never does, whatever the threshold holds (a loaded v1 stream may put
/// NaN on an internal node; the step routes right there, as the walker
/// does).  So each vector keeps a mask of the lanes that moved on its last
/// step, fetches for those lanes only, and stops once the mask is empty;
/// the depth cap stays as in the scalar walk.  Leaf values are added into
/// the double accumulators tree by tree, the order the scalar walk uses,
/// so every sum is bit-identical.
__attribute__((target("avx512f"))) void walk_block_avx512(
    const char* nodes, std::size_t node_count, const double* values,
    const std::int32_t* roots, const std::uint32_t* depths, std::size_t trees,
    const float* rows, std::int32_t cols, double* acc) {
  constexpr int kLanes = 16;
  constexpr int kVecs = 4;
  constexpr int kGroups = static_cast<int>(FlatForest::kBlockRows) / (kLanes * kVecs);
  static_assert(FlatForest::kBlockRows % (kLanes * kVecs) == 0);
  const __m512i one_node = _mm512_set1_epi32(std::int32_t{1} << kNodeShift);
  const __m512i top_bytes =
      _mm512_set1_epi32(static_cast<std::int32_t>(TopNodes::kTopNodes) << kNodeShift);
  // Element index of each lane's row start, relative to the block's first row.
  const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                                         15);
  __m512i row_start[kGroups][kVecs];
  for (int g = 0; g < kGroups; ++g)
    for (int k = 0; k < kVecs; ++k)
      row_start[g][k] = _mm512_mullo_epi32(
          _mm512_add_epi32(lane, _mm512_set1_epi32((g * kVecs + k) * kLanes)),
          _mm512_set1_epi32(cols));
  for (std::size_t t = 0; t < trees; ++t) {
    const __m512i root = _mm512_set1_epi32(roots[t]);
    const std::size_t root_id = static_cast<std::size_t>(roots[t]) >> kNodeShift;
    const TopNodes top = load_top(nodes, roots[t],
                                  std::min(TopNodes::kTopNodes, node_count - root_id));
    for (int g = 0; g < kGroups; ++g) {
      __m512i cur[kVecs];
      __mmask16 live[kVecs];
      for (int k = 0; k < kVecs; ++k) {
        cur[k] = root;
        live[k] = 0xFFFF;
      }
      for (std::uint32_t d = 0; d < depths[t]; ++d) {
        bool moving = false;
        for (int k = 0; k < kVecs; ++k) {
          const __mmask16 m = live[k];
          if (m == 0) continue;
          const __m512i rel = _mm512_sub_epi32(cur[k], root);
          const LaneNodes node =
              _mm512_mask_cmplt_epu32_mask(m, rel, top_bytes) == m
                  ? lookup_top(top, _mm512_srli_epi32(rel, kNodeShift))
                  : gather_nodes(nodes, cur[k], m);
          const __m512 v = _mm512_mask_i32gather_ps(
              _mm512_setzero_ps(), m, _mm512_add_epi32(row_start[g][k], node.feature),
              rows, 4);
          const __mmask16 le = _mm512_cmp_ps_mask(v, node.threshold, _CMP_LE_OQ);
          const __m512i next =
              _mm512_mask_add_epi32(node.left, _mm512_knot(le), node.left, one_node);
          live[k] = _mm512_mask_cmpneq_epi32_mask(m, next, cur[k]);
          cur[k] = _mm512_mask_mov_epi32(cur[k], m, next);
          moving = moving || live[k] != 0;
        }
        if (!moving) break;
      }
      for (int k = 0; k < kVecs; ++k) {
        const __m512i id = _mm512_srli_epi32(cur[k], kNodeShift);
        double* a = acc + (g * kVecs + k) * kLanes;
        const __m512d lo = _mm512_i32gather_pd(_mm512_castsi512_si256(id), values, 8);
        const __m512d hi = _mm512_i32gather_pd(_mm512_extracti64x4_epi64(id, 1), values, 8);
        _mm512_storeu_pd(a, _mm512_add_pd(_mm512_loadu_pd(a), lo));
        _mm512_storeu_pd(a + 8, _mm512_add_pd(_mm512_loadu_pd(a + 8), hi));
      }
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// Whether this host runs walk_block_avx512 (checked once per process).
bool has_avx512() noexcept {
  static const bool supported = __builtin_cpu_supports("avx512f") != 0;
  return supported;
}

#endif  // __x86_64__

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
#if defined(__x86_64__)
  // The vector walk's gather indices (row * cols + feature) are int32.
  const bool vector_blocks =
      has_avx512() &&
      n_features_ <= static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()) /
                         kBlockRows;
#endif
  for (std::size_t b = 0; b < count; b += kBlockRows) {
    const std::size_t nb = std::min(kBlockRows, count - b);
    // Per-row base pointers hoist the row * cols multiply out of the walk.
    for (std::size_t r = 0; r < nb; ++r) {
      row_of[r] = data + (begin + b + r) * cols;
      acc[r] = bias_;
    }
#if defined(__x86_64__)
    if (nb == kBlockRows && vector_blocks) {
      walk_block_avx512(nodes, nodes_.size(), values, roots_.data(), depths_.data(),
                        roots_.size(), row_of[0], static_cast<std::int32_t>(cols), acc);
      finalize_block(acc, nb, out + b);
      continue;
    }
#endif
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
