#pragma once

// Compiled flat-forest inference engine (the serving hot loop).
//
// A fitted tree ensemble — RandomForest or GradientBoosting — walks
// pointer-linked nodes one row at a time, one tree at a time.  That is the
// single biggest raw-speed lever on the serve path (ROADMAP), so this
// module COMPILES a fitted ensemble into a contiguous, cache-line-aligned
// node array with level-order layout and traverses it branchless:
//
//   - All trees share one flat node array (slot 0 is a parked sentinel, so
//     every real node id is >= 1); each tree's nodes are laid out level by
//     level (BFS), with sibling children ADJACENT — the right child always
//     sits one node after the left, so a node stores only its left link
//     (pre-scaled to a byte offset) and the step is pure arithmetic:
//     next = left + (!(v <= threshold) << 4).
//   - Leaves are SELF-PARKING: threshold = NaN (every comparison fails, so
//     the step lands one node after left == the leaf itself) and feature = 0.
//     The scalar walk takes every tree for exactly its max depth with no
//     per-step leaf test — the index simply stops moving — which turns
//     its inner loop into a fixed-trip-count chain of compare-and-add
//     steps.
//   - Batch scoring takes the rows in blocks of kBlockRows and walks each
//     block through one tree at a time, so the tree's hot top levels stay
//     in L1 across the block.  The scalar walk steps 16 rows at a time:
//     their index chains are independent, so the CPU overlaps the
//     dependent node loads.
//   - On a host with AVX-512F, every full block takes a vector walk
//     instead: 64 rows per tree step, four 16-lane vectors of byte
//     offsets.  A step fetches each lane's node, gathers its row value
//     and takes the same ordered compare.  Nodes come from registers
//     holding the tree's first 32 nodes (all of depth < 5, by BFS) while
//     every lane is among them, else from one gather of thresholds and
//     two of (feature, left) pairs.  A lane that
//     does not move sits on a leaf (BFS puts both children after their
//     parent), so each vector drops its parked lanes and stops once no
//     lane moved, still capped at the tree's depth.  A NaN threshold is
//     NOT taken for a leaf: a v1 model stream can put one on an internal
//     node, where both walks route right.  The choice is one cached
//     __builtin_cpu_supports("avx512f") check per process, plus an int32
//     bound on the gather index (kBlockRows * n_features); tail blocks,
//     predict_row and other hosts keep the scalar walk, which is the
//     in-process oracle the tests hold the vector walk to.
//
// Bit-identity contract: for every input, both walks reproduce the
// pointer-walk path EXACTLY — same comparison (v <= threshold, so NaN
// routes right; see kNanRoutesRight), same per-row accumulation order
// (double accumulator over trees in tree order), same finalization
// (RF: mean over trees; GB: sigmoid of prior + damped leaf sums).  The
// golden pipeline suite pins this.
//
// Serving: make_serving_model() wraps every fitted ensemble that a
// streaming scorer (the telemetry daemon, cross-validation scoring, the
// online arena) serves.  There is no engine switch: the pointer walk
// stays as each model's own predict_proba, the oracle the tests hold
// this engine to.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "ml/classifier.hpp"
#include "parallel/thread_pool.hpp"

namespace ssdfail::ml {

class RandomForest;
class GradientBoosting;
struct FlatForestCompiler;

/// Former process-wide engine selection, kept only because
/// perfbench/main.cpp still calls set_inference_engine(kFlat).
enum class InferenceEngine : std::uint8_t {
  kWalker = 0,
  kFlat = 1,
};

/// Selects nothing: serving always uses the flat engine.  Kept for
/// perfbench's call; remove both once that call goes.
void set_inference_engine(InferenceEngine engine) noexcept;

/// One flattened tree node: 16 bytes, four per cache line.  `left` holds
/// the left child's BYTE offset into the node array (id * 16): scaled
/// addressing tops out at *8 on x86, so storing ids would put a shift on
/// the dependent-load chain of every step.  The right child is implicitly
/// the next node (BFS lays siblings adjacent), so the walk step is
/// `next = left + (!(v <= threshold) << 4)` — NaN inputs fail `<=` and
/// take the right branch, matching the walker (kNanRoutesRight).  A leaf
/// stores threshold = NaN and left = the byte offset of self - 1: the
/// comparison always fails, the step lands back on the leaf, and `left`
/// itself is never dereferenced.  (An 8-byte packed variant — feature
/// folded into the top bits of the child word — measured ~20% SLOWER: the
/// inner loop is uop-throughput-bound, and the unpack shifts cost more
/// than the halved footprint saves.)
struct FlatNode {
  float threshold = 0.0f;
  std::int32_t feature = 0;
  std::int32_t left = 0;
  std::int32_t pad = 0;  ///< keeps nodes 4-per-cache-line; always 0
};
static_assert(sizeof(FlatNode) == 16, "FlatNode must stay 4-per-cache-line");

/// Allocator placing the node array on a cache-line boundary.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlignment = 64;

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlignment});
  }
  bool operator==(const CacheAlignedAllocator&) const noexcept { return true; }
};

/// A compiled, immutable tree ensemble.  Build one with compile(); score
/// with predict_proba / predict_into / predict_row.
class FlatForest {
 public:
  /// How per-tree leaf values combine into the final probability.
  enum class Kind : std::uint8_t {
    kAverage = 0,   ///< RandomForest: mean of leaf scores over trees
    kLogitSum = 1,  ///< GradientBoosting: sigmoid(bias + sum of leaf values)
  };

  FlatForest() = default;

  /// Compile a fitted ensemble.  Throws std::logic_error if unfitted.
  [[nodiscard]] static FlatForest compile(const RandomForest& forest);
  [[nodiscard]] static FlatForest compile(const GradientBoosting& model);

  /// Score every row of `x`.  Bit-identical to the walker path.  Batches
  /// below kSerialPredictRows (or a 1-wide pool) score serially — the
  /// single-drive observe path must not pay pool overhead.  Throws
  /// std::invalid_argument unless x.cols() == n_features().
  [[nodiscard]] std::vector<float> predict_proba(
      const Matrix& x,
      parallel::ThreadPool& pool = parallel::ThreadPool::current()) const;

  /// Score rows [begin, begin + count) of `x` into `out` (size count),
  /// serially.  The chunk scorer and the parallel path both drive this.
  /// Throws std::invalid_argument on a column-count mismatch or a range
  /// past the last row.
  void predict_into(const Matrix& x, std::size_t begin, std::size_t count,
                    float* out) const;

  /// Score one row (the degraded / spot-check path).
  [[nodiscard]] float predict_row(std::span<const float> row) const;

  [[nodiscard]] bool empty() const noexcept { return roots_.empty(); }
  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t tree_count() const noexcept { return roots_.size(); }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t n_features() const noexcept { return n_features_; }
  [[nodiscard]] std::uint32_t max_depth() const noexcept { return max_depth_; }

  /// FNV-1a over the compiled layout (nodes, values, roots, depths, bias).
  /// Serialized next to the walker body so a loader can verify the
  /// recompiled engine matches what was saved (any tree-body corruption
  /// that survives parsing changes this hash).
  [[nodiscard]] std::uint64_t structural_hash() const noexcept;

  /// Below this many rows predict_proba stays on the calling thread.
  static constexpr std::size_t kSerialPredictRows = 64;

  /// Rows walked per tree in one block; only full blocks take the vector
  /// walk.
  static constexpr std::size_t kBlockRows = 128;

 private:
  friend struct FlatForestCompiler;

  void finalize_block(const double* acc, std::size_t n, float* out) const;

  std::vector<FlatNode, CacheAlignedAllocator<FlatNode>> nodes_;
  std::vector<double> values_;        ///< leaf payload, indexed by node id
  std::vector<std::int32_t> roots_;   ///< root node id per tree
  std::vector<std::uint32_t> depths_; ///< max leaf depth per tree
  Kind kind_ = Kind::kAverage;
  double bias_ = 0.0;                 ///< GB prior log-odds (0 for RF)
  std::size_t n_features_ = 0;
  std::uint32_t max_depth_ = 0;
};

/// Classifier adapter so the serving path (the daemon) can hold a FlatForest
/// behind the ml::Classifier interface.
///
/// Two modes:
///  - serving: wraps an already-fitted walker model (shared ownership);
///    fit() throws — serving wrappers are immutable.
///  - trainable: owns a walker model; fit() trains it and recompiles.
///    Used where Classifier::clone()+fit() protocols run (cross-validation).
class FlatForestClassifier final : public Classifier {
 public:
  /// Serving wrapper around a fitted RandomForest or GradientBoosting.
  /// Throws std::invalid_argument for other classifier types or null.
  explicit FlatForestClassifier(std::shared_ptr<const Classifier> fitted);

  /// Serving wrapper reusing an already-compiled engine (avoids a second
  /// compile when the loader has one in hand for hash verification).
  FlatForestClassifier(std::shared_ptr<const Classifier> fitted, FlatForest engine);

  /// Trainable wrapper: fit() trains the walker, then recompiles.
  explicit FlatForestClassifier(std::unique_ptr<Classifier> trainable);

  void fit(const Dataset& train) override;
  [[nodiscard]] std::vector<float> predict_proba(const Matrix& x) const override;
  /// The wrapped walker's name — name-dispatching callers see no change.
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Classifier> clone() const override;

  [[nodiscard]] const FlatForest& engine() const noexcept { return engine_; }
  [[nodiscard]] const Classifier& walker() const;

 private:
  std::shared_ptr<const Classifier> fitted_;  ///< serving mode
  std::unique_ptr<Classifier> trainable_;     ///< trainable mode
  FlatForest engine_;
};

}  // namespace ssdfail::ml
