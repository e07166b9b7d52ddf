#pragma once

// Columnar chunk scoring: drive the compiled flat-forest engine straight
// over an SSDF2 ColumnarFleetView — each row is gathered from the chunk
// (ChunkView::record) into the one FeatureExtractor path, rows are scored
// in blocks through FlatForest::predict_into, and chunks run in parallel
// (v3 chunks decode on first touch inside the parallel loop).
//
// This is the offline/bulk sibling of the online scoring kernel
// (core::ScoringShard, behind FleetMonitor and the telemetry daemon):
// score an entire stored fleet (backfills, model evaluation sweeps, alert
// replays) without materializing the fleet or sanitizing.  Scores are
// bit-identical to scoring the source fleet's records one at a time through
// the same engine, on v2 and v3 files (pinned by
// tests/core/test_chunk_scorer.cpp).

#include <cstdint>
#include <vector>

#include "ml/flat_forest.hpp"
#include "parallel/thread_pool.hpp"
#include "store/columnar.hpp"

namespace ssdfail::core {

/// Scores for every record of a columnar fleet, positionally aligned in
/// storage order: chunk-major, drive-major within a chunk, day order
/// within a drive.
struct FleetScores {
  std::vector<std::uint64_t> uid;   ///< drive uid per record
  std::vector<std::int32_t> day;    ///< record day
  std::vector<float> score;         ///< model risk score

  [[nodiscard]] std::size_t size() const noexcept { return score.size(); }
};

/// Score every record of `view` with `engine`.  Chunk-parallel on `pool`
/// (each chunk is one unit of work; per-drive state stays sequential, as
/// cumulative features require).  Throws std::invalid_argument if the
/// engine's feature count does not match FeatureExtractor::count().
[[nodiscard]] FleetScores predict_chunk(
    const ml::FlatForest& engine, const store::ColumnarFleetView& view,
    parallel::ThreadPool& pool = parallel::ThreadPool::current());

}  // namespace ssdfail::core
