#pragma once

// The online scoring kernel (beyond the paper: serving infrastructure for
// its Section 5 models).  The telemetry daemon (daemon/daemon.hpp) owns
// one ScoringShard per shard and turns its outcomes into health strikes,
// stats and its BatchObserver tap.
//
// Per batch the kernel
//   1. sanitizes every record (robustness::RecordSanitizer: repair, drop
//      exact duplicates, quarantine the irreparable);
//   2. advances each surviving record's DriveFeatureCursor into a reused
//      feature matrix;
//   3. scores those rows with ONE predict_proba call, or none when the
//      model is null (the daemon's degraded mode);
//   4. clamps non-finite scores to the conservative 1.0 and counts them,
//      so a broken model fails loud instead of never alerting;
//   5. applies the alert threshold.
// predict_proba scores rows independently, so a record's score does not
// depend on how the stream was cut into batches or shards.
//
// Not thread-safe: the owner serializes calls (the daemon's one appender
// thread per shard).

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/features.hpp"
#include "core/fleet_observation.hpp"
#include "ml/classifier.hpp"
#include "robustness/record_sanitizer.hpp"

namespace ssdfail::core {

/// The shard in [0, shards) that owns drive `uid`.  Hash, then modulo: one
/// drive's whole stream stays on one shard (the day-order invariant of its
/// sanitizer and cursor state), and the model tag in the uid's high bits
/// spreads across shards too.
[[nodiscard]] std::size_t shard_of(std::uint64_t uid, std::size_t shards) noexcept;

/// The kernel's verdict on one input record.
struct ScoredRecord {
  robustness::SanitizeAction action = robustness::SanitizeAction::kClean;
  trace::ViolationKind kind{};  ///< first violation (valid when action != kClean)
  float score = 0.0f;           ///< finite model score; 0 when not scored
  bool alert = false;           ///< score >= threshold; never without a model

  /// Survived sanitization: it has a feature row (and a score under a model).
  [[nodiscard]] bool accepted() const noexcept {
    return action == robustness::SanitizeAction::kClean ||
           action == robustness::SanitizeAction::kRepaired;
  }
};

/// One batch's outcome.  Owned by the ScoringShard and overwritten by its
/// next score() call.
struct ScoredBatch {
  std::vector<ScoredRecord> records;  ///< one per input record, in input order
  ml::Matrix features;                ///< one row per accepted record, in input order
  std::vector<trace::DailyRecord> sanitized;  ///< the record behind features.row(k)
  std::uint64_t alerts = 0;
  std::uint64_t non_finite = 0;       ///< scores clamped to 1.0

  [[nodiscard]] std::size_t accepted() const noexcept { return sanitized.size(); }
};

class ScoringShard {
 public:
  ScoringShard(double threshold, robustness::SanitizerConfig sanitizer_config);

  /// Run `batch` through sanitize -> features -> predict -> clamp ->
  /// threshold.  `model` may be null: records are still sanitized and
  /// their cursors advanced, but nothing is scored or alerted.  Never
  /// throws on bad data.
  const ScoredBatch& score(std::span<const FleetObservation> batch,
                           const ml::Classifier* model);

  /// Forget a drive (it was swapped out): its next record starts fresh
  /// state.  Returns whether the drive had a cursor.
  bool retire(std::uint64_t uid);

  [[nodiscard]] std::size_t drives_tracked() const noexcept { return cursors_.size(); }
  [[nodiscard]] const robustness::RecordSanitizer& sanitizer() const noexcept {
    return sanitizer_;
  }

  /// Order-independent digest of every drive's feature cursor.
  [[nodiscard]] std::uint64_t cursor_digest() const noexcept;

 private:
  double threshold_;
  robustness::RecordSanitizer sanitizer_;
  std::unordered_map<std::uint64_t, DriveFeatureCursor> cursors_;
  std::vector<float> row_;  ///< scratch feature row
  ScoredBatch out_;
};

}  // namespace ssdfail::core
