#pragma once

// Online record sanitization for the ingestion -> scoring hot path.
//
// trace/validation.hpp can *report* violations offline; this class applies
// the same ViolationKind taxonomy per incoming record, in stream order,
// and decides what the scoring service does about each one:
//
//   repair      — counter regressions (P/E, bad blocks) clamp to the
//                 last-good cumulative value, a wandering factory-bad-block
//                 count is pinned to its first observation, and erase
//                 activity on a zero-write day is zeroed.  The repaired
//                 copy is scored.
//   drop        — an exact same-day duplicate of the last accepted record
//                 is silently discarded (scoring it twice would double the
//                 cumulative feature state).
//   quarantine  — irreparable records (out-of-order or conflicting days,
//                 records before deploy, saturated counter garbage) are
//                 routed to a bounded dead-letter queue with per-kind
//                 counters and never reach the model.
//
// The sanitizer never throws on data; accepted records are guaranteed to
// reach the feature cursors in strictly increasing day order.  One
// instance is the first stage of one core::ScoringShard (one daemon
// shard): it is NOT thread-safe, the shard's owner provides exclusion.

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "trace/validation.hpp"

namespace ssdfail::robustness {

struct SanitizerConfig {
  /// Max records held in this sanitizer's dead-letter queue.  When full, a
  /// new quarantine EVICTS the oldest entry (the queue keeps the most
  /// recent violations — the ones an operator can still act on); every
  /// eviction is counted and mirrored to the registry, never silent.
  std::size_t dead_letter_capacity = 64;
  /// Registry to mirror counters into as process-wide families
  /// (`sanitizer_repaired_total{kind=...}` etc. — no per-shard labels;
  /// shards sharing a registry share children).  Null disables mirroring;
  /// the daemon fills this in with its registry.
  obs::MetricsRegistry* registry = nullptr;
};

enum class SanitizeAction : std::uint8_t {
  kClean,            ///< untouched — score it
  kRepaired,         ///< mutated copy — score it
  kDuplicateDropped, ///< exact same-day duplicate — skip silently
  kQuarantined,      ///< irreparable — dead-lettered, never scored
};

struct SanitizeResult {
  SanitizeAction action = SanitizeAction::kClean;
  trace::DailyRecord record;   ///< record to score (valid for kClean/kRepaired)
  trace::ViolationKind kind{}; ///< first violation seen (action != kClean)
};

/// A quarantined record with enough context to triage it offline.
struct DeadLetter {
  std::uint64_t drive_uid = 0;
  trace::ViolationKind kind{};
  trace::DailyRecord record;
};

/// Mergeable point-in-time counters (one block per scoring shard, summed by
/// TelemetryDaemon::sanitizer()).
struct SanitizerSnapshot {
  std::array<std::uint64_t, trace::kNumViolationKinds> repaired{};
  std::array<std::uint64_t, trace::kNumViolationKinds> quarantined{};
  std::uint64_t records_repaired = 0;     ///< scored after >=1 repair
  std::uint64_t records_quarantined = 0;  ///< dead-lettered (counted even past capacity)
  std::uint64_t duplicates_dropped = 0;   ///< exact same-day duplicates skipped
  std::uint64_t dead_letter_overflow = 0; ///< quarantines that arrived at a full queue
  std::uint64_t dead_letter_evicted = 0;  ///< oldest payloads dropped to admit newer ones
  std::vector<DeadLetter> dead_letters;   ///< bounded queue (most recent quarantines)

  void merge(const SanitizerSnapshot& other);
};

class RecordSanitizer {
 public:
  explicit RecordSanitizer(SanitizerConfig config = {});

  /// Classify (and possibly repair) one record for `drive_uid`.  Updates
  /// the drive's last-good state only when the record is accepted.
  [[nodiscard]] SanitizeResult sanitize(std::uint64_t drive_uid,
                                        std::int32_t deploy_day,
                                        const trace::DailyRecord& record);

  /// Forget a drive's last-good state (it was retired/swapped out).
  void forget(std::uint64_t drive_uid);

  [[nodiscard]] SanitizerSnapshot snapshot() const;

 private:
  struct DriveState {
    trace::DailyRecord last;          ///< last accepted (possibly repaired) record
    std::uint16_t factory_bad_blocks = 0;  ///< pinned first observation
  };

  void quarantine(std::uint64_t drive_uid, trace::ViolationKind kind,
                  const trace::DailyRecord& record);

  /// Registry mirror of counters_ (null entries when config_.registry is
  /// null).  Interned eagerly so exposition shows every kind at 0.
  struct Mirror {
    std::array<obs::Counter*, trace::kNumViolationKinds> repaired{};
    std::array<obs::Counter*, trace::kNumViolationKinds> quarantined{};
    obs::Counter* duplicates_dropped = nullptr;
    obs::Counter* dead_letter_overflow = nullptr;
    obs::Counter* dead_letter_evicted = nullptr;
  };

  SanitizerConfig config_;
  Mirror mirror_;
  std::unordered_map<std::uint64_t, DriveState> drives_;
  SanitizerSnapshot counters_;
};

}  // namespace ssdfail::robustness
