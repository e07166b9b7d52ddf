#pragma once

// Per-drive health state machine for the streaming daemon.
//
// The paper's operational loop is exactly this: watch each drive's
// telemetry, raise it through escalating attention tiers as the model's
// failure probability and the symptom stream worsen, and record the swap
// when the operator pulls it.  States:
//
//   kHealthy --> kRamping --> kAlert --> kSwapped (terminal)
//        ^___________|            |
//        ^________________________|   (cool-off de-escalates one tier)
//
// Escalation demands `ramp_days` / `alert_days` CONSECUTIVE days at or
// above the matching score threshold (a sanitizer violation counts as a
// ramp-tier strike — a drive whose telemetry needs repair is not healthy),
// so a single noisy score cannot page anyone.  De-escalation demands
// `cooloff_days` consecutive quiet days, so a flapping drive stays at its
// tier.  A dead record or an explicit retire() jumps straight to kSwapped.
//
// Everything is driven by observation days, scores, and verdicts — never
// the wall clock — so replaying the WAL reproduces the exact same state
// trajectory (the recovery bit-identity tests rely on this).
//
// NOT thread-safe: the daemon owns one tracker per shard, touched only by
// that shard's appender thread.  The registry mirrors (gauges/counters)
// are themselves atomic, so scrapes see consistent totals across shards.

#include <array>
#include <cstdint>
#include <string_view>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace ssdfail::daemon {

enum class HealthState : std::uint8_t {
  kHealthy = 0,
  kRamping,  ///< sustained elevated risk; watch closely
  kAlert,    ///< sustained high risk; migrate data / schedule swap
  kSwapped,  ///< drive retired or reported dead (terminal)
};

inline constexpr std::size_t kNumHealthStates = 4;

[[nodiscard]] std::string_view health_state_name(HealthState state) noexcept;

struct HealthConfig {
  double ramp_threshold = 0.5;   ///< score at/above which a day is a ramp strike
  double alert_threshold = 0.9;  ///< score at/above which a day is an alert strike
  std::uint32_t ramp_days = 3;   ///< consecutive ramp strikes to enter kRamping
  std::uint32_t alert_days = 2;  ///< consecutive alert strikes to enter kAlert
  std::uint32_t cooloff_days = 7;  ///< consecutive quiet days to step down a tier
};

class HealthTracker {
 public:
  /// `registry` may be null (no metric mirroring; the unit tests use
  /// this).  The daemon's shards always pass their registry, recovery
  /// replay included: the daemon_drive_health gauges must count the drives
  /// that replay puts in each state, or a restarted daemon's gauges would
  /// miss every replayed drive.
  explicit HealthTracker(HealthConfig config, obs::MetricsRegistry* registry);

  /// Fold one scored observation for `uid` into its state machine.
  /// `suspect` marks a sanitizer verdict other than clean; `dead` is the
  /// record's dead flag.  Returns the state after the transition (if any).
  HealthState observe(std::uint64_t uid, double score, bool suspect, bool dead);

  /// Operator swapped the drive out: terminal state, further observations
  /// for the uid are ignored.
  void retire(std::uint64_t uid);

  /// Clear every drive's consecutive-strike counters (ramp/alert/quiet
  /// streaks) while keeping its state.  Called when the serving model is
  /// promoted: strikes accumulated under the old champion's score scale
  /// must not carry over into post-promotion escalation — the new model
  /// has to re-earn each escalation with its own consecutive days.  States
  /// persist (an alerted drive stays alerted; it de-escalates only through
  /// the usual cool-off, now counted from zero).  Returns the number of
  /// drives whose streaks were cleared (non-terminal drives with any
  /// non-zero streak).
  std::size_t reset_strikes();

  [[nodiscard]] HealthState state(std::uint64_t uid) const noexcept;
  /// Number of tracked drives currently in each state.
  [[nodiscard]] std::array<std::uint64_t, kNumHealthStates> counts() const noexcept {
    return counts_;
  }
  [[nodiscard]] std::size_t tracked_drives() const noexcept { return drives_.size(); }

  /// Order-independent digest of (uid, state, streaks) — the recovery
  /// tests fold this into the daemon's state digest.
  [[nodiscard]] std::uint64_t digest() const noexcept;

 private:
  struct DriveHealth {
    HealthState state = HealthState::kHealthy;
    std::uint32_t ramp_streak = 0;
    std::uint32_t alert_streak = 0;
    std::uint32_t quiet_streak = 0;
  };

  void transition(DriveHealth& drive, HealthState to);

  HealthConfig config_;
  std::unordered_map<std::uint64_t, DriveHealth> drives_;
  std::array<std::uint64_t, kNumHealthStates> counts_{};
  /// Gauge per state (daemon_drive_health{state=...}) and counter per
  /// transition edge, interned lazily; null when metrics are off.
  obs::MetricsRegistry* registry_ = nullptr;
  std::array<obs::Gauge*, kNumHealthStates> state_gauges_{};
  std::array<std::array<obs::Counter*, kNumHealthStates>, kNumHealthStates>
      transition_counters_{};
};

}  // namespace ssdfail::daemon
