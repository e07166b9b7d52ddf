#include "daemon/health.hpp"

#include "stats/rng.hpp"

namespace ssdfail::daemon {

std::string_view health_state_name(HealthState state) noexcept {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kRamping: return "ramping";
    case HealthState::kAlert: return "alert";
    case HealthState::kSwapped: return "swapped";
  }
  return "unknown";
}

HealthTracker::HealthTracker(HealthConfig config, obs::MetricsRegistry* registry)
    : config_(config), registry_(registry) {
  if (registry_ == nullptr) return;
  for (std::size_t s = 0; s < kNumHealthStates; ++s) {
    state_gauges_[s] = &registry_->gauge(
        "daemon_drive_health",
        {{"state", std::string(health_state_name(static_cast<HealthState>(s)))}},
        "Tracked drives currently in each health state");
  }
  // Transition edges are interned on demand (most never fire); see
  // transition().
}

void HealthTracker::transition(DriveHealth& drive, HealthState to) {
  const HealthState from = drive.state;
  if (from == to) return;
  --counts_[static_cast<std::size_t>(from)];
  ++counts_[static_cast<std::size_t>(to)];
  drive.state = to;
  drive.ramp_streak = 0;
  drive.alert_streak = 0;
  drive.quiet_streak = 0;
  if (registry_ != nullptr) {
    // Shards share one gauge family, so mirror with deltas (atomic add),
    // never set().
    state_gauges_[static_cast<std::size_t>(from)]->add(-1.0);
    state_gauges_[static_cast<std::size_t>(to)]->add(1.0);
    obs::Counter*& edge =
        transition_counters_[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)];
    if (edge == nullptr) {
      edge = &registry_->counter(
          "daemon_health_transitions_total",
          {{"from", std::string(health_state_name(from))},
           {"to", std::string(health_state_name(to))}},
          "Health state machine transitions by edge");
    }
    edge->inc();
  }
}

HealthState HealthTracker::observe(std::uint64_t uid, double score, bool suspect,
                                   bool dead) {
  auto [it, inserted] = drives_.try_emplace(uid);
  DriveHealth& drive = it->second;
  if (inserted) {
    ++counts_[static_cast<std::size_t>(HealthState::kHealthy)];
    if (registry_ != nullptr)
      state_gauges_[static_cast<std::size_t>(HealthState::kHealthy)]->add(1.0);
  }
  if (drive.state == HealthState::kSwapped) return drive.state;
  if (dead) {
    transition(drive, HealthState::kSwapped);
    return drive.state;
  }

  const bool alert_strike = score >= config_.alert_threshold;
  // A sanitizer violation is evidence of trouble even when the score is
  // calm: count it as a ramp-tier strike.
  const bool ramp_strike = alert_strike || suspect || score >= config_.ramp_threshold;

  if (alert_strike) {
    ++drive.alert_streak;
  } else {
    drive.alert_streak = 0;
  }
  if (ramp_strike) {
    ++drive.ramp_streak;
    drive.quiet_streak = 0;
  } else {
    drive.ramp_streak = 0;
    ++drive.quiet_streak;
  }

  switch (drive.state) {
    case HealthState::kHealthy:
      if (drive.alert_streak >= config_.alert_days) {
        transition(drive, HealthState::kAlert);
      } else if (drive.ramp_streak >= config_.ramp_days) {
        transition(drive, HealthState::kRamping);
      }
      break;
    case HealthState::kRamping:
      if (drive.alert_streak >= config_.alert_days) {
        transition(drive, HealthState::kAlert);
      } else if (drive.quiet_streak >= config_.cooloff_days) {
        transition(drive, HealthState::kHealthy);
      }
      break;
    case HealthState::kAlert:
      if (drive.quiet_streak >= config_.cooloff_days) {
        transition(drive, HealthState::kRamping);
      }
      break;
    case HealthState::kSwapped:
      break;  // unreachable: handled above
  }
  return drive.state;
}

void HealthTracker::retire(std::uint64_t uid) {
  auto [it, inserted] = drives_.try_emplace(uid);
  if (inserted) {
    ++counts_[static_cast<std::size_t>(HealthState::kHealthy)];
    if (registry_ != nullptr)
      state_gauges_[static_cast<std::size_t>(HealthState::kHealthy)]->add(1.0);
  }
  transition(it->second, HealthState::kSwapped);
}

std::size_t HealthTracker::reset_strikes() {
  std::size_t cleared = 0;
  for (auto& [uid, drive] : drives_) {
    (void)uid;
    if (drive.state == HealthState::kSwapped) continue;  // terminal, no streaks matter
    if (drive.ramp_streak == 0 && drive.alert_streak == 0 && drive.quiet_streak == 0)
      continue;
    drive.ramp_streak = 0;
    drive.alert_streak = 0;
    drive.quiet_streak = 0;
    ++cleared;
  }
  return cleared;
}

HealthState HealthTracker::state(std::uint64_t uid) const noexcept {
  const auto it = drives_.find(uid);
  return it == drives_.end() ? HealthState::kHealthy : it->second.state;
}

std::uint64_t HealthTracker::digest() const noexcept {
  // Order-independent: hash each drive's tuple with FNV-1a, combine by sum
  // so unordered_map iteration order cannot leak into the digest.
  std::uint64_t total = 0;
  for (const auto& [uid, drive] : drives_) {
    std::uint64_t h = stats::fnv1a_mix(stats::kFnv1aInit, uid);
    h = stats::fnv1a_mix(h, static_cast<std::uint64_t>(drive.state));
    h = stats::fnv1a_mix(
        h, (static_cast<std::uint64_t>(drive.ramp_streak) << 32) | drive.alert_streak);
    total += stats::fnv1a_mix(h, drive.quiet_streak);
  }
  return total;
}

}  // namespace ssdfail::daemon
