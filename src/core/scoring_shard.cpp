#include "core/scoring_shard.hpp"

#include <cmath>

#include "stats/rng.hpp"

namespace ssdfail::core {

std::size_t shard_of(std::uint64_t uid, std::size_t shards) noexcept {
  return static_cast<std::size_t>(stats::hash_keys({uid}) % shards);
}

ScoringShard::ScoringShard(double threshold, robustness::SanitizerConfig sanitizer_config)
    : threshold_(threshold),
      sanitizer_(sanitizer_config),
      row_(FeatureExtractor::count()) {}

const ScoredBatch& ScoringShard::score(std::span<const FleetObservation> batch,
                                       const ml::Classifier* model) {
  out_.records.assign(batch.size(), ScoredRecord{});
  out_.features.clear();
  out_.sanitized.clear();
  out_.alerts = 0;
  out_.non_finite = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const FleetObservation& obs = batch[i];
    const std::uint64_t uid = obs.uid();
    const robustness::SanitizeResult clean =
        sanitizer_.sanitize(uid, obs.deploy_day, obs.record);
    ScoredRecord& r = out_.records[i];
    r.action = clean.action;
    r.kind = clean.kind;
    if (!r.accepted()) continue;
    const auto it = cursors_.try_emplace(uid, obs.drive_model, obs.deploy_day).first;
    // The sanitizer guarantees strictly increasing days per uid, so the
    // cursor's day-order check cannot throw here.
    it->second.advance_and_extract(clean.record, row_);
    out_.features.push_row(row_);
    out_.sanitized.push_back(clean.record);
  }
  if (model == nullptr || out_.accepted() == 0) return out_;

  const std::vector<float> scores = model->predict_proba(out_.features);
  std::size_t k = 0;
  for (ScoredRecord& r : out_.records) {
    if (!r.accepted()) continue;
    r.score = scores[k++];
    if (!std::isfinite(r.score)) {
      r.score = 1.0f;
      ++out_.non_finite;
    }
    r.alert = r.score >= threshold_;
    if (r.alert) ++out_.alerts;
  }
  return out_;
}

bool ScoringShard::retire(std::uint64_t uid) {
  sanitizer_.forget(uid);
  return cursors_.erase(uid) > 0;
}

std::uint64_t ScoringShard::cursor_digest() const noexcept {
  using stats::fnv1a_mix;
  std::uint64_t total = 0;
  for (const auto& [uid, cursor] : cursors_) {
    std::uint64_t h = fnv1a_mix(stats::kFnv1aInit, uid);
    h = fnv1a_mix(h, static_cast<std::uint32_t>(cursor.last_day()));
    h = fnv1a_mix(h, cursor.days_observed());
    const FeatureExtractor::State& st = cursor.state();
    h = fnv1a_mix(h, st.cum.reads);
    h = fnv1a_mix(h, st.cum.writes);
    h = fnv1a_mix(h, st.cum.erases);
    for (std::uint64_t e : st.cum.errors) h = fnv1a_mix(h, e);
    h = fnv1a_mix(h, st.cum_bad_blocks);
    total += fnv1a_mix(
        h, (static_cast<std::uint64_t>(st.prev_bad_blocks) << 32) | st.new_bad_blocks_today);
  }
  return total;
}

}  // namespace ssdfail::core
