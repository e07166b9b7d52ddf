#include "core/chunk_scorer.hpp"

#include <stdexcept>

#include "core/features.hpp"
#include "obs/trace_span.hpp"

namespace ssdfail::core {

FleetScores predict_chunk(const ml::FlatForest& engine,
                          const store::ColumnarFleetView& view,
                          parallel::ThreadPool& pool) {
  static const obs::SiteId kSite = obs::intern_site("chunk_scorer.predict");
  obs::Span span(kSite);
  if (engine.empty()) throw std::logic_error("predict_chunk: empty engine");
  if (engine.n_features() != FeatureExtractor::count())
    throw std::invalid_argument("predict_chunk: engine feature count mismatch");

  // Storage-order offsets: chunk c's records land at [offsets[c],
  // offsets[c + 1]) regardless of which worker scores them.
  const std::size_t n_chunks = view.chunk_count();
  std::vector<std::size_t> offsets(n_chunks + 1, 0);
  for (std::size_t c = 0; c < n_chunks; ++c)
    offsets[c + 1] = offsets[c] + view.zone_map(c).n_records;

  FleetScores out;
  out.uid.resize(offsets[n_chunks]);
  out.day.resize(offsets[n_chunks]);
  out.score.resize(offsets[n_chunks]);

  parallel::parallel_for(
      n_chunks,
      [&](std::size_t c) {
        const store::ChunkView& chunk = view.chunk(c);
        const std::size_t n_features = FeatureExtractor::count();
        std::size_t cursor = offsets[c];
        trace::DriveHistory header;  // deploy metadata for extract
        for (const store::DriveRef& ref : chunk.drives) {
          header.deploy_day = ref.deploy_day;
          ml::Matrix rows(ref.row_count, n_features);
          FeatureExtractor::State state;
          for (std::size_t i = 0; i < ref.row_count; ++i) {
            const trace::DailyRecord rec = chunk.record(ref.row_begin + i);
            FeatureExtractor::advance(state, rec);
            FeatureExtractor::extract(header, rec, state, rows.row(i));
            out.uid[cursor + i] = ref.uid();
            out.day[cursor + i] = rec.day;
          }
          engine.predict_into(rows, 0, ref.row_count, out.score.data() + cursor);
          cursor += ref.row_count;
        }
      },
      pool);
  return out;
}

}  // namespace ssdfail::core
