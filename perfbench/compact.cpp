// compact: one operation is daemon::compact_sealed_wals (keep_wal) into a
// fresh store directory.  Its input is a fixed set of sealed WAL files
// that setup writes through daemon::WalWriter at a fixed batch size, so
// every run compacts the same records (a live daemon would rotate on
// appender timing).  This is the only workload that runs WAL replay (the
// replay restart recovery uses), the compactor and the v3 encoder; it
// writes what scan reads.

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "core/dataset_builder.hpp"
#include "daemon/compactor.hpp"
#include "daemon/wal.hpp"
#include "obs/trace_span.hpp"
#include "stats/rng.hpp"
#include "store/columnar.hpp"

namespace perfbench {
namespace {

using namespace ssdfail;
namespace fs = std::filesystem;

constexpr int kSetupRepeats = 5;  // set-up takes about 0.1 s; five steady its median
constexpr int kWarmupOps = 2;
constexpr std::size_t kMinOps = 100;
constexpr std::uint32_t kDrivesPerModel = 2000;
constexpr std::int32_t kWindowDays = 60;
constexpr std::uint32_t kWalShards = 2;
constexpr std::size_t kBatch = 512;  ///< records per WAL segment
constexpr std::uint64_t kSealBytes = 4u << 20;

/// The histories the compactor reconstructs from the stream setup writes:
/// drives that reported at least once, each swap pinned to the drive's
/// last record on or before the swap day (a retire replays onto the last
/// replayed day), repeated pins dropped.
trace::FleetTrace compacted_view(const trace::FleetTrace& fleet) {
  trace::FleetTrace out;
  for (const trace::DriveHistory& d : fleet.drives) {
    if (d.records.empty()) continue;
    trace::DriveHistory h;
    h.model = d.model;
    h.drive_index = d.drive_index;
    h.deploy_day = d.deploy_day;
    h.records = d.records;
    for (const trace::SwapEvent& swap : d.swaps) {
      const auto it = std::upper_bound(
          h.records.begin(), h.records.end(), swap.day,
          [](std::int32_t day, const trace::DailyRecord& r) { return day < r.day; });
      if (it == h.records.begin()) continue;
      const std::int32_t pinned = std::prev(it)->day;
      if (!h.swaps.empty() && pinned <= h.swaps.back().day) continue;
      h.swaps.push_back({pinned});
    }
    out.drives.push_back(std::move(h));
  }
  return out;
}

/// Write the fleet's day-ordered stream as sealed WAL files: records
/// routed to shards the way the daemon routes them, appended in batches
/// of kBatch; at the end of a day a shard flushes its batch and logs that
/// day's retires; a file is sealed once it passes kSealBytes.
void write_sealed_wals(const trace::FleetTrace& fleet, const std::string& wal_dir) {
  fs::remove_all(wal_dir);
  fs::create_directories(wal_dir);
  std::map<std::int32_t, std::vector<std::uint64_t>> retires_by_day;
  for (const trace::DriveHistory& d : fleet.drives)
    for (const trace::SwapEvent& s : d.swaps) retires_by_day[s.day].push_back(d.uid());

  struct Shard {
    std::unique_ptr<daemon::WalWriter> writer;
    std::vector<core::FleetObservation> batch;
    std::vector<std::uint64_t> retires;
  };
  std::vector<Shard> shards(kWalShards);
  const auto open = [&](std::uint32_t s, std::uint64_t first_seq) {
    shards[s].writer = std::make_unique<daemon::WalWriter>(
        daemon::wal_path(wal_dir, s), s, daemon::FsyncPolicy::kNever, first_seq);
  };
  const auto seal = [&](std::uint32_t s) {
    daemon::WalWriter& w = *shards[s].writer;
    const std::uint64_t next = w.next_seq();
    w.seal(daemon::sealed_wal_path(wal_dir, s, next - 1));
    open(s, next);
  };
  const auto flush = [&](std::uint32_t s) {
    Shard& shard = shards[s];
    if (!shard.batch.empty()) shard.writer->append(shard.batch);
    shard.batch.clear();
    if (!shard.retires.empty()) shard.writer->append_retires(shard.retires);
    shard.retires.clear();
    if (shard.writer->bytes_written() >= kSealBytes) seal(s);
  };
  const auto shard_of = [](std::uint64_t uid) {
    return static_cast<std::uint32_t>(stats::hash_keys({uid}) % kWalShards);
  };
  for (std::uint32_t s = 0; s < kWalShards; ++s) open(s, 1);

  const std::vector<core::FleetObservation> stream = day_ordered_stream(fleet);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const core::FleetObservation& obs = stream[i];
    Shard& shard = shards[shard_of(obs.uid())];
    shard.batch.push_back(obs);
    if (shard.batch.size() == kBatch) flush(shard_of(obs.uid()));
    const bool day_ends = i + 1 == stream.size() || stream[i + 1].record.day != obs.record.day;
    if (!day_ends) continue;
    const auto due = retires_by_day.find(obs.record.day);
    if (due == retires_by_day.end()) continue;
    for (const std::uint64_t uid : due->second) shards[shard_of(uid)].retires.push_back(uid);
    for (std::uint32_t s = 0; s < kWalShards; ++s)
      if (!shards[s].retires.empty()) flush(s);
  }
  for (std::uint32_t s = 0; s < kWalShards; ++s) {
    flush(s);
    if (shards[s].writer->segments_written() > 0) seal(s);
    shards[s].writer.reset();
    fs::remove(daemon::wal_path(wal_dir, s));
  }
}

/// Every row the store yields, so the digest covers every feature.
core::DatasetBuildOptions digest_options() {
  core::DatasetBuildOptions options;
  options.lookahead_days = 7;
  options.negative_keep_prob = 1.0;
  return options;
}

}  // namespace

Outcome run_compact(const Options& options) {
  // The operation runs on the calling thread.  A 1-wide pool keeps the
  // output check's dataset build there too: built on four pool workers, it
  // spread free chunks over their malloc arenas, and the next operations'
  // peaks rose from 30 to 58 MB over a run, ending at a different level in
  // every run (run medians 46-63 MB).  On one thread each operation peaks
  // at the same 21-23 MB.
  parallel::set_default_thread_count(1);
  parallel::ThreadPool& pool = parallel::ThreadPool::global();
  const std::string wal_dir = options.work_dir + "/compact_wal";
  const std::string store_dir = options.work_dir + "/compact_store";
  const std::string direct_path = options.work_dir + "/compact_direct.ssdf2";
  store::ColumnarWriteOptions v3;
  v3.version = store::kColumnarVersionV3;

  // Set-up leaves only files, so it runs in a child process (see
  // run_in_child) on a pool of its own, and reports its time and the
  // record count.
  std::size_t records = 0;
  double setup_s = 0.0;
  {
    std::istringstream report(run_in_child([&] {
      parallel::ThreadPool generation_pool(options.nproc);
      const double seconds = timed_setup(options.trace ? 1 : kSetupRepeats, [&] {
        sim::FleetConfig config;
        config.drives_per_model = kDrivesPerModel;
        config.window_days = kWindowDays;
        config.seed = options.seed;
        config.keep_ground_truth = false;
        const trace::FleetTrace fleet = compacted_view(generate_fleet(config, generation_pool));
        write_sealed_wals(fleet, wal_dir);
        store::write_columnar_file(direct_path, fleet, v3);
        records = fleet.total_records();
      });
      std::ostringstream out;
      out.precision(17);
      out << seconds << ' ' << records;
      return out.str();
    }));
    report >> setup_s >> records;
    if (!report) throw std::runtime_error("compact: unreadable set-up report");
  }
  const std::uint64_t direct_bytes = file_digest(direct_path);
  const std::uint64_t direct_rows =
      dataset_digest(core::build_dataset(store::ColumnarFleetView::open(direct_path),
                                         digest_options()));
  const std::size_t wal_files = daemon::list_sealed_wals(wal_dir).size();

  Outcome out;
  out.config = {{"threads", "1"},
                {"pool_size", std::to_string(pool.size())},
                {"wal_shards", std::to_string(kWalShards)},
                {"wal_files", std::to_string(wal_files)},
                {"records", std::to_string(records)},
                {"drives_per_model", std::to_string(kDrivesPerModel)}};

  daemon::CompactorOptions compactor;
  compactor.keep_wal = true;
  daemon::CompactionResult last;
  const auto compact = [&] {
    fs::remove_all(store_dir);
    const auto start = Clock::now();
    last = daemon::compact_sealed_wals(wal_dir, store_dir, compactor);
    return seconds_since(start);
  };
  const auto check = [&] {
    const std::string shard = store_dir + "/" + last.shard_file;
    return last.records == records && last.out_of_order_dropped == 0 &&
           file_digest(shard) == direct_bytes &&
           dataset_digest(core::build_dataset(store::ColumnarFleetView::open(shard),
                                              digest_options())) == direct_rows;
  };
  const auto untraced_op = [&]() -> OpResult {
    return {compact(), static_cast<double>(records)};
  };

  if (!options.trace) {
    const LoopStats loop =
        closed_loop(options.seconds, kWarmupOps, kMinOps, untraced_op, check);
    if (options.seconds <= 0.0) {
      out.attempted = loop.attempted;
      return out;
    }
    add_end_to_end(out, loop,
                   static_cast<double>(last.shard_bytes_out) / static_cast<double>(records),
                   setup_s);
    return out;
  }

  // Traced run: the operation itself, then its two big layers replayed
  // through the public calls — WAL replay into per-drive histories the way
  // the compactor folds them, and the v3 encode of those histories.  The
  // rest of the operation (manifest, file write, bookkeeping) is the
  // difference.
  const std::string kRoot = "perfbench.compact.op", kCompact = "perfbench.daemon.compact",
                    kReplay = "perfbench.daemon.replay", kEncode = "perfbench.store.encode";
  const obs::SiteId root_site = obs::intern_site(kRoot),
                    compact_site = obs::intern_site(kCompact),
                    replay_site = obs::intern_site(kReplay),
                    encode_site = obs::intern_site(kEncode);
  std::vector<double> compact_s, replay_s, encode_s, untraced_s;
  for (int i = 0; i < kWarmupOps; ++i) {
    (void)untraced_op();
    if (!check())
      throw CheckFailure("compact: compacted shard differs from the direct v3 store");
  }
  enable_tracing(true);  // the collector holds the timed phase only
  const auto start = Clock::now();
  while (seconds_since(start) < options.seconds || compact_s.size() < 3) {
    const OpResult plain = untraced_op();
    if (!check()) throw CheckFailure("compact: compacted shard differs from the direct v3 store");
    untraced_s.push_back(plain.seconds);

    fs::remove_all(store_dir);
    const SpanWindow window;
    {
      obs::Span op(root_site);
      {
        obs::Span s(compact_site);
        last = daemon::compact_sealed_wals(wal_dir, store_dir, compactor);
      }
      trace::FleetTrace fleet;
      {
        obs::Span s(replay_site);
        std::map<std::uint64_t, trace::DriveHistory> drives;
        const auto fold = [&drives](const daemon::WalSegment& segment) {
          for (const core::FleetObservation& obs : segment.records) {
            trace::DriveHistory& d = drives[obs.uid()];
            if (d.records.empty()) {
              d.model = obs.drive_model;
              d.drive_index = obs.drive_index;
              d.deploy_day = obs.deploy_day;
            }
            if (d.records.empty() || obs.record.day > d.records.back().day)
              d.records.push_back(obs.record);
          }
          for (const std::uint64_t uid : segment.retired_uids) {
            const auto it = drives.find(uid);
            if (it == drives.end() || it->second.records.empty()) continue;
            const std::int32_t day = it->second.records.back().day;
            if (it->second.swaps.empty() || day > it->second.swaps.back().day)
              it->second.swaps.push_back({day});
          }
        };
        for (const std::string& path : daemon::list_sealed_wals(wal_dir))
          (void)daemon::replay_wal(path, fold);
        fleet.drives.reserve(drives.size());
        for (auto& [uid, drive] : drives) fleet.drives.push_back(std::move(drive));
      }
      {
        obs::Span s(encode_site);
        std::ostringstream encoded;
        store::write_columnar(encoded, fleet, v3);
      }
      if (fleet.total_records() != records)
        throw CheckFailure("compact: traced replay lost records");
    }
    if (!check()) throw CheckFailure("compact: traced compaction differs from the direct store");
    compact_s.push_back(window.seconds(kCompact));
    replay_s.push_back(window.seconds(kReplay));
    encode_s.push_back(window.seconds(kEncode));
  }
  const double coverage = trace_coverage(kRoot, {kCompact, kReplay, kEncode});
  check_coverage(coverage, "compact");
  write_trace(options.work_dir + "/trace-compact.json");

  const double n = static_cast<double>(records);
  const double replay = median(replay_s), encode = median(encode_s);
  out.attempted = untraced_s.size() + compact_s.size();
  const std::map<std::string, double> layer = {
      {"daemon.replay_ns_per_record", 1e9 * replay / n},
      {"store.encode_ns_per_record", 1e9 * encode / n},
      {"daemon.compact_rest_ns_per_record", 1e9 * (median(compact_s) - replay - encode) / n},
      {"daemon.wal_bytes_in_per_record", static_cast<double>(last.wal_bytes_in) / n},
      {"bench.trace_coverage", coverage},
      {"bench.trace_overhead", median(compact_s) / median(untraced_s)},
  };
  add_layer_metrics(out, layer);
  out.note("traced operations: " + std::to_string(compact_s.size()));
  return out;
}

}  // namespace perfbench
