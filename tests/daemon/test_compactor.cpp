// WAL rotation + WAL->v3 compaction tests: the seal/rotate path on the
// writer, daemon recovery across sealed + active files, and the compactor
// turning sealed segments into manifest-published v3 shards that the
// dataset pipeline can open and scan.

#include "daemon/compactor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "core/dataset_builder.hpp"
#include "core/scoring_shard.hpp"
#include "daemon/daemon.hpp"
#include "daemon/wal.hpp"
#include "daemon_test_util.hpp"
#include "stats/rng.hpp"
#include "store/sharded.hpp"

namespace ssdfail::daemon {
namespace {

using testing::StubModel;
using testing::TempDir;
using testing::make_stream;

std::size_t sealed_count(const std::string& dir) {
  return list_sealed_wals(dir).size();
}

// ---------------------------------------------------------------------------
// WalWriter seal/rotation primitives
// ---------------------------------------------------------------------------

TEST(WalRotation, SealRenamesAndChainContinues) {
  TempDir dir("seal");
  const std::string active = wal_path(dir.path(), 0);
  const auto stream = make_stream(2, 4);

  std::uint64_t next_seq = 0;
  {
    WalWriter writer(active, 0, FsyncPolicy::kNever);
    writer.append(std::span<const core::FleetObservation>(stream.data(), 4));
    writer.append(std::span<const core::FleetObservation>(stream.data() + 4, 4));
    next_seq = writer.next_seq();
    writer.seal(sealed_wal_path(dir.path(), 0, next_seq - 1));
  }
  EXPECT_FALSE(std::filesystem::exists(active));
  ASSERT_EQ(sealed_count(dir.path()), 1u);

  // The fresh active file continues the seq chain.
  WalWriter fresh(active, 0, FsyncPolicy::kNever, next_seq);
  const std::uint64_t seq =
      fresh.append(std::span<const core::FleetObservation>(stream.data(), 2));
  EXPECT_EQ(seq, next_seq);

  // Replaying sealed then active yields strictly increasing seqs.
  std::uint64_t last = 0;
  const auto check = [&](const WalSegment& seg) {
    EXPECT_GT(seg.seq, last);
    last = seg.seq;
  };
  for (const auto& path : list_sealed_wals(dir.path())) replay_wal(path, check);
  replay_wal(active, check);
  EXPECT_EQ(last, seq);
}

TEST(WalRotation, SealedNamesSortInSeqOrder) {
  TempDir dir("order");
  // Seq 9 vs 10 would invert under naive string order; the zero-padded
  // name must keep lexicographic == numeric.
  const std::string a = sealed_wal_path(dir.path(), 0, 9);
  const std::string b = sealed_wal_path(dir.path(), 0, 10);
  EXPECT_LT(a, b);
}

TEST(WalRotation, DaemonRotatesAndRecoversAcrossSealedFiles) {
  TempDir dir("rotate");
  obs::MetricsRegistry registry;
  DaemonConfig cfg;
  cfg.shards = 1;
  cfg.wal_dir = dir.path();
  cfg.fsync = FsyncPolicy::kNever;
  cfg.registry = &registry;
  cfg.wal_rotate_bytes = 512;  // tiny: force several rotations
  const auto stream = make_stream(4, 25);

  std::uint64_t live_digest = 0;
  {
    TelemetryDaemon live(std::make_shared<StubModel>(), cfg);
    live.start();
    for (const auto& obs : stream) ASSERT_EQ(live.push(obs), PushResult::kAccepted);
    live.stop();
    EXPECT_FALSE(live.stats().wal_degraded);
    live_digest = live.state_digest();
  }
  // How many rotations fire depends on batch coalescing; at least one
  // must (the stream is ~7.6 KB of WAL against a 512-byte threshold).
  ASSERT_GE(sealed_count(dir.path()), 1u);

  // Recovery must replay sealed files before the active one and land on
  // the same per-drive state as the uninterrupted run.
  TelemetryDaemon recovered(std::make_shared<StubModel>(), cfg);
  recovered.start();
  const DaemonStats stats = recovered.stats();
  EXPECT_EQ(stats.recovery.records_replayed, stream.size());
  EXPECT_EQ(stats.recovery.duplicates_skipped, 0u);
  recovered.stop();
  EXPECT_EQ(recovered.state_digest(), live_digest);
}

// ---------------------------------------------------------------------------
// compact_sealed_wals
// ---------------------------------------------------------------------------

TEST(Compactor, NoSealedFilesIsANoop) {
  TempDir wal("empty_wal");
  TempDir store("empty_store");
  const CompactionResult result = compact_sealed_wals(wal.path(), store.path());
  EXPECT_EQ(result.wal_files, 0u);
  EXPECT_EQ(result.shards_written, 0u);
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(store.path()) /
                                       store::kManifestName));
}

TEST(Compactor, SealedWalsBecomeAScannableV3Shard) {
  TempDir wal("compact_wal");
  TempDir store("compact_store");
  const auto stream = make_stream(5, 12);

  // Two sealed files from one shard (a rotation happened), plus retires.
  const std::string active = wal_path(wal.path(), 0);
  {
    WalWriter w(active, 0, FsyncPolicy::kNever);
    w.append(std::span<const core::FleetObservation>(stream.data(), 30));
    const std::uint64_t next = w.next_seq();
    w.seal(sealed_wal_path(wal.path(), 0, next - 1));
    WalWriter w2(active, 0, FsyncPolicy::kNever, next);
    w2.append(std::span<const core::FleetObservation>(stream.data() + 30,
                                                      stream.size() - 30));
    const std::uint64_t retired[] = {stream[0].uid()};
    w2.append_retires(retired);
    const std::uint64_t next2 = w2.next_seq();
    w2.seal(sealed_wal_path(wal.path(), 0, next2 - 1));
  }
  ASSERT_EQ(sealed_count(wal.path()), 2u);

  const CompactionResult result = compact_sealed_wals(wal.path(), store.path());
  EXPECT_EQ(result.wal_files, 2u);
  EXPECT_EQ(result.records, stream.size());
  EXPECT_EQ(result.retires, 1u);
  EXPECT_EQ(result.out_of_order_dropped, 0u);
  EXPECT_EQ(result.drives, 5u);
  EXPECT_EQ(result.shards_written, 1u);
  EXPECT_GT(result.shard_bytes_out, 0u);
  // Consumed sealed files are gone.
  EXPECT_EQ(sealed_count(wal.path()), 0u);

  // The published shard opens as a v3 sharded store with matching totals.
  const auto view = store::ShardedFleetView::open(store.path());
  ASSERT_EQ(view.shard_count(), 1u);
  EXPECT_EQ(view.shard(0).version(), store::kColumnarVersionV3);
  EXPECT_EQ(view.drive_count(), 5u);
  EXPECT_EQ(view.total_records(), stream.size());
  EXPECT_EQ(view.total_swaps(), 1u);

  // The retire landed as a swap on the drive's last record day.
  const trace::FleetTrace fleet = store::materialize(view);
  const auto it = std::find_if(fleet.drives.begin(), fleet.drives.end(),
                               [&](const trace::DriveHistory& d) {
                                 return d.uid() == stream[0].uid();
                               });
  ASSERT_NE(it, fleet.drives.end());
  ASSERT_EQ(it->swaps.size(), 1u);
  EXPECT_EQ(it->swaps[0].day, it->records.back().day);

  // And the dataset pipeline scans it end-to-end.
  core::DatasetBuildOptions opts;
  const ml::Dataset ds = core::build_dataset(view, opts);
  EXPECT_GT(ds.x.rows(), 0u);
}

TEST(Compactor, SuccessiveRunsAppendShardsAtomically) {
  TempDir wal("append_wal");
  TempDir store("append_store");
  const std::string active = wal_path(wal.path(), 0);

  const auto seal_days = [&](std::int32_t first_day, std::int32_t days,
                             std::uint64_t first_seq) {
    auto stream = make_stream(3, first_day + days);
    stream.erase(stream.begin(), stream.begin() + 3 * first_day);
    WalWriter w(active, 0, FsyncPolicy::kNever, first_seq);
    w.append(stream);
    const std::uint64_t next = w.next_seq();
    w.seal(sealed_wal_path(wal.path(), 0, next - 1));
    return next;
  };

  const std::uint64_t next = seal_days(0, 10, 1);
  const CompactionResult first = compact_sealed_wals(wal.path(), store.path());
  ASSERT_EQ(first.shards_written, 1u);

  seal_days(10, 10, next);
  const CompactionResult second = compact_sealed_wals(wal.path(), store.path());
  ASSERT_EQ(second.shards_written, 1u);
  EXPECT_NE(second.shard_file, first.shard_file);

  const auto view = store::ShardedFleetView::open(store.path());
  ASSERT_EQ(view.shard_count(), 2u);
  EXPECT_EQ(view.total_records(), 3u * 20u);
  // Same 3 drives appear in both shards (drive_count sums per shard).
  EXPECT_EQ(view.drive_count(), 6u);
}

TEST(Compactor, OutOfOrderRecordsAreDroppedNotStored) {
  TempDir wal("ooo_wal");
  TempDir store("ooo_store");
  auto stream = make_stream(1, 3);
  stream.push_back(stream[1]);  // replays day 1 after day 2

  WalWriter w(wal_path(wal.path(), 0), 0, FsyncPolicy::kNever);
  w.append(stream);
  w.seal(sealed_wal_path(wal.path(), 0, w.next_seq() - 1));

  const CompactionResult result = compact_sealed_wals(wal.path(), store.path());
  EXPECT_EQ(result.records, 3u);
  EXPECT_EQ(result.out_of_order_dropped, 1u);
  const auto view = store::ShardedFleetView::open(store.path());
  EXPECT_EQ(view.total_records(), 3u);
}

TEST(Compactor, UnknownModelRecordsAreDroppedNotStored) {
  // A CRC-valid segment can still carry a model id outside kAllModels; it
  // must not reach the shard, or every later open of the store fails.
  TempDir wal("bad_model_wal");
  TempDir store("bad_model_store");
  auto stream = make_stream(2, 3);
  stream[1].drive_model = static_cast<trace::DriveModel>(trace::kNumModels);

  WalWriter w(wal_path(wal.path(), 0), 0, FsyncPolicy::kNever);
  w.append(stream);
  w.seal(sealed_wal_path(wal.path(), 0, w.next_seq() - 1));

  const CompactionResult result = compact_sealed_wals(wal.path(), store.path());
  EXPECT_EQ(result.bad_model_dropped, 1u);
  EXPECT_EQ(result.records, 5u);
  EXPECT_EQ(result.drives, 2u);
  const auto view = store::ShardedFleetView::open(store.path());
  EXPECT_EQ(view.total_records(), 5u);
}

TEST(Compactor, KeepWalLeavesSealedFilesInPlace) {
  TempDir wal("keep_wal");
  TempDir store("keep_store");
  const auto stream = make_stream(2, 4);
  WalWriter w(wal_path(wal.path(), 0), 0, FsyncPolicy::kNever);
  w.append(stream);
  w.seal(sealed_wal_path(wal.path(), 0, w.next_seq() - 1));

  CompactorOptions options;
  options.keep_wal = true;
  const CompactionResult result =
      compact_sealed_wals(wal.path(), store.path(), options);
  EXPECT_EQ(result.shards_written, 1u);
  EXPECT_EQ(sealed_count(wal.path()), 1u);

  // Re-running on the kept files re-compacts them into a second shard —
  // exactly the crash-between-publish-and-delete behaviour.
  const CompactionResult again = compact_sealed_wals(wal.path(), store.path());
  EXPECT_EQ(again.shards_written, 1u);
  EXPECT_EQ(sealed_count(wal.path()), 0u);
  EXPECT_EQ(store::ShardedFleetView::open(store.path()).shard_count(), 2u);
}

TEST(Compactor, EndToEndDaemonRotationThenCompaction) {
  TempDir wal("e2e_wal");
  TempDir store("e2e_store");
  obs::MetricsRegistry registry;
  DaemonConfig cfg;
  cfg.shards = 2;
  cfg.wal_dir = wal.path();
  cfg.fsync = FsyncPolicy::kNever;
  cfg.registry = &registry;
  cfg.wal_rotate_bytes = 1024;
  const auto stream = make_stream(6, 30);

  TelemetryDaemon daemon(std::make_shared<StubModel>(), cfg);
  daemon.start();
  for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.stop();
  ASSERT_GT(sealed_count(wal.path()), 0u);

  const CompactionResult result = compact_sealed_wals(wal.path(), store.path());
  ASSERT_EQ(result.shards_written, 1u);
  const auto view = store::ShardedFleetView::open(store.path());
  EXPECT_EQ(view.drive_count(), 6u);
  // The shard holds exactly the records that had been sealed (the tail
  // still sits in the active logs, waiting for the next rotation).
  EXPECT_EQ(view.total_records(), result.records);
  EXPECT_LE(view.total_records(), stream.size());

  // Restarting the daemon over the remaining active logs still recovers
  // cleanly: compaction consumed only sealed files.
  TelemetryDaemon after(std::make_shared<StubModel>(), cfg);
  after.start();
  after.stop();
}

/// One seeded day-ordered stream over drives of every model, reported in
/// a shuffled order each day (so first-seen order is not uid order), with
/// gaps and retires, plus the uid-sorted histories a compaction of it must
/// produce.
struct RetiringStream {
  struct Day {
    std::vector<core::FleetObservation> records;
    std::vector<std::uint64_t> retires;  ///< logged after the day's records
  };
  std::vector<Day> days;
  trace::FleetTrace expected;
};

RetiringStream make_retiring_stream(std::uint64_t seed) {
  constexpr std::uint32_t kDrives = 40;
  constexpr std::int32_t kDays = 45;
  stats::Rng rng(seed);
  struct Drive {
    trace::DriveHistory history;
    std::int32_t retire_day = -1;  ///< -1: never retired
  };
  std::vector<Drive> drives(kDrives);
  for (std::uint32_t i = 0; i < kDrives; ++i) {
    Drive& d = drives[i];
    d.history.model = trace::kAllModels[rng.next_u32() % trace::kNumModels];
    d.history.drive_index = rng.next_u32() % 2500 * kDrives + i;  // distinct uids
    d.history.deploy_day = -static_cast<std::int32_t>(rng.next_u32() % 500);
    if (rng.next_u32() % 3 == 0)
      d.retire_day = static_cast<std::int32_t>(rng.next_u32() % kDays);
  }
  RetiringStream out;
  out.days.resize(kDays);
  for (std::int32_t day = 0; day < kDays; ++day) {
    std::vector<std::size_t> order(kDrives);
    for (std::size_t i = 0; i < kDrives; ++i) order[i] = i;
    for (std::size_t i = kDrives - 1; i > 0; --i)
      std::swap(order[i], order[rng.next_u32() % (i + 1)]);
    for (const std::size_t i : order) {
      Drive& d = drives[i];
      if (d.retire_day >= 0 && day > d.retire_day) continue;
      if (rng.next_u32() % 5 != 0) {  // a fifth of the drive-days go unreported
        trace::DailyRecord rec;
        rec.day = day;
        rec.reads = rng.next_u32() % 5000;
        rec.writes = rng.next_u32();
        rec.erases = rng.next_u32() % 7;
        rec.pe_cycles = 100 + static_cast<std::uint32_t>(day) * 3;
        rec.bad_blocks = rng.next_u32() % 4;
        rec.factory_bad_blocks = static_cast<std::uint16_t>(rng.next_u32());
        rec.read_only = rng.next_u32() % 11 == 0;
        rec.errors[rng.next_u32() % trace::kNumErrorTypes] = rng.next_u32() % 9;
        rec.media_wear = rng.next_u32() % 100;
        d.history.records.push_back(rec);
        out.days[day].records.push_back(
            {d.history.model, d.history.drive_index, d.history.deploy_day, rec});
      }
      if (day == d.retire_day) {
        out.days[day].retires.push_back(d.history.uid());
        // A retire pins to the last replayed day; none before any record.
        if (!d.history.records.empty())
          d.history.swaps.push_back({d.history.records.back().day});
      }
    }
  }
  for (Drive& d : drives)
    if (!d.history.records.empty()) out.expected.drives.push_back(std::move(d.history));
  std::ranges::sort(out.expected.drives, {}, &trace::DriveHistory::uid);
  return out;
}

/// Write `stream` as sealed WALs the way a daemon of `shards` shards
/// would: records routed by uid, appended in batches of up to `batch`
/// records, each day's retires after that day's records, and every
/// `seal_every` appends sealed into a new file.
void write_sealed(const RetiringStream& stream, const std::string& dir, std::size_t shards,
                  std::size_t batch, std::size_t seal_every) {
  struct Shard {
    std::unique_ptr<WalWriter> writer;
    std::vector<core::FleetObservation> pending;
    std::vector<std::uint64_t> retires;
    std::size_t appends = 0;
  };
  std::vector<Shard> out(shards);
  const auto open = [&](std::size_t s, std::uint64_t first_seq) {
    out[s].writer = std::make_unique<WalWriter>(wal_path(dir, static_cast<std::uint32_t>(s)),
                                                static_cast<std::uint32_t>(s),
                                                FsyncPolicy::kNever, first_seq);
  };
  const auto seal = [&](std::size_t s) {
    const std::uint64_t next = out[s].writer->next_seq();
    out[s].writer->seal(sealed_wal_path(dir, static_cast<std::uint32_t>(s), next - 1));
    open(s, next);
  };
  const auto appended = [&](std::size_t s) {
    if (++out[s].appends % seal_every == 0) seal(s);
  };
  const auto flush = [&](std::size_t s) {
    if (!out[s].pending.empty()) {
      out[s].writer->append(out[s].pending);
      out[s].pending.clear();
      appended(s);
    }
  };
  for (std::size_t s = 0; s < shards; ++s) open(s, 1);
  for (const RetiringStream::Day& day : stream.days) {
    for (const core::FleetObservation& obs : day.records) {
      const std::size_t s = core::shard_of(obs.uid(), shards);
      out[s].pending.push_back(obs);
      if (out[s].pending.size() == batch) flush(s);
    }
    for (const std::uint64_t uid : day.retires)
      out[core::shard_of(uid, shards)].retires.push_back(uid);
    for (std::size_t s = 0; s < shards; ++s) {
      if (out[s].retires.empty()) continue;
      flush(s);
      out[s].writer->append_retires(out[s].retires);
      out[s].retires.clear();
      appended(s);
    }
  }
  for (std::size_t s = 0; s < shards; ++s) {
    flush(s);
    if (out[s].writer->segments_written() > 0) seal(s);
    out[s].writer.reset();
    std::filesystem::remove(wal_path(dir, static_cast<std::uint32_t>(s)));
  }
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(Compactor, ShardBytesDoNotDependOnWalSharding) {
  // The shard is a function of the per-drive histories alone: however the
  // daemon sharded and segmented the stream, drives come out sorted by
  // uid, so the bytes equal a direct v3 write of the sorted histories.
  const RetiringStream stream = make_retiring_stream(2024);
  ASSERT_GT(stream.expected.total_swaps(), 0u);
  TempDir scratch("sharding");
  CompactorOptions options;
  options.store.chunk_drives = 8;  // several chunks
  const std::string direct = scratch.path() + "/direct.ssdf2";
  store::write_columnar_file(direct, stream.expected, options.store);
  const std::string want = file_bytes(direct);

  struct Layout {
    std::size_t shards, batch, seal_every;
  };
  for (const Layout layout : {Layout{1, 7, 3}, Layout{3, 16, 2}}) {
    SCOPED_TRACE(layout.shards);
    TempDir wal("sharding_wal_" + std::to_string(layout.shards));
    TempDir store("sharding_store_" + std::to_string(layout.shards));
    write_sealed(stream, wal.path(), layout.shards, layout.batch, layout.seal_every);
    ASSERT_GE(sealed_count(wal.path()), layout.shards + 1);

    const CompactionResult result = compact_sealed_wals(wal.path(), store.path(), options);
    ASSERT_EQ(result.shards_written, 1u);
    EXPECT_EQ(result.records, stream.expected.total_records());
    EXPECT_EQ(result.retires, stream.expected.total_swaps());
    EXPECT_EQ(result.drives, stream.expected.drives.size());
    EXPECT_EQ(result.out_of_order_dropped, 0u);
    EXPECT_TRUE(file_bytes(store.path() + "/" + result.shard_file) == want);
  }
}

TEST(Compactor, CompactionRacingRotationNeitherLosesNorDuplicates) {
  TempDir wal("race_wal");
  TempDir store("race_store");
  obs::MetricsRegistry registry;
  DaemonConfig cfg;
  cfg.shards = 2;
  cfg.wal_dir = wal.path();
  cfg.fsync = FsyncPolicy::kNever;
  cfg.registry = &registry;
  cfg.wal_rotate_bytes = 512;  // rotate constantly underneath the compactor
  const auto stream = make_stream(6, 40);

  TelemetryDaemon daemon(std::make_shared<StubModel>(), cfg);
  daemon.start();

  // Chaos: compaction sweeps the WAL directory continuously while the
  // daemon is sealing new segments into it.
  std::atomic<bool> done{false};
  std::uint64_t out_of_order = 0;
  std::thread chaos([&] {
    while (!done.load(std::memory_order_acquire)) {
      out_of_order += compact_sealed_wals(wal.path(), store.path()).out_of_order_dropped;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.stop();
  done.store(true, std::memory_order_release);
  chaos.join();

  // Final sweep consumes whatever sealed files the race left behind.
  out_of_order += compact_sealed_wals(wal.path(), store.path()).out_of_order_dropped;
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_EQ(sealed_count(wal.path()), 0u);

  // Compacted shards plus the active-file tails exactly partition the
  // stream: every observation lands exactly once, none twice.
  std::map<std::pair<std::uint64_t, std::int32_t>, int> seen;
  if (std::filesystem::exists(std::filesystem::path(store.path()) /
                              store::kManifestName)) {
    const trace::FleetTrace fleet =
        store::materialize(store::ShardedFleetView::open(store.path()));
    for (const auto& d : fleet.drives)
      for (const auto& r : d.records) ++seen[{d.uid(), r.day}];
  }
  for (std::uint32_t shard = 0; shard < cfg.shards; ++shard)
    replay_wal(wal_path(wal.path(), shard), [&](const WalSegment& seg) {
      for (const auto& o : seg.records) ++seen[{o.uid(), o.record.day}];
    });
  ASSERT_EQ(seen.size(), stream.size());
  for (const auto& [key, times] : seen)
    EXPECT_EQ(times, 1) << "uid " << key.first << " day " << key.second;
}

}  // namespace
}  // namespace ssdfail::daemon
