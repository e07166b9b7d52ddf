// Durability through the file-ops seam (io/file.hpp): the order in which
// the compactor and model promotion call write, fsync, rename and unlink,
// and what a crash at every one of those calls leaves behind.
//
// Two kinds of check:
//   * Order tests record every seam call and assert each file is fsync'd
//     before its rename, each rename is followed by a directory fsync, and
//     no sealed WAL is removed before the manifest commit is durable.  That
//     order is what keeps acknowledged records when the OS crashes and the
//     page cache is lost; only these tests cover that case.
//   * Crash-point tests fail the Nth seam call (and every call after it,
//     as a dead process makes no more) for every N.  A failed call models
//     a process crash (SIGKILL) at that point: the calls before it reached
//     the kernel, nothing after it did.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "daemon/compactor.hpp"
#include "daemon/wal.hpp"
#include "daemon_test_util.hpp"
#include "io/file.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"
#include "stats/rng.hpp"
#include "store/sharded.hpp"

namespace ssdfail::daemon {
namespace {

using testing::TempDir;
using testing::make_stream;

struct Op {
  io::FileOp op;
  std::string path;
};

/// Installs a seam hook for its lifetime.
class ScopedHook {
 public:
  explicit ScopedHook(io::FileOpHook hook) { io::set_file_op_hook(std::move(hook)); }
  ~ScopedHook() { io::set_file_op_hook(nullptr); }
  ScopedHook(const ScopedHook&) = delete;
  ScopedHook& operator=(const ScopedHook&) = delete;
};

/// Records every seam call while alive.
class OpLog {
 public:
  OpLog() : hook_([this](io::FileOp op, const std::string& path) { ops_.push_back({op, path}); }) {}
  [[nodiscard]] const std::vector<Op>& ops() const { return ops_; }

 private:
  std::vector<Op> ops_;
  ScopedHook hook_;
};

struct InjectedCrash : std::runtime_error {
  InjectedCrash() : std::runtime_error("injected crash") {}
};

/// Fails seam call number `n` (1-based) and every call after it.
class CrashAt {
 public:
  explicit CrashAt(std::size_t n)
      : hook_([this, n](io::FileOp, const std::string&) {
          if (++calls_ >= n) throw InjectedCrash();
        }) {}

 private:
  std::size_t calls_ = 0;
  ScopedHook hook_;
};

std::string dir_of(const std::string& path) {
  return std::filesystem::path(path).parent_path().string();
}

/// The durability rules every committed or sealed file must follow.
void expect_durable_order(const std::vector<Op>& ops) {
  std::size_t renames = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].op != io::FileOp::kRename) continue;
    ++renames;
    // The renamed file was fsync'd after its last write and before the rename.
    const std::string from = ops[i].path + ".tmp";
    std::size_t last_write = 0, last_fsync = 0;
    bool any_fsync = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (ops[j].path != from) continue;
      if (ops[j].op == io::FileOp::kWrite) last_write = j;
      if (ops[j].op == io::FileOp::kFsync) {
        last_fsync = j;
        any_fsync = true;
      }
    }
    EXPECT_TRUE(any_fsync) << "rename to " << ops[i].path << " without an fsync";
    EXPECT_GT(last_fsync, last_write) << "write after fsync of " << from;
    // And the rename itself is made durable before anything else happens.
    ASSERT_LT(i + 1, ops.size());
    EXPECT_EQ(ops[i + 1].op, io::FileOp::kFsyncDir) << "rename to " << ops[i].path;
    EXPECT_EQ(ops[i + 1].path, dir_of(ops[i].path));
  }
  EXPECT_GT(renames, 0u);
}

/// Index of the directory fsync that makes the rename onto `path` durable.
std::size_t durable_at(const std::vector<Op>& ops, const std::string& path) {
  for (std::size_t i = 0; i + 1 < ops.size(); ++i)
    if (ops[i].op == io::FileOp::kRename && ops[i].path == path) return i + 1;
  ADD_FAILURE() << "no rename onto " << path;
  return ops.size();
}

/// Seal `days` days of records for four drives, starting at `first_day`,
/// into one sealed WAL per shard (two shards), plus a retire of drive 0.
void seal_wals(const std::string& wal_dir, std::int32_t first_day, std::int32_t days,
               std::uint64_t first_seq) {
  auto stream = make_stream(4, first_day + days);
  stream.erase(stream.begin(), stream.begin() + 4 * first_day);
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    std::vector<core::FleetObservation> mine;
    for (const auto& obs : stream)
      if (obs.drive_index % 2 == shard) mine.push_back(obs);
    WalWriter w(wal_path(wal_dir, shard), shard, FsyncPolicy::kNever, first_seq);
    w.append(mine);
    const std::uint64_t retired[] = {mine.front().uid()};
    if (shard == 0) w.append_retires(retired);
    w.seal(sealed_wal_path(wal_dir, shard, w.next_seq() - 1));
  }
}

struct Replayed {
  std::set<std::pair<std::uint64_t, std::int32_t>> records;  ///< (uid, day)
  std::set<std::uint64_t> retires;
};

Replayed replay_sealed(const std::string& wal_dir) {
  Replayed out;
  for (const std::string& path : list_sealed_wals(wal_dir))
    (void)replay_wal(path, [&](const WalSegment& segment) {
      for (const auto& obs : segment.records) out.records.insert({obs.uid(), obs.record.day});
      for (const std::uint64_t uid : segment.retired_uids) out.retires.insert(uid);
    });
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// A store holding one compacted shard, and two more sealed WALs waiting.
struct CompactionFixture {
  TempDir wal{"durability_wal"};
  TempDir store{"durability_store"};
  store::ShardManifest before;
  Replayed pending;

  CompactionFixture() {
    seal_wals(wal.path(), 0, 6, 1);
    (void)compact_sealed_wals(wal.path(), store.path());
    before = store::read_manifest(store.path());
    seal_wals(wal.path(), 6, 6, 100);
    pending = replay_sealed(wal.path());
  }
};

TEST(DurabilityOrder, CompactorCommitsShardThenManifestThenRemovesWals) {
  CompactionFixture f;
  const std::vector<std::string> sealed = list_sealed_wals(f.wal.path());
  ASSERT_EQ(sealed.size(), 2u);

  std::vector<Op> ops;
  {
    const OpLog log;
    const CompactionResult result = compact_sealed_wals(f.wal.path(), f.store.path());
    ASSERT_EQ(result.shards_written, 1u);
    ops = log.ops();
  }
  expect_durable_order(ops);

  const std::string manifest = f.store.path() + "/" + store::kManifestName;
  const std::string shard = f.store.path() + "/" + store::read_manifest(f.store.path())
                                                       .shards.back()
                                                       .file;
  const std::size_t shard_durable = durable_at(ops, shard);
  const std::size_t manifest_durable = durable_at(ops, manifest);
  // The manifest commit starts only once the shard it names is durable.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].path == manifest + ".tmp") {
      EXPECT_GT(i, shard_durable);
    }
  }
  // No sealed WAL goes before the manifest naming its records is durable,
  // and each removal is itself made durable.
  std::size_t removed = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].op != io::FileOp::kRemove) continue;
    ++removed;
    EXPECT_TRUE(std::find(sealed.begin(), sealed.end(), ops[i].path) != sealed.end());
    EXPECT_GT(i, manifest_durable) << ops[i].path;
    ASSERT_LT(i + 1, ops.size());
    EXPECT_EQ(ops[i + 1].op, io::FileOp::kFsyncDir);
  }
  EXPECT_EQ(removed, sealed.size());
}

ml::RandomForest small_forest(std::uint64_t seed) {
  stats::Rng rng(seed);
  ml::Dataset d;
  d.x = ml::Matrix(120, 3);
  for (std::size_t r = 0; r < 120; ++r) {
    const bool positive = rng.bernoulli(0.4);
    for (std::size_t c = 0; c < 3; ++c)
      d.x(r, c) = static_cast<float>(rng.normal() + (positive ? 1.0 : 0.0));
    d.y.push_back(positive ? 1.0f : 0.0f);
    d.groups.push_back(r);
  }
  ml::RandomForest::Params params;
  params.n_trees = 3;
  params.seed = seed;
  ml::RandomForest forest(params);
  forest.fit(d);
  return forest;
}

TEST(DurabilityOrder, ModelPromotionFsyncsBeforeRename) {
  TempDir dir("durability_model");
  const std::string path = dir.path() + "/champion.bin";
  std::vector<Op> ops;
  {
    const OpLog log;
    ml::save_model_file(path, small_forest(1));
    ops = log.ops();
  }
  expect_durable_order(ops);
  EXPECT_EQ(ops.back().op, io::FileOp::kFsyncDir);
}

TEST(CrashPoints, CompactionLeavesTheOldOrTheNewStoreAndLosesNoRecord) {
  std::size_t total = 0;
  {
    CompactionFixture f;
    const OpLog log;
    (void)compact_sealed_wals(f.wal.path(), f.store.path());
    total = log.ops().size();
  }
  ASSERT_GT(total, 10u);

  for (std::size_t n = 1; n <= total; ++n) {
    SCOPED_TRACE("crash at seam call " + std::to_string(n) + " of " + std::to_string(total));
    CompactionFixture f;
    {
      const CrashAt crash(n);
      EXPECT_THROW((void)compact_sealed_wals(f.wal.path(), f.store.path()), InjectedCrash);
    }

    // The store opens, on the old manifest or the new one.
    const store::ShardManifest after = store::read_manifest(f.store.path());
    ASSERT_TRUE(after.shards.size() == f.before.shards.size() ||
                after.shards.size() == f.before.shards.size() + 1);
    EXPECT_EQ(after.shards.front().file, f.before.shards.front().file);
    const auto view = store::ShardedFleetView::open(f.store.path());

    // Every pending record and retire survives in a sealed WAL or in the
    // store's new shard (both is allowed: compaction is at-least-once).
    const Replayed left = replay_sealed(f.wal.path());
    Replayed stored;
    if (after.shards.size() > f.before.shards.size()) {
      for (const trace::DriveHistory& d : store::materialize(view.shard(view.shard_count() - 1))
                                              .drives) {
        for (const trace::DailyRecord& r : d.records) stored.records.insert({d.uid(), r.day});
        if (!d.swaps.empty()) stored.retires.insert(d.uid());
      }
    }
    for (const auto& record : f.pending.records)
      EXPECT_TRUE(left.records.count(record) || stored.records.count(record))
          << "lost record of drive " << record.first << " day " << record.second;
    for (const std::uint64_t uid : f.pending.retires)
      EXPECT_TRUE(left.retires.count(uid) || stored.retires.count(uid))
          << "lost retire of drive " << uid;

    // A rerun completes and leaves nothing pending.
    (void)compact_sealed_wals(f.wal.path(), f.store.path());
    EXPECT_TRUE(list_sealed_wals(f.wal.path()).empty());
    EXPECT_NO_THROW((void)store::ShardedFleetView::open(f.store.path()));
  }
}

TEST(CrashPoints, ModelPromotionLeavesTheOldOrTheNewChampion) {
  TempDir dir("crash_model");
  const std::string path = dir.path() + "/champion.bin";
  const ml::RandomForest old_model = small_forest(1);
  const ml::RandomForest new_model = small_forest(2);
  std::ostringstream old_out, new_out;
  ml::save_model(old_out, old_model);
  ml::save_model(new_out, new_model);
  ASSERT_NE(old_out.str(), new_out.str());

  std::size_t total = 0;
  {
    ml::save_model_file(path, old_model);
    const OpLog log;
    ml::save_model_file(path, new_model);
    total = log.ops().size();
  }
  ASSERT_GE(total, 5u);

  for (std::size_t n = 1; n <= total; ++n) {
    SCOPED_TRACE("crash at seam call " + std::to_string(n) + " of " + std::to_string(total));
    std::filesystem::remove(path + ".tmp");
    ml::save_model_file(path, old_model);
    {
      const CrashAt crash(n);
      EXPECT_THROW(ml::save_model_file(path, new_model), InjectedCrash);
    }
    const std::string bytes = slurp(path);
    EXPECT_TRUE(bytes == old_out.str() || bytes == new_out.str());
    EXPECT_NO_THROW((void)ml::load_classifier_file(path));
  }
}

}  // namespace
}  // namespace ssdfail::daemon
