#include "daemon/compactor.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "daemon/wal.hpp"
#include "io/file.hpp"
#include "obs/metrics.hpp"
#include "trace/drive_history.hpp"

namespace ssdfail::daemon {
namespace {

obs::Counter& compactions_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "daemon_compactions_total", {}, "WAL->v3 compaction runs that wrote a shard");
  return c;
}

obs::Counter& compacted_records_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "daemon_compacted_records_total", {}, "observations folded into v3 shards");
  return c;
}

/// First shard-file name not already claimed by the manifest or the
/// directory (a crashed prior run may have left an orphan shard file that
/// never made it into the manifest; never overwrite it — it may be mid-copy
/// elsewhere — just step past).
std::string next_shard_name(const std::string& store_dir,
                            const store::ShardManifest& manifest) {
  for (std::size_t index = manifest.shards.size();; ++index) {
    char name[32];
    std::snprintf(name, sizeof(name), "shard-%06zu.ssdf2", index);
    const bool in_manifest =
        std::any_of(manifest.shards.begin(), manifest.shards.end(),
                    [&](const store::ShardInfo& s) { return s.file == name; });
    if (!in_manifest &&
        !std::filesystem::exists(std::filesystem::path(store_dir) / name))
      return name;
  }
}

}  // namespace

CompactionResult compact_sealed_wals(const std::string& wal_dir,
                                     const std::string& store_dir,
                                     const CompactorOptions& options) {
  CompactionResult result;
  const std::vector<std::string> sealed = list_sealed_wals(wal_dir);
  if (sealed.empty()) return result;

  // Replay every sealed file into per-drive histories, in first-seen
  // order; `slots` finds a drive's history by uid.  Sorting by uid at the
  // end makes the shard's drive order deterministic no matter how the
  // daemon sharded the stream.
  std::unordered_map<std::uint64_t, std::size_t> slots;
  std::vector<trace::DriveHistory> drives;
  const auto fold = [&](const WalSegment& segment) {
    if (segment.type == SegmentType::kRecords) {
      for (const core::FleetObservation& obs : segment.records) {
        // A CRC-valid frame can still carry a model id no store reader
        // accepts; one such drive would make every later open of the store
        // fail, so it never reaches the shard.
        if (std::ranges::find(trace::kAllModels, obs.drive_model) ==
            trace::kAllModels.end()) {
          ++result.bad_model_dropped;
          continue;
        }
        const auto [slot, added] = slots.try_emplace(obs.uid(), drives.size());
        if (added) {
          trace::DriveHistory& fresh = drives.emplace_back();
          fresh.model = obs.drive_model;
          fresh.drive_index = obs.drive_index;
          fresh.deploy_day = obs.deploy_day;
        }
        trace::DriveHistory& drive = drives[slot->second];
        // The store requires strictly day-ordered records; the WAL holds
        // the raw pre-sanitizer stream, so enforce the invariant here the
        // same way the serving path's sanitizer does: drop non-advancers.
        if (!drive.records.empty() && obs.record.day <= drive.records.back().day) {
          ++result.out_of_order_dropped;
          continue;
        }
        drive.records.push_back(obs.record);
        ++result.records;
      }
    } else {
      for (const std::uint64_t uid : segment.retired_uids) {
        const auto it = slots.find(uid);
        if (it == slots.end()) continue;  // retire before any record: no day to pin
        trace::DriveHistory& drive = drives[it->second];
        if (drive.records.empty()) continue;
        const std::int32_t day = drive.records.back().day;
        if (!drive.swaps.empty() && day <= drive.swaps.back().day) continue;
        drive.swaps.push_back(trace::SwapEvent{day});
        ++result.retires;
      }
    }
  };
  for (const std::string& path : sealed) {
    replay_wal(path, fold);
    ++result.wal_files;
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path, ec);
    if (!ec) result.wal_bytes_in += bytes;
  }

  if (drives.empty()) {
    // Sealed files held nothing durable (all torn tails).  They are still
    // consumed — their content is unrecoverable by any later run too.
    if (!options.keep_wal)
      for (const std::string& path : sealed) io::remove_file(path);
    return result;
  }

  std::vector<std::pair<std::uint64_t, std::size_t>> by_uid(slots.begin(), slots.end());
  std::ranges::sort(by_uid);
  trace::FleetTrace fleet;
  fleet.drives.reserve(drives.size());
  for (const auto& [uid, slot] : by_uid) fleet.drives.push_back(std::move(drives[slot]));
  result.drives = fleet.drives.size();

  // Shard commit, manifest commit, WAL removal: each is durable before the
  // next starts (see the header), so every crash point leaves either the
  // old store intact or the new shard fully published, and the sealed
  // files go only once the manifest naming their records is on disk.
  io::make_dirs(store_dir);
  store::ShardManifest manifest;
  if (std::filesystem::exists(std::filesystem::path(store_dir) / store::kManifestName))
    manifest = store::read_manifest(store_dir);

  store::ShardInfo info;
  info.file = next_shard_name(store_dir, manifest);
  const std::filesystem::path shard_path =
      std::filesystem::path(store_dir) / info.file;
  store::write_columnar_file(shard_path.string(), fleet, options.store);
  info.bytes = static_cast<std::uint64_t>(std::filesystem::file_size(shard_path));
  info.n_drives = fleet.drives.size();
  info.n_records = fleet.total_records();
  info.n_swaps = fleet.total_swaps();
  result.shard_bytes_out = info.bytes;
  result.shard_file = info.file;
  manifest.shards.push_back(std::move(info));
  store::write_manifest(store_dir, manifest);
  result.shards_written = 1;

  if (!options.keep_wal)
    for (const std::string& path : sealed) io::remove_file(path);

  compactions_counter().inc();
  compacted_records_counter().inc(result.records);
  return result;
}

}  // namespace ssdfail::daemon
