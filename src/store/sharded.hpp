#pragma once

// Multi-file sharded SSDF2 layout (docs/DATA_FORMAT.md §Shard manifest).
//
// One SSDF2 file per shard plus a small binary manifest ("manifest.ssdm")
// naming the shards in scan order.  Shards are ordinary standalone SSDF2
// files — every single-file tool (convert, inspect, fuzzers) works on a
// shard unchanged — and the manifest is the unit of atomic growth: the
// WAL→v3 compactor (daemon/compactor.hpp) commits a new shard file, then
// commits the rewritten manifest (io::commit_file: fsync, rename, fsync the
// directory), so readers, and a crash at any point, see either the old or
// the new shard set, never a partial one.
//
// Scan order is manifest order; dataset builds over a sharded store are
// bit-identical to a single-file build of the concatenated fleet because
// every per-row decision upstream is keyed by (seed, drive uid, day), not
// by file position.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "store/columnar.hpp"

namespace ssdfail::store {

/// Manifest format version.
inline constexpr std::uint32_t kManifestVersion = 1;

/// Manifest file name within a sharded store directory.
inline constexpr const char* kManifestName = "manifest.ssdm";

struct ShardInfo {
  std::string file;  ///< shard file name, relative to the manifest directory
  std::uint64_t bytes = 0;      ///< shard file size (sanity-checked on open)
  std::uint64_t n_drives = 0;
  std::uint64_t n_records = 0;
  std::uint64_t n_swaps = 0;
};

struct ShardManifest {
  std::vector<ShardInfo> shards;
};

/// Serialize / parse the manifest image ("SSDM" magic, CRC-protected).
/// Throws std::runtime_error on any malformed input.
[[nodiscard]] std::string encode_manifest(const ShardManifest& manifest);
[[nodiscard]] ShardManifest decode_manifest(std::span<const char> bytes);

/// Atomically replace `dir`/manifest.ssdm through io::commit_file (temp
/// file fsync'd, renamed over the manifest, directory fsync'd).
void write_manifest(const std::string& dir, const ShardManifest& manifest);

/// Read `dir`/manifest.ssdm.  Throws if missing or corrupt.
[[nodiscard]] ShardManifest read_manifest(const std::string& dir);

struct ShardedWriteOptions {
  ColumnarWriteOptions store{};             ///< per-shard write options
  std::uint32_t drives_per_shard = 65536;   ///< split threshold (>= 1)
};

/// Write `fleet` into `dir` as numbered shard files plus a manifest.
/// Creates `dir` if needed; replaces any manifest already there.
void write_sharded(const std::string& dir, const trace::FleetTrace& fleet,
                   const ShardedWriteOptions& options = {});

/// Read-only view over every shard named by a manifest, opened eagerly so
/// a corrupt shard fails the open, not a mid-scan access.
class ShardedFleetView {
 public:
  [[nodiscard]] static ShardedFleetView open(const std::string& dir,
                                             const OpenOptions& options = {});

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] const ColumnarFleetView& shard(std::size_t index) const {
    return shards_.at(index);
  }

  [[nodiscard]] std::size_t drive_count() const noexcept { return drive_count_; }
  [[nodiscard]] std::size_t total_records() const noexcept { return total_records_; }
  [[nodiscard]] std::size_t total_swaps() const noexcept { return total_swaps_; }

 private:
  std::vector<ColumnarFleetView> shards_;
  std::size_t drive_count_ = 0;
  std::size_t total_records_ = 0;
  std::size_t total_swaps_ = 0;
};

/// Materialize every shard back into one fleet, manifest order.
[[nodiscard]] trace::FleetTrace materialize(const ShardedFleetView& view);

}  // namespace ssdfail::store
