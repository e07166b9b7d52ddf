#pragma once

// WAL -> SSDF2 v3 compactor: the background path that turns the daemon's
// sealed `.swal` segments into scan-optimized columnar shards, composing
// the streaming appender (daemon/wal.hpp rotation) with the chunk-parallel
// store scans (store/columnar.hpp, store/sharded.hpp).
//
//   daemon appends -> active wal-<shard>.swal
//                       | rotation at wal_rotate_bytes
//                  wal-<shard>-<seq>.sealed.swal   (immutable)
//                       | compact_sealed_wals (this header)
//                  store_dir/shard-<n>.ssdf2 + manifest.ssdm
//
// Each run replays every sealed file (active logs are never touched — the
// daemon owns those), reconstructs per-drive histories, writes ONE new v3
// shard, appends it to the store directory's manifest atomically, and only
// then deletes the consumed sealed files.  Every step goes through the
// file-ops seam (io/file.hpp) and is durable before the next one starts:
//
//   1. shard commit     shard-N.ssdf2.tmp written, fsync, rename to
//                       shard-N.ssdf2, fsync the store directory;
//   2. manifest commit  manifest.ssdm.tmp written, fsync, rename over
//                       manifest.ssdm, fsync the store directory;
//   3. WAL removal      unlink each sealed file, fsync the WAL directory.
//
// So after a SIGKILL or an OS crash at any point, a crash before the
// manifest rename leaves the store exactly as it was (an orphan shard
// file may remain; the next run steps past its name), and a crash after
// it re-compacts the surviving sealed files (duplicate drive histories in
// a later shard: at-least-once) rather than losing data.
//
// Ordering contract: drives are emitted sorted by uid, each drive's
// records in replay (seq) order with non-advancing days dropped (the
// store requires day-ordered histories; the daemon's sanitizer enforces
// the same invariant on the serving path).  Records whose model id is not
// a trace::kAllModels entry are dropped and counted.  A kRetires entry
// becomes a SwapEvent on the drive's last replayed day.

#include <cstdint>
#include <string>

#include "store/sharded.hpp"

namespace ssdfail::daemon {

struct CompactorOptions {
  /// Per-shard store write options; defaults to v3 (that is the point).
  store::ColumnarWriteOptions store;
  /// Keep consumed sealed files instead of deleting them (debugging).
  bool keep_wal = false;

  CompactorOptions() { store.version = store::kColumnarVersionV3; }
};

struct CompactionResult {
  std::size_t wal_files = 0;             ///< sealed files consumed
  std::uint64_t wal_bytes_in = 0;        ///< their total size
  std::uint64_t records = 0;             ///< observations folded in
  std::uint64_t retires = 0;             ///< swap events folded in
  std::uint64_t out_of_order_dropped = 0;///< non-advancing days discarded
  std::uint64_t bad_model_dropped = 0;   ///< records with an unknown model id
  std::size_t drives = 0;                ///< distinct drives in the new shard
  std::size_t shards_written = 0;        ///< 0 or 1 (0: nothing to compact)
  std::uint64_t shard_bytes_out = 0;     ///< bytes of the new v3 shard
  std::string shard_file;                ///< its name, when written
};

/// Compact every sealed WAL under `wal_dir` into one new v3 shard of the
/// sharded store at `store_dir` (created, with an empty manifest, if
/// absent).  Returns what happened; throws std::runtime_error on I/O
/// failure writing the shard or manifest.  Corrupt sealed content is
/// handled by the WAL recovery contract (torn tails truncate, never
/// throw).
CompactionResult compact_sealed_wals(const std::string& wal_dir,
                                     const std::string& store_dir,
                                     const CompactorOptions& options = {});

}  // namespace ssdfail::daemon
