#pragma once

// SSDF2: the chunked columnar fleet store (docs/DATA_FORMAT.md).
//
// The v1 binary trace (trace/binary_io) is a row format: one DailyRecord
// struct after another, so dataset construction — the hot path feeding
// every prediction experiment — re-parses and re-materializes the whole
// fleet as row-struct vectors on every build.  SSDF2 lays each DailyRecord
// field out as a contiguous per-drive column inside fixed-size drive
// chunks, with a per-chunk drive index, a per-chunk CRC32, and a footer
// directory, so a reader can
//
//   - memory-map the file and expose every column as a zero-copy
//     std::span (ColumnarFleetView; heap-backed fallback when mmap is
//     unavailable),
//   - walk chunks independently (chunk-parallel dataset builds in
//     core/dataset_builder), and
//   - detect any single-bit corruption via CRC (per chunk, plus a footer
//     CRC that also covers the file header).
//
// Two columnar on-disk versions share this reader:
//
//   v2 — uncompressed: every column stored raw and 8-aligned, so mapped
//        spans point straight into the file (zero copy).
//   v3 — compressed + scan-optimized: each column is independently
//        encoded (delta+bitpack / bitpack / RLE / raw, whichever is
//        smallest; the writer sizes all four in one pass and encodes only
//        the winner — store/encoding.hpp), and the footer directory carries
//        a per-chunk ZONE MAP (per-column min/max, model mask, swap
//        count) so scans can prove a chunk irrelevant and skip it before
//        touching — or decoding — a single column byte (ScanPredicate).
//        Chunks decode lazily, each frame straight into its typed
//        per-chunk column buffer, on first access; the ChunkView API is
//        identical, which is what keeps
//        dataset builds bit-identical across v2 and v3 (pinned by
//        tests/store/test_zone_map_pruning.cpp and the golden suite).
//
// Same observable-only contract as v1: ground truth is never serialized.
// Every field is little-endian; columns are 8-byte aligned so the mapped
// spans are naturally aligned for their element type.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "trace/drive_history.hpp"

namespace ssdfail::store {

/// SSDF2 shares the "SSDF" magic with v1; the version field discriminates.
inline constexpr std::uint32_t kColumnarVersion = 2;

/// The compressed, zone-mapped revision (SSDF2 v3).
inline constexpr std::uint32_t kColumnarVersionV3 = 3;

/// Default drives per chunk: large enough to amortize per-chunk overhead,
/// small enough that chunk-parallel builds load-balance.
inline constexpr std::uint32_t kDefaultChunkDrives = 256;

struct ColumnarWriteOptions {
  std::uint32_t chunk_drives = kDefaultChunkDrives;  ///< drives per chunk (>= 1)
  /// On-disk version to emit: kColumnarVersion (uncompressed, zero-copy
  /// reads) or kColumnarVersionV3 (compressed + zone maps).
  std::uint32_t version = kColumnarVersion;
};

/// Zone-mapped column identities, in serialized order.  kSwapDay ranges
/// over the swap_days column; all others over the record columns.
enum class ZoneColumn : std::size_t {
  kDay = 0,
  kReads,
  kWrites,
  kErases,
  kPeCycles,
  kBadBlocks,
  kFactoryBadBlocks,
  kFlags,
  kError0,  // kError0 + e for trace::ErrorType e
  // Class-specific channels (trace::kExtCounterFields, same order).
  kReallocatedSectors = kError0 + trace::kNumErrorTypes,
  kSeekErrors,
  kMediaWear,
  kThrottleEvents,
  kSwapDay,
};
inline constexpr std::size_t kNumZoneColumns =
    static_cast<std::size_t>(ZoneColumn::kSwapDay) + 1;

/// Inclusive min/max of one column within one chunk (meaningless when the
/// column is empty — check the chunk's n_records / n_swaps first).
struct ColumnStats {
  std::int64_t min = 0;
  std::int64_t max = 0;
};

/// A predicate a scan wants to push below the decode layer.  Every field
/// is conjunctive; an empty predicate matches everything.
struct ScanPredicate {
  std::optional<trace::DriveModel> model;      ///< only drives of this model
  /// Only drives whose model belongs to this device class (prunes via the
  /// chunk model mask, like `model`; both set = intersection).
  std::optional<trace::DeviceClass> device_class;
  std::optional<std::int32_t> min_day;         ///< rows with day >= min_day
  std::optional<std::int32_t> max_day;         ///< rows with day <= max_day
  bool with_swaps_only = false;                ///< only drives with swap events
  /// Swap-day range pushdown (the Retrainer's "recent failures" scan): only
  /// drives with at least one swap event whose day lies in
  /// [min_swap_day, max_swap_day] (either bound may be open).  Setting a
  /// bound implies with_swaps_only — a swap-free chunk can never match.
  /// Prunes against the ZoneColumn::kSwapDay min/max carried by v3 zone
  /// maps; v2 files still prune swap-free chunks via n_swaps.
  std::optional<std::int32_t> min_swap_day;
  std::optional<std::int32_t> max_swap_day;

  /// True when any swap-related constraint is active.
  [[nodiscard]] bool wants_swaps() const noexcept {
    return with_swaps_only || min_swap_day.has_value() || max_swap_day.has_value();
  }
};

/// Per-chunk pruning metadata from the footer directory.  v3 files carry
/// exact per-column stats; v2 files synthesize the model mask and counts
/// from the drive index (stats_valid = false, so day predicates cannot
/// prune — they still filter row-by-row above the store).
struct ChunkZoneMap {
  std::uint32_t model_mask = 0;  ///< bit (1 << model) per model present
  std::uint64_t n_records = 0;
  std::uint64_t n_swaps = 0;
  bool stats_valid = false;      ///< column min/max populated (v3)
  std::array<ColumnStats, kNumZoneColumns> columns{};

  [[nodiscard]] const ColumnStats& stats(ZoneColumn c) const noexcept {
    return columns[static_cast<std::size_t>(c)];
  }

  /// False only when NO row of the chunk can satisfy `pred` — pruning is
  /// conservative, never lossy: a true return means "must scan", not
  /// "contains a match".
  [[nodiscard]] bool may_match(const ScanPredicate& pred) const noexcept;
};

/// Write the fleet as an SSDF2 columnar file to a binary stream.
void write_columnar(std::ostream& out, const trace::FleetTrace& fleet,
                    const ColumnarWriteOptions& options = {});

/// Write an SSDF2 file at `path` through io::commit_file: streamed to
/// `path.tmp`, fsync'd, renamed over `path`, directory fsync'd.  A failure
/// or crash leaves the old file (or none), never a torn one.  Throws
/// std::runtime_error on I/O failure.
void write_columnar_file(const std::string& path, const trace::FleetTrace& fleet,
                         const ColumnarWriteOptions& options = {});

/// One drive's slice of a chunk: which column rows and swap slots are its.
struct DriveRef {
  trace::DriveModel model = trace::DriveModel::MlcA;
  std::uint32_t drive_index = 0;
  std::int32_t deploy_day = 0;
  std::size_t row_begin = 0;   ///< first row of this drive within the chunk
  std::size_t row_count = 0;
  std::size_t swap_begin = 0;  ///< first swap slot within the chunk
  std::size_t swap_count = 0;

  [[nodiscard]] std::uint64_t uid() const noexcept {
    return trace::drive_uid(model, drive_index);
  }
};

/// Zero-copy view of one chunk: per-field columns spanning every record of
/// every drive in the chunk (drive-major, day-ordered within a drive).
struct ChunkView {
  std::span<const DriveRef> drives;

  std::span<const std::int32_t> day;
  std::span<const std::uint32_t> reads;
  std::span<const std::uint32_t> writes;
  std::span<const std::uint32_t> erases;
  std::span<const std::uint32_t> pe_cycles;
  std::span<const std::uint32_t> bad_blocks;
  std::span<const std::uint16_t> factory_bad_blocks;
  std::span<const std::uint8_t> flags;  ///< bit 0: read_only, bit 1: dead
  std::array<std::span<const std::uint32_t>, trace::kNumErrorTypes> errors;
  std::span<const std::uint32_t> reallocated_sectors;
  std::span<const std::uint32_t> seek_errors;
  std::span<const std::uint32_t> media_wear;
  std::span<const std::uint32_t> throttle_events;
  std::span<const std::int32_t> swap_days;

  /// Gather one row back into a DailyRecord struct.
  [[nodiscard]] trace::DailyRecord record(std::size_t row) const;

  /// Rebuild `out` as the full history of `ref` (records + swaps).  The
  /// output's vectors are reused across calls — the chunk-parallel dataset
  /// build gathers one drive at a time into a per-worker scratch history
  /// instead of materializing the fleet.
  void gather_drive(const DriveRef& ref, trace::DriveHistory& out) const;
};

struct OpenOptions {
  /// Verify every chunk CRC at open (one sequential pass).  Disable only
  /// for trusted files where open latency matters; corruption then
  /// surfaces as silently wrong data, exactly what CRCs exist to prevent.
  bool verify_crc = true;
  /// Permit the mmap backing; when false (or when mapping fails) the file
  /// is read into a heap buffer instead (counted by
  /// store_mmap_fallback_total).
  bool allow_mmap = true;
};

/// Read-only view of an SSDF2 file.  Cheap to copy (shared backing).
/// Column spans stay valid for the lifetime of any copy of the view.
class ColumnarFleetView {
 public:
  /// Open `path`, mmap-backed where possible, heap-backed otherwise.
  /// Throws std::runtime_error on malformed, truncated, or corrupt files.
  [[nodiscard]] static ColumnarFleetView open(const std::string& path,
                                              const OpenOptions& options = {});

  /// Parse an in-memory SSDF2 image (always heap-backed).
  [[nodiscard]] static ColumnarFleetView from_buffer(std::vector<char> bytes,
                                                     const OpenOptions& options = {});

  [[nodiscard]] std::size_t chunk_count() const noexcept;
  [[nodiscard]] const ChunkView& chunk(std::size_t index) const;

  [[nodiscard]] std::size_t drive_count() const noexcept;
  [[nodiscard]] std::size_t total_records() const noexcept;
  [[nodiscard]] std::size_t total_swaps() const noexcept;

  /// The writer's drives-per-chunk knob, as recorded in the header.
  [[nodiscard]] std::uint32_t chunk_drives() const noexcept;

  /// On-disk format version of the backing file (2 or 3).
  [[nodiscard]] std::uint32_t version() const noexcept;

  /// Pruning metadata for chunk `index` — available without decoding the
  /// chunk (v3) or from the drive index (v2).  Combine with may_match to
  /// skip chunks entirely.
  [[nodiscard]] const ChunkZoneMap& zone_map(std::size_t index) const;

  /// True when the columns point into a memory-mapped file (false: heap).
  [[nodiscard]] bool mmap_backed() const noexcept;

 private:
  struct Impl;
  explicit ColumnarFleetView(std::shared_ptr<const Impl> impl) : impl_(std::move(impl)) {}
  std::shared_ptr<const Impl> impl_;
};

/// Materialize the whole view back into row structs (tests, conversion,
/// and the serve replay path, which wants DriveHistory objects).
[[nodiscard]] trace::FleetTrace materialize(const ColumnarFleetView& view);

}  // namespace ssdfail::store
