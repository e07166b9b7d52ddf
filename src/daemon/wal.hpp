#pragma once

// Crash-safe write-ahead log for the streaming telemetry daemon.
//
// Each ingest shard appends drained FleetObservation batches to its own
// WAL file BEFORE processing them, so a crash at any point loses at most
// the final unsynced segment and startup replay rebuilds per-drive state
// bit-identically to an uninterrupted run (tests/daemon/
// test_crash_recovery.cpp pins this under real SIGKILL).
//
// Framing reuses the SSDF2 discipline (store/crc32, docs/DATA_FORMAT.md):
// little-endian fields, a per-segment CRC32 over everything after the
// frame marker, and a required-zero check on reserved space.  The file is
// a fixed header followed by appended segments:
//
//   file header   magic "SWAL" | version u32 | shard u32 | reserved u32(=0)
//   segment       marker u32 | seq u64 | type u32 | count u32 | len u32 |
//                 crc u32 | payload[len]
//
// `seq` strictly increases within a file; replay skips any segment whose
// seq does not advance (duplicate delivery — a producer retry after a
// crash between write and acknowledge).  `type` is kRecords (payload =
// packed observations) or kRetires (payload = packed drive uids).
//
// Recovery contract (the chaos suite's invariant): open_for_replay never
// throws on a torn, truncated, zeroed, or bit-flipped file.  Replay stops
// at the first frame that fails any structural or CRC check, reports how
// many bytes were discarded, and the writer truncates the file back to
// the last durable boundary before appending again.  Only I/O errors
// (open/write/fsync failures) surface as exceptions, and the daemon
// catches those to run WAL-degraded rather than die.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/fleet_observation.hpp"
#include "io/file.hpp"
#include "store/column_table.hpp"

namespace ssdfail::daemon {

inline constexpr std::uint32_t kWalMagic = 0x4C415753;    // "SWAL"
inline constexpr std::uint32_t kWalVersion = 1;
inline constexpr std::uint32_t kSegmentMarker = 0x5347E57A;

/// Serialized size of one FleetObservation in a records payload: the
/// observation header (model u8, flags u8, factory_bad_blocks u16,
/// drive_index u32, deploy_day u32), then every 4-byte record column of
/// store::kColumnTable in table order.
inline constexpr std::size_t kWalObservationHeaderSize = 12;
inline constexpr std::size_t kWalRecordSize =
    kWalObservationHeaderSize +
    store::sum_record_columns([](auto column) { return column.width == 4 ? 4 : 0; });
static_assert(kWalRecordSize == 92);
inline constexpr std::size_t kWalFileHeaderSize = 16;
inline constexpr std::size_t kWalSegmentHeaderSize = 28;
/// Upper bound accepted for a segment payload; anything larger is treated
/// as frame garbage (stops a bit-flipped length from driving a huge read).
inline constexpr std::uint32_t kWalMaxPayload = 1u << 26;

enum class SegmentType : std::uint32_t {
  kRecords = 0,  ///< payload: count packed FleetObservations
  kRetires = 1,  ///< payload: count little-endian u64 drive uids
};

/// When the writer fsyncs: kEverySegment is the durability the crash tests
/// assume (lose at most the in-flight segment); kNever leaves flushing to
/// the kernel (benchmarks, tests where durability is irrelevant).
enum class FsyncPolicy : std::uint8_t { kEverySegment = 0, kNever };

/// One replayed segment, handed to the recovery callback in log order.
struct WalSegment {
  std::uint64_t seq = 0;
  SegmentType type = SegmentType::kRecords;
  std::vector<core::FleetObservation> records;  ///< kRecords payload
  std::vector<std::uint64_t> retired_uids;      ///< kRetires payload
};

struct WalReplayStats {
  std::uint64_t segments_replayed = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t retires_replayed = 0;
  std::uint64_t duplicates_skipped = 0;  ///< whole segments with stale seq
  std::uint64_t truncated_bytes = 0;     ///< torn/corrupt tail discarded
  std::uint64_t last_seq = 0;            ///< highest seq accepted
  std::uint64_t durable_bytes = 0;       ///< valid prefix length (with header)
  bool header_valid = false;             ///< false: empty/alien file, nothing replayed

  void merge(const WalReplayStats& other) noexcept;
};

/// Serialize observations/uids exactly as a kRecords/kRetires payload
/// (exposed for the fuzz suite to build hostile images byte-by-byte).
void append_record_payload(std::vector<char>& out, const core::FleetObservation& obs);
[[nodiscard]] core::FleetObservation parse_record_payload(const char* bytes);

/// Append-only WAL writer for one shard.  NOT thread-safe: exactly one
/// appender thread owns a writer (the daemon's shard threads).
class WalWriter {
 public:
  /// Open (creating or resuming) the shard WAL at `path`.  A pre-existing
  /// file is scanned like replay does and truncated back to its durable
  /// prefix, so appends always start at a clean segment boundary; the next
  /// seq continues after the highest durable one.  `first_seq` raises the
  /// starting seq further (rotation: the fresh active file continues the
  /// sealed file's chain so cross-file replay stays strictly ordered).
  /// Under kEverySegment a file this call creates has its directory
  /// fsync'd.  Throws std::runtime_error on I/O failure.
  WalWriter(std::string path, std::uint32_t shard, FsyncPolicy fsync,
            std::uint64_t first_seq = 1);
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Append one records segment; returns its seq.  Throws on I/O failure.
  std::uint64_t append(std::span<const core::FleetObservation> batch);
  /// Append one retires segment; returns its seq.  Throws on I/O failure.
  std::uint64_t append_retires(std::span<const std::uint64_t> uids);

  /// fsync regardless of policy (graceful-drain epilogue).
  void sync();

  /// Seal this log: fsync, close, atomically rename the file to
  /// `sealed_path` and fsync the directory (io::AppendFile::seal).  The writer is finished afterwards (any further append
  /// throws); the caller opens a fresh WalWriter at the active path with
  /// first_seq = next_seq() to continue the chain.  Throws on I/O failure,
  /// leaving the active file in place (the log is never lost mid-seal).
  void seal(const std::string& sealed_path);

  [[nodiscard]] std::uint64_t segments_written() const noexcept { return segments_; }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_; }
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }
  [[nodiscard]] const std::string& path() const noexcept { return file_.path(); }

 private:
  std::uint64_t append_segment(SegmentType type, std::uint32_t count,
                               std::span<const char> payload);

  io::AppendFile file_;
  FsyncPolicy fsync_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t segments_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Replay `path`, invoking `on_segment` for every accepted segment in log
/// order.  Never throws on corrupt CONTENT (see recovery contract above);
/// a missing file is simply zero segments.  Throws std::runtime_error only
/// on read I/O errors.
WalReplayStats replay_wal(const std::string& path,
                          const std::function<void(const WalSegment&)>& on_segment);

/// Replay an in-memory WAL image (the fuzz suite's entry point).
WalReplayStats replay_wal_image(std::span<const char> image,
                                const std::function<void(const WalSegment&)>& on_segment);

/// The canonical WAL filename for a shard inside `dir`.
[[nodiscard]] std::string wal_path(const std::string& dir, std::uint32_t shard);

/// Filename a rotation seals a shard's log under: embeds the last seq the
/// file holds, zero-padded so lexicographic order IS replay order.
[[nodiscard]] std::string sealed_wal_path(const std::string& dir, std::uint32_t shard,
                                          std::uint64_t last_seq);

/// Every sealed segment file for `shard` under `dir`, in replay (seq)
/// order.  Pass std::nullopt to list every shard's sealed files (the
/// compactor's input); order is then per-shard seq order, shards
/// interleaved lexicographically.
[[nodiscard]] std::vector<std::string> list_sealed_wals(
    const std::string& dir, std::optional<std::uint32_t> shard = std::nullopt);

}  // namespace ssdfail::daemon
