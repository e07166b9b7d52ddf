#pragma once

// Compact binary trace serialization.
//
// CSV (trace_io.hpp) is the interchange format; this is the fast path for
// large fleets.  Three on-disk versions share the "SSDF" magic:
//
//   v1 — row format: drives one after another, each a header plus a run of
//        kRecordWireBytes-byte DailyRecord structs (~86 bytes per
//        drive-day versus ~200 for CSV, and no parsing).
//   v2 — the chunked columnar store (store/columnar.hpp): per-field
//        columns, per-chunk CRC32, mmap-friendly.  Written via
//        write_binary_v2; read_binary auto-detects it and materializes the
//        fleet, while store::ColumnarFleetView::open gives zero-copy
//        access without materializing.
//   v3 — v2's layout with per-chunk compressed column frames and zone
//        maps (docs/DATA_FORMAT.md).  Written via write_binary_v3; the
//        same auto-detection reads it back.
//
// Little-endian, versioned.  Ground truth is never serialized (same
// observable-only contract as the CSV path).

#include <iosfwd>

#include "store/column_table.hpp"
#include "trace/drive_history.hpp"

namespace ssdfail::trace {

/// Row (v1) binary format version.
inline constexpr std::uint32_t kBinaryFormatVersion = 1;

/// Serialized size of one v1 DailyRecord: every record column of
/// store::kColumnTable, packed in table order.
inline constexpr std::size_t kRecordWireBytes =
    store::sum_record_columns([](auto column) { return column.width; });
static_assert(kRecordWireBytes == 83);

/// Columnar (v2) binary format version; mirrors store::kColumnarVersion.
inline constexpr std::uint32_t kColumnarFormatVersion = 2;

/// Compressed columnar (v3) version; mirrors store::kColumnarVersionV3.
inline constexpr std::uint32_t kColumnarV3FormatVersion = 3;

/// Write the fleet (daily records + swap events) to a binary stream in the
/// v1 row format.
void write_binary(std::ostream& out, const FleetTrace& fleet);

/// Write the fleet in the v2 columnar format.  `chunk_drives` = 0 means
/// the store default (store::kDefaultChunkDrives).
void write_binary_v2(std::ostream& out, const FleetTrace& fleet,
                     std::uint32_t chunk_drives = 0);

/// Write the fleet in the v3 compressed columnar format.
void write_binary_v3(std::ostream& out, const FleetTrace& fleet,
                     std::uint32_t chunk_drives = 0);

/// Read a fleet written by any write_binary* — the version field after the
/// magic selects the decoder.  Throws std::runtime_error on a bad magic,
/// unsupported version, truncated stream, or (v2/v3) CRC mismatch.
[[nodiscard]] FleetTrace read_binary(std::istream& in);

/// Sniff the format version of a binary trace without consuming the
/// stream (requires a seekable stream; throws on bad magic/truncation).
[[nodiscard]] std::uint32_t peek_binary_version(std::istream& in);

/// Re-encode a binary trace (any version in) as `to_version` (1, 2 or 3)
/// and return the number of drive-days converted.  `chunk_drives` applies
/// to columnar output only; 0 means the store default.
std::size_t convert_binary(std::istream& in, std::ostream& out, std::uint32_t to_version,
                           std::uint32_t chunk_drives = 0);

}  // namespace ssdfail::trace
