#include "store/columnar.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "io/bytes.hpp"
#include "io/file.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "store/column_table.hpp"
#include "store/crc32.hpp"
#include "store/encoding.hpp"
#include "trace/io_metrics.hpp"

namespace ssdfail::store {
namespace {

constexpr char kMagic[4] = {'S', 'S', 'D', 'F'};
constexpr char kTrailerMagic[8] = {'S', 'S', 'D', 'F', '2', 'F', 'T', 'R'};
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kTrailerBytes = 16;
/// Footer fixed part: 4 u64 totals + footer CRC + reserved u32.
constexpr std::size_t kFooterFixedBytes = 4 * 8 + 8;
constexpr std::size_t kDirEntryBytes = 32;
/// v3 appends to each directory entry: u64 n_swaps, u32 model_mask,
/// u32 reserved, then (i64 min, i64 max) per zone-mapped column.
constexpr std::size_t kDirEntryBytesV3 = kDirEntryBytes + 16 + kNumZoneColumns * 16;
constexpr std::size_t kDriveEntryBytes = 48;
constexpr std::size_t kChunkHeaderBytes = 24;
/// v3 per-column frame header: u32 encoding, u32 reserved, u64 payload bytes.
constexpr std::size_t kFrameHeaderBytes = 16;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("columnar store: " + what);
}

obs::Counter& chunks_read_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "store_chunks_read_total", {}, "columnar chunks parsed by readers");
  return c;
}
obs::Counter& crc_failures_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "store_crc_failures_total", {}, "columnar CRC mismatches (chunk or footer)");
  return c;
}
obs::Counter& mmap_fallback_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "store_mmap_fallback_total", {},
      "columnar opens that fell back to a heap buffer");
  return c;
}
obs::Counter& bytes_opened_counter(const char* backing) {
  return obs::MetricsRegistry::global().counter(
      "store_bytes_opened_total", {{"backing", backing}},
      "columnar file bytes made readable, by backing");
}

using io::pad8;
using io::put;

constexpr const char* kTruncated = "columnar store: truncated file";

/// A zero-copy column of `n` elements, 8-byte aligned in the image.
template <typename T>
std::span<const T> take_column(io::ByteReader& cur, std::size_t n) {
  cur.align8();
  if (n > cur.remaining() / sizeof(T)) fail("truncated file (column overruns chunk)");
  return {reinterpret_cast<const T*>(cur.take(n * sizeof(T)).data()), n};
}

struct DirEntry {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
  std::uint32_t n_drives = 0;
  std::uint64_t n_records = 0;
  ChunkZoneMap zone;  ///< serialized for v3 only
};

/// Min/max of one widened column of a v3 chunk, for its zone map.
ColumnStats stats_of(std::span<const std::uint64_t> values) {
  ColumnStats st;
  if (values.empty()) return st;
  st.min = std::numeric_limits<std::int64_t>::max();
  st.max = std::numeric_limits<std::int64_t>::min();
  for (const std::uint64_t v : values) {
    const auto s = static_cast<std::int64_t>(v);
    st.min = std::min(st.min, s);
    st.max = std::max(st.max, s);
  }
  return st;
}

/// Columns per pass of write_columnar over a chunk's row structs.  All 23
/// in one pass is fastest on short histories, but the widened buffers then
/// take 184 B per row, and a chunk of 256 drives with ~1,200 days each
/// faults in ~50 MB on every write: slower than one pass per column.  Four
/// per pass measured close to the one-pass speed on 60-day histories and
/// faster than both on the long ones.
constexpr std::size_t kTransposeColumns = 4;
using TransposeBuffers = std::array<std::vector<std::uint64_t>, kTransposeColumns>;

/// Transpose columns Lo..Lo+kTransposeColumns-1 of drives [first, last)
/// into `out` in one pass over their rows, each value sign-extended to 64
/// bits, then call frame(c, column, values) for each in table order.
template <std::size_t Lo, typename Frame>
void transpose_columns(const trace::FleetTrace& fleet, std::size_t first,
                       std::size_t last, std::uint64_t n_records, std::uint64_t n_swaps,
                       TransposeBuffers& out, Frame& frame) {
  constexpr std::size_t kHi = std::min(Lo + kTransposeColumns, kNumZoneColumns);
  const auto widen = [](auto v) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
  };
  std::array<std::uint64_t*, kHi - Lo> dst{};
  for_each_column_in<Lo, kHi>([&](std::size_t c, auto column) {
    out[c - Lo].resize(column.count(n_records, n_swaps));
    dst[c - Lo] = out[c - Lo].data();
  });
  for (std::size_t d = first; d < last; ++d) {
    const trace::DriveHistory& drive = fleet.drives[d];
    for (const trace::DailyRecord& r : drive.records)
      for_each_column_in<Lo, kHi>([&](std::size_t c, auto column) {
        if constexpr (decltype(column)::is_record) *dst[c - Lo]++ = widen(column.get(r));
      });
    for_each_column_in<Lo, kHi>([&](std::size_t c, auto column) {
      if constexpr (!decltype(column)::is_record)
        for (const auto& event : column.rows(drive))
          *dst[c - Lo]++ = widen(column.get(event));
    });
  }
  for_each_column_in<Lo, kHi>(
      [&](std::size_t c, auto column) { frame(c, column, out[c - Lo]); });
}

}  // namespace

bool ChunkZoneMap::may_match(const ScanPredicate& pred) const noexcept {
  if (n_records == 0) return false;  // no rows, nothing to scan
  if (pred.model &&
      (model_mask & (1u << static_cast<std::uint32_t>(*pred.model))) == 0)
    return false;
  if (pred.device_class &&
      (model_mask & trace::class_model_mask(*pred.device_class)) == 0)
    return false;
  if (pred.wants_swaps() && n_swaps == 0) return false;
  if (stats_valid) {
    const ColumnStats& day = stats(ZoneColumn::kDay);
    if (pred.min_day && day.max < *pred.min_day) return false;
    if (pred.max_day && day.min > *pred.max_day) return false;
    // n_swaps > 0 here (checked above when a swap bound is set), so the
    // kSwapDay stats are meaningful.
    const ColumnStats& swap_day = stats(ZoneColumn::kSwapDay);
    if (pred.min_swap_day && swap_day.max < *pred.min_swap_day) return false;
    if (pred.max_swap_day && swap_day.min > *pred.max_swap_day) return false;
  }
  return true;
}

void write_columnar(std::ostream& out, const trace::FleetTrace& fleet,
                    const ColumnarWriteOptions& options) {
  static const obs::SiteId kSite = obs::intern_site("store.write_columnar");
  obs::Span span(kSite);
  trace::detail::WriteByteCount byte_count(out, "columnar");

  const std::uint32_t chunk_drives = std::max<std::uint32_t>(1, options.chunk_drives);
  const std::uint32_t version = options.version;
  if (version != kColumnarVersion && version != kColumnarVersionV3)
    fail("unsupported write version " + std::to_string(version));

  std::string header;
  header.append(kMagic, sizeof(kMagic));
  put<std::uint32_t>(header, version);
  put<std::uint32_t>(header, chunk_drives);
  put<std::uint32_t>(header, 0);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));

  std::vector<DirEntry> directory;
  std::uint64_t offset = kHeaderBytes;
  std::uint64_t total_records = 0;
  std::uint64_t total_swaps = 0;

  std::string chunk;
  TransposeBuffers columns;
  for (std::size_t first = 0; first < fleet.drives.size(); first += chunk_drives) {
    const std::size_t last = std::min<std::size_t>(first + chunk_drives, fleet.drives.size());
    const auto n_drives = static_cast<std::uint32_t>(last - first);
    std::uint64_t n_records = 0;
    std::uint64_t n_swaps = 0;
    for (std::size_t d = first; d < last; ++d) {
      n_records += fleet.drives[d].records.size();
      n_swaps += fleet.drives[d].swaps.size();
    }

    chunk.clear();
    put<std::uint32_t>(chunk, n_drives);
    put<std::uint32_t>(chunk, 0);
    put<std::uint64_t>(chunk, n_records);
    put<std::uint64_t>(chunk, n_swaps);

    ChunkZoneMap zone;
    zone.n_records = n_records;
    zone.n_swaps = n_swaps;

    std::uint64_t row = 0;
    std::uint64_t swap = 0;
    for (std::size_t d = first; d < last; ++d) {
      const trace::DriveHistory& drive = fleet.drives[d];
      zone.model_mask |= 1u << static_cast<std::uint32_t>(drive.model);
      put<std::uint8_t>(chunk, static_cast<std::uint8_t>(drive.model));
      put<std::uint8_t>(chunk, 0);
      put<std::uint8_t>(chunk, 0);
      put<std::uint8_t>(chunk, 0);
      put<std::uint32_t>(chunk, drive.drive_index);
      put<std::int32_t>(chunk, drive.deploy_day);
      put<std::uint32_t>(chunk, 0);
      put<std::uint64_t>(chunk, row);
      put<std::uint64_t>(chunk, drive.records.size());
      put<std::uint64_t>(chunk, swap);
      put<std::uint64_t>(chunk, drive.swaps.size());
      row += drive.records.size();
      swap += drive.swaps.size();
    }

    // Frames in table order: v2 stores the values raw, v3 as an encoded
    // frame — [align8] u32 encoding, u32 reserved, u64 payload bytes,
    // payload — whose min/max go into the zone map.
    const auto frame = [&](std::size_t c, auto column,
                           std::span<const std::uint64_t> values) {
      using T = typename decltype(column)::value_type;
      pad8(chunk);
      if (version == kColumnarVersion) {
        for (const std::uint64_t v : values) put<T>(chunk, static_cast<T>(v));
        return;
      }
      zone.columns[c] = stats_of(values);
      const EncodedColumn enc = encode_column(values, sizeof(T));
      put<std::uint32_t>(chunk, static_cast<std::uint32_t>(enc.encoding));
      put<std::uint32_t>(chunk, 0);
      put<std::uint64_t>(chunk, enc.payload.size());
      chunk.append(enc.payload.data(), enc.payload.size());
    };
    [&]<std::size_t... S>(std::index_sequence<S...>) {
      (transpose_columns<S * kTransposeColumns>(fleet, first, last, n_records, n_swaps,
                                                 columns, frame),
       ...);
    }(std::make_index_sequence<(kNumZoneColumns + kTransposeColumns - 1) /
                               kTransposeColumns>{});
    // Trailing pad is part of the chunk's recorded length (and CRC), so
    // every byte between header and footer is covered by some checksum.
    pad8(chunk);

    DirEntry entry{offset, chunk.size(), crc32(0, chunk), n_drives, n_records, zone};
    directory.push_back(std::move(entry));
    out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    offset += chunk.size();
    total_records += n_records;
    total_swaps += n_swaps;
  }

  std::string footer;
  put<std::uint64_t>(footer, directory.size());
  put<std::uint64_t>(footer, fleet.drives.size());
  put<std::uint64_t>(footer, total_records);
  put<std::uint64_t>(footer, total_swaps);
  for (const DirEntry& e : directory) {
    put<std::uint64_t>(footer, e.offset);
    put<std::uint64_t>(footer, e.length);
    put<std::uint32_t>(footer, e.crc);
    put<std::uint32_t>(footer, e.n_drives);
    put<std::uint64_t>(footer, e.n_records);
    if (version == kColumnarVersionV3) {
      put<std::uint64_t>(footer, e.zone.n_swaps);
      put<std::uint32_t>(footer, e.zone.model_mask);
      put<std::uint32_t>(footer, 0);
      for (const ColumnStats& st : e.zone.columns) {
        put<std::int64_t>(footer, st.min);
        put<std::int64_t>(footer, st.max);
      }
    }
  }
  // The footer CRC also covers the 16-byte file header, so a flipped
  // chunk-size or version byte cannot slip through.
  put<std::uint32_t>(footer, crc32(crc32(0, header), footer));
  put<std::uint32_t>(footer, 0);
  out.write(footer.data(), static_cast<std::streamsize>(footer.size()));

  std::string trailer;
  put<std::uint64_t>(trailer, offset);
  trailer.append(kTrailerMagic, sizeof(kTrailerMagic));
  out.write(trailer.data(), static_cast<std::streamsize>(trailer.size()));
}

void write_columnar_file(const std::string& path, const trace::FleetTrace& fleet,
                         const ColumnarWriteOptions& options) {
  io::commit_file(path, [&](std::ostream& out) { write_columnar(out, fleet, options); });
}

trace::DailyRecord ChunkView::record(std::size_t row) const {
  trace::DailyRecord r;
  for_each_record_column(
      [&](std::size_t, auto column) { column.set(r, column.span(*this)[row]); });
  return r;
}

void ChunkView::gather_drive(const DriveRef& ref, trace::DriveHistory& out) const {
  out.model = ref.model;
  out.drive_index = ref.drive_index;
  out.deploy_day = ref.deploy_day;
  out.truth.reset();
  out.records.resize(ref.row_count);
  out.swaps.resize(ref.swap_count);
  // Column-at-a-time gather: each pass is a contiguous scan of one mapped
  // column, which is what makes rebuilding a drive cheaper than parsing
  // the equivalent v1 byte stream.
  for_each_column([&](std::size_t, auto column) {
    auto& rows = column.rows(out);
    const auto values = column.span(*this).subspan(
        column.count(ref.row_begin, ref.swap_begin), rows.size());
    for (std::size_t i = 0; i < values.size(); ++i) column.set(rows[i], values[i]);
  });
}

/// Per-chunk lazy decode state for v3 files.  Column frames stay untouched
/// in the backing bytes until the chunk is first accessed; decode fills
/// `columns` and points the ChunkView spans into it.  once_flag
/// makes first-touch safe under chunk-parallel dataset builds.
struct LazyChunk {
  std::once_flag once;
  std::size_t frames_begin = 0;  ///< absolute offset of the first frame
  std::size_t frames_end = 0;    ///< chunk end (frames + trailing pad)
  std::uint64_t n_records = 0;
  std::uint64_t n_swaps = 0;

  /// One decoded column per table entry; the ChunkView spans point into them.
  std::array<std::unique_ptr<std::byte[]>, kNumZoneColumns> columns;
};

struct ColumnarFleetView::Impl {
  std::shared_ptr<const void> mapping;  ///< keeps an mmap'd file mapped
  std::vector<char> heap;
  std::span<const char> bytes;
  bool mmap_backed = false;
  std::uint32_t version = kColumnarVersion;
  std::uint32_t chunk_drives = 0;
  std::size_t drive_count = 0;
  std::size_t total_records = 0;
  std::size_t total_swaps = 0;
  std::vector<std::vector<DriveRef>> refs;  ///< stable backing for ChunkView::drives
  std::vector<ChunkZoneMap> zones;
  /// v2: spans into `bytes`, complete after parse.  v3: drive refs set at
  /// parse, column spans filled by ensure_decoded (hence mutable — the view
  /// is logically const; decode only materializes what the file already
  /// states).
  mutable std::vector<ChunkView> chunks;
  std::vector<std::unique_ptr<LazyChunk>> lazy;  ///< empty for v2

  /// Parse and validate the whole image: header, trailer, footer (CRC over
  /// header + footer), chunk directory (contiguous coverage of
  /// [header, footer)), then each chunk (CRC, drive index, column spans for
  /// v2 / frame extents for v3).
  void parse(const OpenOptions& options);

  /// Decode chunk `index`'s column frames on first use (v3 only; no-op for
  /// v2).  Throws std::runtime_error on malformed frames.
  void ensure_decoded(std::size_t index) const;
};

void ColumnarFleetView::Impl::ensure_decoded(std::size_t index) const {
  if (lazy.empty()) return;
  LazyChunk& lc = *lazy[index];
  std::call_once(lc.once, [&] {
    io::ByteReader cur(bytes.subspan(lc.frames_begin, lc.frames_end - lc.frames_begin),
                       kTruncated);
    ChunkView& view = chunks[index];
    for_each_column([&](std::size_t c, auto column) {
      using T = typename decltype(column)::value_type;
      const std::size_t n = column.count(static_cast<std::size_t>(lc.n_records),
                                         static_cast<std::size_t>(lc.n_swaps));
      cur.align8();
      const auto encoding = cur.get<std::uint32_t>();
      if (cur.get<std::uint32_t>() != 0) fail("nonzero reserved field in frame");
      const auto payload_bytes = cur.get<std::uint64_t>();
      if (payload_bytes > cur.remaining()) fail("truncated file (frame overruns chunk)");
      const std::span<const char> payload = cur.take(static_cast<std::size_t>(payload_bytes));
      lc.columns[c] = std::make_unique_for_overwrite<std::byte[]>(n * sizeof(T));
      T* out = reinterpret_cast<T*>(lc.columns[c].get());
      decode_column(static_cast<ColumnEncoding>(encoding), payload, n, out);
      column.span(view) = {out, n};
    });
    cur.align8();
    if (!cur.done()) fail("chunk has trailing garbage");
    chunks_read_counter().inc();
  });
}

void ColumnarFleetView::Impl::parse(const OpenOptions& options) {
  Impl& impl = *this;
  const std::span<const char> b = impl.bytes;
  if (b.size() < kHeaderBytes + kFooterFixedBytes + kTrailerBytes)
    fail("truncated file");
  io::ByteReader header(b, kTruncated);
  if (std::memcmp(header.take(sizeof(kMagic)).data(), kMagic, sizeof(kMagic)) != 0)
    fail("bad magic (not an ssdfail binary trace)");
  const auto file_version = header.get<std::uint32_t>();
  if (file_version != kColumnarVersion && file_version != kColumnarVersionV3)
    fail("unsupported format version " + std::to_string(file_version));
  impl.version = file_version;
  impl.chunk_drives = header.get<std::uint32_t>();

  const std::span<const char> trailer = b.last(kTrailerBytes);
  if (std::memcmp(trailer.data() + 8, kTrailerMagic, sizeof(kTrailerMagic)) != 0)
    fail("bad trailer magic (truncated or corrupt file)");
  const auto footer_offset = io::ByteReader(trailer, kTruncated).get<std::uint64_t>();
  if (footer_offset < kHeaderBytes || footer_offset % 8 != 0 ||
      footer_offset + kFooterFixedBytes > b.size() - kTrailerBytes)
    fail("footer offset out of range");

  const auto footer_begin = static_cast<std::size_t>(footer_offset);
  io::ByteReader footer(b.subspan(footer_begin, b.size() - kTrailerBytes - footer_begin),
                        kTruncated);
  const auto n_chunks = footer.get<std::uint64_t>();
  const std::size_t dir_entry_bytes =
      file_version == kColumnarVersionV3 ? kDirEntryBytesV3 : kDirEntryBytes;
  if (n_chunks > (1ull << 32) ||
      n_chunks * dir_entry_bytes > b.size() - kTrailerBytes - footer_offset)
    fail("implausible chunk count");
  const auto n_drives_total = footer.get<std::uint64_t>();
  const auto n_records_total = footer.get<std::uint64_t>();
  const auto n_swaps_total = footer.get<std::uint64_t>();

  std::vector<DirEntry> directory;
  directory.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(n_chunks, 4096)));  // cap pre-allocation on corrupt counts
  for (std::uint64_t c = 0; c < n_chunks; ++c) {
    DirEntry e;
    e.offset = footer.get<std::uint64_t>();
    e.length = footer.get<std::uint64_t>();
    e.crc = footer.get<std::uint32_t>();
    e.n_drives = footer.get<std::uint32_t>();
    e.n_records = footer.get<std::uint64_t>();
    if (file_version == kColumnarVersionV3) {
      e.zone.n_swaps = footer.get<std::uint64_t>();
      e.zone.model_mask = footer.get<std::uint32_t>();
      if (footer.get<std::uint32_t>() != 0) fail("nonzero reserved field");
      for (ColumnStats& st : e.zone.columns) {
        st.min = footer.get<std::int64_t>();
        st.max = footer.get<std::int64_t>();
      }
      e.zone.stats_valid = true;
    }
    e.zone.n_records = e.n_records;
    directory.push_back(e);
  }
  const std::size_t crc_pos = footer.pos();
  const auto stored_footer_crc = footer.get<std::uint32_t>();
  // The reserved word trails the footer CRC, so the CRC cannot cover it;
  // requiring zero keeps every byte of the file corruption-detectable.
  if (footer.get<std::uint32_t>() != 0) fail("nonzero reserved field");
  if (!footer.done()) fail("footer size mismatch");
  const std::uint32_t computed_footer_crc =
      crc32(crc32(0, b.first(kHeaderBytes)), b.subspan(footer_begin, crc_pos));
  if (computed_footer_crc != stored_footer_crc) {
    crc_failures_counter().inc();
    fail("footer CRC mismatch");
  }

  std::uint64_t expected_offset = kHeaderBytes;
  for (std::size_t c = 0; c < directory.size(); ++c) {
    const DirEntry& e = directory[c];
    if (e.offset != expected_offset) fail("chunk directory gap");
    if (e.length < kChunkHeaderBytes || e.length % 8 != 0) fail("bad chunk length");
    if (e.offset + e.length > footer_offset) fail("chunk out of range");
    expected_offset = e.offset + e.length;

    const auto begin = static_cast<std::size_t>(e.offset);
    const auto end = static_cast<std::size_t>(e.offset + e.length);
    if (options.verify_crc && crc32(0, b.subspan(begin, end - begin)) != e.crc) {
      crc_failures_counter().inc();
      fail("chunk " + std::to_string(c) + " CRC mismatch");
    }

    io::ByteReader cur(b.subspan(begin, end - begin), kTruncated);
    const auto n_drives = cur.get<std::uint32_t>();
    (void)cur.get<std::uint32_t>();  // reserved
    const auto n_records = cur.get<std::uint64_t>();
    const auto n_swaps = cur.get<std::uint64_t>();
    if (n_drives != e.n_drives || n_records != e.n_records)
      fail("chunk header disagrees with directory");
    if (n_drives > (1u << 24) || n_records > (1ull << 32) || n_swaps > (1ull << 28))
      fail("implausible chunk sizes");
    if (cur.remaining() / kDriveEntryBytes < n_drives)
      fail("truncated file (drive index overruns chunk)");

    std::vector<DriveRef> drive_refs;
    drive_refs.reserve(n_drives);
    std::uint64_t next_row = 0;
    std::uint64_t next_swap = 0;
    for (std::uint32_t d = 0; d < n_drives; ++d) {
      DriveRef ref;
      const auto model = cur.get<std::uint8_t>();
      if (model >= trace::kNumModels) fail("bad model id in drive index");
      ref.model = static_cast<trace::DriveModel>(model);
      cur.skip(3);
      ref.drive_index = cur.get<std::uint32_t>();
      ref.deploy_day = cur.get<std::int32_t>();
      (void)cur.get<std::uint32_t>();  // reserved
      const auto row_begin = cur.get<std::uint64_t>();
      const auto row_count = cur.get<std::uint64_t>();
      const auto swap_begin = cur.get<std::uint64_t>();
      const auto swap_count = cur.get<std::uint64_t>();
      if (row_begin != next_row || swap_begin != next_swap)
        fail("drive index inconsistent");
      next_row += row_count;
      next_swap += swap_count;
      ref.row_begin = static_cast<std::size_t>(row_begin);
      ref.row_count = static_cast<std::size_t>(row_count);
      ref.swap_begin = static_cast<std::size_t>(swap_begin);
      ref.swap_count = static_cast<std::size_t>(swap_count);
      drive_refs.push_back(ref);
    }
    if (next_row != n_records || next_swap != n_swaps) fail("drive index inconsistent");

    ChunkZoneMap zone = e.zone;
    zone.n_swaps = n_swaps;  // v2 entries lack the swap count; header has it
    if (file_version == kColumnarVersionV3 && e.zone.n_swaps != n_swaps)
      fail("chunk header disagrees with directory");
    std::uint32_t ref_mask = 0;
    for (const DriveRef& ref : drive_refs)
      ref_mask |= 1u << static_cast<std::uint32_t>(ref.model);
    if (file_version == kColumnarVersionV3) {
      if (zone.model_mask != ref_mask) fail("zone map disagrees with drive index");
    } else {
      zone.model_mask = ref_mask;
    }

    ChunkView view;
    const auto n = static_cast<std::size_t>(n_records);
    if (file_version == kColumnarVersion) {
      for_each_column([&](std::size_t, auto column) {
        using T = typename decltype(column)::value_type;
        column.span(view) =
            take_column<T>(cur, column.count(n, static_cast<std::size_t>(n_swaps)));
      });
      if (cur.remaining() >= 8) fail("chunk has trailing garbage");
      chunks_read_counter().inc();
    } else {
      // Bound decode amplification: a legitimate frame stores at minimum
      // one byte per 128 values (width-0 blocks), so counts beyond
      // 128 bytes-per-byte are structurally impossible.
      if (n_records > 128 * e.length || n_swaps > 128 * e.length)
        fail("implausible chunk sizes");
      auto lc = std::make_unique<LazyChunk>();
      lc->frames_begin = begin + cur.pos();
      lc->frames_end = end;
      lc->n_records = n_records;
      lc->n_swaps = n_swaps;
      impl.lazy.push_back(std::move(lc));
      // Column spans stay empty until ensure_decoded fills them.
    }

    impl.refs.push_back(std::move(drive_refs));
    view.drives = {impl.refs.back().data(), impl.refs.back().size()};
    impl.zones.push_back(zone);
    impl.chunks.push_back(view);
    impl.drive_count += n_drives;
    impl.total_records += n;
    impl.total_swaps += static_cast<std::size_t>(n_swaps);
  }
  if (expected_offset != footer_offset) fail("chunk directory gap");
  if (impl.drive_count != n_drives_total || impl.total_records != n_records_total ||
      impl.total_swaps != n_swaps_total)
    fail("footer totals disagree with chunks");
}

ColumnarFleetView ColumnarFleetView::open(const std::string& path,
                                          const OpenOptions& options) {
  static const obs::SiteId kSite = obs::intern_site("store.open_view");
  obs::Span span(kSite);
  auto impl = std::make_shared<Impl>();
  if (options.allow_mmap) {
    if (std::optional<io::MappedBytes> mapped = io::map_file(path)) {
      impl->mapping = std::move(mapped->owner);
      impl->bytes = mapped->bytes;
      impl->mmap_backed = true;
    } else {
      mmap_fallback_counter().inc();
    }
  }
  if (!impl->mmap_backed) {
    std::optional<std::vector<char>> bytes = io::read_file(path);
    if (!bytes) fail("cannot open " + path);
    impl->heap = std::move(*bytes);
    impl->bytes = {impl->heap.data(), impl->heap.size()};
  }
  bytes_opened_counter(impl->mmap_backed ? "mmap" : "heap").inc(impl->bytes.size());
  impl->parse(options);
  return ColumnarFleetView(std::move(impl));
}

ColumnarFleetView ColumnarFleetView::from_buffer(std::vector<char> bytes,
                                                 const OpenOptions& options) {
  static const obs::SiteId kSite = obs::intern_site("store.open_view");
  obs::Span span(kSite);
  auto impl = std::make_shared<Impl>();
  impl->heap = std::move(bytes);
  impl->bytes = {impl->heap.data(), impl->heap.size()};
  bytes_opened_counter("heap").inc(impl->bytes.size());
  impl->parse(options);
  return ColumnarFleetView(std::move(impl));
}

std::size_t ColumnarFleetView::chunk_count() const noexcept { return impl_->chunks.size(); }

const ChunkView& ColumnarFleetView::chunk(std::size_t index) const {
  const ChunkView& view = impl_->chunks.at(index);
  impl_->ensure_decoded(index);
  return view;
}

const ChunkZoneMap& ColumnarFleetView::zone_map(std::size_t index) const {
  return impl_->zones.at(index);
}

std::uint32_t ColumnarFleetView::version() const noexcept { return impl_->version; }

std::size_t ColumnarFleetView::drive_count() const noexcept { return impl_->drive_count; }
std::size_t ColumnarFleetView::total_records() const noexcept {
  return impl_->total_records;
}
std::size_t ColumnarFleetView::total_swaps() const noexcept { return impl_->total_swaps; }
std::uint32_t ColumnarFleetView::chunk_drives() const noexcept {
  return impl_->chunk_drives;
}
bool ColumnarFleetView::mmap_backed() const noexcept { return impl_->mmap_backed; }

trace::FleetTrace materialize(const ColumnarFleetView& view) {
  static const obs::SiteId kSite = obs::intern_site("store.materialize");
  obs::Span span(kSite);
  trace::FleetTrace fleet;
  fleet.drives.reserve(view.drive_count());
  for (std::size_t c = 0; c < view.chunk_count(); ++c) {
    const ChunkView& chunk = view.chunk(c);
    for (const DriveRef& ref : chunk.drives) {
      trace::DriveHistory drive;
      chunk.gather_drive(ref, drive);
      fleet.drives.push_back(std::move(drive));
    }
  }
  return fleet;
}

}  // namespace ssdfail::store
