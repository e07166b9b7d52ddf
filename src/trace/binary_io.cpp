#include "trace/binary_io.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/bytes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "store/column_table.hpp"
#include "store/columnar.hpp"
#include "trace/io_metrics.hpp"

namespace ssdfail::trace {
namespace {

constexpr char kMagic[4] = {'S', 'S', 'D', 'F'};

/// Records decoded per buffered block read.  Bounds both the read buffer
/// (~536 KiB) and the `reserve` on untrusted record counts, so a corrupt
/// count hits "truncated stream" before it can trigger a huge allocation.
constexpr std::size_t kRecordsPerBlock = 8192;

constexpr const char* kTruncated = "binary_io: truncated stream";

/// Read exactly `n` bytes into `buf` and return a reader over them.
io::ByteReader next(std::istream& in, std::vector<char>& buf, std::size_t n) {
  buf.resize(n);
  in.read(buf.data(), static_cast<std::streamsize>(n));
  if (!in || static_cast<std::size_t>(in.gcount()) != n) throw std::runtime_error(kTruncated);
  return {buf, kTruncated};
}

/// v1 body decoder: the magic and version have already been consumed.
/// Records and swaps are read in large blocks rather than one stream read
/// per field — the stream is touched O(n_records / kRecordsPerBlock) times
/// per drive instead of once per column per record.
FleetTrace read_binary_v1_body(std::istream& in) {
  std::vector<char> buf;
  const auto n_drives = next(in, buf, 8).get<std::uint64_t>();
  // Defensive cap: a 64-bit count from a corrupt stream must not OOM us.
  if (n_drives > (1ull << 32))
    throw std::runtime_error("binary_io: implausible drive count");

  FleetTrace fleet;
  fleet.drives.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n_drives, 1u << 20)));
  for (std::uint64_t d = 0; d < n_drives; ++d) {
    DriveHistory drive;
    io::ByteReader header = next(in, buf, 17);
    const auto model = header.get<std::uint8_t>();
    if (model >= kNumModels) throw std::runtime_error("binary_io: bad model id");
    drive.model = static_cast<DriveModel>(model);
    drive.drive_index = header.get<std::uint32_t>();
    drive.deploy_day = header.get<std::int32_t>();
    const auto n_records = header.get<std::uint64_t>();
    if (n_records > (1ull << 32)) throw std::runtime_error("binary_io: bad record count");
    const auto n = static_cast<std::size_t>(n_records);
    drive.records.reserve(std::min(n, kRecordsPerBlock));
    for (std::size_t start = 0; start < n; start += kRecordsPerBlock) {
      const std::size_t count = std::min(kRecordsPerBlock, n - start);
      io::ByteReader rows = next(in, buf, count * kRecordWireBytes);
      for (std::size_t r = 0; r < count; ++r) {
        DailyRecord& rec = drive.records.emplace_back();
        store::for_each_record_column([&](std::size_t, auto column) {
          column.set(rec, rows.get<typename decltype(column)::value_type>());
        });
      }
    }
    const auto n_swaps = next(in, buf, 8).get<std::uint64_t>();
    if (n_swaps > (1ull << 20)) throw std::runtime_error("binary_io: bad swap count");
    const auto ns = static_cast<std::size_t>(n_swaps);
    io::ByteReader swaps = next(in, buf, ns * sizeof(std::int32_t));
    drive.swaps.reserve(ns);
    for (std::size_t s = 0; s < ns; ++s) drive.swaps.push_back({swaps.get<std::int32_t>()});
    fleet.drives.push_back(std::move(drive));
  }
  return fleet;
}

/// v2/v3 body decoder: slurp the remaining stream, re-assemble the full
/// file image (magic + version + rest), and hand it to the columnar
/// parser, which dispatches on the version itself.
FleetTrace read_binary_columnar_body(std::istream& in, std::uint32_t version) {
  std::vector<char> image;
  image.insert(image.end(), kMagic, kMagic + sizeof(kMagic));
  io::put(image, version);
  char buf[1 << 16];
  for (;;) {
    in.read(buf, sizeof(buf));
    image.insert(image.end(), buf, buf + in.gcount());
    if (!in) break;
  }
  in.clear();  // EOF from the slurp is expected, not an error
  auto view = store::ColumnarFleetView::from_buffer(std::move(image));
  return store::materialize(view);
}

}  // namespace

void write_binary(std::ostream& out, const FleetTrace& fleet) {
  static const obs::SiteId kSite = obs::intern_site("trace.write_binary");
  obs::Span span(kSite);
  detail::WriteByteCount bytes(out, "binary");
  std::string buf(kMagic, sizeof(kMagic));
  io::put<std::uint32_t>(buf, kBinaryFormatVersion);
  io::put<std::uint64_t>(buf, fleet.drives.size());
  // One buffer per drive: its header, rows and swap days in one write.
  for (const DriveHistory& d : fleet.drives) {
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
    io::put<std::uint8_t>(buf, static_cast<std::uint8_t>(d.model));
    io::put<std::uint32_t>(buf, d.drive_index);
    io::put<std::int32_t>(buf, d.deploy_day);
    io::put<std::uint64_t>(buf, d.records.size());
    for (const DailyRecord& r : d.records)
      store::for_each_record_column([&](std::size_t, auto column) { io::put(buf, column.get(r)); });
    io::put<std::uint64_t>(buf, d.swaps.size());
    for (const SwapEvent& s : d.swaps) io::put<std::int32_t>(buf, s.day);
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void write_binary_v2(std::ostream& out, const FleetTrace& fleet,
                     std::uint32_t chunk_drives) {
  store::ColumnarWriteOptions options;
  if (chunk_drives != 0) options.chunk_drives = chunk_drives;
  store::write_columnar(out, fleet, options);
}

void write_binary_v3(std::ostream& out, const FleetTrace& fleet,
                     std::uint32_t chunk_drives) {
  store::ColumnarWriteOptions options;
  options.version = store::kColumnarVersionV3;
  if (chunk_drives != 0) options.chunk_drives = chunk_drives;
  store::write_columnar(out, fleet, options);
}

FleetTrace read_binary(std::istream& in) {
  static const obs::SiteId kSite = obs::intern_site("trace.read_binary");
  obs::Span span(kSite);
  detail::ReadByteCount bytes(in, "binary");
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("binary_io: bad magic (not an ssdfail binary trace)");
  std::vector<char> buf;
  const auto version = next(in, buf, 4).get<std::uint32_t>();
  if (version == kBinaryFormatVersion) return read_binary_v1_body(in);
  if (version == kColumnarFormatVersion || version == kColumnarV3FormatVersion)
    return read_binary_columnar_body(in, version);
  throw std::runtime_error("binary_io: unsupported format version " +
                           std::to_string(version));
}

std::uint32_t peek_binary_version(std::istream& in) {
  const std::istream::pos_type start = in.tellg();
  if (start < 0) throw std::runtime_error("binary_io: stream is not seekable");
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    in.clear();
    in.seekg(start);
    throw std::runtime_error("binary_io: bad magic (not an ssdfail binary trace)");
  }
  std::vector<char> buf;
  const auto version = next(in, buf, 4).get<std::uint32_t>();
  in.seekg(start);
  return version;
}

std::size_t convert_binary(std::istream& in, std::ostream& out, std::uint32_t to_version,
                           std::uint32_t chunk_drives) {
  const FleetTrace fleet = read_binary(in);
  if (to_version == kBinaryFormatVersion) {
    write_binary(out, fleet);
  } else if (to_version == kColumnarFormatVersion) {
    write_binary_v2(out, fleet, chunk_drives);
  } else if (to_version == kColumnarV3FormatVersion) {
    write_binary_v3(out, fleet, chunk_drives);
  } else {
    throw std::runtime_error("binary_io: unsupported format version " +
                             std::to_string(to_version));
  }
  return fleet.total_records();
}

}  // namespace ssdfail::trace
