#include "store/sharded.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "io/bytes.hpp"
#include "io/file.hpp"
#include "store/crc32.hpp"

namespace ssdfail::store {
namespace {

constexpr char kManifestMagic[4] = {'S', 'S', 'D', 'M'};

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("shard manifest: " + what);
}

using io::put;

/// Shard names never carry directory components — the manifest must not be
/// able to point a reader outside its own directory.
bool valid_shard_name(const std::string& name) {
  if (name.empty() || name.size() > 255) return false;
  return name.find('/') == std::string::npos &&
         name.find('\\') == std::string::npos && name != "." && name != "..";
}

std::string manifest_path(const std::string& dir) {
  return (std::filesystem::path(dir) / kManifestName).string();
}

}  // namespace

std::string encode_manifest(const ShardManifest& manifest) {
  std::string out;
  out.append(kManifestMagic, sizeof(kManifestMagic));
  put<std::uint32_t>(out, kManifestVersion);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(manifest.shards.size()));
  for (const ShardInfo& s : manifest.shards) {
    if (!valid_shard_name(s.file)) fail("invalid shard name " + s.file);
    put<std::uint32_t>(out, static_cast<std::uint32_t>(s.file.size()));
    out.append(s.file);
    put<std::uint64_t>(out, s.bytes);
    put<std::uint64_t>(out, s.n_drives);
    put<std::uint64_t>(out, s.n_records);
    put<std::uint64_t>(out, s.n_swaps);
  }
  put<std::uint32_t>(out, crc32(0, out));
  put<std::uint32_t>(out, 0);
  return out;
}

ShardManifest decode_manifest(std::span<const char> bytes) {
  io::ByteReader in(bytes, "shard manifest: truncated manifest");
  if (std::memcmp(in.take(sizeof(kManifestMagic)).data(), kManifestMagic,
                  sizeof(kManifestMagic)) != 0)
    fail("bad magic");
  const auto version = in.get<std::uint32_t>();
  if (version != kManifestVersion)
    fail("unsupported manifest version " + std::to_string(version));
  const auto n_shards = in.get<std::uint32_t>();
  if (static_cast<std::uint64_t>(n_shards) * 36 > bytes.size())
    fail("implausible shard count");

  ShardManifest manifest;
  manifest.shards.reserve(n_shards);
  for (std::uint32_t i = 0; i < n_shards; ++i) {
    ShardInfo s;
    const std::span<const char> name = in.take(in.get<std::uint32_t>());
    s.file.assign(name.data(), name.size());
    if (!valid_shard_name(s.file)) fail("invalid shard name " + s.file);
    s.bytes = in.get<std::uint64_t>();
    s.n_drives = in.get<std::uint64_t>();
    s.n_records = in.get<std::uint64_t>();
    s.n_swaps = in.get<std::uint64_t>();
    manifest.shards.push_back(std::move(s));
  }
  const std::size_t crc_pos = in.pos();
  const auto stored_crc = in.get<std::uint32_t>();
  if (in.get<std::uint32_t>() != 0) fail("nonzero reserved field");
  if (!in.done()) fail("trailing bytes after manifest");
  if (crc32(0, bytes.first(crc_pos)) != stored_crc) fail("manifest CRC mismatch");
  return manifest;
}

void write_manifest(const std::string& dir, const ShardManifest& manifest) {
  const std::string image = encode_manifest(manifest);
  io::commit_file(manifest_path(dir), [&](std::ostream& out) {
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
  });
}

ShardManifest read_manifest(const std::string& dir) {
  const std::optional<std::vector<char>> bytes = io::read_file(manifest_path(dir));
  if (!bytes) fail("cannot open " + manifest_path(dir));
  return decode_manifest(*bytes);
}

void write_sharded(const std::string& dir, const trace::FleetTrace& fleet,
                   const ShardedWriteOptions& options) {
  std::filesystem::create_directories(dir);
  const std::uint32_t per_shard = std::max<std::uint32_t>(1, options.drives_per_shard);

  ShardManifest manifest;
  std::size_t shard_index = 0;
  for (std::size_t first = 0; first < fleet.drives.size(); first += per_shard) {
    const std::size_t last =
        std::min<std::size_t>(first + per_shard, fleet.drives.size());
    trace::FleetTrace part;
    part.drives.assign(fleet.drives.begin() + static_cast<std::ptrdiff_t>(first),
                       fleet.drives.begin() + static_cast<std::ptrdiff_t>(last));

    char name[32];
    std::snprintf(name, sizeof(name), "shard-%06zu.ssdf2", shard_index++);
    const std::filesystem::path path = std::filesystem::path(dir) / name;
    write_columnar_file(path.string(), part, options.store);

    ShardInfo info;
    info.file = name;
    info.bytes = static_cast<std::uint64_t>(std::filesystem::file_size(path));
    info.n_drives = part.drives.size();
    for (const trace::DriveHistory& d : part.drives) {
      info.n_records += d.records.size();
      info.n_swaps += d.swaps.size();
    }
    manifest.shards.push_back(std::move(info));
  }
  write_manifest(dir, manifest);
}

ShardedFleetView ShardedFleetView::open(const std::string& dir,
                                        const OpenOptions& options) {
  const ShardManifest manifest = read_manifest(dir);
  ShardedFleetView view;
  view.shards_.reserve(manifest.shards.size());
  for (const ShardInfo& info : manifest.shards) {
    const std::filesystem::path path = std::filesystem::path(dir) / info.file;
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (ec) fail("cannot stat shard " + info.file + ": " + ec.message());
    if (size != info.bytes)
      fail("shard " + info.file + " size disagrees with manifest");
    ColumnarFleetView shard = ColumnarFleetView::open(path.string(), options);
    if (shard.drive_count() != info.n_drives ||
        shard.total_records() != info.n_records ||
        shard.total_swaps() != info.n_swaps)
      fail("shard " + info.file + " totals disagree with manifest");
    view.drive_count_ += shard.drive_count();
    view.total_records_ += shard.total_records();
    view.total_swaps_ += shard.total_swaps();
    view.shards_.push_back(std::move(shard));
  }
  return view;
}

trace::FleetTrace materialize(const ShardedFleetView& view) {
  trace::FleetTrace fleet;
  fleet.drives.reserve(view.drive_count());
  for (std::size_t s = 0; s < view.shard_count(); ++s) {
    trace::FleetTrace part = materialize(view.shard(s));
    for (trace::DriveHistory& d : part.drives) fleet.drives.push_back(std::move(d));
  }
  return fleet;
}

}  // namespace ssdfail::store
