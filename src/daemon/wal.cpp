#include "daemon/wal.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "io/bytes.hpp"
#include "store/crc32.hpp"

namespace ssdfail::daemon {

namespace {

using io::put;

constexpr const char* kTruncated = "wal: truncated frame";

/// Scan an image's valid prefix, optionally delivering accepted segments.
/// The single source of truth for what "durable" means: the writer's
/// resume path and the recovery replay both call this, so they can never
/// disagree about where the log ends.
WalReplayStats scan_image(std::span<const char> image,
                          const std::function<void(const WalSegment&)>& on_segment) {
  WalReplayStats stats;
  if (image.size() < kWalFileHeaderSize) {
    stats.truncated_bytes = image.size();
    return stats;
  }
  io::ByteReader header(image, kTruncated);
  const auto magic = header.get<std::uint32_t>();
  const auto version = header.get<std::uint32_t>();
  header.skip(4);  // shard
  if (magic != kWalMagic || version != kWalVersion || header.get<std::uint32_t>() != 0) {
    stats.truncated_bytes = image.size();
    return stats;
  }
  stats.header_valid = true;
  std::size_t at = kWalFileHeaderSize;

  while (at + kWalSegmentHeaderSize <= image.size()) {
    io::ByteReader h(image.subspan(at, kWalSegmentHeaderSize), kTruncated);
    if (h.get<std::uint32_t>() != kSegmentMarker) break;
    const auto seq = h.get<std::uint64_t>();
    const auto type_raw = h.get<std::uint32_t>();
    const auto count = h.get<std::uint32_t>();
    const auto len = h.get<std::uint32_t>();
    const auto crc_stored = h.get<std::uint32_t>();
    if (seq == 0 || len > kWalMaxPayload) break;
    if (type_raw > static_cast<std::uint32_t>(SegmentType::kRetires)) break;
    const auto type = static_cast<SegmentType>(type_raw);
    const std::size_t unit = type == SegmentType::kRecords ? kWalRecordSize : 8;
    if (static_cast<std::size_t>(len) != static_cast<std::size_t>(count) * unit) break;
    if (at + kWalSegmentHeaderSize + len > image.size()) break;  // torn tail
    std::uint32_t crc = store::crc32(0, image.subspan(at + 4, 20));
    crc = store::crc32(crc, image.subspan(at + kWalSegmentHeaderSize, len));
    if (crc != crc_stored) break;

    if (seq <= stats.last_seq) {
      // Redelivered segment (producer retried after an unacknowledged
      // append): structurally fine, semantically already applied.
      ++stats.duplicates_skipped;
    } else {
      stats.last_seq = seq;
      ++stats.segments_replayed;
      if (on_segment) {
        WalSegment seg;
        seg.seq = seq;
        seg.type = type;
        const std::span<const char> payload = image.subspan(at + kWalSegmentHeaderSize, len);
        if (type == SegmentType::kRecords) {
          seg.records.reserve(count);
          for (std::uint32_t r = 0; r < count; ++r)
            seg.records.push_back(parse_record_payload(payload.data() + r * kWalRecordSize));
        } else {
          io::ByteReader uids(payload, kTruncated);
          seg.retired_uids.reserve(count);
          for (std::uint32_t r = 0; r < count; ++r)
            seg.retired_uids.push_back(uids.get<std::uint64_t>());
        }
        on_segment(seg);
      }
      if (type == SegmentType::kRecords)
        stats.records_replayed += count;
      else
        stats.retires_replayed += count;
    }
    at += kWalSegmentHeaderSize + len;
  }
  stats.durable_bytes = at;
  stats.truncated_bytes = image.size() - at;
  return stats;
}

}  // namespace

void WalReplayStats::merge(const WalReplayStats& other) noexcept {
  segments_replayed += other.segments_replayed;
  records_replayed += other.records_replayed;
  retires_replayed += other.retires_replayed;
  duplicates_skipped += other.duplicates_skipped;
  truncated_bytes += other.truncated_bytes;
  durable_bytes += other.durable_bytes;
  last_seq = std::max(last_seq, other.last_seq);
  header_valid = header_valid || other.header_valid;
}

void append_record_payload(std::vector<char>& out, const core::FleetObservation& obs) {
  put(out, static_cast<std::uint8_t>(obs.drive_model));
  put(out, store::FlagsField::get(obs.record));
  put(out, obs.record.factory_bad_blocks);
  put(out, obs.drive_index);
  put(out, obs.deploy_day);
  store::for_each_record_column([&](std::size_t, auto column) {
    if constexpr (column.width == 4) put(out, column.get(obs.record));
  });
}

core::FleetObservation parse_record_payload(const char* bytes) {
  io::ByteReader in({bytes, kWalRecordSize}, kTruncated);
  core::FleetObservation obs;
  obs.drive_model = static_cast<trace::DriveModel>(in.get<std::uint8_t>());
  store::FlagsField::set(obs.record, in.get<std::uint8_t>());
  obs.record.factory_bad_blocks = in.get<std::uint16_t>();
  obs.drive_index = in.get<std::uint32_t>();
  obs.deploy_day = in.get<std::int32_t>();
  store::for_each_record_column([&](std::size_t, auto column) {
    if constexpr (column.width == 4)
      column.set(obs.record, in.get<typename decltype(column)::value_type>());
  });
  return obs;
}

WalWriter::WalWriter(std::string path, std::uint32_t shard, FsyncPolicy fsync,
                     std::uint64_t first_seq)
    : file_(std::move(path), fsync == FsyncPolicy::kEverySegment), fsync_(fsync) {
  const WalReplayStats stats =
      scan_image(io::read_file(file_.path()).value_or(std::vector<char>{}), nullptr);
  // Drop a torn or corrupt tail (or a whole alien file) so the next append
  // starts at a clean boundary, and continue the seq chain past the
  // durable log.
  if (stats.truncated_bytes > 0) file_.truncate(stats.durable_bytes);
  next_seq_ = std::max(first_seq, stats.last_seq + 1);
  bytes_ = stats.durable_bytes;
  if (!stats.header_valid) {
    std::vector<char> header;
    put(header, kWalMagic);
    put(header, kWalVersion);
    put(header, shard);
    put(header, std::uint32_t{0});  // reserved, must be zero
    file_.append(header);
    bytes_ = header.size();
  }
}

std::uint64_t WalWriter::append_segment(SegmentType type, std::uint32_t count,
                                        std::span<const char> payload) {
  const std::uint64_t seq = next_seq_++;
  std::vector<char> frame;
  frame.reserve(kWalSegmentHeaderSize + payload.size());
  put(frame, kSegmentMarker);
  put(frame, seq);
  put(frame, static_cast<std::uint32_t>(type));
  put(frame, count);
  put(frame, static_cast<std::uint32_t>(payload.size()));
  std::uint32_t crc = store::crc32(0, std::span<const char>(frame).subspan(4, 20));
  crc = store::crc32(crc, payload);
  put(frame, crc);
  frame.insert(frame.end(), payload.begin(), payload.end());
  file_.append(frame);
  if (fsync_ == FsyncPolicy::kEverySegment) sync();
  ++segments_;
  bytes_ += frame.size();
  return seq;
}

std::uint64_t WalWriter::append(std::span<const core::FleetObservation> batch) {
  std::vector<char> payload;
  payload.reserve(batch.size() * kWalRecordSize);
  for (const core::FleetObservation& obs : batch) append_record_payload(payload, obs);
  return append_segment(SegmentType::kRecords,
                        static_cast<std::uint32_t>(batch.size()), payload);
}

std::uint64_t WalWriter::append_retires(std::span<const std::uint64_t> uids) {
  std::vector<char> payload;
  payload.reserve(uids.size() * 8);
  for (std::uint64_t uid : uids) put(payload, uid);
  return append_segment(SegmentType::kRetires, static_cast<std::uint32_t>(uids.size()),
                        payload);
}

void WalWriter::sync() { file_.sync(); }

void WalWriter::seal(const std::string& sealed_path) { file_.seal(sealed_path); }

WalReplayStats replay_wal(const std::string& path,
                          const std::function<void(const WalSegment&)>& on_segment) {
  const std::optional<std::vector<char>> image = io::read_file(path);
  if (!image) return {};
  return scan_image(*image, on_segment);
}

WalReplayStats replay_wal_image(std::span<const char> image,
                                const std::function<void(const WalSegment&)>& on_segment) {
  return scan_image(image, on_segment);
}

std::string wal_path(const std::string& dir, std::uint32_t shard) {
  return dir + "/wal-" + std::to_string(shard) + ".swal";
}

std::string sealed_wal_path(const std::string& dir, std::uint32_t shard,
                            std::uint64_t last_seq) {
  char name[64];
  std::snprintf(name, sizeof(name), "wal-%u-%016llu.sealed.swal", shard,
                static_cast<unsigned long long>(last_seq));
  return dir + "/" + name;
}

std::vector<std::string> list_sealed_wals(const std::string& dir,
                                          std::optional<std::uint32_t> shard) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    constexpr const char* kSuffix = ".sealed.swal";
    if (name.size() <= std::strlen(kSuffix) + 4 ||
        name.compare(name.size() - std::strlen(kSuffix), std::string::npos,
                     kSuffix) != 0 ||
        name.rfind("wal-", 0) != 0)
      continue;
    if (shard) {
      const std::string prefix = "wal-" + std::to_string(*shard) + "-";
      if (name.rfind(prefix, 0) != 0) continue;
    }
    out.push_back(entry.path().string());
  }
  // Zero-padded seq in the name makes lexicographic order replay order.
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ssdfail::daemon
