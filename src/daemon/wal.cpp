#include "daemon/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "store/crc32.hpp"

namespace ssdfail::daemon {

namespace {

void put_u16(std::vector<char>& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void put_u32(std::vector<char>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::vector<char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint16_t get_u16(const char* p) {
  return static_cast<std::uint16_t>(static_cast<unsigned char>(p[0]) |
                                    (static_cast<unsigned char>(p[1]) << 8));
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

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
  if (get_u32(image.data()) != kWalMagic || get_u32(image.data() + 4) != kWalVersion ||
      get_u32(image.data() + 12) != 0) {
    stats.truncated_bytes = image.size();
    return stats;
  }
  stats.header_valid = true;
  std::size_t at = kWalFileHeaderSize;

  while (at + kWalSegmentHeaderSize <= image.size()) {
    const char* h = image.data() + at;
    if (get_u32(h) != kSegmentMarker) break;
    const std::uint64_t seq = get_u64(h + 4);
    const std::uint32_t type_raw = get_u32(h + 12);
    const std::uint32_t count = get_u32(h + 16);
    const std::uint32_t len = get_u32(h + 20);
    const std::uint32_t crc_stored = get_u32(h + 24);
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
        const char* payload = image.data() + at + kWalSegmentHeaderSize;
        if (type == SegmentType::kRecords) {
          seg.records.reserve(count);
          for (std::uint32_t r = 0; r < count; ++r)
            seg.records.push_back(parse_record_payload(payload + r * kWalRecordSize));
        } else {
          seg.retired_uids.reserve(count);
          for (std::uint32_t r = 0; r < count; ++r)
            seg.retired_uids.push_back(get_u64(payload + r * 8));
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

std::vector<char> read_file(const std::string& path, bool& exists) {
  std::ifstream in(path, std::ios::binary);
  exists = static_cast<bool>(in);
  std::vector<char> bytes;
  if (!exists) return bytes;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0);
  if (size > 0) {
    bytes.resize(static_cast<std::size_t>(size));
    in.read(bytes.data(), size);
    if (!in) throw std::runtime_error("wal: cannot read " + path);
  }
  return bytes;
}

void write_all(int fd, const char* data, std::size_t size, const std::string& path) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("wal: write failed for " + path + ": " +
                               std::strerror(errno));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
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
  out.push_back(static_cast<char>(obs.drive_model));
  out.push_back(static_cast<char>(store::FlagsField::get(obs.record)));
  put_u16(out, obs.record.factory_bad_blocks);
  put_u32(out, obs.drive_index);
  put_u32(out, static_cast<std::uint32_t>(obs.deploy_day));
  store::for_each_record_column([&](std::size_t, auto column) {
    if constexpr (column.width == 4)
      put_u32(out, static_cast<std::uint32_t>(column.get(obs.record)));
  });
}

core::FleetObservation parse_record_payload(const char* p) {
  core::FleetObservation obs;
  obs.drive_model = static_cast<trace::DriveModel>(static_cast<unsigned char>(p[0]));
  store::FlagsField::set(obs.record, static_cast<std::uint8_t>(p[1]));
  obs.record.factory_bad_blocks = get_u16(p + 2);
  obs.drive_index = get_u32(p + 4);
  obs.deploy_day = static_cast<std::int32_t>(get_u32(p + 8));
  p += kWalObservationHeaderSize;
  store::for_each_record_column([&](std::size_t, auto column) {
    if constexpr (column.width == 4) {
      column.set(obs.record, static_cast<typename decltype(column)::value_type>(get_u32(p)));
      p += 4;
    }
  });
  return obs;
}

WalWriter::WalWriter(std::string path, std::uint32_t shard, FsyncPolicy fsync,
                     std::uint64_t first_seq)
    : path_(std::move(path)), fsync_(fsync) {
  bool exists = false;
  const std::vector<char> image = read_file(path_, exists);
  WalReplayStats stats;
  if (exists) stats = scan_image(image, nullptr);

  fd_ = ::open(path_.c_str(), O_CREAT | O_WRONLY, 0644);
  if (fd_ < 0)
    throw std::runtime_error("wal: cannot open " + path_ + ": " + std::strerror(errno));

  next_seq_ = std::max<std::uint64_t>(first_seq, 1);
  if (!exists || !stats.header_valid) {
    // Fresh (or alien) file: write the header from scratch.
    if (::ftruncate(fd_, 0) != 0)
      throw std::runtime_error("wal: cannot truncate " + path_);
    std::vector<char> header;
    put_u32(header, kWalMagic);
    put_u32(header, kWalVersion);
    put_u32(header, shard);
    put_u32(header, 0);  // reserved, must be zero
    write_all(fd_, header.data(), header.size(), path_);
    bytes_ = header.size();
  } else {
    // Resume: drop the torn/corrupt tail so the next append starts at a
    // clean boundary, and continue the seq chain past the durable log.
    if (::ftruncate(fd_, static_cast<off_t>(stats.durable_bytes)) != 0)
      throw std::runtime_error("wal: cannot truncate " + path_);
    if (::lseek(fd_, 0, SEEK_END) < 0)
      throw std::runtime_error("wal: cannot seek " + path_);
    next_seq_ = std::max(next_seq_, stats.last_seq + 1);
    bytes_ = stats.durable_bytes;
  }
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t WalWriter::append_segment(SegmentType type, std::uint32_t count,
                                        std::span<const char> payload) {
  const std::uint64_t seq = next_seq_++;
  std::vector<char> frame;
  frame.reserve(kWalSegmentHeaderSize + payload.size());
  put_u32(frame, kSegmentMarker);
  put_u64(frame, seq);
  put_u32(frame, static_cast<std::uint32_t>(type));
  put_u32(frame, count);
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  std::uint32_t crc = store::crc32(0, std::span<const char>(frame).subspan(4, 20));
  crc = store::crc32(crc, payload);
  put_u32(frame, crc);
  frame.insert(frame.end(), payload.begin(), payload.end());
  write_all(fd_, frame.data(), frame.size(), path_);
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
  for (std::uint64_t uid : uids) put_u64(payload, uid);
  return append_segment(SegmentType::kRetires, static_cast<std::uint32_t>(uids.size()),
                        payload);
}

void WalWriter::sync() {
  if (fd_ >= 0 && ::fsync(fd_) != 0)
    throw std::runtime_error("wal: fsync failed for " + path_);
}

void WalWriter::seal(const std::string& sealed_path) {
  if (fd_ < 0) throw std::runtime_error("wal: seal on a closed writer");
  sync();
  ::close(fd_);
  fd_ = -1;
  if (std::rename(path_.c_str(), sealed_path.c_str()) != 0)
    throw std::runtime_error("wal: cannot seal " + path_ + " -> " + sealed_path +
                             ": " + std::strerror(errno));
}

WalReplayStats replay_wal(const std::string& path,
                          const std::function<void(const WalSegment&)>& on_segment) {
  bool exists = false;
  const std::vector<char> image = read_file(path, exists);
  if (!exists) return {};
  return scan_image(image, on_segment);
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
