#pragma once

// The one fixed-width little-endian byte codec behind every on-disk format:
// v1 trace rows, the SSDF2 v2/v3 columnar store and its column codecs, the
// shard manifest, the WAL and model files (docs/DATA_FORMAT.md §Byte order).
//
// Values are copied with memcpy in host byte order.  The formats are
// little-endian, so the build refuses any other host; the zero-copy v2
// column spans rely on the same fact when they read mapped bytes in place.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace ssdfail::io {

static_assert(std::endian::native == std::endian::little,
              "ssdfail file formats are little-endian and decoded in place");

namespace detail {
inline void append(std::string& out, const char* p, std::size_t n) { out.append(p, n); }
// Byte-wise push_back inlines for the 1-8 byte values appended here; a
// resize + memcpy of a run-time length made the v3 column encoder ~20%
// slower.
inline void append(std::vector<char>& out, const char* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out.push_back(p[i]);
}
}  // namespace detail

/// Append `value`'s bytes to `out` (a std::string or std::vector<char>).
template <typename T, typename Buffer>
void put(Buffer& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  detail::append(out, reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Append the low `width` (<= 8) bytes of `value`.
template <typename Buffer>
void put_uint(Buffer& out, std::uint64_t value, std::size_t width) {
  detail::append(out, reinterpret_cast<const char*>(&value), width);
}

/// Zero-pad `out` to the next multiple of 8 bytes.
template <typename Buffer>
void pad8(Buffer& out) {
  out.resize((out.size() + 7) & ~std::size_t{7}, '\0');
}

/// Bounds-checked reader over a byte span.  Every overrun throws
/// std::runtime_error carrying the caller's message, never an
/// out-of-range read.  Positions are relative to the span's start, so
/// align8 matches file offsets when the span starts on an 8-byte boundary.
class ByteReader {
 public:
  ByteReader(std::span<const char> bytes, const char* overrun_message) noexcept
      : bytes_(bytes), overrun_(overrun_message) {}

  template <typename T>
  [[nodiscard]] T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    std::memcpy(&value, take(sizeof(T)).data(), sizeof(T));
    return value;
  }

  /// The next `width` (<= 8) bytes as a zero-extended integer.
  [[nodiscard]] std::uint64_t get_uint(std::size_t width) {
    std::uint64_t value = 0;
    std::memcpy(&value, take(width).data(), width);
    return value;
  }

  [[nodiscard]] std::span<const char> take(std::size_t n) {
    if (n > remaining()) throw std::runtime_error(overrun_);
    const std::span<const char> out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  void skip(std::size_t n) { (void)take(n); }

  /// Advance to the next 8-byte boundary.
  void align8() { skip(((pos_ + 7) & ~std::size_t{7}) - pos_); }

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == bytes_.size(); }

 private:
  std::span<const char> bytes_;
  const char* overrun_;
  std::size_t pos_ = 0;
};

}  // namespace ssdfail::io
