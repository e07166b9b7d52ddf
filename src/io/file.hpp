#pragma once

// The one file-ops seam: every durable file the system writes goes
// through here (docs/ARCHITECTURE.md §Durability).
//
//   AppendFile   an append-only log (the WAL): append, fsync, truncate to a
//                durable length, and seal (fsync, rename, fsync the
//                directory).
//   commit_file  atomic replace: stream into `path.tmp`, fsync it, rename
//                it over `path` and fsync the directory.  A crash at any
//                point leaves the old content or the new, never a torn
//                file; a failure removes the temp file.
//   remove_file  unlink and fsync the directory.
//   make_dirs    mkdir -p, the new directory's parent fsync'd.
//   read_file    a whole file, and map_file a read-only mapping of one
//                (reads need no durability contract).
//
// Every mutating operation first calls the installed FileOpHook, if any.
// None is installed outside tests; tests install one to record the
// operation sequence or to throw at the Nth operation.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace ssdfail::io {

enum class FileOp : std::uint8_t {
  kOpen,      ///< open for writing, creating the file if absent
  kWrite,
  kTruncate,
  kFsync,
  kRename,
  kFsyncDir,
  kRemove,
};

/// Called before each mutating operation with the path it acts on (for a
/// rename, the destination).  Throwing from it fails that operation.
using FileOpHook = std::function<void(FileOp op, const std::string& path)>;

/// Install `hook` (an empty one removes it).  Test-only: call it while no
/// other thread is doing file operations.
void set_file_op_hook(FileOpHook hook);

/// The whole content of `path`; std::nullopt when it does not exist.
/// Throws std::runtime_error on any other failure.
[[nodiscard]] std::optional<std::vector<char>> read_file(const std::string& path);

/// A read-only mapping: `bytes` stay valid while any copy of `owner` lives.
struct MappedBytes {
  std::shared_ptr<const void> owner;
  std::span<const char> bytes;
};

/// Map `path` read-only and prefault it.  std::nullopt on any failure
/// (missing or empty file, no mmap support); callers fall back to
/// read_file.
[[nodiscard]] std::optional<MappedBytes> map_file(const std::string& path);

/// Atomically replace `path` with what `write` streams to its argument.
/// The stream writes through to the temp file in fixed-size blocks (the
/// content is never buffered whole) and throws on the first failed write.
void commit_file(const std::string& path, const std::function<void(std::ostream&)>& write);

/// Unlink `path` (a missing file is not an error) and fsync its directory.
void remove_file(const std::string& path);

/// Create directory `path` and any missing parents; when `path` itself is
/// new, fsync its parent so files committed inside it stay reachable.
void make_dirs(const std::string& path);

/// An append-only file.  Not thread-safe: one owner appends.
class AppendFile {
 public:
  /// Open `path` for appending, creating it if absent.  With `durable`, the
  /// directory is fsync'd so a newly created file's entry is on disk.
  AppendFile(std::string path, bool durable);
  ~AppendFile();
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  void append(std::span<const char> bytes);
  /// Cut the file to `length` bytes; later appends continue from there.
  void truncate(std::uint64_t length);
  void sync();
  /// fsync, close, rename to `sealed_path` and fsync its directory.  The
  /// file is closed afterwards; on failure the original path stays.
  void seal(const std::string& sealed_path);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  int fd() const;

  std::string path_;
  int fd_ = -1;
};

}  // namespace ssdfail::io
