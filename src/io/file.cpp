#include "io/file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <utility>

#ifndef MAP_POPULATE
#define MAP_POPULATE 0  // prefaulting is an optimization only
#endif

namespace ssdfail::io {
namespace {

FileOpHook& hook() {
  static FileOpHook installed;
  return installed;
}

void before(FileOp op, const std::string& path) {
  if (const FileOpHook& h = hook()) h(op, path);
}

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("io: " + what + " " + path + ": " + std::strerror(errno));
}

void write_all(int fd, const std::string& path, const char* data, std::size_t size) {
  before(FileOp::kWrite, path);
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) fail("write failed for", path);
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

void fsync_fd(int fd, const std::string& path) {
  before(FileOp::kFsync, path);
  if (::fsync(fd) != 0) fail("fsync failed for", path);
}

/// Make the directory entry of `path` durable (its create, rename or unlink).
void fsync_dir(const std::string& path) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? std::string(".") : parent.string();
  before(FileOp::kFsyncDir, dir);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) fail("cannot open directory", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) fail("fsync failed for directory", dir);
}

void rename_over(const std::string& from, const std::string& to) {
  before(FileOp::kRename, to);
  if (std::rename(from.c_str(), to.c_str()) != 0) fail("cannot rename " + from + " ->", to);
}

/// Writes an ostream through to a file descriptor in 64 KiB blocks.
class FdOutBuf final : public std::streambuf {
 public:
  FdOutBuf(int fd, const std::string& path) : fd_(fd), path_(path), buf_(1 << 16) {
    setp(buf_.data(), buf_.data() + buf_.size());
  }

 protected:
  int_type overflow(int_type ch) override {
    sync();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) sputc(traits_type::to_char_type(ch));
    return traits_type::not_eof(ch);
  }

  int sync() override {
    const auto n = static_cast<std::size_t>(pptr() - pbase());
    if (n > 0) write_all(fd_, path_, pbase(), n);
    written_ += n;
    setp(buf_.data(), buf_.data() + buf_.size());
    return 0;
  }

  /// Answers position queries (tellp) only, for the byte counters.
  pos_type seekoff(off_type off, std::ios_base::seekdir dir, std::ios_base::openmode) override {
    if (off != 0 || dir != std::ios_base::cur) return pos_type(off_type(-1));
    return pos_type(static_cast<off_type>(written_ + (pptr() - pbase())));
  }

 private:
  int fd_;
  const std::string& path_;
  std::vector<char> buf_;
  std::uint64_t written_ = 0;
};

}  // namespace

void set_file_op_hook(FileOpHook h) { hook() = std::move(h); }

std::optional<std::vector<char>> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in && errno == ENOENT) return std::nullopt;
  if (!in) fail("cannot open", path);
  std::vector<char> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  if (!in.read(bytes.data(), static_cast<std::streamsize>(bytes.size())))
    fail("cannot read", path);
  return bytes;
}

std::optional<MappedBytes> map_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct stat st {};
  void* base = MAP_FAILED;
  // Prefault the whole mapping: stores are opened to be read end to end
  // (the CRC check touches every chunk), and one bulk populate is much
  // cheaper than thousands of soft page faults.
  if (::fstat(fd, &st) == 0 && st.st_size > 0)
    base = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                  MAP_PRIVATE | MAP_POPULATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (base == MAP_FAILED) return std::nullopt;
  const auto size = static_cast<std::size_t>(st.st_size);
  return MappedBytes{std::shared_ptr<const void>(base, [size](const void* p) {
                       ::munmap(const_cast<void*>(p), size);
                     }),
                     {static_cast<const char*>(base), size}};
}

void commit_file(const std::string& path, const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  int fd = -1;
  try {
    before(FileOp::kOpen, tmp);
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) fail("cannot open", tmp);
    {
      FdOutBuf buf(fd, tmp);
      std::ostream out(&buf);
      out.exceptions(std::ios::badbit | std::ios::failbit);  // rethrows write errors
      write(out);
      out.flush();
    }
    fsync_fd(fd, tmp);
    if (::close(std::exchange(fd, -1)) != 0) fail("cannot close", tmp);
    rename_over(tmp, path);
    fsync_dir(path);
  } catch (...) {
    if (fd >= 0) ::close(fd);
    try {
      before(FileOp::kRemove, tmp);
      ::unlink(tmp.c_str());
    } catch (...) {
      // A hook that fails the cleanup models a crash: the temp file stays.
    }
    throw;
  }
}

void remove_file(const std::string& path) {
  before(FileOp::kRemove, path);
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) fail("cannot remove", path);
  fsync_dir(path);
}

void make_dirs(const std::string& path) {
  if (std::filesystem::create_directories(path)) fsync_dir(path);
}

AppendFile::AppendFile(std::string path, bool durable) : path_(std::move(path)) {
  before(FileOp::kOpen, path_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) fail("cannot open", path_);
  if (durable) fsync_dir(path_);
}

AppendFile::~AppendFile() {
  if (fd_ >= 0) ::close(fd_);
}

int AppendFile::fd() const {
  if (fd_ < 0) throw std::runtime_error("io: " + path_ + " is sealed");
  return fd_;
}

void AppendFile::append(std::span<const char> bytes) {
  write_all(fd(), path_, bytes.data(), bytes.size());
}

void AppendFile::truncate(std::uint64_t length) {
  before(FileOp::kTruncate, path_);
  if (::ftruncate(fd(), static_cast<off_t>(length)) != 0) fail("cannot truncate", path_);
}

void AppendFile::sync() { fsync_fd(fd(), path_); }

void AppendFile::seal(const std::string& sealed_path) {
  sync();
  ::close(std::exchange(fd_, -1));
  rename_over(path_, sealed_path);
  fsync_dir(sealed_path);
}

}  // namespace ssdfail::io
