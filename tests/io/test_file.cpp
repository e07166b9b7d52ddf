// The file-ops seam: commit replaces a file whole or not at all, the
// append-only log appends, truncates and seals, and the test hook sees
// every mutating call in order.

#include "io/file.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ssdfail::io {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("ssdfail_io_" + tag + "_" + std::to_string(::getpid())))
                  .string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Installs a seam hook for its lifetime.
class ScopedHook {
 public:
  explicit ScopedHook(FileOpHook hook) { set_file_op_hook(std::move(hook)); }
  ~ScopedHook() { set_file_op_hook(nullptr); }
  ScopedHook(const ScopedHook&) = delete;
  ScopedHook& operator=(const ScopedHook&) = delete;
};

std::string content(const std::string& path) {
  const auto bytes = read_file(path);
  return bytes ? std::string(bytes->begin(), bytes->end()) : std::string("<missing>");
}

void write_text(const std::string& path, const std::string& text) {
  commit_file(path, [&](std::ostream& out) { out << text; });
}

TEST(FileSeam, ReadFileReportsMissingAsNullopt) {
  TempDir dir("read");
  EXPECT_FALSE(read_file(dir.path() + "/absent").has_value());
  write_text(dir.path() + "/a", "hello");
  EXPECT_EQ(content(dir.path() + "/a"), "hello");
}

TEST(FileSeam, CommitStreamsLargeContentAndReplacesTheTarget) {
  TempDir dir("commit");
  const std::string path = dir.path() + "/f";
  write_text(path, "old");
  const std::string big(300000, 'x');  // several stream blocks
  std::streampos reported = -1;
  commit_file(path, [&](std::ostream& out) {
    out.write(big.data(), static_cast<std::streamsize>(big.size()));
    reported = out.tellp();
  });
  EXPECT_EQ(content(path), big);
  EXPECT_EQ(reported, static_cast<std::streampos>(big.size()));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(FileSeam, FailedCommitKeepsTheOldFileAndRemovesTheTemp) {
  TempDir dir("commit_fail");
  const std::string path = dir.path() + "/f";
  write_text(path, "old");
  EXPECT_THROW(commit_file(path,
                           [](std::ostream& out) {
                             out << "partial";
                             throw std::runtime_error("writer failed");
                           }),
               std::runtime_error);
  EXPECT_EQ(content(path), "old");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // A failed block write surfaces as the seam's own error.
  const ScopedHook hook([](FileOp op, const std::string&) {
    if (op == FileOp::kWrite) throw std::runtime_error("disk full");
  });
  EXPECT_THROW(write_text(path, "new"), std::runtime_error);
  EXPECT_EQ(content(path), "old");
}

TEST(FileSeam, CommitCallsFsyncBeforeRenameAndThenTheDirectory) {
  TempDir dir("commit_order");
  const std::string path = dir.path() + "/f";
  std::vector<std::pair<FileOp, std::string>> ops;
  {
    const ScopedHook hook(
        [&](FileOp op, const std::string& p) { ops.emplace_back(op, p); });
    write_text(path, "x");
  }
  const std::vector<std::pair<FileOp, std::string>> want = {
      {FileOp::kOpen, path + ".tmp"},  {FileOp::kWrite, path + ".tmp"},
      {FileOp::kFsync, path + ".tmp"}, {FileOp::kRename, path},
      {FileOp::kFsyncDir, dir.path()},
  };
  EXPECT_EQ(ops, want);
}

TEST(FileSeam, AppendFileAppendsTruncatesAndSeals) {
  TempDir dir("append");
  const std::string path = dir.path() + "/log";
  const std::string sealed = dir.path() + "/log.sealed";
  {
    AppendFile log(path, true);
    log.append(std::string("abcdef"));
    log.truncate(3);
    log.append(std::string("XY"));
    log.sync();
  }
  EXPECT_EQ(content(path), "abcXY");
  {
    AppendFile log(path, true);  // reopening appends, never truncates
    log.append(std::string("Z"));
    log.seal(sealed);
    EXPECT_THROW(log.append(std::string("late")), std::runtime_error);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(content(sealed), "abcXYZ");
}

TEST(FileSeam, DurableOpenFsyncsTheDirectory) {
  TempDir dir("append_create");
  const std::string path = dir.path() + "/log";
  std::vector<FileOp> ops;
  const ScopedHook hook([&](FileOp op, const std::string&) { ops.push_back(op); });
  { AppendFile created(path, true); }
  { AppendFile reopened(path, true); }
  { AppendFile untracked(dir.path() + "/other", false); }
  const std::vector<FileOp> want = {FileOp::kOpen, FileOp::kFsyncDir, FileOp::kOpen,
                                    FileOp::kFsyncDir, FileOp::kOpen};
  EXPECT_EQ(ops, want);
}

TEST(FileSeam, RemoveAndMakeDirs) {
  TempDir dir("remove");
  const std::string nested = dir.path() + "/a/b";
  make_dirs(nested);
  EXPECT_TRUE(std::filesystem::is_directory(nested));
  make_dirs(nested);  // already there: no error
  write_text(nested + "/f", "x");
  remove_file(nested + "/f");
  EXPECT_FALSE(std::filesystem::exists(nested + "/f"));
  EXPECT_NO_THROW(remove_file(nested + "/f"));  // missing is not an error
}

}  // namespace
}  // namespace ssdfail::io
