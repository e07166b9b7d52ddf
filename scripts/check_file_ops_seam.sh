#!/usr/bin/env bash
# Fail if any file under src/ writes, fsyncs, truncates, renames or
# removes a file, or opens one through an fstream, outside the file-ops
# seam (src/io/file.cpp) and the read-only mmap wrapper
# (src/store/mmap_file.cpp).  Every durable write then passes the seam's
# test hook, which the durability-order and crash-point tests rely on.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# `::write(` etc. only as the global POSIX call, not as `Type::write(`.
pattern='std::rename|(^|[^[:alnum:]_])::(fsync|ftruncate|write)\b|std::filesystem::remove|std::ofstream|std::ifstream'
hits=$(grep -rnE "$pattern" src \
  | grep -vE '^src/io/file\.cpp:|^src/store/mmap_file\.cpp:' || true)
if [[ -n "$hits" ]]; then
  echo "error: file operations outside the io/file.hpp seam:" >&2
  echo "$hits" >&2
  exit 1
fi
echo "file-ops seam check OK"
