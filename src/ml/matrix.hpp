#pragma once

// Dense row-major float matrix — the feature-matrix currency of ssdfail::ml
// (every Section 5 experiment moves features through it).  float storage
// halves memory for the multi-million-row evaluation sets; all reductions
// accumulate in double.

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace ssdfail::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0; }

  [[nodiscard]] float& operator()(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float operator()(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<float> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const float> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  /// Append a row (must match cols; sets cols on the first append).
  void push_row(std::span<const float> values);

  /// Drop every row but keep the width and the allocation, so a scratch
  /// matrix refilled per batch stops allocating once it has seen its largest.
  void clear() noexcept {
    rows_ = 0;
    data_.clear();
  }

  /// Append all rows of another matrix (widths must match, or this empty).
  void append_rows(const Matrix& other);

  /// New matrix containing the given rows, in the given order.
  [[nodiscard]] Matrix select_rows(std::span<const std::size_t> indices) const;

  [[nodiscard]] const std::vector<float>& data() const noexcept { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace ssdfail::ml
