#ifndef FACTION_TENSOR_MATRIX_H_
#define FACTION_TENSOR_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/check.h"

namespace faction {

/// Dense row-major matrix of doubles. This is the numeric workhorse under
/// the neural nets, the GDA/GMM density estimator, and the clustering code.
///
/// The class is a value type (copyable and movable). Indexing is
/// bounds-checked only via FACTION_CHECK in At(); the unchecked operator()
/// is used on hot paths.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Constant-filled rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer lists: Matrix m = {{1,2},{3,4}};
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Element access; bounds-checked only in debug/sanitizer builds
  /// (hot paths).
  double& operator()(std::size_t r, std::size_t c) {
    FACTION_DCHECK_LT(r, rows_);
    FACTION_DCHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    FACTION_DCHECK_LT(r, rows_);
    FACTION_DCHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  /// Checked element access; aborts on out-of-range (programmer error).
  // lint-allow(test-only-api): check_test pins the range-check abort through it
  double& At(std::size_t r, std::size_t c);
  double At(std::size_t r, std::size_t c) const;

  /// Raw storage access for bulk ops.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Pointer to the start of row r; r is bounds-checked only in
  /// debug/sanitizer builds.
  double* row_data(std::size_t r) {
    FACTION_DCHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }
  const double* row_data(std::size_t r) const {
    FACTION_DCHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }

  /// Copies row r into a vector.
  std::vector<double> Row(std::size_t r) const;

  /// Overwrites row r from a vector of length cols().
  void SetRow(std::size_t r, const std::vector<double>& values);

  /// Sets every element to `value`.
  void Fill(double value);

  /// Resizes to rows x cols, zero-filling (previous contents discarded).
  void Resize(std::size_t rows, std::size_t cols);

  /// Resizes to rows x cols without zero-filling: element values are
  /// unspecified (stale) until written. For scratch buffers whose every
  /// element the caller overwrites before reading — skips the O(rows*cols)
  /// clear that Resize() pays. Capacity is retained across calls, so
  /// repeated ResizeForOverwrite to the same-or-smaller shape allocates
  /// nothing.
  void ResizeForOverwrite(std::size_t rows, std::size_t cols);

  /// Identity matrix of order n.
  static Matrix Identity(std::size_t n);

  /// Matrix whose single row is `v`.
  static Matrix FromRowVector(const std::vector<double>& v);

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

}  // namespace faction

#endif  // FACTION_TENSOR_MATRIX_H_
