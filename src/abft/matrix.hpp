#pragma once
/// \file matrix.hpp
/// Dense double-precision matrices for the ABFT kernels. Row-major owning
/// Matrix plus lightweight strided views so the blocked algorithms can
/// operate on sub-blocks without copies.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace abftc::abft {

class Matrix;

/// Non-owning mutable view of a sub-block (row-major, leading dimension ld).
class MatrixView {
 public:
  MatrixView(double* data, std::size_t rows, std::size_t cols, std::size_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    ABFTC_REQUIRE(ld >= cols, "leading dimension must cover the row");
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t ld() const noexcept { return ld_; }
  [[nodiscard]] double* data() const noexcept { return data_; }

  [[nodiscard]] double& operator()(std::size_t i, std::size_t j) const {
    return data_[i * ld_ + j];
  }

  /// Sub-view [r0, r0+nr) × [c0, c0+nc).
  [[nodiscard]] MatrixView block(std::size_t r0, std::size_t c0,
                                 std::size_t nr, std::size_t nc) const {
    ABFTC_REQUIRE(r0 + nr <= rows_ && c0 + nc <= cols_,
                  "sub-view out of range");
    return MatrixView(data_ + r0 * ld_ + c0, nr, nc, ld_);
  }

 private:
  double* data_;
  std::size_t rows_, cols_, ld_;
};

/// Non-owning read-only view.
class ConstMatrixView {
 public:
  ConstMatrixView(const double* data, std::size_t rows, std::size_t cols,
                  std::size_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    ABFTC_REQUIRE(ld >= cols, "leading dimension must cover the row");
  }
  ConstMatrixView(MatrixView v)  // NOLINT(google-explicit-constructor)
      : data_(v.data()), rows_(v.rows()), cols_(v.cols()), ld_(v.ld()) {}
  /// The whole of `m`; valid while `m` lives and keeps its shape.
  ConstMatrixView(const Matrix& m);  // NOLINT(google-explicit-constructor)

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t ld() const noexcept { return ld_; }
  [[nodiscard]] const double* data() const noexcept { return data_; }

  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const {
    return data_[i * ld_ + j];
  }

  [[nodiscard]] ConstMatrixView block(std::size_t r0, std::size_t c0,
                                      std::size_t nr, std::size_t nc) const {
    ABFTC_REQUIRE(r0 + nr <= rows_ && c0 + nc <= cols_,
                  "sub-view out of range");
    return ConstMatrixView(data_ + r0 * ld_ + c0, nr, nc, ld_);
  }

  [[nodiscard]] double max_abs() const;

 private:
  const double* data_;
  std::size_t rows_, cols_, ld_;
};

/// Owning row-major dense matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// An owning copy of `src`.
  explicit Matrix(ConstMatrixView src);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  [[nodiscard]] MatrixView view() {
    return MatrixView(data_.data(), rows_, cols_, cols_);
  }
  [[nodiscard]] ConstMatrixView view() const {
    return ConstMatrixView(data_.data(), rows_, cols_, cols_);
  }
  [[nodiscard]] MatrixView block(std::size_t r0, std::size_t c0,
                                 std::size_t nr, std::size_t nc) {
    return view().block(r0, c0, nr, nc);
  }
  [[nodiscard]] ConstMatrixView block(std::size_t r0, std::size_t c0,
                                      std::size_t nr, std::size_t nc) const {
    return view().block(r0, c0, nr, nc);
  }

  [[nodiscard]] std::vector<double>& storage() noexcept { return data_; }
  [[nodiscard]] const std::vector<double>& storage() const noexcept {
    return data_;
  }

  // Generators -------------------------------------------------------------
  [[nodiscard]] static Matrix zeros(std::size_t rows, std::size_t cols);
  [[nodiscard]] static Matrix identity(std::size_t n);
  /// Entries uniform in [-1, 1].
  [[nodiscard]] static Matrix random(std::size_t rows, std::size_t cols,
                                     common::Rng& rng);
  /// Random strictly diagonally dominant matrix (LU without pivoting is
  /// numerically stable on these — the standard ABFT-LU demo class).
  [[nodiscard]] static Matrix diag_dominant(std::size_t n, common::Rng& rng);
  /// Random symmetric positive definite matrix (B·Bᵀ + n·I).
  [[nodiscard]] static Matrix spd(std::size_t n, common::Rng& rng);

  // Reductions ---------------------------------------------------------------
  [[nodiscard]] double max_abs() const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

inline ConstMatrixView::ConstMatrixView(const Matrix& m)
    : ConstMatrixView(m.view()) {}

/// The NaN-safe max-|x| fold every residual check uses. |x| as its IEEE
/// bits orders like |x| over the finite values, puts +Inf above them and NaN
/// above all, so an integer max never drops a non-finite value the way
/// std::max(worst, NaN) does. Branch-free, so the folds vectorize.
[[nodiscard]] inline std::uint64_t abs_bits(double x) noexcept {
  return std::bit_cast<std::uint64_t>(x) & 0x7FFF'FFFF'FFFF'FFFFULL;
}
/// The |x| a max over abs_bits stands for; a non-finite x reads as +Inf,
/// which every `> floor` / `<= floor` judgement already treats as failure.
[[nodiscard]] inline double abs_from_bits(std::uint64_t bits) noexcept {
  return bits >= abs_bits(std::numeric_limits<double>::infinity())
             ? std::numeric_limits<double>::infinity()
             : std::bit_cast<double>(bits);
}

/// max |a - b| over all entries (shape must match); +Inf if any difference
/// is non-finite (a NaN or Inf on either side).
[[nodiscard]] double max_abs_diff(ConstMatrixView a, ConstMatrixView b);

/// ||a − b||_F / (||b||_F + tiny): relative error for verification.
[[nodiscard]] double relative_error(ConstMatrixView a, ConstMatrixView b);

/// Copy `src` into `dst` (shapes must match).
void copy_into(ConstMatrixView src, MatrixView dst);

/// Fill a view with a constant (used to wipe "lost" blocks).
void fill(MatrixView v, double value);

/// Matrix::diag_dominant's values, written into the square view `m` in one
/// pass: the entries uniform in [-1, 1] row by row, then each diagonal entry
/// replaced by its row's off-diagonal |x| sum (j ascending) + 1 +
/// uniform01(), in row order. Writes nothing outside the view.
void fill_diag_dominant(MatrixView m, common::Rng& rng);

}  // namespace abftc::abft
