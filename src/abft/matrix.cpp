#include "abft/matrix.hpp"

#include <cmath>

namespace abftc::abft {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  ABFTC_REQUIRE(rows > 0 && cols > 0, "matrix dimensions must be positive");
}

Matrix::Matrix(ConstMatrixView src) : Matrix(src.rows(), src.cols()) {
  copy_into(src, view());
}

Matrix Matrix::zeros(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols, 0.0);
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::random(std::size_t rows, std::size_t cols, common::Rng& rng) {
  Matrix m(rows, cols);
  for (double& x : m.data_) x = rng.uniform(-1.0, 1.0);
  return m;
}

Matrix Matrix::diag_dominant(std::size_t n, common::Rng& rng) {
  Matrix m(n, n);
  fill_diag_dominant(m.view(), rng);
  return m;
}

Matrix Matrix::spd(std::size_t n, common::Rng& rng) {
  const Matrix b = random(n, n, rng);
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < n; ++k) {
      const double bik = b(i, k);
      for (std::size_t j = 0; j <= i; ++j) m(i, j) += bik * b(j, k);
    }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) m(i, j) = m(j, i);
  for (std::size_t i = 0; i < n; ++i)
    m(i, i) += static_cast<double>(n);
  return m;
}

double ConstMatrixView::max_abs() const {
  double m = 0.0;
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j)
      m = std::max(m, std::fabs((*this)(i, j)));
  return m;
}

double Matrix::max_abs() const { return view().max_abs(); }

double max_abs_diff(ConstMatrixView a, ConstMatrixView b) {
  ABFTC_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                "shape mismatch");
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      worst = std::max(worst, abs_bits(a(i, j) - b(i, j)));
  return abs_from_bits(worst);
}

double relative_error(ConstMatrixView a, ConstMatrixView b) {
  ABFTC_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                "shape mismatch");
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double d = a(i, j) - b(i, j);
      num += d * d;
      den += b(i, j) * b(i, j);
    }
  return std::sqrt(num) / (std::sqrt(den) + 1e-300);
}

void copy_into(ConstMatrixView src, MatrixView dst) {
  ABFTC_REQUIRE(src.rows() == dst.rows() && src.cols() == dst.cols(),
                "shape mismatch");
  for (std::size_t i = 0; i < src.rows(); ++i)
    for (std::size_t j = 0; j < src.cols(); ++j) dst(i, j) = src(i, j);
}

void fill(MatrixView v, double value) {
  for (std::size_t i = 0; i < v.rows(); ++i)
    for (std::size_t j = 0; j < v.cols(); ++j) v(i, j) = value;
}

void fill_diag_dominant(MatrixView m, common::Rng& rng) {
  ABFTC_REQUIRE(m.rows() == m.cols(), "a diagonally dominant matrix is square");
  const std::size_t n = m.rows();
  // Each row's off-diagonal sum is folded in as its entries are drawn, and
  // parked in the diagonal slot, whose own draw it replaces. The diagonal
  // terms come last in the stream, so they take a second (strided) loop.
  for (std::size_t i = 0; i < n; ++i) {
    double* row = &m(i, 0);
    double off = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = rng.uniform(-1.0, 1.0);
      if (j != i) off += std::fabs(row[j]);
    }
    row[i] = off;
  }
  for (std::size_t i = 0; i < n; ++i) m(i, i) = m(i, i) + 1.0 + rng.uniform01();
}

}  // namespace abftc::abft
