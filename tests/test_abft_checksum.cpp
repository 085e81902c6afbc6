// Tests for the block-group checksum encodings, the grid, the mini-BLAS and
// the Matrix utilities.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hpp"

#include "abft/blas.hpp"
#include "abft/checksum.hpp"

namespace {

using namespace abftc;
using namespace abftc::abft;

TEST(Grid, BlockCyclicOwnership) {
  const ProcessGrid g{2, 3};
  EXPECT_EQ(g.size(), 6u);
  EXPECT_EQ(g.rank_of_block(0, 0), 0u);
  EXPECT_EQ(g.rank_of_block(0, 1), 1u);
  EXPECT_EQ(g.rank_of_block(1, 0), 3u);
  EXPECT_EQ(g.rank_of_block(2, 3), 0u);  // wraps both ways
  EXPECT_EQ(g.grid_row(4), 1u);
  EXPECT_EQ(g.grid_col(4), 1u);
}

TEST(Grid, BlocksOfRankEnumeratesFootprint) {
  const ProcessGrid g{2, 2};
  const auto blocks = blocks_of_rank(g, 3, 4, 4);  // rank (1,1)
  EXPECT_EQ(blocks.size(), 4u);
  for (const auto& [bi, bj] : blocks) {
    EXPECT_EQ(bi % 2, 1u);
    EXPECT_EQ(bj % 2, 1u);
  }
  EXPECT_THROW(blocks_of_rank(g, 9, 4, 4), common::precondition_error);
}

TEST(Checksum, RowGroupSumsAreExact) {
  common::Rng rng(1);
  const Matrix a = Matrix::random(32, 16, rng);
  const Matrix cs = row_group_checksums(a, 8, 2);  // 4 block rows, 2 groups
  ASSERT_EQ(cs.rows(), 16u);
  for (std::size_t j = 0; j < 16; ++j) {
    EXPECT_NEAR(cs(0, j), a(0, j) + a(8, j), 1e-12);
    EXPECT_NEAR(cs(8, j), a(16, j) + a(24, j), 1e-12);
  }
  EXPECT_LT(row_checksum_residual(a, cs, 8, 2), 1e-12);
}

TEST(Checksum, ColGroupSumsAreExact) {
  common::Rng rng(2);
  const Matrix a = Matrix::random(16, 32, rng);
  const Matrix cs = col_group_checksums(a, 8, 2);
  ASSERT_EQ(cs.cols(), 16u);
  for (std::size_t i = 0; i < 16; ++i)
    EXPECT_NEAR(cs(i, 0), a(i, 0) + a(i, 8), 1e-12);
  EXPECT_LT(col_checksum_residual(a, cs, 8, 2), 1e-12);
}

TEST(Checksum, KillAndRecoverRoundTrip) {
  common::Rng rng(3);
  const ProcessGrid g{2, 2};
  Matrix a = Matrix::random(32, 32, rng);
  const Matrix original = a;
  const Matrix cs = row_group_checksums(a, 8, g.prows);
  kill_rank_blocks(a, 8, g, 1);
  EXPECT_TRUE(has_nan(a.view()));
  const auto stats = recover_rank_from_row_checksums(a, cs, 8, g.prows, g, 1);
  EXPECT_EQ(stats.blocks_recovered, 4u);
  EXPECT_LT(max_abs_diff(a, original), 1e-12);
}

TEST(Checksum, ColumnRecoveryRoundTrip) {
  common::Rng rng(4);
  const ProcessGrid g{2, 2};
  Matrix a = Matrix::random(32, 32, rng);
  const Matrix original = a;
  const Matrix cs = col_group_checksums(a, 8, g.pcols);
  kill_rank_blocks(a, 8, g, 2);
  const auto stats = recover_rank_from_col_checksums(a, cs, 8, g.pcols, g, 2);
  EXPECT_EQ(stats.blocks_recovered, 4u);
  EXPECT_LT(max_abs_diff(a, original), 1e-12);
}

TEST(Checksum, DoubleKillSameGroupUnrecoverable) {
  common::Rng rng(5);
  const ProcessGrid g{2, 2};
  Matrix a = Matrix::random(32, 32, rng);
  const Matrix cs = row_group_checksums(a, 8, g.prows);
  kill_rank_blocks(a, 8, g, 0);  // (0,0)
  kill_rank_blocks(a, 8, g, 2);  // (1,0): same grid column -> same groups
  EXPECT_THROW(recover_rank_from_row_checksums(a, cs, 8, g.prows, g, 0),
               unrecoverable_error);
}

TEST(Checksum, MaxAbsDiffReadsANonFiniteDifferenceAsInfinite) {
  const double inf = std::numeric_limits<double>::infinity();
  common::Rng rng(8);
  const Matrix a = Matrix::random(16, 16, rng);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf,
                           -inf}) {
    Matrix b = a;
    b(7, 3) = bad;
    EXPECT_FALSE(max_abs_diff(a, b) <= 0.0) << bad;
    EXPECT_EQ(max_abs_diff(a, b), inf) << bad;
    EXPECT_EQ(max_abs_diff(b, b), inf) << bad;  // NaN − NaN, Inf − Inf
  }
  // The row-checksum residual it backs fails a NaN in the data.
  Matrix c = a;
  const Matrix cs = row_group_checksums(c, 8, 2);
  c(2, 9) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(row_checksum_residual(c, cs, 8, 2) <= 1e-8);
}

TEST(Checksum, GroupCountValidation) {
  EXPECT_EQ(group_count(12, 3), 4u);
  EXPECT_THROW((void)group_count(10, 3), common::precondition_error);
  EXPECT_THROW((void)group_count(8, 0), common::precondition_error);
}

TEST(Matrix, GeneratorsHaveDocumentedProperties) {
  common::Rng rng(6);
  const Matrix dd = Matrix::diag_dominant(24, rng);
  for (std::size_t i = 0; i < 24; ++i) {
    double off = 0.0;
    for (std::size_t j = 0; j < 24; ++j)
      if (i != j) off += std::fabs(dd(i, j));
    EXPECT_GT(dd(i, i), off);
  }
  const Matrix s = Matrix::spd(16, rng);
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t j = 0; j < 16; ++j)
      EXPECT_DOUBLE_EQ(s(i, j), s(j, i));
}

TEST(Matrix, DiagDominantKeepsItsDrawOrder) {
  // The two-pass formula the one-pass generator replaced: every entry
  // drawn row by row, then each diagonal entry set to its row's
  // off-diagonal |x| sum (j ascending) + 1 + one more draw, in row order.
  const auto two_pass = [](std::size_t n, common::Rng& rng) {
    Matrix m(n, n);
    for (double& x : m.storage()) x = rng.uniform(-1.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      double off = 0.0;
      for (std::size_t j = 0; j < n; ++j)
        if (j != i) off += std::fabs(m(i, j));
      m(i, i) = off + 1.0 + rng.uniform01();
    }
    return m;
  };
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const std::size_t n : {1, 2, 7, 192}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    common::Rng old_rng(n + 11), new_rng(n + 11);
    const Matrix want = two_pass(n, old_rng);
    const Matrix got = Matrix::diag_dominant(n, new_rng);
    ASSERT_EQ(got.rows(), n);
    ASSERT_EQ(got.cols(), n);
    std::size_t differing = 0;
    for (std::size_t k = 0; k < n * n; ++k)
      differing += bits(got.storage()[k]) != bits(want.storage()[k]);
    EXPECT_EQ(differing, 0u);
    EXPECT_EQ(new_rng(), old_rng());  // the same number of draws

    // Into a strided view: the same values, and the padding (and the rows
    // around the view) left as they were.
    const std::size_t ld = n + 5;
    const double pad = -1234.5;
    Matrix host(n + 2, ld, pad);
    common::Rng view_rng(n + 11);
    fill_diag_dominant(host.block(1, 2, n, n), view_rng);
    std::size_t wrong = 0, touched = 0;
    for (std::size_t i = 0; i < n + 2; ++i)
      for (std::size_t j = 0; j < ld; ++j) {
        const bool inside = i >= 1 && i <= n && j >= 2 && j < n + 2;
        if (inside)
          wrong += bits(host(i, j)) != bits(want(i - 1, j - 2));
        else
          touched += bits(host(i, j)) != bits(pad);
      }
    EXPECT_EQ(wrong, 0u);
    EXPECT_EQ(touched, 0u);
  }
  Matrix wide(3, 4);
  common::Rng rng(1);
  EXPECT_THROW(fill_diag_dominant(wide.view(), rng),
               common::precondition_error);
}

TEST(Matrix, ViewsShareStorage) {
  Matrix m(8, 8, 1.0);
  auto block = m.block(2, 2, 3, 3);
  block(0, 0) = 42.0;
  EXPECT_DOUBLE_EQ(m(2, 2), 42.0);
  EXPECT_THROW((void)m.block(6, 6, 4, 4), common::precondition_error);
}

TEST(Blas, GemmMatchesNaiveAllTransposes) {
  common::Rng rng(7);
  const Matrix a = Matrix::random(5, 7, rng);
  const Matrix b = Matrix::random(7, 4, rng);
  Matrix c(5, 4, 0.0);
  gemm(1.0, a.view(), Trans::No, b.view(), Trans::No, 0.0, c.view());
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 4; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < 7; ++k) s += a(i, k) * b(k, j);
      EXPECT_NEAR(c(i, j), s, 1e-12);
    }
  // A·Bᵀ
  const Matrix bt = Matrix::random(4, 7, rng);
  Matrix c2(5, 4, 0.0);
  gemm(1.0, a.view(), Trans::No, bt.view(), Trans::Yes, 0.0, c2.view());
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 4; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < 7; ++k) s += a(i, k) * bt(j, k);
      EXPECT_NEAR(c2(i, j), s, 1e-12);
    }
  // Aᵀ·B
  const Matrix at = Matrix::random(7, 5, rng);
  Matrix c3(5, 4, 0.0);
  gemm(1.0, at.view(), Trans::Yes, b.view(), Trans::No, 0.0, c3.view());
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 4; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < 7; ++k) s += at(k, i) * b(k, j);
      EXPECT_NEAR(c3(i, j), s, 1e-12);
    }
}

TEST(Blas, GemmBetaScalesExistingContent) {
  common::Rng rng(8);
  const Matrix a = Matrix::random(3, 3, rng);
  const Matrix b = Matrix::random(3, 3, rng);
  Matrix c(3, 3, 1.0);
  gemm(0.0, a.view(), Trans::No, b.view(), Trans::No, 2.0, c.view());
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(c(i, j), 2.0);
}

TEST(Blas, TrsmRightUpperSolves) {
  common::Rng rng(9);
  Matrix u(4, 4, 0.0);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = i; j < 4; ++j)
      u(i, j) = (i == j) ? 2.0 + static_cast<double>(i) : rng.uniform(-1, 1);
  const Matrix x_true = Matrix::random(3, 4, rng);
  Matrix b(3, 4, 0.0);
  gemm(1.0, x_true.view(), Trans::No, u.view(), Trans::No, 0.0, b.view());
  trsm_right_upper(u.view(), b.view());
  EXPECT_LT(max_abs_diff(b, x_true), 1e-10);
}

TEST(Blas, TrsmLeftLowerUnitSolves) {
  common::Rng rng(10);
  Matrix l = Matrix::identity(4);
  for (std::size_t i = 1; i < 4; ++i)
    for (std::size_t j = 0; j < i; ++j) l(i, j) = rng.uniform(-1, 1);
  const Matrix x_true = Matrix::random(4, 3, rng);
  Matrix b(4, 3, 0.0);
  gemm(1.0, l.view(), Trans::No, x_true.view(), Trans::No, 0.0, b.view());
  trsm_left_lower_unit(l.view(), b.view());
  EXPECT_LT(max_abs_diff(b, x_true), 1e-10);
}

TEST(Blas, Getf2FactorsSmallSystems) {
  common::Rng rng(11);
  const Matrix a = Matrix::diag_dominant(8, rng);
  Matrix lu = a;
  getf2_nopiv(lu.view());
  // Rebuild and compare.
  Matrix prod(8, 8, 0.0);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j) {
      double s = (i <= j) ? lu(i, j) : 0.0;
      for (std::size_t p = 0; p < std::min(i, j + 1); ++p)
        s += lu(i, p) * lu(p, j);
      prod(i, j) = s;
    }
  EXPECT_LT(max_abs_diff(prod, a), 1e-10);
}

TEST(Blas, Geqr2ProducesOrthonormalReflectors) {
  common::Rng rng(12);
  Matrix a = Matrix::random(8, 4, rng);
  const Matrix a0 = a;
  std::vector<double> tau;
  geqr2(a.view(), tau);
  ASSERT_EQ(tau.size(), 4u);
  // Applying the reflectors to the original columns reproduces R.
  Matrix check = a0;
  apply_reflectors_left(a.view(), tau, check.view());
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = j + 1; i < 8; ++i)
      EXPECT_NEAR(check(i, j), 0.0, 1e-10);
}

TEST(Blas, SolversRejectBadShapes) {
  Matrix a(4, 4, 1.0);
  std::vector<double> b(3, 0.0);
  EXPECT_THROW((void)lu_solve(a, b), common::precondition_error);
  EXPECT_THROW((void)cholesky_solve(a, b), common::precondition_error);
}

}  // namespace
