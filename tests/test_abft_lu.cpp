// Tests for the ABFT-protected LU factorization: numerical correctness,
// checksum invariants at every step boundary, and recovery from injected
// rank failures at arbitrary points of the factorization.

#include <gtest/gtest.h>

#include "abft/abft_lu.hpp"
#include "abft/blas.hpp"

namespace {

using namespace abftc;
using abft::AbftLu;
using abft::Matrix;
using abft::ProcessGrid;

Matrix test_matrix(std::size_t n, std::uint64_t seed = 7) {
  common::Rng rng(seed);
  return Matrix::diag_dominant(n, rng);
}

TEST(AbftLu, FactorsWithoutFaultsMatchesPlainLu) {
  const std::size_t n = 96, nb = 8;
  Matrix a = test_matrix(n);
  Matrix plain = a;
  abft::plain_blocked_lu(plain, nb);

  AbftLu lu(a, nb, ProcessGrid{2, 3});
  lu.factor();
  EXPECT_LT(abft::max_abs_diff(lu.lu(), plain), 1e-9);
}

TEST(AbftLu, ProductReconstructionMatchesInput) {
  const std::size_t n = 64, nb = 8;
  const Matrix a = test_matrix(n);
  AbftLu lu(a, nb, ProcessGrid{2, 2});
  lu.factor();
  EXPECT_LT(abft::relative_error(lu.reconstruct_product(), a), 1e-12);
}

TEST(AbftLu, ChecksumInvariantHoldsAfterFactorization) {
  AbftLu lu(test_matrix(80), 8, ProcessGrid{2, 2});
  lu.factor();
  // Residual scales with the magnitude of the factors; diag-dominant test
  // matrices keep entries O(n), so 1e-6 is ~12 digits of agreement.
  EXPECT_LT(lu.checksum_residual(), 1e-6);
}

TEST(AbftLu, WeightedAccumulatorsTrackTheFactorization) {
  const std::size_t n = 80, nb = 8, prows = 2;
  AbftLu lu(test_matrix(n), nb, ProcessGrid{prows, 2});
  lu.factor();
  // checksum_residual() already gates all four relations; additionally pin
  // the weighted half's endpoint state: with everything frozen, the frozen
  // accumulator equals the position-weighted checksums recomputed from the
  // final factors (same addition order → bitwise), and the active one has
  // been drained to rounding noise.
  const Matrix pair = abft::row_group_checksum_pair(lu.lu(), nb, prows);
  const std::size_t csr = pair.rows() / 2;
  const abft::ConstMatrixView expect = pair.block(csr, 0, csr, n);
  EXPECT_EQ(abft::max_abs_diff(lu.weighted_frozen_cs(), expect), 0.0);
  EXPECT_LT(lu.weighted_active_cs().max_abs(), 1e-6);
}

TEST(AbftLu, SolvesLinearSystems) {
  const std::size_t n = 64;
  const Matrix a = test_matrix(n);
  std::vector<double> x_true(n);
  for (std::size_t i = 0; i < n; ++i)
    x_true[i] = static_cast<double>(i % 13) - 6.0;
  std::vector<double> b;
  abft::gemv(a.view(), x_true, b);

  AbftLu lu(a, 8, ProcessGrid{2, 2});
  lu.factor();
  const auto x = abft::lu_solve(lu.lu(), b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

// --- fault injection -------------------------------------------------------

class AbftLuFaultTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(AbftLuFaultTest, RecoversFromRankLossAtAnyStep) {
  const auto [step, rank] = GetParam();
  const std::size_t n = 96, nb = 8;  // 12 block steps, grid 2x3 = 6 ranks
  const Matrix a = test_matrix(n);

  AbftLu lu(a, nb, ProcessGrid{2, 3});
  lu.factor({{step, rank}});
  EXPECT_GT(lu.recovery().blocks_recovered, 0u);
  EXPECT_LT(abft::relative_error(lu.reconstruct_product(), a), 1e-9)
      << "fault at step " << step << ", rank " << rank;
}

INSTANTIATE_TEST_SUITE_P(
    StepsAndRanks, AbftLuFaultTest,
    ::testing::Combine(::testing::Values(0u, 1u, 3u, 6u, 11u, 12u),
                       ::testing::Values(0u, 2u, 5u)));

TEST(AbftLu, RecoversFromTwoFaultsAtDifferentSteps) {
  const std::size_t n = 96, nb = 8;
  const Matrix a = test_matrix(n);
  AbftLu lu(a, nb, ProcessGrid{2, 3});
  lu.factor({{2, 1}, {7, 4}});
  EXPECT_EQ(lu.recovery().recoveries, 2u);
  EXPECT_LT(abft::relative_error(lu.reconstruct_product(), a), 1e-9);
}

TEST(AbftLu, SimultaneousFaultsOnSameGridColumnAreUnrecoverable) {
  const std::size_t n = 96, nb = 8;
  const Matrix a = test_matrix(n);
  AbftLu lu(a, nb, ProcessGrid{2, 3});
  // Ranks 0 = (0,0) and 3 = (1,0) sit in the same grid column: for every
  // column block ≡ 0 (mod 3), both members of each row group are lost, so
  // the single row checksum cannot determine either block.
  EXPECT_THROW(lu.factor({{3, 0}, {3, 3}}), abft::unrecoverable_error);
}

TEST(AbftLu, SimultaneousFaultsOnSameGridRowRecover) {
  const std::size_t n = 96, nb = 8;
  const Matrix a = test_matrix(n);
  AbftLu lu(a, nb, ProcessGrid{2, 3});
  // Ranks 0 = (0,0) and 1 = (0,1) share a grid row but never a
  // (row-group, column) pair: every lost block has its group partner alive.
  lu.factor({{3, 0}, {3, 1}});
  EXPECT_LT(abft::relative_error(lu.reconstruct_product(), a), 1e-9);
}

TEST(AbftLu, SimultaneousFaultsOnDistinctRowsAndColumnsRecover) {
  const std::size_t n = 96, nb = 8;
  const Matrix a = test_matrix(n);
  AbftLu lu(a, nb, ProcessGrid{2, 3});
  // Rank 0 = (0,0), rank 4 = (1,1): no shared row group, recoverable.
  lu.factor({{5, 0}, {5, 4}});
  EXPECT_LT(abft::relative_error(lu.reconstruct_product(), a), 1e-9);
}

TEST(AbftLu, RecoveryCountsMatchRankFootprint) {
  const std::size_t n = 96, nb = 8;  // 12x12 blocks, grid 2x3
  const Matrix a = test_matrix(n);
  AbftLu lu(a, nb, ProcessGrid{2, 3});
  lu.factor({{4, 3}});
  // Rank 3 owns (12/2)·(12/3) = 24 blocks.
  EXPECT_EQ(lu.recovery().blocks_recovered, 24u);
  EXPECT_EQ(lu.recovery().values_recovered, 24u * nb * nb);
}

TEST(AbftLu, OverheadFractionIsTwoOverGridRows) {
  // The sum and weighted accumulators each add 1/P worth of rows.
  AbftLu lu(test_matrix(32), 8, ProcessGrid{4, 1});
  EXPECT_DOUBLE_EQ(lu.overhead_fraction(), 0.5);
}

TEST(AbftLu, RejectsMisalignedDimensions) {
  common::Rng rng(1);
  EXPECT_THROW(AbftLu(Matrix::diag_dominant(30, rng), 8, ProcessGrid{2, 2}),
               common::precondition_error);
  // 40/8 = 5 block rows is not a multiple of prows=2.
  EXPECT_THROW(AbftLu(Matrix::diag_dominant(40, rng), 8, ProcessGrid{2, 2}),
               common::precondition_error);
}

TEST(AbftLu, ZeroPivotIsReported) {
  Matrix a(16, 16, 0.0);  // singular
  AbftLu lu(a, 8, ProcessGrid{1, 1});
  EXPECT_THROW(lu.factor(), common::invariant_error);
}

}  // namespace
