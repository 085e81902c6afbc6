// Tests for the ABFT-protected LU factorization: numerical correctness,
// checksum invariants at every step boundary, recovery from injected rank
// failures at arbitrary points of the factorization, and the one residual
// kernel behind every verification sweep and localization.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "abft/abft_lu.hpp"
#include "abft/blas.hpp"
#include "abft/checksum.hpp"
#include "abft/lu_kernel.hpp"
#include "dist/launcher.hpp"

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

// --- the residual kernel ----------------------------------------------------

/// A protected-LU state owned by the test (payload plus both stacked
/// accumulators).
struct LuState {
  Matrix a, active, frozen;
  std::size_t nb = 0, group = 0;

  LuState(std::size_t n, std::size_t nb_, std::size_t group_)
      : a(n, n), nb(nb_), group(group_) {
    const std::size_t csr = n / nb / group * nb;
    active = Matrix(2 * csr, n);
    frozen = Matrix(2 * csr, n);
  }
  [[nodiscard]] abft::LuConstView view() const {
    return {a.view(), active.view(), frozen.view(), nb, group};
  }
  [[nodiscard]] std::size_t csr() const { return active.rows() / 2; }
  [[nodiscard]] std::size_t block_steps() const { return a.rows() / nb; }
};

/// The four residuals of one slot by the scalar per-slot loop the kernel
/// replaced ([0] active, [1] frozen), and the magnitude they were summed
/// from: the rounding scale of the slot.
struct SlotRef {
  double sum[2], weighted[2], magnitude;
};
SlotRef slot_reference(const LuState& st, std::size_t frozen_steps,
                       std::size_t row, std::size_t j) {
  const std::size_t g = row / st.nb, r = row % st.nb, csr = st.csr();
  double e[2] = {0.0, 0.0}, we[2] = {0.0, 0.0}, magnitude = 0.0;
  for (std::size_t m = 0; m < st.group; ++m) {
    const std::size_t bi = g * st.group + m;
    const double v = st.a(bi * st.nb + r, j);
    const double w = static_cast<double>(m + 1);
    const int c = bi < frozen_steps ? 1 : 0;
    e[c] += v;
    we[c] += w * v;
    magnitude += w * std::abs(v);
  }
  SlotRef ref{};
  const Matrix* stored[2] = {&st.active, &st.frozen};
  for (int c = 0; c < 2; ++c) {
    ref.sum[c] = e[c] - (*stored[c])(row, j);
    ref.weighted[c] = we[c] - (*stored[c])(csr + row, j);
    magnitude += std::abs((*stored[c])(row, j)) +
                 std::abs((*stored[c])(csr + row, j));
  }
  ref.magnitude = magnitude;
  return ref;
}

/// Make every accumulator slot hold exactly what the relations demand for
/// `frozen_steps` (the reference loop's own sums), so every residual is 0.
void make_consistent(LuState& st, std::size_t frozen_steps) {
  abft::fill(st.active.view(), 0.0);
  abft::fill(st.frozen.view(), 0.0);
  for (std::size_t row = 0; row < st.csr(); ++row)
    for (std::size_t j = 0; j < st.a.cols(); ++j) {
      const SlotRef ref = slot_reference(st, frozen_steps, row, j);
      st.active(row, j) = ref.sum[0];
      st.frozen(row, j) = ref.sum[1];
      st.active(st.csr() + row, j) = ref.weighted[0];
      st.frozen(st.csr() + row, j) = ref.weighted[1];
    }
}

/// Entries k/4 for integers |k| ≤ 32: every sum the relations form is exact,
/// so a planted delta leaves exactly itself (and w·itself) as residuals.
void fill_dyadic(abft::MatrixView v, common::Rng& rng) {
  for (std::size_t i = 0; i < v.rows(); ++i)
    for (std::size_t j = 0; j < v.cols(); ++j)
      v(i, j) = static_cast<double>(static_cast<int>(rng.below(65)) - 32) / 4;
}

TEST(LuKernel, SweepMatchesTheScalarSlotLoop) {
  for (const std::size_t n : {48u, 96u, 192u})
    for (const std::size_t group : {1u, 2u, 3u, 4u}) {
      const std::size_t nb = n / 12;  // 12 block rows: every group divides
      LuState st(n, nb, group);
      common::Rng rng(n * 10 + group);
      st.a = Matrix::random(n, n, rng);
      st.active = Matrix::random(st.active.rows(), n, rng);
      st.frozen = Matrix::random(st.frozen.rows(), n, rng);
      for (std::size_t f = 0; f <= st.block_steps(); ++f) {
        SCOPED_TRACE("n=" + std::to_string(n) + " group=" +
                     std::to_string(group) + " frozen_steps=" +
                     std::to_string(f));
        double worst = 0.0, magnitude = 0.0, slot_err = 0.0;
        abft::RowResiduals res;
        for (std::size_t row = 0; row < st.csr(); ++row)
          for (std::size_t j0 = 0; j0 < n; j0 += abft::kResidualChunk) {
            const std::size_t m = std::min(abft::kResidualChunk, n - j0);
            abft::lu_row_residuals(st.view(), f, row, j0, m, res);
            for (std::size_t j = 0; j < m; ++j) {
              const SlotRef ref = slot_reference(st, f, row, j0 + j);
              magnitude = std::max(magnitude, ref.magnitude);
              for (int c = 0; c < 2; ++c) {
                worst = std::max({worst, std::abs(ref.sum[c]),
                                  std::abs(ref.weighted[c])});
                slot_err = std::max(
                    {slot_err, std::abs(res.sum[c][j] - ref.sum[c]),
                     std::abs(res.weighted[c][j] - ref.weighted[c])});
              }
            }
          }
        // FMA contraction may round w·v differently from the reference.
        const double tol = 1e-12 * magnitude;
        EXPECT_LE(slot_err, tol);
        EXPECT_NEAR(abft::lu_checksum_residual(st.view(), f, 1), worst, tol);
      }
    }
}

TEST(LuKernel, SweepIsBitwiseIdenticalForEveryThreadCount) {
  // 384 accumulator rows × 384 columns: well above the inline cutoff, so
  // the threaded runs really split the rows.
  const std::size_t n = 384, nb = 32;
  common::Rng rng(11);
  LuState random_state(n, nb, 1);
  random_state.a = Matrix::random(n, n, rng);
  random_state.active = Matrix::random(2 * n, n, rng);
  random_state.frozen = Matrix::random(2 * n, n, rng);
  LuState clean(n, nb, 3);
  clean.a = Matrix::diag_dominant(n, rng);
  clean.active = abft::row_group_checksum_pair(clean.a, nb, 3);
  abft::fill(clean.frozen.view(), 0.0);
  const abft::LuView live{clean.a.view(), clean.active.view(),
                          clean.frozen.view(), nb, 3};
  for (std::size_t k = 0; k < 5; ++k) {  // mid-factorization: 5 frozen
    abft::lu_panel(live, k);
    abft::lu_update(live, k, 0, n / nb);
  }
  for (const auto& [st, f] :
       {std::pair<const LuState*, std::size_t>{&random_state, 4},
        {&clean, 5}}) {
    const double one = abft::lu_checksum_residual(st->view(), f, 1);
    for (const unsigned threads : {2u, 3u, 4u})
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    abft::lu_checksum_residual(st->view(), f, threads)),
                std::bit_cast<std::uint64_t>(one))
          << "threads=" << threads;
  }
  EXPECT_LT(abft::lu_checksum_residual(clean.view(), 5, 4), 1e-8);
}

TEST(LuKernel, PlantedDeltaIsSeenAndLocalizedAtEverySite) {
  const std::size_t n = 96, nb = 8;  // 12 block rows
  const double delta = -0.625;
  for (const std::size_t group : {1u, 2u, 3u, 4u}) {
    const std::size_t g = 1;  // the second checksum group
    for (std::size_t pos = 0; pos < group; ++pos)
      for (const bool frozen : {false, true}) {
        const std::size_t bi = g * group + pos;
        const std::size_t f = frozen ? bi + 1 : bi;
        SCOPED_TRACE("group=" + std::to_string(group) + " position=" +
                     std::to_string(pos) + (frozen ? " frozen" : " active"));
        LuState st(n, nb, group);
        common::Rng rng(group * 100 + pos * 2 + (frozen ? 1 : 0));
        fill_dyadic(st.a.view(), rng);
        make_consistent(st, f);
        ASSERT_EQ(abft::lu_checksum_residual(st.view(), f, 1), 0.0);

        const std::size_t row = bi * nb + 5, col = 3 * nb + 2;
        st.a(row, col) += delta;
        EXPECT_GE(abft::lu_checksum_residual(st.view(), f, 1),
                  std::abs(delta));
        const dist::Localization loc = dist::locate_corruption(
            st.a, st.active, st.frozen, nb, group, f);
        EXPECT_FALSE(loc.ambiguous);
        ASSERT_EQ(loc.sites.size(), 1u);
        EXPECT_EQ(loc.sites[0], (dist::FaultSite{bi, 3, row, col}));
      }
  }
}

/// True when every element of the two views has the same bits.
bool same_bits(abft::ConstMatrixView x, abft::ConstMatrixView y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < x.cols(); ++j)
      if (std::bit_cast<std::uint64_t>(x(i, j)) !=
          std::bit_cast<std::uint64_t>(y(i, j)))
        return false;
  return true;
}

TEST(LuKernel, EncoderRebuildsTheMaintainedAccumulatorsAtEveryBoundary) {
  // 80 accumulator rows × 240 columns: above the inline cutoff, so the
  // threaded encodes really split the rows.
  const std::size_t n = 240, nb = 16, group = 3;
  for (const std::uint64_t seed : {3u, 29u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LuState st(n, nb, group);
    common::Rng rng(seed);
    st.a = Matrix::diag_dominant(n, rng);
    st.active = abft::row_group_checksum_pair(st.a, nb, group);
    abft::fill(st.frozen.view(), 0.0);
    const abft::LuView live{st.a.view(), st.active.view(), st.frozen.view(),
                            nb, group};
    double scale = 1.0;
    for (const double v : st.a.storage()) scale = std::max(scale, std::abs(v));

    for (std::size_t f = 0; f <= st.block_steps(); ++f) {
      SCOPED_TRACE("boundary " + std::to_string(f));
      // Encode into NaN-filled accumulators: every slot must be written.
      const double nan = std::numeric_limits<double>::quiet_NaN();
      LuState enc[3] = {LuState(n, nb, group), LuState(n, nb, group),
                        LuState(n, nb, group)};
      const unsigned threads[3] = {1, 2, 4};
      for (int t = 0; t < 3; ++t) {
        enc[t].a = st.a;
        abft::fill(enc[t].active.view(), nan);
        abft::fill(enc[t].frozen.view(), nan);
        abft::lu_encode({enc[t].a.view(), enc[t].active.view(),
                         enc[t].frozen.view(), nb, group},
                        f, threads[t]);
      }
      for (int t = 1; t < 3; ++t) {
        EXPECT_TRUE(same_bits(enc[t].active, enc[0].active))
            << "threads=" << threads[t];
        EXPECT_TRUE(same_bits(enc[t].frozen, enc[0].frozen))
            << "threads=" << threads[t];
      }
      EXPECT_TRUE(same_bits(enc[0].frozen, st.frozen));
      if (f == 0) {
        EXPECT_TRUE(same_bits(
            enc[0].active, abft::row_group_checksum_pair(st.a, nb, group)));
      }
      // Relative to the payload's magnitude: once a group is all frozen its
      // maintained active rows are pure rounding residue, the encoded ones 0.
      EXPECT_LE(abft::max_abs_diff(enc[0].active, st.active), 1e-12 * scale);
      EXPECT_LE(abft::lu_checksum_residual(enc[0].view(), f, 1),
                dist::kDetectFloor);

      if (f < st.block_steps()) {
        abft::lu_panel(live, f);
        abft::lu_update(live, f, 0, st.block_steps());
      }
    }
  }
}

TEST(LuKernel, NaNOrInfAnywhereFailsTheSweep) {
  const std::size_t n = 96, nb = 8, group = 3, f = 4;  // group 1 is split
  const double inf = std::numeric_limits<double>::infinity();
  LuState st(n, nb, group);
  common::Rng rng(5);
  fill_dyadic(st.a.view(), rng);
  make_consistent(st, f);
  ASSERT_EQ(abft::lu_checksum_residual(st.view(), f, 1), 0.0);

  // Block rows 3 (frozen) and 5 (active) share group 1; then both halves of
  // both stored accumulators.
  const std::pair<Matrix*, std::size_t> targets[] = {
      {&st.a, 3 * nb + 1},        {&st.a, 5 * nb + 1},
      {&st.active, nb + 1},       {&st.active, st.csr() + nb + 1},
      {&st.frozen, nb + 1},       {&st.frozen, st.csr() + nb + 1}};
  for (const auto& [m, row] : targets)
    for (const double bad :
         {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
      const double keep = (*m)(row, 40);
      (*m)(row, 40) = bad;
      const double res = abft::lu_checksum_residual(st.view(), f, 1);
      EXPECT_EQ(res, inf) << "value " << bad << " at row " << row;
      EXPECT_FALSE(res <= dist::kDetectFloor);
      (*m)(row, 40) = keep;
    }
}

}  // namespace
