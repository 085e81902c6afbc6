// Tests for the kernel-policy dispatch layer: blocked-vs-naive numerical
// equivalence for gemm/trsm/getrf/potrf/geqr2 (random sizes including
// non-multiples of the register tile), determinism of the parallel checksum
// builders across thread counts, and slice-by-8 crc32 against the classic
// bytewise formulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "abft/blas.hpp"
#include "abft/checksum.hpp"
#include "abft/kernels.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/executor.hpp"

namespace {

using namespace abftc;
using abft::ConstMatrixView;
using abft::KernelPath;
using abft::KernelPolicy;
using abft::KernelPolicyGuard;
using abft::Matrix;
using abft::MatrixView;
using abft::Trans;

constexpr double kTol = 1e-10;

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  common::Rng rng(seed);
  return Matrix::random(r, c, rng);
}

// --- GEMM -------------------------------------------------------------------

class BlockedGemmSizes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::size_t>> {};

TEST_P(BlockedGemmSizes, MatchesNaiveAllTransVariants) {
  const auto [m, n, k] = GetParam();
  const Matrix a = random_matrix(m, k, 101 + m);
  const Matrix at = random_matrix(k, m, 103 + m);
  const Matrix b = random_matrix(k, n, 107 + n);
  const Matrix bt = random_matrix(n, k, 109 + n);

  const struct {
    const Matrix& a;
    Trans ta;
    const Matrix& b;
    Trans tb;
  } cases[] = {{a, Trans::No, b, Trans::No},
               {a, Trans::No, bt, Trans::Yes},
               {at, Trans::Yes, b, Trans::No},
               {at, Trans::Yes, bt, Trans::Yes}};

  for (const auto& cse : cases) {
    Matrix c_naive = random_matrix(m, n, 997);
    Matrix c_blocked = c_naive;
    abft::naive_gemm(1.25, cse.a.view(), cse.ta, cse.b.view(), cse.tb, -0.5,
                     c_naive.view());
    abft::blocked_gemm(1.25, cse.a.view(), cse.ta, cse.b.view(), cse.tb, -0.5,
                       c_blocked.view(), 1);
    EXPECT_LT(abft::max_abs_diff(c_naive, c_blocked), kTol)
        << "m=" << m << " n=" << n << " k=" << k
        << " ta=" << (cse.ta == Trans::Yes) << " tb=" << (cse.tb == Trans::Yes);
  }
}

// Sizes straddle the register tile (8×16 / 6×8), the cache blocks
// (mc=96–128, kc=192–256) and plenty of non-multiples of any of them.
INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedGemmSizes,
    ::testing::Values(std::make_tuple(1u, 1u, 1u), std::make_tuple(5u, 3u, 7u),
                      std::make_tuple(17u, 33u, 9u),
                      std::make_tuple(64u, 64u, 64u),
                      std::make_tuple(97u, 101u, 53u),
                      std::make_tuple(129u, 65u, 200u),
                      std::make_tuple(200u, 257u, 131u)));

TEST(BlockedGemm, MatchesNaiveOnStridedSubviews) {
  // Views with ld > cols: operate on interior blocks of larger matrices.
  const Matrix big_a = random_matrix(200, 180, 7);
  const Matrix big_b = random_matrix(180, 220, 8);
  Matrix big_c1 = random_matrix(210, 240, 9);
  Matrix big_c2 = big_c1;
  ConstMatrixView av = big_a.block(3, 5, 150, 140);
  ConstMatrixView bv = big_b.block(11, 2, 140, 170);
  abft::naive_gemm(1.0, av, Trans::No, bv, Trans::No, 1.0,
                   big_c1.block(4, 6, 150, 170));
  abft::blocked_gemm(1.0, av, Trans::No, bv, Trans::No, 1.0,
                     big_c2.block(4, 6, 150, 170), 1);
  EXPECT_LT(abft::max_abs_diff(big_c1, big_c2), kTol);
}

// The β-scale is fused into the first kc pass of the blocked path (no
// standalone C sweep). k > kc forces multiple kc passes, so this also pins
// that only the first pass scales.
TEST(BlockedGemm, FusedBetaMatchesNaiveAcrossKcPasses) {
  const std::size_t m = 129, n = 65, k = 520;  // ≥ 2 kc passes on every ISA
  const Matrix a = random_matrix(m, k, 301);
  const Matrix b = random_matrix(k, n, 302);
  for (const double beta : {0.0, 1.0, -0.5, 0.75, 2.0}) {
    Matrix c_naive = random_matrix(m, n, 303);
    Matrix c_blocked = c_naive;
    abft::naive_gemm(1.0, a.view(), Trans::No, b.view(), Trans::No, beta,
                     c_naive.view());
    abft::blocked_gemm(1.0, a.view(), Trans::No, b.view(), Trans::No, beta,
                       c_blocked.view(), 1);
    EXPECT_LT(abft::max_abs_diff(c_naive, c_blocked), kTol) << "beta=" << beta;
  }
}

TEST(BlockedGemm, FusedBetaDegenerateShapesStillScaleC) {
  // alpha == 0 and k == 0 run no packed pass; the β-scale must still land.
  Matrix c = random_matrix(40, 40, 304);
  Matrix expect = c;
  for (std::size_t i = 0; i < 40; ++i)
    for (std::size_t j = 0; j < 40; ++j) expect(i, j) *= 0.25;
  const Matrix a = random_matrix(40, 8, 305);
  const Matrix b = random_matrix(8, 40, 306);
  abft::blocked_gemm(0.0, a.view(), Trans::No, b.view(), Trans::No, 0.25,
                     c.view(), 1);
  EXPECT_EQ(abft::max_abs_diff(expect, c), 0.0);

  Matrix c0 = random_matrix(40, 40, 307);
  const double dummy = 0.0;
  const ConstMatrixView empty_a(&dummy, 40, 0, 0);  // k == 0
  const ConstMatrixView empty_b(&dummy, 0, 40, 40);
  abft::blocked_gemm(1.0, empty_a, Trans::No, empty_b, Trans::No, 0.0,
                     c0.view(), 1);
  EXPECT_EQ(c0.max_abs(), 0.0);
}

TEST(BlockedGemm, BetaZeroOverwritesNaNPoisonedCOnBothPaths) {
  // BLAS semantics: β == 0 never reads C, so a NaN-poisoned output block
  // (the wiped-block marker) is overwritten identically on both paths —
  // the result cannot depend on the size-based dispatch cutover.
  Matrix c_naive = random_matrix(64, 64, 320);
  c_naive(3, 5) = std::numeric_limits<double>::quiet_NaN();
  Matrix c_blocked = c_naive;
  const Matrix a = random_matrix(64, 64, 321);
  const Matrix b = random_matrix(64, 64, 322);
  abft::naive_gemm(1.0, a.view(), Trans::No, b.view(), Trans::No, 0.0,
                   c_naive.view());
  abft::blocked_gemm(1.0, a.view(), Trans::No, b.view(), Trans::No, 0.0,
                     c_blocked.view(), 1);
  EXPECT_FALSE(abft::has_nan(c_naive.view()));
  EXPECT_FALSE(abft::has_nan(c_blocked.view()));
  EXPECT_LT(abft::max_abs_diff(c_naive, c_blocked), kTol);
}

TEST(BlockedGemm, FusedBetaDeterministicAcrossThreadCounts) {
  const Matrix a = random_matrix(150, 300, 311);
  const Matrix b = random_matrix(300, 140, 312);
  const Matrix c0 = random_matrix(150, 140, 313);
  Matrix c1 = c0, c4 = c0;
  abft::blocked_gemm(1.0, a.view(), Trans::No, b.view(), Trans::No, 0.7,
                     c1.view(), 1);
  abft::blocked_gemm(1.0, a.view(), Trans::No, b.view(), Trans::No, 0.7,
                     c4.view(), 4);
  EXPECT_EQ(abft::max_abs_diff(c1, c4), 0.0);
}

TEST(BlockedGemm, DeterministicAcrossThreadCounts) {
  const Matrix a = random_matrix(257, 193, 21);
  const Matrix b = random_matrix(193, 201, 22);
  Matrix c1(257, 201, 0.0);
  Matrix c2(257, 201, 0.0);
  Matrix c8(257, 201, 0.0);
  abft::blocked_gemm(1.0, a.view(), Trans::No, b.view(), Trans::No, 0.0,
                     c1.view(), 1);
  abft::blocked_gemm(1.0, a.view(), Trans::No, b.view(), Trans::No, 0.0,
                     c2.view(), 2);
  abft::blocked_gemm(1.0, a.view(), Trans::No, b.view(), Trans::No, 0.0,
                     c8.view(), 8);
  EXPECT_EQ(abft::max_abs_diff(c1, c2), 0.0);
  EXPECT_EQ(abft::max_abs_diff(c1, c8), 0.0);
}

bool same_bits(ConstMatrixView x, ConstMatrixView y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < x.cols(); ++j)
      if (std::bit_cast<std::uint64_t>(x(i, j)) !=
          std::bit_cast<std::uint64_t>(y(i, j)))
        return false;
  return true;
}

TEST(GemmSubBatch, EachPairIsBitwiseItsOwnGemmSub) {
  // Row counts off the register tile and the mc panel, widths off the
  // register tile, depths below, at and above one kc pass, and batches that
  // mix pairs on both sides of the blocked-path cutoff.
  const std::size_t widths[] = {1, 5, 16, 17, 33, 64, 3};
  for (const std::size_t m : {1u, 7u, 37u, 130u, 261u})
    for (const std::size_t k : {3u, 64u, 300u})
      for (const KernelPolicy policy :
           {KernelPolicy{KernelPath::blocked, 1},
            KernelPolicy{KernelPath::blocked, 2},
            KernelPolicy{KernelPath::blocked, 4},
            KernelPolicy{KernelPath::naive, 1}}) {
        SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                     " threads=" + std::to_string(policy.threads) +
                     (policy.path == KernelPath::naive ? " naive" : ""));
        const KernelPolicyGuard guard(policy);
        const Matrix a = random_matrix(m, k, 7 * m + k);
        // B and C blocks are strided column blocks of wider matrices, the
        // way a trailing update addresses its block columns.
        std::size_t total = 0;
        for (const std::size_t w : widths) total += w + 2;
        const Matrix b = random_matrix(k, total, 11 * m + k);
        const Matrix c0 = random_matrix(m, total, 13 * m + k);
        Matrix batched = c0, single = c0;
        std::vector<ConstMatrixView> bs;
        std::vector<MatrixView> cs;
        std::size_t j0 = 1;
        for (const std::size_t w : widths) {
          bs.push_back(b.block(0, j0, k, w));
          cs.push_back(batched.view().block(0, j0, m, w));
          abft::gemm_sub(a.view(), b.block(0, j0, k, w),
                         single.view().block(0, j0, m, w));
          j0 += w + 2;
        }
        abft::gemm_sub_batch(a.view(), bs, cs);
        EXPECT_TRUE(same_bits(batched, single));
      }
}

TEST(GemmSubBatch, EmptyBatchAndMismatchedShapes) {
  const Matrix a = random_matrix(40, 40, 1);
  abft::gemm_sub_batch(a.view(), {}, {});
  Matrix c(40, 8, 0.0);
  const Matrix b = random_matrix(39, 8, 2);
  const ConstMatrixView bs[] = {b.view()};
  const MatrixView cs[] = {c.view()};
  EXPECT_THROW(abft::gemm_sub_batch(a.view(), bs, cs),
               common::precondition_error);
  EXPECT_THROW(abft::gemm_sub_batch(a.view(), bs, {}),
               common::precondition_error);
}

TEST(KernelPolicy, DispatchCutoffAndGuard) {
  const KernelPolicy saved = abft::kernel_policy();
  {
    KernelPolicyGuard guard({KernelPath::blocked, 4});
    EXPECT_TRUE(abft::gemm_uses_blocked_path(64, 64, 64));
    EXPECT_FALSE(abft::gemm_uses_blocked_path(8, 8, 8));
    EXPECT_EQ(abft::kernel_policy().threads, 4u);
    {
      KernelPolicyGuard inner({KernelPath::naive, 1});
      EXPECT_FALSE(abft::gemm_uses_blocked_path(512, 512, 512));
    }
    EXPECT_TRUE(abft::gemm_uses_blocked_path(512, 512, 512));
  }
  EXPECT_EQ(abft::kernel_policy().path, saved.path);
  EXPECT_EQ(abft::kernel_policy().threads, saved.threads);
}

// --- Triangular solves ------------------------------------------------------

// A well-conditioned lower-triangular factor (diagonally dominant).
Matrix lower_factor(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  Matrix l = Matrix::diag_dominant(n, rng);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) l(i, j) = 0.0;
  return l;
}

Matrix upper_factor(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  Matrix u = Matrix::diag_dominant(n, rng);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) u(i, j) = 0.0;
  return u;
}

TEST(BlockedTrsm, RightUpperMatchesNaive) {
  const std::size_t n = 192;  // above the blocked cutoff
  const Matrix u = upper_factor(n, 31);
  const Matrix b0 = random_matrix(150, n, 32);  // row count off the tile
  Matrix b_naive = b0;
  Matrix b_blocked = b0;
  {
    KernelPolicyGuard guard({KernelPath::naive, 1});
    abft::trsm_right_upper(u.view(), b_naive.view());
  }
  {
    KernelPolicyGuard guard({KernelPath::blocked, 1});
    abft::trsm_right_upper(u.view(), b_blocked.view());
  }
  EXPECT_LT(abft::max_abs_diff(b_naive, b_blocked), kTol);
}

TEST(BlockedTrsm, LeftLowerUnitMatchesNaive) {
  const std::size_t n = 200;
  // The diagonal is implicitly 1, so keep the strict lower part small: with
  // O(1) entries forward substitution amplifies like ∏(1+|l|) and absolute
  // comparison of the two paths becomes meaningless.
  Matrix l = lower_factor(n, 41);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) l(i, j) /= static_cast<double>(n);
  const Matrix b0 = random_matrix(n, 137, 42);
  Matrix b_naive = b0;
  Matrix b_blocked = b0;
  {
    KernelPolicyGuard guard({KernelPath::naive, 1});
    abft::trsm_left_lower_unit(l.view(), b_naive.view());
  }
  {
    KernelPolicyGuard guard({KernelPath::blocked, 1});
    abft::trsm_left_lower_unit(l.view(), b_blocked.view());
  }
  EXPECT_LT(abft::max_abs_diff(b_naive, b_blocked), kTol);
}

TEST(BlockedTrsm, RightLowerTransMatchesNaive) {
  const std::size_t n = 160;
  const Matrix l = lower_factor(n, 51);
  const Matrix b0 = random_matrix(143, n, 52);
  Matrix b_naive = b0;
  Matrix b_blocked = b0;
  {
    KernelPolicyGuard guard({KernelPath::naive, 1});
    abft::trsm_right_lower_trans(l.view(), b_naive.view());
  }
  {
    KernelPolicyGuard guard({KernelPath::blocked, 1});
    abft::trsm_right_lower_trans(l.view(), b_blocked.view());
  }
  EXPECT_LT(abft::max_abs_diff(b_naive, b_blocked), kTol);
}

// The blocked right-side solves at the panel shapes of the dist workloads
// (nb = 32 and 64, below the old blocked cutoff), with row counts that
// leave every remainder of the 32-row tile: empty, one row, one short of a
// tile, one past it, and full-tile multiples.
TEST(BlockedTrsm, RightSolvesAtPanelShapesMatchNaive) {
  using Solve = void (*)(ConstMatrixView, MatrixView);
  const std::pair<const char*, Solve> ops[] = {
      {"right_upper", abft::trsm_right_upper},
      {"right_lower_trans", abft::trsm_right_lower_trans}};
  for (const std::size_t n : {32u, 64u}) {
    const Matrix u = upper_factor(n, 81 + n);
    const Matrix l = lower_factor(n, 91 + n);
    for (const std::size_t rows : {0u, 1u, 31u, 33u, 150u, 1024u}) {
      // A Matrix needs a row; the solves see a view of exactly `rows`.
      const Matrix b0 = random_matrix(std::max<std::size_t>(rows, 1), n,
                                      101 + rows);
      for (const auto& [name, solve] : ops) {
        const Matrix& f = solve == abft::trsm_right_upper ? u : l;
        Matrix b_naive = b0;
        Matrix b_blocked = b0;
        {
          KernelPolicyGuard guard({KernelPath::naive, 1});
          solve(f.view(), b_naive.view().block(0, 0, rows, n));
        }
        {
          KernelPolicyGuard guard({KernelPath::blocked, 1});
          solve(f.view(), b_blocked.view().block(0, 0, rows, n));
        }
        EXPECT_LT(abft::max_abs_diff(b_naive, b_blocked), kTol)
            << name << " n=" << n << " rows=" << rows;
      }
    }
  }
}

TEST(BlockedTrsm, RightSolvesThrowOnAZeroPivot) {
  KernelPolicyGuard guard({KernelPath::blocked, 1});
  for (const std::size_t n : {64u, 192u}) {
    Matrix u = upper_factor(n, 111);
    Matrix l = lower_factor(n, 112);
    u(n - 2, n - 2) = 0.0;
    l(n - 2, n - 2) = 0.0;
    Matrix b = random_matrix(40, n, 113);
    EXPECT_THROW(abft::trsm_right_upper(u.view(), b.view()),
                 common::invariant_error)
        << "n=" << n;
    EXPECT_THROW(abft::trsm_right_lower_trans(l.view(), b.view()),
                 common::invariant_error)
        << "n=" << n;
  }
}

// --- Factorizations ---------------------------------------------------------

TEST(BlockedFactor, GetrfMatchesNaive) {
  for (const std::size_t n : {150u, 193u, 256u}) {
    common::Rng rng(61 + n);
    const Matrix a0 = Matrix::diag_dominant(n, rng);
    Matrix a_naive = a0;
    Matrix a_blocked = a0;
    {
      KernelPolicyGuard guard({KernelPath::naive, 1});
      abft::getf2_nopiv(a_naive.view());
    }
    {
      KernelPolicyGuard guard({KernelPath::blocked, 1});
      abft::getf2_nopiv(a_blocked.view());
    }
    EXPECT_LT(abft::max_abs_diff(a_naive, a_blocked), kTol) << "n=" << n;
  }
}

TEST(BlockedFactor, PotrfMatchesNaiveAndLeavesUpperUntouched) {
  for (const std::size_t n : {150u, 193u, 256u}) {
    common::Rng rng(71 + n);
    Matrix a0 = Matrix::spd(n, rng);
    // Sentinel the strict upper triangle: the lower-Cholesky contract says
    // it is never written.
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) a0(i, j) = 1e99 + double(i + j);
    Matrix a_naive = a0;
    Matrix a_blocked = a0;
    {
      KernelPolicyGuard guard({KernelPath::naive, 1});
      abft::potf2_lower(a_naive.view());
    }
    {
      KernelPolicyGuard guard({KernelPath::blocked, 1});
      abft::potf2_lower(a_blocked.view());
    }
    EXPECT_LT(abft::max_abs_diff(a_naive, a_blocked), kTol) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        ASSERT_EQ(a_blocked(i, j), a0(i, j)) << "upper entry written";
  }
}

TEST(BlockedFactor, Geqr2AgreesAcrossPolicies) {
  // geqr2's panel math is policy-independent; this pins that contract (and
  // the reflector application it feeds) under both paths.
  const Matrix a0 = random_matrix(120, 45, 81);
  Matrix a_naive = a0;
  Matrix a_blocked = a0;
  std::vector<double> tau_naive, tau_blocked;
  {
    KernelPolicyGuard guard({KernelPath::naive, 1});
    abft::geqr2(a_naive.view(), tau_naive);
  }
  {
    KernelPolicyGuard guard({KernelPath::blocked, 2});
    abft::geqr2(a_blocked.view(), tau_blocked);
  }
  EXPECT_LT(abft::max_abs_diff(a_naive, a_blocked), kTol);
  ASSERT_EQ(tau_naive.size(), tau_blocked.size());
  for (std::size_t j = 0; j < tau_naive.size(); ++j)
    EXPECT_NEAR(tau_naive[j], tau_blocked[j], kTol);

  Matrix c_naive = random_matrix(120, 30, 82);
  Matrix c_blocked = c_naive;
  abft::apply_reflectors_left(a_naive.view(), tau_naive, c_naive.view());
  abft::apply_reflectors_left(a_blocked.view(), tau_blocked,
                              c_blocked.view());
  EXPECT_LT(abft::max_abs_diff(c_naive, c_blocked), kTol);
}

// --- Compact-WY blocked reflector application -------------------------------

// Factor a random m×k panel with geqr2, returning the compact panel + taus.
std::pair<Matrix, std::vector<double>> qr_panel(std::size_t m, std::size_t k,
                                                std::uint64_t seed) {
  Matrix p = random_matrix(m, k, seed);
  std::vector<double> tau;
  abft::geqr2(p.view(), tau);
  return {std::move(p), std::move(tau)};
}

TEST(CompactWy, BlockedApplyMatchesReferenceOnTallPanel) {
  const auto [p, tau] = qr_panel(300, 24, 401);
  const Matrix c0 = random_matrix(300, 150, 402);
  Matrix c_ref = c0, c_blk = c0;
  abft::apply_reflectors_left_reference(p.view(), tau, c_ref.view());
  abft::apply_reflectors_blocked_left(p.view(), tau, c_blk.view());
  EXPECT_LT(abft::max_abs_diff(c_ref, c_blk), kTol);
}

TEST(CompactWy, HandlesTauZeroColumns) {
  // Columns that start all-zero stay zero under every reflector (H·0 = 0),
  // so geqr2 emits tau == 0 for them; the T factor must drop them exactly.
  Matrix a = random_matrix(120, 16, 403);
  for (std::size_t i = 0; i < 120; ++i) a(i, 3) = a(i, 10) = 0.0;
  std::vector<double> tau;
  abft::geqr2(a.view(), tau);
  ASSERT_EQ(tau[3], 0.0);
  ASSERT_EQ(tau[10], 0.0);
  const Matrix c0 = random_matrix(120, 70, 404);
  Matrix c_ref = c0, c_blk = c0;
  abft::apply_reflectors_left_reference(a.view(), tau, c_ref.view());
  abft::apply_reflectors_blocked_left(a.view(), tau, c_blk.view());
  EXPECT_LT(abft::max_abs_diff(c_ref, c_blk), kTol);
}

TEST(CompactWy, NonMultipleOfTileSizes) {
  // k, m, n all off the register tile and the panel width.
  const std::tuple<std::size_t, std::size_t, std::size_t> shapes[] = {
      {97, 5, 33}, {65, 13, 129}, {200, 31, 77}};
  for (const auto& [m, k, n] : shapes) {
    const auto [p, tau] = qr_panel(m, k, 405 + m);
    const Matrix c0 = random_matrix(m, n, 406 + n);
    Matrix c_ref = c0, c_blk = c0;
    abft::apply_reflectors_left_reference(p.view(), tau, c_ref.view());
    abft::apply_reflectors_blocked_left(p.view(), tau, c_blk.view());
    EXPECT_LT(abft::max_abs_diff(c_ref, c_blk), kTol)
        << "m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(CompactWy, StridedViews) {
  // Panel and target live inside larger matrices (ld > cols), the layout
  // every AbftQr trailing/checksum application uses.
  Matrix big = random_matrix(260, 240, 407);
  Matrix pan = big;
  MatrixView panel = pan.block(20, 10, 220, 18);
  std::vector<double> tau;
  abft::geqr2(panel, tau);
  Matrix tgt_ref = random_matrix(260, 200, 408);
  Matrix tgt_blk = tgt_ref;
  abft::apply_reflectors_left_reference(panel, tau,
                                        tgt_ref.block(20, 30, 220, 120));
  abft::apply_reflectors_blocked_left(panel, tau,
                                      tgt_blk.block(20, 30, 220, 120));
  EXPECT_LT(abft::max_abs_diff(tgt_ref, tgt_blk), kTol);
}

TEST(CompactWy, BitwiseDeterministicAcrossWorkerCounts) {
  const auto [p, tau] = qr_panel(320, 32, 409);
  const Matrix c0 = random_matrix(320, 256, 410);
  Matrix c1 = c0, c2 = c0, c4 = c0;
  {
    KernelPolicyGuard guard({KernelPath::blocked, 1});
    abft::apply_reflectors_blocked_left(p.view(), tau, c1.view());
  }
  {
    KernelPolicyGuard guard({KernelPath::blocked, 2});
    abft::apply_reflectors_blocked_left(p.view(), tau, c2.view());
  }
  {
    KernelPolicyGuard guard({KernelPath::blocked, 4});
    abft::apply_reflectors_blocked_left(p.view(), tau, c4.view());
  }
  EXPECT_EQ(abft::max_abs_diff(c1, c2), 0.0);
  EXPECT_EQ(abft::max_abs_diff(c1, c4), 0.0);
}

TEST(CompactWy, ReverseApplyMatchesSequentialReverse) {
  const auto [p, tau] = qr_panel(200, 16, 411);
  const Matrix c0 = random_matrix(200, 90, 412);
  Matrix c_ref = c0, c_blk = c0;
  {
    KernelPolicyGuard guard({KernelPath::naive, 1});
    abft::apply_reflectors_left_reverse(p.view(), tau, c_ref.view());
  }
  {
    KernelPolicyGuard guard({KernelPath::blocked, 1});
    abft::apply_reflectors_left_reverse(p.view(), tau, c_blk.view());
  }
  EXPECT_LT(abft::max_abs_diff(c_ref, c_blk), kTol);
  // Reverse-of-forward is the identity up to rounding (the H_j are
  // involutions): a strong cross-check that both orders are consistent.
  Matrix round_trip = c0;
  abft::apply_reflectors_left(p.view(), tau, round_trip.view());
  abft::apply_reflectors_left_reverse(p.view(), tau, round_trip.view());
  EXPECT_LT(abft::max_abs_diff(round_trip, c0), 1e-9);
}

TEST(CompactWy, FormTReproducesProductOfReflectors) {
  // I − V·T·Vᵀ applied to the identity must equal H_0·…·H_{k-1} column by
  // column (the reverse-order application of the reference loops).
  const std::size_t m = 60, k = 12;
  const auto [p, tau] = qr_panel(m, k, 413);
  Matrix t(k, k, 0.0);
  abft::form_t(p.view(), tau, t.view());
  // Upper triangular with tau on the diagonal.
  for (std::size_t j = 0; j < k; ++j) {
    EXPECT_NEAR(t(j, j), tau[j], kTol);
    for (std::size_t i = j + 1; i < k; ++i) EXPECT_EQ(t(i, j), 0.0);
  }
  Matrix wy = Matrix::identity(m);
  {
    KernelPolicyGuard guard({KernelPath::blocked, 1});
    abft::apply_reflectors_left_reverse(p.view(), tau, wy.view());
  }
  Matrix seq = Matrix::identity(m);
  {
    KernelPolicyGuard guard({KernelPath::naive, 1});
    abft::apply_reflectors_left_reverse(p.view(), tau, seq.view());
  }
  EXPECT_LT(abft::max_abs_diff(wy, seq), kTol);
}

TEST(CompactWy, DispatchCutover) {
  {
    KernelPolicyGuard guard({KernelPath::blocked, 1});
    EXPECT_TRUE(abft::qr_apply_uses_blocked_path(512, 512, 16));
    EXPECT_FALSE(abft::qr_apply_uses_blocked_path(512, 512, 1));  // k == 1
    EXPECT_FALSE(abft::qr_apply_uses_blocked_path(16, 8, 4));  // tiny target
  }
  {
    KernelPolicyGuard guard({KernelPath::naive, 1});
    EXPECT_FALSE(abft::qr_apply_uses_blocked_path(512, 512, 16));
  }
}

// --- Parallel checksums -----------------------------------------------------

TEST(ParallelChecksums, BitwiseDeterministicAcrossThreadCounts) {
  const Matrix a = random_matrix(96, 128, 91);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    KernelPolicyGuard guard({KernelPath::blocked, threads});
    const Matrix row_cs = abft::row_group_checksums(a, 16, 2);
    const Matrix col_cs = abft::col_group_checksums(a, 16, 4);
    KernelPolicyGuard serial({KernelPath::blocked, 1});
    EXPECT_EQ(abft::max_abs_diff(row_cs, abft::row_group_checksums(a, 16, 2)),
              0.0)
        << "threads=" << threads;
    EXPECT_EQ(abft::max_abs_diff(col_cs, abft::col_group_checksums(a, 16, 4)),
              0.0)
        << "threads=" << threads;
  }
}

// --- CRC-32 -----------------------------------------------------------------

std::uint32_t bytewise_crc32(std::span<const std::byte> data,
                             std::uint32_t seed) {
  // The classic one-table formulation the slice-by-8 kernel must match.
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const std::byte b : data)
    c = table[(c ^ static_cast<std::uint8_t>(b)) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::byte> as_bytes_vec(const char* s) {
  std::vector<std::byte> v(std::strlen(s));
  std::memcpy(v.data(), s, v.size());
  return v;
}

TEST(Crc32, KnownVectors) {
  const auto check = as_bytes_vec("123456789");
  EXPECT_EQ(common::crc32(check), 0xCBF43926u);  // IEEE 802.3 check value
  EXPECT_EQ(common::crc32({}), 0x00000000u);
  const auto a = as_bytes_vec("a");
  EXPECT_EQ(common::crc32(a), 0xE8B7BE43u);
}

TEST(Crc32, MatchesBytewiseOnRandomBuffers) {
  // The carry-less fold takes the 16-byte-aligned body of buffers >= 64
  // bytes and slice-by-8 the tail, so every length around the 64-byte entry
  // point and each 16/8-byte boundary, every misalignment, and non-zero
  // seeds (the register the fold starts from) must all agree with the
  // byte-at-a-time reference.
  common::Rng rng(0xC3C3);
  std::vector<std::byte> buf(1100 + 16);
  for (auto& b : buf) b = static_cast<std::byte>(rng() & 0xFF);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const auto span = std::span(buf).subspan(off, len);
      const auto seed = static_cast<std::uint32_t>(rng() | 1u);
      ASSERT_EQ(common::crc32(span, seed), bytewise_crc32(span, seed))
          << "off=" << off << " len=" << len << " seed=" << seed;
    }
  }

  // A multi-megabyte buffer, one shot and as a fold of 1 MiB chunk CRCs.
  std::vector<std::byte> big((4u << 20) + 37);
  for (auto& b : big) b = static_cast<std::byte>(rng() & 0xFF);
  const std::uint32_t want = bytewise_crc32(big, 0);
  EXPECT_EQ(common::crc32(big), want);
  common::Crc32Chunks folded;
  for (std::size_t lo = 0; lo < big.size(); lo += 1u << 20) {
    const std::size_t len = std::min<std::size_t>(1u << 20, big.size() - lo);
    folded.add(common::crc32(std::span(big).subspan(lo, len)), len);
  }
  EXPECT_EQ(folded.value(), want);
}

TEST(Crc32, IncrementalChainingMatchesWholeBuffer) {
  common::Rng rng(321);
  std::vector<std::byte> buf(777);
  for (auto& b : buf) b = static_cast<std::byte>(rng() & 0xFF);
  const std::uint32_t whole = common::crc32(buf);
  for (const std::size_t split : {1u, 3u, 8u, 100u, 776u}) {
    const std::uint32_t first =
        common::crc32(std::span(buf).first(split));
    const std::uint32_t chained =
        common::crc32(std::span(buf).subspan(split), first);
    EXPECT_EQ(chained, whole) << "split=" << split;
  }
}

TEST(Crc32, StreamingAccumulatorMatchesOneShot) {
  // Chunked == one-shot on the known vectors, for any chunking.
  const auto check = as_bytes_vec("123456789");
  for (const std::size_t chunk : {1u, 2u, 4u, 9u}) {
    common::Crc32 acc;
    for (std::size_t lo = 0; lo < check.size(); lo += chunk)
      acc.update(std::span(check).subspan(
          lo, std::min<std::size_t>(chunk, check.size() - lo)));
    EXPECT_EQ(acc.value(), 0xCBF43926u) << "chunk=" << chunk;
  }
  common::Crc32 empty;
  EXPECT_EQ(empty.value(), 0x00000000u);
  empty.update({});
  EXPECT_EQ(empty.value(), 0x00000000u);

  common::Crc32 reused;
  reused.update(std::span(check));
  reused.reset();
  const auto a = as_bytes_vec("a");
  reused.update(std::span(a));
  EXPECT_EQ(reused.value(), 0xE8B7BE43u);
}

TEST(Crc32, CombineMatchesConcatenation) {
  common::Rng rng(99);
  std::vector<std::byte> buf(5000);
  for (auto& b : buf) b = static_cast<std::byte>(rng() & 0xFF);
  const std::uint32_t whole = common::crc32(buf);
  for (const std::size_t split : {0u, 1u, 8u, 1024u, 4999u, 5000u}) {
    const std::uint32_t a = common::crc32(std::span(buf).first(split));
    const std::uint32_t b = common::crc32(std::span(buf).subspan(split));
    EXPECT_EQ(common::crc32_combine(a, b, buf.size() - split), whole)
        << "split=" << split;
  }

  // Short second parts exercise the low table entries one bit at a time;
  // 1 MiB and 294928 (a dist snapshot's payload at n=192) the long
  // products.
  std::vector<std::byte> big(1000 + (1u << 20));
  for (auto& b : big) b = static_cast<std::byte>(rng() & 0xFF);
  const auto a = std::span(big).first(1000);
  const std::uint32_t crc_a = common::crc32(a);
  for (const std::size_t len_b : {std::size_t{1}, std::size_t{7},
                                  std::size_t{8}, std::size_t{63},
                                  std::size_t{64}, std::size_t{4095},
                                  std::size_t{1} << 20, std::size_t{294928}}) {
    const auto b = std::span(big).subspan(a.size(), len_b);
    EXPECT_EQ(common::crc32_combine(crc_a, common::crc32(b), len_b),
              common::crc32(std::span(big).first(a.size() + len_b)))
        << "len_b=" << len_b;
  }

  // Degenerate: appending nothing is the identity, whatever crc_b says.
  EXPECT_EQ(common::crc32_combine(0x12345678u, 0x0u, 0), 0x12345678u);
  EXPECT_EQ(common::crc32_combine(0xCBF43926u, 0xDEADBEEFu, 0), 0xCBF43926u);
}

TEST(Crc32, CombineIsAssociativeBeyond4GiB) {
  // n, m > 2^32 push the exponent 8·len past 2^35, where the x^(2^k) table
  // index wraps (k mod 32); regrouping the three parts must not matter.
  common::Rng rng(0xA550C);
  for (int trial = 0; trial < 64; ++trial) {
    const auto a = static_cast<std::uint32_t>(rng());
    const auto b = static_cast<std::uint32_t>(rng());
    const auto c = static_cast<std::uint32_t>(rng());
    const std::size_t n = (std::size_t{1} << 32) + rng.below(1u << 30) + 1;
    const std::size_t m = (std::size_t{1} << 33) + rng.below(1u << 30) + 1;
    EXPECT_EQ(common::crc32_combine(common::crc32_combine(a, b, n), c, m),
              common::crc32_combine(a, common::crc32_combine(b, c, m), n + m))
        << "trial " << trial;
  }
}

/// The GF(2) matrix-squaring combine (zlib 1.2.11), the construction every
/// stored record CRC was written with before the table-driven one.
std::uint32_t matrix_crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                                   std::size_t len_b) {
  if (len_b == 0) return crc_a;
  using Mat = std::array<std::uint32_t, 32>;
  const auto times = [](const Mat& mat, std::uint32_t vec) {
    std::uint32_t sum = 0;
    for (std::size_t i = 0; vec != 0; vec >>= 1, ++i)
      if (vec & 1u) sum ^= mat[i];
    return sum;
  };
  const auto square = [&](Mat& out, const Mat& mat) {
    for (std::size_t i = 0; i < 32; ++i) out[i] = times(mat, mat[i]);
  };
  Mat odd{}, even{};
  odd[0] = 0xEDB88320u;
  for (std::size_t i = 1; i < 32; ++i) odd[i] = 1u << (i - 1);
  square(even, odd);
  square(odd, even);
  do {
    square(even, odd);
    if (len_b & 1u) crc_a = times(even, crc_a);
    len_b >>= 1;
    if (len_b == 0) break;
    square(odd, even);
    if (len_b & 1u) crc_a = times(odd, crc_a);
    len_b >>= 1;
  } while (len_b != 0);
  return crc_a ^ crc_b;
}

TEST(Crc32, CombineMatchesTheMatrixConstructionBitForBit) {
  // Stores written before the table-driven combine must still verify: the
  // two constructions agree on every (crc_a, crc_b, len_b).
  common::Rng rng(0x1211);
  for (int trial = 0; trial < 4000; ++trial) {
    const auto a = static_cast<std::uint32_t>(rng());
    const auto b = static_cast<std::uint32_t>(rng());
    const std::size_t len =
        static_cast<std::size_t>(rng() >> (24 + rng.below(40)));  // ≤ 2^40
    ASSERT_EQ(common::crc32_combine(a, b, len),
              matrix_crc32_combine(a, b, len))
        << "len=" << len;
  }
}

}  // namespace
