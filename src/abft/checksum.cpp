#include "abft/checksum.hpp"

#include <chrono>
#include <cmath>
#include <limits>

#include "abft/kernels.hpp"
#include "common/executor.hpp"

namespace abftc::abft {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

void check_blocking(const Matrix& a, std::size_t nb) {
  ABFTC_REQUIRE(nb > 0, "block size must be positive");
  ABFTC_REQUIRE(a.rows() % nb == 0 && a.cols() % nb == 0,
                "matrix dimensions must be multiples of the block size");
}

/// Under the naive policy the builders stay serial — it is the reference
/// path benches time against.
unsigned checksum_threads() noexcept {
  const KernelPolicy& pol = kernel_policy();
  return pol.path == KernelPath::blocked ? pol.threads : 1;
}

}  // namespace

RecoveryStats& RecoveryStats::operator+=(const RecoveryStats& o) noexcept {
  blocks_recovered += o.blocks_recovered;
  values_recovered += o.values_recovered;
  seconds += o.seconds;
  recoveries += o.recoveries;
  return *this;
}

std::size_t group_count(std::size_t blocks, std::size_t group) {
  ABFTC_REQUIRE(group > 0, "group size must be positive");
  ABFTC_REQUIRE(blocks % group == 0,
                "block count must be a multiple of the group size");
  return blocks / group;
}

Matrix row_group_checksums(const Matrix& a, std::size_t nb,
                           std::size_t group) {
  check_blocking(a, nb);
  const std::size_t nbr = a.rows() / nb;
  const std::size_t groups = group_count(nbr, group);
  Matrix cs(groups * nb, a.cols(), 0.0);
  // Each worker owns whole output rows of cs and sums its group members in
  // ascending block-row order, so the result is bitwise-identical for every
  // thread count.
  common::parallel_for(
      groups * nb,
      [&](std::size_t gr) {
        const std::size_t g = gr / nb;
        const std::size_t r = gr % nb;
        for (std::size_t bi = g * group; bi < (g + 1) * group; ++bi)
          for (std::size_t j = 0; j < a.cols(); ++j)
            cs(gr, j) += a(bi * nb + r, j);
      },
      checksum_threads());
  return cs;
}

Matrix row_group_checksum_pair(const Matrix& a, std::size_t nb,
                               std::size_t group) {
  check_blocking(a, nb);
  const std::size_t groups = group_count(a.rows() / nb, group);
  const std::size_t csr = groups * nb;
  Matrix cs(2 * csr, a.cols(), 0.0);
  // Same ownership scheme as row_group_checksums: worker gr owns output row
  // gr of both halves and sums members in ascending block-row order. The
  // weight (m+1) is an exact small integer in double.
  common::parallel_for(
      csr,
      [&](std::size_t gr) {
        const std::size_t g = gr / nb;
        const std::size_t r = gr % nb;
        for (std::size_t m = 0; m < group; ++m) {
          const double w = static_cast<double>(m + 1);
          for (std::size_t j = 0; j < a.cols(); ++j) {
            const double v = a((g * group + m) * nb + r, j);
            cs(gr, j) += v;
            cs(csr + gr, j) += w * v;
          }
        }
      },
      checksum_threads());
  return cs;
}

Matrix col_group_checksums(const Matrix& a, std::size_t nb,
                           std::size_t group) {
  check_blocking(a, nb);
  const std::size_t nbc = a.cols() / nb;
  const std::size_t groups = group_count(nbc, group);
  Matrix cs(a.rows(), groups * nb, 0.0);
  // Workers own whole rows of cs; per-element summation order is fixed.
  common::parallel_for(
      a.rows(),
      [&](std::size_t i) {
        for (std::size_t bj = 0; bj < nbc; ++bj) {
          const std::size_t g = bj / group;
          for (std::size_t c = 0; c < nb; ++c)
            cs(i, g * nb + c) += a(i, bj * nb + c);
        }
      },
      checksum_threads());
  return cs;
}

double row_checksum_residual(const Matrix& a, const Matrix& cs, std::size_t nb,
                             std::size_t group) {
  const Matrix fresh = row_group_checksums(a, nb, group);
  return max_abs_diff(fresh, cs);
}

double col_checksum_residual(const Matrix& a, const Matrix& cs, std::size_t nb,
                             std::size_t group) {
  const Matrix fresh = col_group_checksums(a, nb, group);
  return max_abs_diff(fresh, cs);
}

void kill_rank_blocks(Matrix& a, std::size_t nb, const ProcessGrid& grid,
                      std::size_t rank) {
  check_blocking(a, nb);
  const std::size_t nbr = a.rows() / nb;
  const std::size_t nbc = a.cols() / nb;
  for (const auto& [bi, bj] : blocks_of_rank(grid, rank, nbr, nbc))
    fill(a.view().block(bi * nb, bj * nb, nb, nb), kNaN);
}

bool has_nan(ConstMatrixView v) noexcept {
  for (std::size_t i = 0; i < v.rows(); ++i)
    for (std::size_t j = 0; j < v.cols(); ++j)
      if (std::isnan(v(i, j))) return true;
  return false;
}

namespace {

/// Shared implementation: recover all blocks of `rank`, iterating the lost
/// blocks and subtracting surviving group members from the checksum.
/// `by_rows` selects row-group vs column-group arithmetic.
RecoveryStats recover_impl(Matrix& a, const Matrix& cs, std::size_t nb,
                           std::size_t group, const ProcessGrid& grid,
                           std::size_t rank, bool by_rows) {
  check_blocking(a, nb);
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t nbr = a.rows() / nb;
  const std::size_t nbc = a.cols() / nb;
  RecoveryStats stats;
  stats.recoveries = 1;

  for (const auto& [bi, bj] : blocks_of_rank(grid, rank, nbr, nbc)) {
    MatrixView lost = a.view().block(bi * nb, bj * nb, nb, nb);
    if (!has_nan(lost)) continue;  // already recovered or never lost
    const std::size_t g = (by_rows ? bi : bj) / group;
    // Start from the checksum block.
    for (std::size_t r = 0; r < nb; ++r)
      for (std::size_t c = 0; c < nb; ++c)
        lost(r, c) = by_rows ? cs(g * nb + r, bj * nb + c)
                             : cs(bi * nb + r, g * nb + c);
    // Subtract the surviving members of the group.
    const std::size_t first = g * group;
    for (std::size_t member = first; member < first + group; ++member) {
      const std::size_t mi = by_rows ? member : bi;
      const std::size_t mj = by_rows ? bj : member;
      if ((by_rows ? mi : mj) == (by_rows ? bi : bj)) continue;
      ConstMatrixView other =
          a.view().block(mi * nb, mj * nb, nb, nb);
      if (has_nan(other))
        throw unrecoverable_error(
            "two lost blocks share a checksum group: single-failure "
            "protection cannot reconstruct them");
      for (std::size_t r = 0; r < nb; ++r)
        for (std::size_t c = 0; c < nb; ++c) lost(r, c) -= other(r, c);
    }
    ++stats.blocks_recovered;
    stats.values_recovered += nb * nb;
  }
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return stats;
}

}  // namespace

RecoveryStats recover_rank_from_row_checksums(Matrix& a, const Matrix& cs,
                                              std::size_t nb,
                                              std::size_t group,
                                              const ProcessGrid& grid,
                                              std::size_t rank) {
  return recover_impl(a, cs, nb, group, grid, rank, /*by_rows=*/true);
}

RecoveryStats recover_rank_from_col_checksums(Matrix& a, const Matrix& cs,
                                              std::size_t nb,
                                              std::size_t group,
                                              const ProcessGrid& grid,
                                              std::size_t rank) {
  return recover_impl(a, cs, nb, group, grid, rank, /*by_rows=*/false);
}

}  // namespace abftc::abft
