#include "abft/lu_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "abft/blas.hpp"
#include "common/executor.hpp"

namespace abftc::abft {

namespace {

/// acc ← acc ± pivot block row k over block columns [bj0, bj1): the sum
/// half receives the row, the weighted half w times the row. The two
/// expressions match the initial builder's, so frozen sums of final rows
/// equal row_group_checksum_pair of the factors bitwise.
template <bool kAdd>
void shift_pivot_row(const LuView& s, MatrixView acc, std::size_t k,
                     std::size_t bj0, std::size_t bj1) {
  if (bj0 >= bj1) return;
  const std::size_t nb = s.nb, csr = acc.rows() / 2;
  const std::size_t row0 = (k / s.group) * nb;
  const double w = static_cast<double>(k % s.group + 1);
  for (std::size_t r = 0; r < nb; ++r)
    for (std::size_t j = bj0 * nb; j < bj1 * nb; ++j) {
      const double v = s.a(k * nb + r, j);
      if constexpr (kAdd) {
        acc(row0 + r, j) += v;
        acc(csr + row0 + r, j) += w * v;
      } else {
        acc(row0 + r, j) -= v;
        acc(csr + row0 + r, j) -= w * v;
      }
    }
}

}  // namespace

void lu_panel(const LuView& s, std::size_t k) {
  const std::size_t nb = s.nb, off = k * nb;
  const std::size_t rest = s.a.rows() - off - nb;
  // Column block k of the pivot row leaves the active set before getf2
  // touches it; the other column blocks leave in lu_update.
  shift_pivot_row<false>(s, s.active, k, k, k + 1);
  const MatrixView diag = s.a.block(off, off, nb, nb);
  getf2_nopiv(diag);
  if (rest > 0) trsm_right_upper(diag, s.a.block(off + nb, off, rest, nb));
  trsm_right_upper(diag, s.active.block(0, off, s.active.rows(), nb));
}

void lu_update(const LuView& s, std::size_t k, std::size_t bj0,
               std::size_t bj1) {
  const std::size_t nb = s.nb, off = k * nb;
  // Pre-step pivot row values leave the active set (column block k already
  // left in lu_panel).
  shift_pivot_row<false>(s, s.active, k, bj0, std::min(bj1, k));
  shift_pivot_row<false>(s, s.active, k, std::max(bj0, k + 1), bj1);

  // Trailing columns: U block row, then one GEMM each for the payload and
  // the stacked accumulator.
  const std::size_t u0 = std::max(bj0, k + 1);
  if (u0 < bj1) {
    const std::size_t c0 = u0 * nb, width = (bj1 - u0) * nb;
    const std::size_t rest = s.a.rows() - off - nb;
    const MatrixView u = s.a.block(off, c0, nb, width);
    trsm_left_lower_unit(s.a.block(off, off, nb, nb), u);
    gemm_sub(s.a.block(off + nb, off, rest, nb), u,
             s.a.block(off + nb, c0, rest, width));
    gemm_sub(s.active.block(0, off, s.active.rows(), nb), u,
             s.active.block(0, c0, s.active.rows(), width));
  }

  // The pivot row's values are final in these columns: freeze them.
  shift_pivot_row<true>(s, s.frozen, k, bj0, bj1);
}

double lu_checksum_residual(const LuConstView& s, std::size_t frozen_steps,
                            unsigned threads) {
  const std::size_t csr = s.csr(), n = s.a.cols();
  std::vector<double> partial(csr, 0.0);
  // Tiny shapes stay inline: below ~16k slots the dispatch overhead would
  // dominate the sweep itself.
  if (csr * n < 16'384) threads = 1;
  common::parallel_for(
      csr,
      [&](std::size_t row) {
        double worst = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
          const SlotResidual res = lu_slot_residual(s, frozen_steps, row, j);
          worst = std::max(worst, std::abs(res.sum[0]));
          worst = std::max(worst, std::abs(res.sum[1]));
          worst = std::max(worst, std::abs(res.weighted[0]));
          worst = std::max(worst, std::abs(res.weighted[1]));
        }
        partial[row] = worst;
      },
      threads);
  double worst = 0.0;
  for (const double p : partial) worst = std::max(worst, p);
  return worst;
}

void lu_rebuild_block(const LuView& s, std::size_t frozen_steps,
                      std::size_t bi, std::size_t bj) {
  const std::size_t nb = s.nb, g = bi / s.group;
  const bool frozen = bi < frozen_steps;
  const MatrixView lost = s.a.block(bi * nb, bj * nb, nb, nb);
  copy_into((frozen ? s.frozen : s.active).block(g * nb, bj * nb, nb, nb),
            lost);
  for (std::size_t mi = g * s.group; mi < (g + 1) * s.group; ++mi) {
    if (mi == bi || (mi < frozen_steps) != frozen) continue;
    const ConstMatrixView other = s.a.block(mi * nb, bj * nb, nb, nb);
    for (std::size_t r = 0; r < nb; ++r)
      for (std::size_t c = 0; c < nb; ++c) lost(r, c) -= other(r, c);
  }
}

void plain_blocked_lu(Matrix& a, std::size_t nb) {
  ABFTC_REQUIRE(a.rows() == a.cols(), "LU expects a square matrix");
  ABFTC_REQUIRE(nb > 0 && a.rows() % nb == 0,
                "dimension must be a multiple of the block size");
  const std::size_t n = a.rows();
  for (std::size_t off = 0; off < n; off += nb) {
    const std::size_t rest = n - off - nb;
    MatrixView diag = a.block(off, off, nb, nb);
    getf2_nopiv(diag);
    if (rest == 0) break;
    trsm_left_lower_unit(diag, a.block(off, off + nb, nb, rest));
    trsm_right_upper(diag, a.block(off + nb, off, rest, nb));
    gemm_sub(a.block(off + nb, off, rest, nb),
             a.block(off, off + nb, nb, rest),
             a.block(off + nb, off + nb, rest, rest));
  }
}

}  // namespace abftc::abft
