#include "abft/lu_kernel.hpp"

#include <algorithm>
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

/// Address of element (i, j) of a read-only view.
const double* at(ConstMatrixView v, std::size_t i, std::size_t j) {
  return v.data() + i * v.ld() + j;
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

void lu_row_residuals(const LuConstView& s, std::size_t frozen_steps,
                      std::size_t row, std::size_t j0, std::size_t m,
                      RowResiduals& out) {
  const std::size_t r = row % s.nb, csr = s.csr();
  const std::size_t first = (row / s.nb) * s.group;
  // Members [0, nf) of the group are frozen, [nf, group) active.
  const std::size_t nf =
      std::clamp(frozen_steps, first, first + s.group) - first;
  for (int c = 0; c < 2; ++c) {
    std::fill_n(out.sum[c], m, 0.0);
    std::fill_n(out.weighted[c], m, 0.0);
  }
  for (std::size_t k = 0; k < s.group; ++k) {
    const int c = k < nf ? 1 : 0;
    double* const e = out.sum[c];
    double* const we = out.weighted[c];
    const double* const v = at(s.a, (first + k) * s.nb + r, j0);
    const double w = static_cast<double>(k + 1);
    for (std::size_t j = 0; j < m; ++j) {
      e[j] += v[j];
      we[j] += w * v[j];
    }
  }
  const ConstMatrixView stored[2] = {s.active, s.frozen};
  for (int c = 0; c < 2; ++c) {
    const double* const cs = at(stored[c], row, j0);
    const double* const wcs = at(stored[c], csr + row, j0);
    double* const e = out.sum[c];
    double* const we = out.weighted[c];
    for (std::size_t j = 0; j < m; ++j) {
      e[j] -= cs[j];
      we[j] -= wcs[j];
    }
  }
}

std::uint64_t worst_abs_bits(const RowResiduals& res, std::size_t m) {
  std::uint64_t worst = 0;
  for (int c = 0; c < 2; ++c)
    for (std::size_t j = 0; j < m; ++j) {
      worst = std::max(worst, abs_bits(res.sum[c][j]));
      worst = std::max(worst, abs_bits(res.weighted[c][j]));
    }
  return worst;
}

double lu_checksum_residual(const LuConstView& s, std::size_t frozen_steps,
                            unsigned threads) {
  const std::size_t csr = s.csr(), n = s.a.cols();
  std::vector<std::uint64_t> partial(csr, 0);
  // Small shapes stay inline. At ~2.5 ns per slot on one thread (the
  // verify block of bench_kernels_json), a pool dispatch costs 3–7 µs, and
  // measured on a 4-vCPU AVX-512 VM four threads first beat one at ~12k
  // slots (n = 192, group 3: 12 288 slots, 30 µs either way) and win 1.3–2×
  // from ~28k.
  if (csr * n < 16'384) threads = 1;
  common::parallel_for(
      csr,
      [&](std::size_t row) {
        RowResiduals res;
        std::uint64_t worst = 0;
        for (std::size_t j0 = 0; j0 < n; j0 += kResidualChunk) {
          const std::size_t m = std::min(kResidualChunk, n - j0);
          lu_row_residuals(s, frozen_steps, row, j0, m, res);
          worst = std::max(worst, worst_abs_bits(res, m));
        }
        partial[row] = worst;
      },
      threads);
  std::uint64_t worst = 0;
  for (const std::uint64_t p : partial) worst = std::max(worst, p);
  return abs_from_bits(worst);
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
