#pragma once
/// \file checksum.hpp
/// Block-group checksum encodings (Huang & Abraham [7], block-cyclic variant
/// of Du et al. [9]).
///
/// A *row-group* checksum partitions the block rows into groups of P
/// consecutive block rows (P = grid rows). Under 2-D block-cyclic
/// distribution each group contains exactly one block row per grid row, so
/// the death of one rank removes exactly one addend from every group sum —
/// the lost blocks are recovered by subtracting the surviving addends from
/// the checksum. Column-group checksums are the transpose construction with
/// groups of Q block columns.
///
/// Checksum blocks live on the grid's virtual reliable rank (see grid.hpp).

#include <stdexcept>

#include "abft/grid.hpp"
#include "abft/matrix.hpp"

namespace abftc::abft {

/// Thrown when the surviving data + checksums cannot determine the lost
/// blocks (e.g. two dead ranks on the same grid row under row-group-only
/// protection).
class unrecoverable_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Number of row groups for an nbr-block-row matrix with group size P.
[[nodiscard]] std::size_t group_count(std::size_t blocks, std::size_t group);

/// Build row-group checksums: result has group_count(nbr, group) block rows
/// of nb rows each; cs[g] = Σ_{bi ∈ group g} A[bi, :].
/// Requires a.rows() divisible by nb and nbr divisible by group.
/// Parallelized over output rows with kernel_policy().threads workers; the
/// result is bitwise-identical for every thread count.
[[nodiscard]] Matrix row_group_checksums(const Matrix& a, std::size_t nb,
                                         std::size_t group);

/// Column-group checksums: cs[:, g] = Σ_{bj ∈ group g} A[:, bj].
[[nodiscard]] Matrix col_group_checksums(const Matrix& a, std::size_t nb,
                                         std::size_t group);

/// Row-group checksums stacked over their position-weighted twins (the
/// second Huang–Abraham relation): rows [0, csr) are row_group_checksums,
/// rows [csr, 2·csr) hold Σ_{m=0}^{group-1} (m+1) · A[g·group+m, :], with
/// csr = group_count · nb. A single corrupted block row leaves weighted and
/// unweighted residuals whose ratio is its 1-based position in the group.
/// One pass; same threading contract as row_group_checksums.
[[nodiscard]] Matrix row_group_checksum_pair(const Matrix& a, std::size_t nb,
                                             std::size_t group);

/// Max-abs residual of the row-group checksum invariant (0 when intact).
[[nodiscard]] double row_checksum_residual(const Matrix& a, const Matrix& cs,
                                           std::size_t nb, std::size_t group);
[[nodiscard]] double col_checksum_residual(const Matrix& a, const Matrix& cs,
                                           std::size_t nb, std::size_t group);

/// Wipe (NaN-fill) every block of `a` owned by `rank`.
void kill_rank_blocks(Matrix& a, std::size_t nb, const ProcessGrid& grid,
                      std::size_t rank);

/// Statistics of a completed reconstruction.
struct RecoveryStats {
  std::size_t blocks_recovered = 0;
  std::size_t values_recovered = 0;  ///< doubles reconstructed
  double seconds = 0.0;              ///< wall-clock reconstruction time
  std::size_t recoveries = 0;        ///< number of recovery episodes

  RecoveryStats& operator+=(const RecoveryStats& o) noexcept;
};

/// Recover every block of `a` owned by `rank` from row-group checksums.
/// Throws unrecoverable_error if another group member is also dead (NaN).
RecoveryStats recover_rank_from_row_checksums(Matrix& a, const Matrix& cs,
                                              std::size_t nb,
                                              std::size_t group,
                                              const ProcessGrid& grid,
                                              std::size_t rank);

/// Recover from column-group checksums (transpose construction).
RecoveryStats recover_rank_from_col_checksums(Matrix& a, const Matrix& cs,
                                              std::size_t nb,
                                              std::size_t group,
                                              const ProcessGrid& grid,
                                              std::size_t rank);

/// True if any entry of the view is NaN (a wiped block).
[[nodiscard]] bool has_nan(ConstMatrixView v) noexcept;

}  // namespace abftc::abft
