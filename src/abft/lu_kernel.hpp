#pragma once
/// \file lu_kernel.hpp
/// The one implementation of the ABFT-protected right-looking blocked LU
/// (no pivoting; use diagonally dominant inputs), after Du, Bouteiller,
/// Bosilca et al. [9]. The serial AbftLu and the forked dist ranks both run
/// these functions, so "distributed equals serial" holds by construction.
///
/// State. The payload `a` (n × n, becomes L\U) plus two stacked
/// accumulators, `active` and `frozen`, each 2·csr × n with csr = groups·nb.
/// Block rows are partitioned into checksum groups of `group` consecutive
/// block rows; block row bi sits in group g = bi / group at 1-based position
/// w = bi % group + 1. Rows [0, csr) of an accumulator hold the sums, rows
/// [csr, 2·csr) the position-weighted sums (the Huang–Abraham localization
/// relation). At every block-step boundary, with f block rows frozen:
///
///   active[g·nb + r]       = Σ_{bi ∈ g, bi ≥ f}       row_{bi·nb + r}
///   active[csr + g·nb + r] = Σ_{bi ∈ g, bi ≥ f} w(bi) · row_{bi·nb + r}
///   frozen: the same over bi < f.
///
/// The active accumulator covers the not-yet-factored block rows and rides
/// through every panel and update operation: each is linear in rows, so
/// applying it to both halves keeps both relations exact. When block row k
/// is factored it freezes — its pre-step values leave `active` and its
/// final values join `frozen`, which then protects L and U at O(n²) total
/// maintenance cost. A single corrupted element with delta d at position w
/// leaves residual d in the sum relation and w·d in the weighted one, so
/// their ratio names the victim; a lost block is rebuilt by subtracting the
/// surviving members of its class from the matching sum.
///
/// Block step k splits into two phases:
///
///   lu_panel(k)  — pre-subtract the pivot block row's column block k from
///                  `active`, factor the diagonal block, apply U_kk⁻¹ to the
///                  L block column and to `active`'s column block k.
///   lu_update(k, bj0, bj1) — over block columns [bj0, bj1): pre-subtract
///                  the pivot row from `active` (j ≠ k; pre-step values),
///                  for j > k apply L_kk⁻¹ to the U block row and the
///                  trailing GEMM to payload and `active`, then freeze the
///                  pivot row's final values into `frozen`.
///
/// The update of one block column reads only column block k and writes only
/// its own columns, so disjoint ranges may run in any order or in parallel
/// once the panel is done. Per matrix column the operation sequence is the
/// same however [0, nbk) is split. The dist ranks update one block column
/// per call, so runs with any rank count are bitwise identical; the serial
/// single-range update agrees with them to rounding (the wider GEMM may take
/// another kernel path).

#include <cstddef>
#include <cstdint>

#include "abft/matrix.hpp"

namespace abftc::abft {

/// Read-only view of the protected state.
struct LuConstView {
  ConstMatrixView a;       ///< n × n payload
  ConstMatrixView active;  ///< 2·csr × n: [sums; weighted sums]
  ConstMatrixView frozen;  ///< 2·csr × n
  std::size_t nb = 0;      ///< block size
  std::size_t group = 0;   ///< block rows per checksum group

  [[nodiscard]] std::size_t csr() const noexcept { return active.rows() / 2; }
};

/// Mutable view of the protected state (see LuConstView).
struct LuView {
  MatrixView a, active, frozen;
  std::size_t nb = 0, group = 0;

  operator LuConstView() const {  // NOLINT(google-explicit-constructor)
    return {a, active, frozen, nb, group};
  }
};

/// Phase 1 of block step k (column block k only).
void lu_panel(const LuView& s, std::size_t k);

/// Phase 2 of block step k over block columns [bj0, bj1). Requires
/// lu_panel(k) to have completed.
void lu_update(const LuView& s, std::size_t k, std::size_t bj0,
               std::size_t bj1);

/// Rebuild both accumulators from the payload: for each accumulator row,
/// sum the group's member rows into `frozen` if bi < frozen_steps and into
/// `active` otherwise, in group order starting from 0.0, for both
/// relations. Contract:
///   - derived data only: the payload is read, never written, so a state
///     whose accumulators were dropped (a dist snapshot) is whole again;
///   - the frozen half is bitwise the accumulator lu_update maintains (the
///     same additions in the same order from the same zero); the active
///     half agrees with the maintained one to rounding;
///   - with frozen_steps = 0 the result is bitwise row_group_checksum_pair
///     over `active` and all zeros over `frozen`;
///   - bitwise-identical for every `threads`: parallel_for runs one
///     accumulator row per index.
void lu_encode(const LuView& s, std::size_t frozen_steps, unsigned threads);

/// Columns per call of the residual routine: four chunk rows of residuals
/// (8 KiB) stay on the caller's stack and in L1.
inline constexpr std::size_t kResidualChunk = 256;

/// Recomputed-minus-stored residuals of one accumulator row over a column
/// chunk, per relation and class: index [0] active, [1] frozen.
struct RowResiduals {
  double sum[2][kResidualChunk];
  double weighted[2][kResidualChunk];
};

/// The one residual routine: fill `out`'s first `m` ≤ kResidualChunk
/// columns with the four residuals of accumulator row `row` < csr over
/// columns [j0, j0 + m). The group's frozen/active split is decided once per
/// call, so the column loops carry no branch and vectorize. Per slot the
/// addition order is the relations' own — member sums in group order from
/// 0.0, then minus the stored value — so every caller of this routine sees
/// the same value for the same slot.
void lu_row_residuals(const LuConstView& s, std::size_t frozen_steps,
                      std::size_t row, std::size_t j0, std::size_t m,
                      RowResiduals& out);

/// max abs_bits (matrix.hpp) over the first `m` columns of `res`'s four
/// residual rows: the NaN-safe worst |r| of a chunk, as bits.
[[nodiscard]] std::uint64_t worst_abs_bits(const RowResiduals& res,
                                           std::size_t m);

/// The verification sweep: the worst |residual| of the four relations over
/// every slot. Contract:
///   - NaN-safe: any non-finite residual (a NaN or Inf anywhere in the
///     payload or either accumulator) returns +Inf, so every `> floor`
///     check treats it as corruption;
///   - bitwise-identical for every `threads`: parallel_for runs one
///     accumulator row per index into its own slot and an integer max-fold
///     (abs_bits) combines them, which is exact in any order.
[[nodiscard]] double lu_checksum_residual(const LuConstView& s,
                                          std::size_t frozen_steps,
                                          unsigned threads);

/// Overwrite block (bi, bj) with the matching sum minus the surviving
/// members of its class (frozen iff bi < frozen_steps). A NaN in any
/// subtracted member propagates into the block.
void lu_rebuild_block(const LuView& s, std::size_t frozen_steps,
                      std::size_t bi, std::size_t bj);

/// Baseline: plain blocked LU without checksums (for overhead benches).
void plain_blocked_lu(Matrix& a, std::size_t nb);

}  // namespace abftc::abft
