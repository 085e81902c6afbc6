#pragma once
/// \file abft_lu.hpp
/// ABFT-protected blocked LU driven serially over the shared step kernel
/// (lu_kernel.hpp states the algebra and its invariants).
///
/// A rank killed at a block-step boundary is reconstructed block-by-block by
/// subtracting the surviving group members from the matching accumulator;
/// the factorization then resumes where it stopped — no work is lost, which
/// is exactly the property the paper's Recons_ABFT term models.

#include <optional>
#include <vector>

#include "abft/checksum.hpp"
#include "abft/lu_kernel.hpp"

namespace abftc::abft {

struct InjectedFault;  // abft_gemm.hpp; redefined here to avoid the include

class AbftLu {
 public:
  struct Fault {
    std::size_t at_step = 0;  ///< inject before block step `at_step`
    std::size_t dead_rank = 0;
  };

  /// A must be square, its dimension a multiple of nb, and the block count a
  /// multiple of the grid row count.
  AbftLu(Matrix a, std::size_t nb, ProcessGrid grid);

  /// Factor in place, optionally injecting rank failures (sorted by step;
  /// at_step == block-count means "after the last step").
  void factor(const std::vector<Fault>& faults = {});

  /// Compact L\U factor (unit lower / upper in one matrix).
  [[nodiscard]] const Matrix& lu() const noexcept { return a_; }

  /// L·U recomputed from the compact factor (verification helper).
  [[nodiscard]] Matrix reconstruct_product() const;

  /// Max-abs residual of all four checksum invariants (sum + weighted,
  /// active + frozen) at the current state, +Inf if it holds a NaN or Inf
  /// (tests assert ~0 at every step boundary). The dist runtime's sweep.
  [[nodiscard]] double checksum_residual() const;

  /// The sum halves of the stacked accumulators: cs[g] = Σ_m row_{g·P+m}
  /// over the matching frozen/active split.
  [[nodiscard]] ConstMatrixView active_cs() const {
    return active_cs_.block(0, 0, csr(), active_cs_.cols());
  }
  [[nodiscard]] ConstMatrixView frozen_cs() const {
    return frozen_cs_.block(0, 0, csr(), frozen_cs_.cols());
  }

  /// The weighted halves of the stacked accumulators (Huang–Abraham
  /// localization relation): w_cs[g] = Σ_m (m+1)·row_{g·P+m} over the
  /// matching frozen/active split.
  [[nodiscard]] ConstMatrixView weighted_active_cs() const {
    return active_cs_.block(csr(), 0, csr(), active_cs_.cols());
  }
  [[nodiscard]] ConstMatrixView weighted_frozen_cs() const {
    return frozen_cs_.block(csr(), 0, csr(), frozen_cs_.cols());
  }

  [[nodiscard]] const RecoveryStats& recovery() const noexcept {
    return recovery_;
  }

  /// Fraction of extra arithmetic spent maintaining checksums at the first
  /// step: every panel and update also runs on the stacked active
  /// accumulator's live rows, and a group's rows drop out once it is dead.
  [[nodiscard]] double overhead_fraction() const noexcept {
    return static_cast<double>(active_cs_.rows()) /
           static_cast<double>(a_.rows());
  }

  [[nodiscard]] std::size_t block_steps() const noexcept { return nbk_; }

 private:
  [[nodiscard]] std::size_t csr() const noexcept {
    return active_cs_.rows() / 2;
  }
  [[nodiscard]] LuView view() noexcept {
    return {a_.view(), active_cs_.view(), frozen_cs_.view(), nb_,
            grid_.prows};
  }
  void recover_rank(std::size_t k, std::size_t dead_rank);

  Matrix a_;          // n×n working matrix (becomes L\U)
  Matrix active_cs_;  // 2·(groups·nb) × n: [sums; weighted sums]
  Matrix frozen_cs_;  // same shape
  std::size_t nb_, nbk_;
  std::size_t frozen_steps_ = 0;  ///< block rows 0..frozen_steps_-1 frozen
  ProcessGrid grid_;
  RecoveryStats recovery_;
};

}  // namespace abftc::abft
