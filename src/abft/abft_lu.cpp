#include "abft/abft_lu.hpp"

#include <chrono>

#include "abft/kernels.hpp"

namespace abftc::abft {

AbftLu::AbftLu(Matrix a, std::size_t nb, ProcessGrid grid)
    : a_(std::move(a)), nb_(nb), grid_(grid) {
  grid_.validate();
  ABFTC_REQUIRE(a_.rows() == a_.cols(), "LU expects a square matrix");
  ABFTC_REQUIRE(nb > 0 && a_.rows() % nb == 0,
                "dimension must be a multiple of the block size");
  nbk_ = a_.rows() / nb_;
  ABFTC_REQUIRE(nbk_ % grid_.prows == 0,
                "block count must be a multiple of the grid rows");
  active_cs_ = row_group_checksum_pair(a_, nb_, grid_.prows);
  frozen_cs_ = Matrix::zeros(active_cs_.rows(), active_cs_.cols());
}

void AbftLu::factor(const std::vector<Fault>& faults) {
  recovery_ = RecoveryStats{};
  std::size_t next_fault = 0;
  for (std::size_t k = 0; k <= nbk_; ++k) {
    // Faults with the same step are simultaneous: all ranks die before any
    // reconstruction begins (the hard case for checksum protection).
    std::size_t batch_end = next_fault;
    while (batch_end < faults.size() && faults[batch_end].at_step == k) {
      ABFTC_REQUIRE(faults[batch_end].dead_rank < grid_.size(),
                    "dead rank out of range");
      kill_rank_blocks(a_, nb_, grid_, faults[batch_end].dead_rank);
      ++batch_end;
    }
    for (; next_fault < batch_end; ++next_fault)
      recover_rank(k, faults[next_fault].dead_rank);
    if (k == nbk_) break;
    // One panel, then every block column as one set: the payload and each
    // live accumulator half take a single batched GEMM per step.
    lu_panel(view(), k);
    lu_update(view(), k, 0, 1);
    frozen_steps_ = k + 1;
  }
  ABFTC_REQUIRE(next_fault == faults.size(),
                "faults must be sorted by step and within range");
}

void AbftLu::recover_rank(std::size_t k, std::size_t dead_rank) {
  const auto t0 = std::chrono::steady_clock::now();
  RecoveryStats stats;
  stats.recoveries = 1;

  for (const auto& [bi, bj] : blocks_of_rank(grid_, dead_rank, nbk_, nbk_)) {
    const ConstMatrixView lost = a_.block(bi * nb_, bj * nb_, nb_, nb_);
    if (!has_nan(lost)) continue;
    // A lost partner in the same class leaves its NaN in the rebuilt block.
    lu_rebuild_block(view(), k, bi, bj);
    if (has_nan(lost))
      throw unrecoverable_error(
          "two lost block rows share a checksum group");
    ++stats.blocks_recovered;
    stats.values_recovered += nb_ * nb_;
  }
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  recovery_ += stats;
}

Matrix AbftLu::reconstruct_product() const {
  const std::size_t n = a_.rows();
  Matrix prod(n, n, 0.0);
  // prod = L · U with L unit-lower and U upper from the compact factor.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = (i <= j) ? a_(i, j) : 0.0;  // L(i,i)=1 times U(i,j)
      const std::size_t kmax = std::min(i, j + 1);
      for (std::size_t p = 0; p < kmax; ++p) s += a_(i, p) * a_(p, j);
      prod(i, j) = s;
    }
  return prod;
}

double AbftLu::checksum_residual() const {
  return lu_checksum_residual(
      LuConstView{a_.view(), active_cs_.view(), frozen_cs_.view(), nb_,
                  grid_.prows},
      frozen_steps_, kernel_policy().threads);
}

}  // namespace abftc::abft
