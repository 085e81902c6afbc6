#pragma once
/// \file worker.hpp
/// The shared-arena layout and the worker side of the distributed
/// ABFT-protected LU factorization.
///
/// Ownership is panel-cyclic over block columns: rank `j % nranks` owns
/// block column j of the matrix AND of both checksum accumulators. Every
/// block step k splits into two commands, mirroring AbftLu::step exactly:
///
///   Panel(k)  — owner(k) only: pre-subtract the pivot block row from the
///               active accumulator (column block k), factor the diagonal
///               block, apply U_kk^{-1} to the L block column and to the
///               active accumulator's column block k.
///
/// Both phases maintain TWO accumulator pairs: the plain sums and their
/// position-weighted twins (weight = 1-based position of the block row
/// inside its checksum group — the Huang–Abraham localization relation).
/// Every step operation is linear in rows, so applying the identical
/// transformation keeps both invariants exact at step boundaries; the
/// coordinator localizes a corrupted element from the ratio of the two
/// residuals without being told where the fault landed.
///   Update(k) — every rank, over each owned block column j: j == k just
///               freezes (its panel values are final); j != k pre-subtracts
///               the pivot row, and for j > k applies L_kk^{-1} to the U
///               block row, the trailing GEMM update to payload and active
///               accumulator, then freezes the finalized pivot row into the
///               frozen accumulator.
///
/// Per matrix column the operation sequence and operand values are
/// identical to the serial AbftLu step (each GEMM dot product runs over the
/// same nb-length inner dimension in the same order), so a clean
/// distributed run produces the same factors the serial code does, and two
/// distributed runs are bitwise identical — which is what lets the launcher
/// assert that restore + replay after a SIGKILL loses nothing.
///
/// No two ranks ever write the same bytes within a phase: Panel writes only
/// column block k (owner's property), Update writes only the executing
/// rank's owned columns, and the active accumulator's column block k is
/// read-only during Update.

#include <sys/types.h>

#include <cstddef>
#include <cstdint>

#include "abft/matrix.hpp"
#include "dist/channel.hpp"

namespace abftc::dist {

inline constexpr std::uint64_t kArenaMagic = 0xABF7'D157'0000'0002ULL;

/// Byte offsets of everything in the shared arena, derived from the
/// problem shape. Both sides compute it; the control block holds the shape
/// so a respawned worker can cross-check it re-attached to the right run.
struct DistLayout {
  std::size_t n = 0;       ///< matrix dimension
  std::size_t nb = 0;      ///< block size
  std::size_t nbk = 0;     ///< block steps (n / nb)
  std::size_t group = 0;   ///< block rows per checksum group
  std::size_t groups = 0;  ///< nbk / group
  std::size_t csr = 0;     ///< checksum rows = groups * nb
  std::size_t nranks = 0;

  std::size_t cmd_off = 0;     ///< nranks coordinator→worker mailboxes
  std::size_t rsp_off = 0;     ///< nranks worker→coordinator mailboxes
  std::size_t matrix_off = 0;   ///< n × n doubles
  std::size_t active_off = 0;   ///< csr × n doubles
  std::size_t frozen_off = 0;   ///< csr × n doubles
  std::size_t wactive_off = 0;  ///< position-weighted twin of active
  std::size_t wfrozen_off = 0;  ///< position-weighted twin of frozen
  std::size_t total_bytes = 0;

  [[nodiscard]] static DistLayout compute(std::size_t n, std::size_t nb,
                                          std::size_t group,
                                          std::size_t nranks);
};

/// Run identity at arena offset 0, written by the coordinator before any
/// fork; workers (including respawns) validate it on attach.
struct ControlBlock {
  std::uint64_t magic = 0;
  std::uint64_t n = 0, nb = 0, group = 0, nranks = 0;
};

/// Typed windows into the arena for one process.
struct SharedState {
  ControlBlock* ctl = nullptr;
  Mailbox* cmd = nullptr;  ///< [nranks]
  Mailbox* rsp = nullptr;  ///< [nranks]
  double* matrix = nullptr;
  double* active = nullptr;
  double* frozen = nullptr;
  double* wactive = nullptr;
  double* wfrozen = nullptr;
  DistLayout layout;

  [[nodiscard]] static SharedState attach(void* base, const DistLayout& lay);

  [[nodiscard]] abft::MatrixView a() const {
    return abft::MatrixView(matrix, layout.n, layout.n, layout.n);
  }
  [[nodiscard]] abft::MatrixView active_cs() const {
    return abft::MatrixView(active, layout.csr, layout.n, layout.n);
  }
  [[nodiscard]] abft::MatrixView frozen_cs() const {
    return abft::MatrixView(frozen, layout.csr, layout.n, layout.n);
  }
  [[nodiscard]] abft::MatrixView wactive_cs() const {
    return abft::MatrixView(wactive, layout.csr, layout.n, layout.n);
  }
  [[nodiscard]] abft::MatrixView wfrozen_cs() const {
    return abft::MatrixView(wfrozen, layout.csr, layout.n, layout.n);
  }
};

/// Panel-cyclic owner of block column j.
[[nodiscard]] constexpr std::size_t owner_of(std::size_t block_col,
                                             std::size_t nranks) noexcept {
  return block_col % nranks;
}

/// Phase 1 of block step k; call only as owner_of(k).
void panel_phase(const SharedState& s, std::size_t k);

/// Phase 2 of block step k for `rank`'s owned block columns. Requires the
/// panel phase of step k to have completed.
void update_phase(const SharedState& s, std::size_t rank, std::size_t k);

/// Child-process entry point: arms PR_SET_PDEATHSIG so the rank dies with
/// `coordinator` (the pid that forked it), pins the kernel policy to one
/// inline thread (a forked child must never touch the parent's executor
/// pool), signals readiness with one byte on `ready_fd`, then serves
/// Panel/Update commands from its mailbox until Shutdown, ringing one more
/// byte on `ready_fd` after every Done. Exits via _exit — never returns,
/// never runs parent-inherited atexit handlers or flushes parent stdio
/// buffers.
[[noreturn]] void worker_main(void* arena, const DistLayout& lay,
                              std::size_t rank, int ready_fd,
                              pid_t coordinator);

}  // namespace abftc::dist
