#pragma once
/// \file worker.hpp
/// The shared-arena layout and the worker side of the distributed
/// ABFT-protected LU factorization.
///
/// Ownership is panel-cyclic over block columns: rank `j % nranks` owns
/// block column j of the matrix AND of both stacked accumulators. Block
/// step k is one command to every rank, Update(k, token), running the shared
/// step kernel (lu_kernel.hpp, which states the algebra and its invariants):
///
///   owner(k)    — abft::lu_panel(k), then publish `token` on the step gate
///                 (ControlBlock::step_gate), then one
///                 abft::lu_update(k, rank, nranks) over its owned block
///                 columns, which packs the L and accumulator panels once.
///   other ranks — wait until the gate reads `token`, then the same update.
///
/// Every rank answers one Done per step. If the gate reads
/// `token | kStepAbort` instead, the coordinator gave the step up (a rank
/// died, or the deadline passed with the owner silent): the waiter answers
/// Done without updating, and the coordinator restores before the arena is
/// read again.
///
/// No two ranks ever write the same bytes within a step: the panel writes
/// only column block k before the gate opens, each update writes only the
/// executing rank's owned columns, and column block k is read-only once the
/// gate is open. Per matrix column the operation sequence does not depend
/// on the rank count, so two runs are bitwise identical whatever the rank
/// count, which is what lets the launcher assert that restore + replay
/// after a SIGKILL loses nothing.

#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "abft/lu_kernel.hpp"
#include "dist/channel.hpp"

namespace abftc::dist {

inline constexpr std::uint64_t kArenaMagic = 0xABF7'D157'0000'0004ULL;

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
  std::size_t matrix_off = 0;  ///< n × n doubles
  std::size_t active_off = 0;  ///< 2·csr × n doubles: [sums; weighted]
  std::size_t frozen_off = 0;  ///< 2·csr × n doubles
  std::size_t total_bytes = 0;

  [[nodiscard]] static DistLayout compute(std::size_t n, std::size_t nb,
                                          std::size_t group,
                                          std::size_t nranks);
};

/// Run identity at arena offset 0, written by the coordinator before any
/// fork; workers (including respawns) validate it on attach. The step gate
/// follows it (channel.hpp: publish / await_gate).
struct ControlBlock {
  std::uint64_t magic = 0;
  std::uint64_t n = 0, nb = 0, group = 0, nranks = 0;
  std::atomic<std::uint32_t> step_gate{0};
};
static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "the cross-process step gate needs a lock-free 32-bit atomic");

/// Typed windows into the arena for one process.
struct SharedState {
  ControlBlock* ctl = nullptr;
  Mailbox* cmd = nullptr;  ///< [nranks]
  Mailbox* rsp = nullptr;  ///< [nranks]
  double* matrix = nullptr;
  double* active = nullptr;
  double* frozen = nullptr;
  DistLayout layout;

  [[nodiscard]] static SharedState attach(void* base, const DistLayout& lay);

  /// The protected LU state in the arena.
  [[nodiscard]] abft::LuView lu() const {
    const std::size_t n = layout.n, acc = 2 * layout.csr;
    return {abft::MatrixView(matrix, n, n, n),
            abft::MatrixView(active, acc, n, n),
            abft::MatrixView(frozen, acc, n, n), layout.nb, layout.group};
  }
};

/// Panel-cyclic owner of block column j.
[[nodiscard]] constexpr std::size_t owner_of(std::size_t block_col,
                                             std::size_t nranks) noexcept {
  return block_col % nranks;
}

/// Child-process entry point: closes every inherited fd but 0-2 and
/// `ready_fd`, arms PR_SET_PDEATHSIG so the rank dies with
/// `coordinator` (the pid that forked it), pins the kernel policy to one
/// inline thread (a forked child must never touch the parent's executor
/// pool), signals readiness with one byte on `ready_fd`, then serves
/// Update commands from its mailbox until Shutdown, ringing one more byte
/// on `ready_fd` after every Done. Booting touches only the control block
/// and the rank's mailboxes, so the coordinator may restore the matrix
/// regions while a replacement boots. Exits via _exit — never returns,
/// never runs parent-inherited atexit handlers or flushes parent stdio
/// buffers.
[[noreturn]] void worker_main(void* arena, const DistLayout& lay,
                              std::size_t rank, int ready_fd,
                              pid_t coordinator);

}  // namespace abftc::dist
