#pragma once
/// \file launcher.hpp
/// The coordinator of the distributed fault-injection runtime.
///
/// `Launcher::run` forks `ranks` worker processes over a shared-memory
/// arena (channel.hpp) and drives the panel-cyclic ABFT LU (worker.hpp)
/// step by step, taking checkpoints through a ckpt::io::StorageBackend at
/// every `ckpt_every`-th block-step boundary and injecting the requested
/// faults. Recovery composes the repo's two protection mechanisms exactly
/// as the paper's composite strategy prescribes:
///
///   process death (kill/torn) → seen as POLLHUP on the rank's ready
///     pipe and reaped via waitpid; restore the newest restorable snapshot
///     (ckpt::io::latest_restorable — skips torn writes) into the arena,
///     respawn the dead rank, replay the lost steps. Workers are stateless
///     between commands, so survivors need no handling at all. If storage
///     holds nothing restorable the run falls back to its initial image —
///     the pristine matrix and accumulators run() built the arena from —
///     and restarts from step 0.
///
///   silent data corruption (flip/flip2) → the checksum-invariant residual
///     detects it at a step boundary; the poisoned element is then
///     *localized blind* from the ratio of the weighted and unweighted
///     residual columns (Huang–Abraham: for a single corrupted element the
///     weighted residual is (m+1)× the unweighted one, m = the victim's
///     position inside its checksum group), and recovery climbs an
///     escalating ladder —
///       rung 1  locate_fault(): derive (block-row, block-col, element)
///               from the two residuals; no ground truth is consulted.
///       rung 2  single-block damage, clean localization → wipe + rebuild
///               the block from the matching accumulator, re-verify.
///       rung 3  ambiguous / multi-block / residual persists → restore the
///               newest restorable checkpoint and replay (latest_restorable
///               walks past torn snapshots; the initial image is the final
///               fallback).
///     Every rung is timed separately in RunReport so measured-vs-model
///     attributes cost to the rung actually taken.
///
///   hang/livelock (hang) → SIGSTOP leaves the victim alive but silent;
///     its ready pipe never hangs up, so only the response deadline
///     fires: the coordinator counts a hang, SIGKILLs the stopped process
///     (which works on stopped processes), and recovers via the death path.
///
/// A checkpoint streams the four arena regions (progress, matrix, the two
/// stacked accumulators) through ckpt::io::commit_snapshot, the commit
/// routine CkptWriter uses too: the regions go straight from the arena into
/// one backend WriteSession, without an intermediate copy, while one pool
/// task hashes them; the routine joins that task before it returns. That is
/// safe because the arena is quiescent at every boundary: each rank has
/// answered Done and waits for its next command.
///
/// Waiting is event-driven on both sides. A worker sleeps in FUTEX_WAIT on
/// its command mailbox's seq word and `post` wakes it. The coordinator
/// sleeps in one ppoll on the rank's ready pipe, with the remaining step
/// deadline as the timeout; the worker rings one byte there after every
/// Done post. POLLIN means a frame is there (drain the pipe, read the
/// mailbox); POLLHUP with no frame means the rank died (waitpid, death
/// path); the timeout means it hung (SIGKILL, `hangs`, death path).

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "abft/matrix.hpp"
#include "ckpt/io/backend.hpp"
#include "dist/fault.hpp"
#include "dist/worker.hpp"

namespace abftc::dist {

/// A checksum residual above this is corruption (the clean-run noise is
/// orders of magnitude below at the shapes the runtime handles).
inline constexpr double kDetectFloor = 1e-8;

struct DistConfig {
  std::size_t n = 96;          ///< matrix dimension
  std::size_t nb = 16;         ///< block size (nbk = n / nb block steps)
  std::size_t ranks = 2;       ///< worker processes
  std::size_t group = 3;       ///< block rows per checksum group
  std::size_t ckpt_every = 2;  ///< checkpoint every k-th step boundary
  std::uint64_t seed = 0xABF7C0DEULL;  ///< matrix initialization
  /// Bit-flip site selection; 0 = derive from `seed`. Campaigns set this to
  /// cell_seed(root, index) so every cell flips a distinct, replayable site
  /// while all cells factor the same matrix.
  std::uint64_t flip_seed = 0;
  double step_timeout_s = 30.0;  ///< a rank silent this long is dead/hung
  /// Blind verification: check the checksum invariant at EVERY step
  /// boundary — the coordinator gets no out-of-band knowledge of when (or
  /// whether) a fault was injected. false keeps the legacy mode that checks
  /// only right after the launcher's own injector fired; localization is
  /// derived from the weighted residuals either way.
  bool blind = false;
  /// Worker threads for the residual sweeps (0 = small hardware-derived
  /// default). The sweep uses fixed per-row output slots + a serial
  /// max-fold, so the result is bitwise-identical for every thread count.
  unsigned verify_threads = 0;
};

/// One injection for a run. Kill and Torn both SIGKILL the victim right
/// after the step's panel command is posted (for Torn the storage decorator
/// has already torn the covering checkpoint); Hang SIGSTOPs it there
/// instead; Flip corrupts one element after the step completes, Flip2
/// corrupts two elements of one checksum group (same class, same block
/// column — single-block reconstruction provably cannot repair it).
struct Injection {
  FaultKind kind = FaultKind::Kill;
  std::size_t step = 0;
  std::size_t rank = 0;
};

/// One corrupted element, as coordinates. Produced by the injector (ground
/// truth, recorded for post-hoc comparison only) and by locate_fault()
/// (derived); a campaign cell is trustworthy when the two agree.
struct FaultSite {
  std::size_t block_row = 0;  ///< bi
  std::size_t block_col = 0;  ///< bj
  std::size_t row = 0;        ///< element row (bi·nb + r)
  std::size_t col = 0;        ///< element column
};
[[nodiscard]] constexpr bool operator==(const FaultSite& a,
                                        const FaultSite& b) noexcept {
  return a.block_row == b.block_row && a.block_col == b.block_col &&
         a.row == b.row && a.col == b.col;
}

/// What the weighted/unweighted residual ratio says about the damage.
struct Localization {
  /// Some residual column did not resolve to a single in-range group
  /// position (non-integral ratio, weighted-only residual, class mismatch)
  /// — no single-site explanation exists; recovery must escalate.
  bool ambiguous = false;
  std::vector<FaultSite> sites;  ///< distinct corrupted elements, derived
};

/// Huang–Abraham localization over an arbitrary state snapshot (stacked
/// 2·csr × n accumulators, see lu_kernel.hpp): resolve every residual slot
/// to a (block-row, block-col, element) site via the weighted/unweighted
/// ratio. Free function so unit tests can run it on hand-built state;
/// `Launcher` wraps it over the live arena.
[[nodiscard]] Localization locate_corruption(abft::ConstMatrixView a,
                                             abft::ConstMatrixView active,
                                             abft::ConstMatrixView frozen,
                                             std::size_t nb, std::size_t group,
                                             std::size_t frozen_steps);

/// What one run did and what it cost.
struct RunReport {
  bool completed = false;
  double wall_seconds = 0.0;
  /// Per-step wall time of the *first* execution of each step (replayed
  /// executions accrue to wall_seconds and restore/replay accounting only)
  /// — the calibration input for per-cell predicted times.
  std::vector<double> step_seconds;
  std::size_t checkpoints = 0;      ///< snapshot writes attempted
  std::size_t restores = 0;         ///< snapshot restores performed
  std::size_t respawns = 0;         ///< dead ranks re-forked
  std::size_t reconstructions = 0;  ///< checksum block reconstructions
  std::size_t locates = 0;          ///< localization passes run
  /// Corruption recoveries that climbed past reconstruction to a restore
  /// (ambiguous/multi-block localization, or the residual persisted).
  std::size_t escalations = 0;
  std::size_t hangs = 0;  ///< live-but-silent ranks killed at the deadline
  std::vector<std::size_t> restored_to_steps;  ///< resume step per restore
  double commit_seconds = 0.0;     ///< checkpoint CRC + write, summed
  double restore_seconds = 0.0;    ///< read + verify + copy-in, summed
  double check_seconds = 0.0;      ///< residual verification, summed
  double recons_seconds = 0.0;     ///< checksum reconstruction, summed
  double locate_seconds = 0.0;     ///< residual-ratio localization, summed
  double hang_wait_seconds = 0.0;  ///< deadline waits on silent ranks
  /// Injector ground truth vs localization-derived coordinates. `injected`
  /// is recorded purely for post-hoc comparison in campaign records — it
  /// never feeds a recovery decision.
  std::vector<FaultSite> injected;
  std::vector<FaultSite> located;
  /// Checksum-invariant residual of the final state.
  double residual = std::numeric_limits<double>::quiet_NaN();
};

class Launcher {
 public:
  /// `backend` is borrowed (campaigns wrap one in a FaultingBackend and
  /// reuse it per cell); it must be open and outlive the launcher.
  Launcher(DistConfig cfg, ckpt::io::StorageBackend& backend);
  ~Launcher();
  Launcher(const Launcher&) = delete;
  Launcher& operator=(const Launcher&) = delete;

  /// Factor once, injecting `faults` (at most one per step; steps in
  /// [0, nbk)). Callable once per Launcher.
  RunReport run(const std::vector<Injection>& faults = {});

  [[nodiscard]] const DistConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t block_steps() const noexcept { return nbk_; }

  // Final state, copied out of the arena after run() — valid afterwards.
  // The accumulator accessors view the halves of the stacked copies.
  [[nodiscard]] const abft::Matrix& lu() const noexcept { return lu_; }
  [[nodiscard]] abft::ConstMatrixView active_cs() const {
    return active_.block(0, 0, layout_.csr, layout_.n);
  }
  [[nodiscard]] abft::ConstMatrixView frozen_cs() const {
    return frozen_.block(0, 0, layout_.csr, layout_.n);
  }
  [[nodiscard]] abft::ConstMatrixView weighted_active_cs() const {
    return active_.block(layout_.csr, 0, layout_.csr, layout_.n);
  }
  [[nodiscard]] abft::ConstMatrixView weighted_frozen_cs() const {
    return frozen_.block(layout_.csr, 0, layout_.csr, layout_.n);
  }

  // The recovery ladder's primitives over the arena's current state. After
  // run() the arena holds the final state, so calibration times exactly the
  // work each rung pays for.

  /// Worst violation of the four checksum invariants: the verification
  /// sweep of every step-boundary check and post-rebuild re-verify.
  [[nodiscard]] double residual_now() const;
  /// Rung 1: localize corruption from the weighted/unweighted residuals.
  [[nodiscard]] Localization locate_fault() const;
  /// Rung 2: rebuild `site`'s block from the matching accumulator.
  void reconstruct_block(const FaultSite& site);

 private:
  struct Rank;  // pid + ready fd + mailbox cursors

  void spawn(std::size_t r);
  void reap_all() noexcept;
  [[nodiscard]] bool await_done(std::size_t r, std::size_t k,
                                RunReport& report);
  /// Commit boundary `boundary` (id boundary+1, kind Full) zero-copy from
  /// the arena; a failed commit is swallowed (the run keeps the older
  /// protection points).
  void checkpoint(std::size_t boundary, RunReport& report);
  [[nodiscard]] std::size_t restore_and_respawn(RunReport& report);
  void inject_flip(const Injection& inj, std::uint64_t seed,
                   RunReport& report);
  /// The escalation ladder for a detected corruption at step `step`;
  /// returns the step to resume from.
  [[nodiscard]] std::size_t recover_from_corruption(std::size_t step,
                                                    RunReport& report);
  /// A dist snapshot's regions, indexed by region id: `progress`
  /// ({boundary, frozen_steps}), then the arena's matrix and the two stacked
  /// accumulators.
  using Regions = std::array<std::span<std::byte>, 4>;
  [[nodiscard]] Regions snapshot_regions(std::uint64_t (&progress)[2]);
  void load_blob(const ckpt::io::SnapshotBlob& blob);
  /// Copy the initial image (a0_, cs0_, zero frozen accumulator) into the
  /// arena and reset frozen_steps_ to 0.
  void load_initial();

  DistConfig cfg_;
  ckpt::io::StorageBackend& backend_;
  DistLayout layout_;
  std::size_t nbk_ = 0;
  std::unique_ptr<SharedRegion> arena_;
  SharedState shared_;
  std::vector<Rank> ranks_;
  /// The pristine matrix and its step-0 stacked accumulator: the arena's
  /// starting state and the restart-from-scratch image.
  abft::Matrix a0_, cs0_;
  /// Highest boundary whose checkpoint was already attempted (SIZE_MAX =
  /// none): replay after a restore must not re-write an existing snapshot.
  std::size_t max_boundary_attempted_ = std::numeric_limits<std::size_t>::max();
  std::size_t frozen_steps_ = 0;  ///< block rows frozen in the arena state
  unsigned verify_threads_ = 1;   ///< resolved from cfg_.verify_threads
  bool ran_ = false;
  abft::Matrix lu_, active_, frozen_;
};

}  // namespace abftc::dist
