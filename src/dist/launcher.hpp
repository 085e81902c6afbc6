#pragma once
/// \file launcher.hpp
/// The coordinator of the distributed fault-injection runtime.
///
/// `Launcher::run` drives the panel-cyclic ABFT LU (worker.hpp) over
/// `ranks` forked worker processes and a shared-memory arena (channel.hpp)
/// step by step, taking checkpoints through a ckpt::io::StorageBackend at
/// every `ckpt_every`-th block-step boundary and injecting the requested
/// faults.
///
/// Lifecycle: a Launcher is a warm rank pool.
///   - The first run() maps the arena, builds the pristine matrix and
///     forks the ranks. All of them live until ~Launcher, which SIGKILLs
///     and reaps the ranks.
///   - Every run() copies that pristine matrix into the arena, encodes its
///     step-0 accumulators (abft::lu_encode), forgets the previous run's
///     checkpoint boundaries, and forks only the ranks that are dead — also
///     one that died idle between runs (its ready pipe hung up). Such a
///     replacement counts in `respawns`, never as a restore.
///   - A run's backend, `flip_seed` and `step_timeout_s` may differ between
///     runs. The other DistConfig fields fix the launcher's shape; run()
///     with a different shape throws precondition_error.
///   - PR_SET_PDEATHSIG ties each rank to the thread that forked it, so the
///     thread of the first run() owns the pool: run() from any other thread
///     throws precondition_error.
///   - Results are views, not copies: lu(), the accumulator views and the
///     ladder primitives read the arena as the last run() left it. A view
///     stays valid until the next run() or the launcher's destruction;
///     copy it (abft::Matrix(view)) to keep it longer.
///
/// Recovery composes the repo's two protection mechanisms exactly as the
/// paper's composite strategy prescribes:
///
///   process death (kill/torn) → seen as POLLHUP on the rank's ready
///     pipe; restore the newest restorable snapshot into the arena, respawn
///     the dead rank, replay the lost steps. Workers are stateless between
///     commands, so survivors need no handling at all. The death path runs
///     fork → restore → ready → reap: the replacement is forked first and
///     boots while the arena restores, its ready byte is taken after the
///     restore, and only then is the corpse waitpid-ed (it hung up its pipe
///     on exit, so that wait is instant). The restore (restore_now, through
///     ckpt::io::restore_latest_into) streams each region's payload from
///     the backend straight into its arena span and verifies the CRCs
///     there, with no heap copy in between; a torn or corrupt snapshot
///     falls back to the next-older one. A snapshot holds the payload only,
///     so the restore then re-encodes both accumulators from the restored
///     factors (abft::lu_encode): the frozen half comes out bitwise the one
///     the run maintained, the active half equal to rounding, and the
///     payload — which never reads an accumulator — replays bitwise. That
///     is safe because the arena is quiescent at every restore, and every
///     outcome rewrites all of it: a verified snapshot fills the matrix and
///     the encoder both accumulators, and if storage holds nothing
///     restorable the run falls back to its initial image — the pristine
///     matrix every run starts from, encoded with nothing frozen — and
///     restarts from step 0.
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
///               newest restorable checkpoint and replay (restore_now walks
///               past torn snapshots; the initial image is the final
///               fallback).
///     Every rung is timed separately in RunReport so measured-vs-model
///     attributes cost to the rung actually taken.
///
///   hang/livelock (hang) → SIGSTOP leaves the victim alive but silent;
///     its ready pipe never hangs up, so only the response deadline
///     fires: the coordinator aborts the step, counts a hang for each
///     silent rank, SIGKILLs it (which works on stopped processes), and
///     recovers via the death path. A silent owner that never published its
///     panel holds up everyone else, so then it alone counts.
///
/// A checkpoint streams two regions, progress and the arena's matrix,
/// through ckpt::io::commit_snapshot, the commit
/// routine CkptWriter uses too: the regions go straight from the arena into
/// one backend WriteSession, without an intermediate copy, while one pool
/// task hashes them; the routine joins that task before it returns. That is
/// safe because the arena is quiescent at every boundary: each rank has
/// answered Done and waits for its next command.
///
/// The step protocol: one coordinator round trip per block step. The
/// coordinator signals the step's fault victim, if any, then posts
/// Update(k, token) to every rank at once, with a fresh token per step
/// execution. The owner of block column k factors the panel and publishes
/// the token on the step gate (a 32-bit word in the control block); the
/// other ranks wait for it there (a short spin, then FUTEX_WAIT) before
/// their updates, and every rank answers one Done (worker.hpp).
///
/// Waiting is event-driven on both sides. A worker sleeps in FUTEX_WAIT on
/// its command mailbox's seq word and `post` wakes it. The coordinator
/// collects a step with one ppoll over all pending ranks' ready pipes, with
/// the remaining step deadline as the timeout; a worker rings one byte on
/// its pipe after every Done post. POLLIN means a frame is there (drain the
/// pipe, read the mailbox); POLLHUP with no frame means the rank died. A
/// death, or the deadline, aborts the step: the coordinator publishes
/// `token | kStepAbort` on the gate, so ranks blocked on a dead or stopped
/// owner answer without updating, and it collects every live rank's Done
/// and every dead rank's hang-up before it restores. At the deadline each
/// silent rank is SIGKILLed and counted in `hangs`, then waited for like
/// any other death.

#include <sys/types.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <thread>
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
};

/// One injection for a run. Kill and Torn both SIGKILL the victim right
/// before the step's commands are posted (for Torn the storage decorator
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
  double restore_seconds = 0.0;    ///< read into the arena + verify, summed
  double check_seconds = 0.0;      ///< residual verification, summed
  double recons_seconds = 0.0;     ///< checksum reconstruction, summed
  double locate_seconds = 0.0;     ///< residual-ratio localization, summed
  double hang_wait_seconds = 0.0;  ///< deadline waits on silent ranks
  /// Injector ground truth vs localization-derived coordinates. `injected`
  /// is recorded purely for post-hoc comparison in campaign records — it
  /// never feeds a recovery decision.
  std::vector<FaultSite> injected;
  std::vector<FaultSite> located;
  /// Checksum-invariant residual of the final state (+Inf if it holds a
  /// NaN or Inf). A blind run reports its last check — the boundary check
  /// or post-rebuild re-verify that was the last thing done to the final
  /// state — instead of sweeping that state again; a legacy run sweeps it.
  double residual = std::numeric_limits<double>::quiet_NaN();
};

class Launcher {
 public:
  /// `backend` is borrowed: run() without one commits there, so it must be
  /// open and outlive every such run().
  Launcher(DistConfig cfg, ckpt::io::StorageBackend& backend);
  /// SIGKILLs and reaps every rank.
  ~Launcher();
  Launcher(const Launcher&) = delete;
  Launcher& operator=(const Launcher&) = delete;

  /// Factor once, injecting `faults` (at most one per step; steps in
  /// [0, nbk)), with the construction config and backend. Snapshot ids
  /// restart at 1 every run, so each run needs a backend holding none of
  /// an earlier run's: a reused one throws on the duplicate id.
  RunReport run(const std::vector<Injection>& faults = {});
  /// Factor once on `backend` (borrowed for the run) with `cfg`'s per-run
  /// fields; `cfg`'s shape must equal the construction config's.
  RunReport run(const DistConfig& cfg, ckpt::io::StorageBackend& backend,
                const std::vector<Injection>& faults = {});

  [[nodiscard]] const DistConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t block_steps() const noexcept { return nbk_; }
  /// Rank processes forked over the launcher's lifetime: `ranks` at the
  /// first run, plus one per dead rank replaced since.
  [[nodiscard]] std::size_t forks() const noexcept { return forks_; }

  // The last run's final state, viewed in the arena (see the lifecycle
  // above). The accumulator accessors view the halves of the stacked ones.
  [[nodiscard]] abft::ConstMatrixView lu() const { return shared_.lu().a; }
  [[nodiscard]] abft::ConstMatrixView active_cs() const {
    return shared_.lu().active.block(0, 0, layout_.csr, layout_.n);
  }
  [[nodiscard]] abft::ConstMatrixView frozen_cs() const {
    return shared_.lu().frozen.block(0, 0, layout_.csr, layout_.n);
  }
  [[nodiscard]] abft::ConstMatrixView weighted_active_cs() const {
    return shared_.lu().active.block(layout_.csr, 0, layout_.csr, layout_.n);
  }
  [[nodiscard]] abft::ConstMatrixView weighted_frozen_cs() const {
    return shared_.lu().frozen.block(layout_.csr, 0, layout_.csr, layout_.n);
  }

  // The recovery ladder's primitives over the arena's current state. After
  // run() the arena holds the final state, so calibration times exactly the
  // work each rung pays for.

  /// Worst violation of the four checksum invariants (+Inf for a NaN or
  /// Inf in the state): the verification sweep of every step-boundary check
  /// and post-rebuild re-verify.
  [[nodiscard]] double residual_now() const;
  /// Rung 1: localize corruption from the weighted/unweighted residuals.
  [[nodiscard]] Localization locate_fault() const;
  /// Rung 2: rebuild `site`'s block from the matching accumulator.
  void reconstruct_block(const FaultSite& site);
  /// Rung 3: restore the newest snapshot of `backend` that verifies
  /// straight into the arena, or the initial image when none does, and
  /// resume from its frozen step count; then re-encode both accumulators
  /// from the restored matrix. Overwrites the whole arena state.
  /// Returns the restored snapshot's meta; nullopt means the initial image.
  std::optional<ckpt::io::SnapshotMeta> restore_now(
      const ckpt::io::StorageBackend& backend);

 private:
  struct Rank;  // pid + ready fd + mailbox cursors

  /// Zero rank r's mailboxes and fork it, without waiting for it to boot;
  /// the rank must be dead.
  void fork_rank(std::size_t r);
  /// Take booting rank r's ready byte (retrying interrupted waits until
  /// the boot deadline); throws dist_error if it never comes.
  void await_ready(std::size_t r);
  /// fork_rank every dead rank; returns how many.
  std::size_t fork_replacements();
  /// await_ready every booting rank, then reap the corpses they replace.
  void finish_replacements();
  /// Close a dead rank's ready pipe and queue its pid for reap_corpses.
  void bury(Rank& rank);
  /// waitpid every buried rank (retrying interrupted waits).
  void reap_corpses() noexcept;
  /// SIGKILL a live rank, reap it and close its ready pipe.
  void kill_now(Rank& rank) noexcept;
  /// SIGKILL and reap every rank, then the buried ones.
  void reap_all() noexcept;
  /// Ready the pool for a run: on the first, map the arena, build the
  /// pristine image and fork every rank; then load the image and replace
  /// any rank that died, counting the replacements in `report.respawns`.
  void prepare(RunReport& report);
  /// The step loop: factor from the pristine image to completion.
  void factor(const std::vector<Injection>& faults, std::uint64_t flip_base,
              RunReport& report);
  /// Wait for step k (posted at `t0` with `token`) to finish: every live
  /// rank's Done and every dead rank's hang-up (see the step protocol
  /// above). Returns false if any rank died or was silent at the deadline.
  [[nodiscard]] bool collect_step(std::size_t k, std::uint32_t token,
                                  std::chrono::steady_clock::time_point t0,
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
  /// residual_now() as a timed check: adds to `report.check_seconds` and
  /// keeps the value in last_check_.
  double verify(RunReport& report);
  /// A dist snapshot's regions, indexed by region id: `progress`
  /// ({boundary, frozen_steps}), then the arena's matrix. The accumulators
  /// are not saved: they are an encoding of the matrix, and restore_now
  /// re-encodes them (16 + n²·8 bytes per snapshot).
  using Regions = std::array<std::span<std::byte>, 2>;
  [[nodiscard]] Regions snapshot_regions(std::uint64_t (&progress)[2]);
  /// Copy the pristine matrix a0_ into the arena, reset frozen_steps_ to 0
  /// and encode both accumulators from it (abft::lu_encode).
  void load_initial();

  DistConfig cfg_;
  ckpt::io::StorageBackend& default_backend_;
  ckpt::io::StorageBackend* backend_ = nullptr;  ///< the current run's
  double step_timeout_s_ = 0.0;                  ///< the current run's
  DistLayout layout_;
  std::size_t nbk_ = 0;
  std::unique_ptr<SharedRegion> arena_;
  SharedState shared_;
  std::vector<Rank> ranks_;
  /// Dead ranks' pids, reaped once their replacements are ready.
  std::vector<pid_t> corpses_;
  std::uint32_t token_ = 0;  ///< the last step's gate token
  std::thread::id owner_;  ///< the thread that forks the ranks
  std::size_t forks_ = 0;
  /// The pristine matrix: every run's starting payload and the
  /// restart-from-scratch image (its accumulators are encoded on load).
  abft::Matrix a0_;
  /// Highest boundary whose checkpoint was already attempted (SIZE_MAX =
  /// none): replay after a restore must not re-write an existing snapshot.
  std::size_t max_boundary_attempted_ = std::numeric_limits<std::size_t>::max();
  std::size_t frozen_steps_ = 0;  ///< block rows frozen in the arena state
  /// The last verify() of the current run (NaN before the first).
  double last_check_ = std::numeric_limits<double>::quiet_NaN();
  /// Worker threads of the residual sweeps: min(4, hardware workers). The
  /// sweep uses fixed per-row output slots + a serial max-fold, so the
  /// result is bitwise-identical for every thread count.
  unsigned verify_threads_ = 1;
};

}  // namespace abftc::dist
