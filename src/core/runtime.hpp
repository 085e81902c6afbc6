#pragma once
/// \file runtime.hpp
/// The executable ABFT&PeriodicCkpt protocol of Section III / Figure 2,
/// driving a *real* application state (a ckpt::MemoryImage) through
/// alternating GENERAL and LIBRARY phases with injected failures:
///
///   GENERAL phase   periodic full checkpoints; on failure, coordinated
///                   rollback to the last restore point and re-execution.
///   entry           forced partial checkpoint of the REMAINDER dataset.
///   LIBRARY phase   periodic checkpointing disabled; on failure, the
///                   REMAINDER dataset is reloaded from the entry
///                   checkpoint and the LIBRARY dataset is reconstructed by
///                   the ABFT kernel (the kernels in src/abft do this
///                   internally); the call then resumes.
///   exit            forced partial checkpoint of the LIBRARY dataset,
///                   completing the split coordinated checkpoint.
///
/// Checkpoints go through an io::CkptWriter over an in-RAM io::MemoryBackend
/// owned by the runtime; every restore verifies payload CRCs before it
/// touches the image.
///
/// Failures are injected explicitly (deterministic tests/demos); the
/// statistical behaviour is the domain of core/simulate.hpp.

#include <functional>

#include "ckpt/io/writer.hpp"
#include "common/rng.hpp"

namespace abftc::core {

class CompositeRuntime {
 public:
  struct Stats {
    std::size_t full_checkpoints = 0;
    std::size_t entry_checkpoints = 0;
    std::size_t exit_checkpoints = 0;
    std::size_t rollbacks = 0;            ///< GENERAL-phase recoveries
    std::size_t reexecutions = 0;         ///< GENERAL work attempts re-run
    std::size_t abft_recoveries = 0;      ///< LIBRARY-phase recoveries
    std::size_t remainder_restores = 0;   ///< partial reloads during ABFT
  };

  /// The runtime protects `image`; an initial full checkpoint is taken so a
  /// rollback target always exists. The image must outlive the runtime.
  explicit CompositeRuntime(ckpt::MemoryImage& image);
  CompositeRuntime(const CompositeRuntime&) = delete;
  CompositeRuntime& operator=(const CompositeRuntime&) = delete;

  /// Run a GENERAL-phase work function. The function must be re-runnable
  /// from the restored state (the classic rollback-recovery contract).
  /// `failures_before_success` simulated crashes are injected: each one
  /// scrambles every region (the node's memory is gone), rolls back to the
  /// latest restore point and re-executes.
  void run_general_phase(const std::function<void()>& work,
                         int failures_before_success = 0);

  /// Take a periodic full checkpoint (the GENERAL-phase protection).
  void periodic_checkpoint();

  /// Run a LIBRARY-phase call under ABFT protection. `work` receives a
  /// recovery callback: the ABFT kernel invokes it after each internal
  /// checksum reconstruction so the runtime can restore the REMAINDER
  /// dataset from the entry checkpoint (Figure 2's combined recovery).
  void run_library_phase(
      const std::function<void(const std::function<void()>& on_abft_recovery)>&
          work);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] ckpt::io::CkptWriter& store() noexcept { return writer_; }

  /// Advance the runtime's logical clock (checkpoint timestamps).
  void tick(double dt = 1.0);

 private:
  void scramble_image();

  ckpt::MemoryImage& image_;
  ckpt::io::MemoryBackend backend_;
  ckpt::io::CkptWriter writer_{backend_};
  common::Rng scramble_rng_{0xDEADBEEFULL};
  double now_ = 0.0;
  Stats stats_;
};

}  // namespace abftc::core
