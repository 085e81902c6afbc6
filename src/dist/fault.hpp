#pragma once
/// \file fault.hpp
/// The fault taxonomy and campaign enumeration of the dist runtime.
///
/// A campaign is a cartesian grid of injection points — {block step} ×
/// {victim rank} × {fault kind} — enumerated in a fixed row-major order
/// (step-major, then rank, then kind) so every cell has a stable index.
/// Sharding is deterministic by that index (cell i belongs to shard
/// i % nshards), so a campaign split across machines covers every cell
/// exactly once and the shards merge by concatenation.
///
/// Kinds:
///   kill — SIGKILL the victim rank right after the step-k command is
///          posted. Recovery: reap, restore the newest restorable snapshot
///          into the shared arena, respawn, replay. Deterministic replay
///          makes the final factors bitwise identical to an uninjected run.
///   flip — after step k completes, flip one mantissa bit (52–62) of a
///          nonzero element in the victim's owned columns. Recovery: the
///          checksum residual detects it; the block is reconstructed from
///          the matching accumulator (frozen for factored block rows,
///          active otherwise) by subtracting the surviving group members.
///   torn — the checkpoint covering step k is torn in storage (committed
///          but corrupt), and the victim is then SIGKILLed at step k, so
///          the restore path must fall back past the torn snapshot.
///   hang — SIGSTOP the victim mid-step: alive but silent, so its
///          ready pipe never hangs up and only the coordinator's
///          response deadline can tell livelock from death. Recovery:
///          SIGKILL at the deadline, then the death path (restore +
///          respawn + replay).
///   flip2 — two bit flips in one checksum group (same class, same block
///          column, distinct elements). Localization names two block rows,
///          so single-block reconstruction provably cannot repair it — the
///          recovery ladder must escalate to a checkpoint restore.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace abftc::dist {

enum class FaultKind : std::uint8_t { Kill, Flip, Torn, Hang, Flip2 };

[[nodiscard]] std::string_view to_string(FaultKind k) noexcept;

/// One injection point of a campaign.
struct Cell {
  std::size_t index = 0;  ///< position in the campaign's row-major order
  std::size_t step = 0;   ///< block step at which the fault strikes
  std::size_t rank = 0;   ///< victim rank
  FaultKind kind = FaultKind::Kill;
};

/// The campaign grid. Parsed from the `--campaign=` spec syntax:
///
///   steps:LO-HI,ranks:LO-HI,kinds:kill+flip+torn+hang+flip2
///
/// where a range may also be a single value ("steps:3"). Keys may appear
/// in any order; all three are required. Bounds are inclusive.
struct CampaignSpec {
  std::size_t step_lo = 0, step_hi = 0;
  std::size_t rank_lo = 0, rank_hi = 0;
  std::vector<FaultKind> kinds;

  [[nodiscard]] static CampaignSpec parse(std::string_view text);

  [[nodiscard]] std::size_t steps() const noexcept {
    return step_hi - step_lo + 1;
  }
  [[nodiscard]] std::size_t ranks() const noexcept {
    return rank_hi - rank_lo + 1;
  }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return steps() * ranks() * kinds.size();
  }

  /// Cell i in row-major (step, rank, kind) order; i < cell_count().
  [[nodiscard]] Cell cell(std::size_t index) const;

  /// The cell indices shard `shard` of `nshards` owns (i % nshards ==
  /// shard), ascending. The shards partition [0, cell_count()).
  [[nodiscard]] std::vector<std::size_t> shard_indices(
      std::size_t shard, std::size_t nshards) const;

  /// Canonical spec string (round-trips through parse()).
  [[nodiscard]] std::string to_spec() const;
};

/// The deterministic bit-flip RNG seed for one cell: a splitmix64 mix of
/// the campaign root seed and the cell index, so shards executed on
/// different machines from the same root seed inject identical faults and
/// any single cell can be replayed in isolation with --seed.
[[nodiscard]] std::uint64_t cell_seed(std::uint64_t root_seed,
                                      std::size_t cell_index) noexcept;

}  // namespace abftc::dist
