#pragma once
/// \file campaign.hpp
/// Campaign execution over the dist runtime, and the "dist" Evaluator that
/// plugs measured survival into the experiment engine.
///
/// `run_campaign` executes every cell of a CampaignSpec shard on one warm
/// Launcher (launcher.hpp): its cold first run is the reference solve, its
/// second the calibration, and then every cell runs on it over a fresh
/// storage backend, with the cell's fault injected for real (SIGKILL / bit
/// flip / torn checkpoint write). The ranks are forked once per campaign
/// and re-forked only when one dies, so a cell's time excludes fork and
/// arena set-up, as the calibration's does. Each cell's measured wall time
/// is compared against a model-predicted completion time assembled from
/// the calibration:
///
///   kill  t = t_clean + restore + Σ step_s[c..s]   (c = covering boundary)
///   torn  same, with c the boundary *before* the torn one (the restore
///         falls back past the torn snapshot)
///   flip  t = t_clean + locate + recons + check  (+ a detection check when
///         not blind; blind runs already pay per-boundary checks in t_clean)
///   flip2 t = t_clean + locate + restore + Σ step_s[c..s]  (localization
///         names two block rows → reconstruction is skipped, the ladder
///         escalates straight to the covering checkpoint)
///   hang  t = t_clean + deadline + restore + Σ step_s[c..s]  (the victim
///         sits out the hang deadline before SIGKILL + respawn)
///
/// With `blind = true` the cells run with per-boundary verification and the
/// launcher is never told where (or when) a fault landed: detection comes
/// from the invariant, localization from the weighted/unweighted residual
/// ratio. Each cell records the injector's ground-truth sites next to the
/// derived ones so the record proves localization worked (`site_match`).
///
/// — the measured-vs-model ratio is the paper's model-validation move
/// (Section V-A) applied to real process death instead of simulated clocks.
///
/// The "dist" Evaluator miniaturizes a ScenarioParams into a campaign-style
/// run: the scenario's expected failure count is injected as systematically
/// placed faults (flips for the ABFT protocol's library phase share, kills
/// otherwise) and waste = 1 − t_clean/t_faulty is measured, not modeled.

#include <cstdint>
#include <string>
#include <vector>

#include "dist/fault.hpp"
#include "dist/launcher.hpp"

namespace abftc::dist {

/// Constants measured before the cells run, from which per-cell predicted
/// times are assembled.
struct Calibration {
  double t_clean = 0.0;  ///< uninjected wall time (checkpoint writes incl.)
  std::vector<double> step_seconds;  ///< per block step, from the clean run
  double restore_s = 0.0;  ///< rung-3 restore into the arena + verify
  double check_s = 0.0;    ///< checksum-residual verification sweep
  double recons_s = 0.0;   ///< one block reconstruction
  double locate_s = 0.0;   ///< one weighted/unweighted localization sweep
  /// Hang cells run with this step deadline (derived from the calibrated
  /// step times so a hang cell doesn't sit out the default 30 s).
  double hang_timeout_s = 0.0;
  /// Payload bytes of one boundary snapshot, as the clean run's store
  /// lists it: 16 + n²·8 (progress and the matrix; no accumulators). That
  /// is the first, Full record's size; the later Incrementals are smaller.
  std::uint64_t snapshot_bytes = 0;
  /// Payload bytes of every record the clean run committed (its store's
  /// list()): Σ over boundaries b of 16 + 8·n·nb·(nbk − max(0, b − e)),
  /// e = ckpt_every, since each commit holds only the rows not yet final.
  std::uint64_t commit_bytes = 0;
};

struct CellOutcome {
  Cell cell;
  bool recovered = false;  ///< completed, residual clean, factors match
  double measured_seconds = 0.0;
  double predicted_seconds = 0.0;
  double ratio = 0.0;  ///< measured / predicted
  double residual = 0.0;
  double factor_error = 0.0;  ///< relative error of the factors vs clean
  std::size_t restores = 0, reconstructions = 0, respawns = 0;
  std::size_t escalations = 0, hangs = 0;
  // Per-rung timing breakdown, so measured-vs-model attributes cost to the
  // rung the recovery actually took, plus the summed checkpoint commits.
  double commit_seconds = 0.0, check_seconds = 0.0, locate_seconds = 0.0,
         recons_seconds = 0.0, restore_seconds = 0.0,
         hang_wait_seconds = 0.0;
  std::vector<FaultSite> injected;  ///< ground truth (record only)
  std::vector<FaultSite> located;   ///< derived by locate_fault()
  /// Derived sites == injected sites (as sets). Trivially true for cells
  /// that inject no corruption (kill/torn/hang).
  bool site_match = false;
};

struct CampaignOptions {
  std::string storage = "memory";  ///< make_backend spec; non-memory specs
                                   ///< get a per-cell path suffix
  std::size_t shard = 0;           ///< this invocation's shard index
  std::size_t nshards = 1;         ///< total shards (cells: i % nshards)
  /// Run every cell (and the calibration) blind: per-boundary verification,
  /// localization from residuals only — injection sites never reach the
  /// launcher's recovery paths.
  bool blind = false;
};

struct CampaignReport {
  DistConfig config;
  CampaignSpec spec;
  CampaignOptions options;
  Calibration calib;
  std::vector<CellOutcome> cells;  ///< this shard's cells, ascending index
  std::size_t unrecovered = 0;
  /// Rank processes forked over the campaign: `ranks` once, plus one per
  /// dead rank replaced, so forks == ranks + Σ cells[i].respawns.
  std::size_t forks = 0;
  double mean_ratio = 0.0;
  double max_ratio = 0.0;
};

/// Execute one shard of a campaign. `cfg.seed` is the root seed: it fixes
/// the matrix everywhere and derives each cell's flip site via
/// cell_seed(seed, index), so shards merge deterministically and any cell
/// replays in isolation.
[[nodiscard]] CampaignReport run_campaign(const DistConfig& cfg,
                                          const CampaignSpec& spec,
                                          const CampaignOptions& options = {});

/// Shape of the miniature run the "dist" evaluator performs per scenario.
/// Process-global (like the kernel policy): bench drivers configure it once
/// before evaluating.
struct DistEvalOptions {
  std::size_t n = 96, nb = 16, ranks = 2, group = 3, ckpt_every = 2;
  std::string storage = "memory";
};
[[nodiscard]] DistEvalOptions& dist_eval_options();

/// Register the "dist" evaluator in the process-global EvaluatorRegistry
/// (idempotent). Series naming evaluator "dist" then measure waste by
/// running real injected factorizations instead of evaluating formulas.
void register_dist_evaluator();

}  // namespace abftc::dist
