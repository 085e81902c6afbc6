#include "dist/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <mutex>

#include "ckpt/io/faulting.hpp"
#include "common/error.hpp"
#include "core/experiment.hpp"
#include "core/params.hpp"

namespace abftc::dist {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-cell storage spec: "memory" is naturally isolated (fresh store per
/// make_backend call); log directories get a ".cellN" suffix spliced in
/// before any ?options tail so cells never share a store.
struct CellStorage {
  std::string spec;
  std::string path;  ///< filesystem path to clean up; empty for memory
};

CellStorage storage_for(const std::string& base, const std::string& tag) {
  CellStorage out;
  if (base.rfind("memory", 0) == 0) {
    out.spec = base;
    return out;
  }
  const auto qmark = base.find('?');
  const std::string body =
      qmark == std::string::npos ? base : base.substr(0, qmark);
  const std::string options =
      qmark == std::string::npos ? std::string{} : base.substr(qmark);
  out.spec = body + "." + tag + options;
  const auto colon = body.find(':');
  out.path = colon == std::string::npos ? body + "." + tag
                                        : body.substr(colon + 1) + "." + tag;
  return out;
}

void cleanup(const CellStorage& storage) {
  if (storage.path.empty()) return;
  std::error_code ec;  // best-effort: a leftover arena is not a failure
  std::filesystem::remove_all(storage.path, ec);
}

/// Sum of step_seconds[c..s] — the steps a restore-to-boundary-c replays.
double replay_time(const Calibration& calib, std::size_t c, std::size_t s) {
  double t = 0.0;
  for (std::size_t k = c; k <= s && k < calib.step_seconds.size(); ++k)
    t += calib.step_seconds[k];
  return t;
}

double predict(const Calibration& calib, const Cell& cell,
               std::size_t ckpt_every, bool blind) {
  // Blind runs pay per-boundary verification in t_clean already, and again
  // for every boundary a replay re-verifies; only the legacy mode adds a
  // dedicated detection sweep for corruption cells.
  const double detect = blind ? 0.0 : calib.check_s;
  const double reverify = blind ? calib.check_s : 0.0;
  // A death at step s replays [c, s]: boundaries c..s-1 were verified
  // once already, s only now.
  const auto replay_after_death = [&](std::size_t c) {
    return calib.restore_s + replay_time(calib, c, cell.step) +
           static_cast<double>(cell.step - c) * reverify;
  };
  const std::size_t covering = (cell.step / ckpt_every) * ckpt_every;
  switch (cell.kind) {
    case FaultKind::Flip:
      // detect → locate → reconstruct → re-verify.
      return calib.t_clean + detect + calib.locate_s + calib.recons_s +
             calib.check_s;
    case FaultKind::Flip2:
      // detect → locate → escalate straight to the covering checkpoint
      // (two located block rows rule out single-block reconstruction); the
      // replay re-verifies every boundary c..s.
      return calib.t_clean + detect + calib.locate_s + calib.restore_s +
             replay_time(calib, covering, cell.step) +
             static_cast<double>(cell.step - covering + 1) * reverify;
    case FaultKind::Hang:
      // The victim sits out the deadline before SIGKILL + restore + replay.
      return calib.t_clean + calib.hang_timeout_s +
             replay_after_death(covering);
    case FaultKind::Kill:
      return calib.t_clean + replay_after_death(covering);
    case FaultKind::Torn:
      // The covering boundary's snapshot is torn: restore falls back one
      // checkpoint period (or to the initial image when none is older).
      return calib.t_clean +
             replay_after_death(covering >= ckpt_every ? covering - ckpt_every
                                                       : 0);
  }
  return calib.t_clean;
}

/// Set-equality of injected vs located sites (order-insensitive: the
/// localization sweep reports in (row, column) scan order, the injector in
/// injection order).
bool sites_match(std::vector<FaultSite> a, std::vector<FaultSite> b) {
  const auto by_coords = [](const FaultSite& x, const FaultSite& y) {
    return x.row != y.row ? x.row < y.row : x.col < y.col;
  };
  std::sort(a.begin(), a.end(), by_coords);
  std::sort(b.begin(), b.end(), by_coords);
  return a == b;
}

/// Calibrate on the campaign's launcher once it is warm, so t_clean pays
/// the same fixed costs as every cell.
Calibration calibrate(Launcher& clean, const DistConfig& cfg,
                      const CampaignOptions& options) {
  const CellStorage storage = storage_for(options.storage, "clean");
  auto backend = ckpt::io::make_backend(storage.spec);
  const RunReport rep = clean.run(cfg, *backend);
  ABFTC_CHECK(rep.completed, "calibration run did not complete");

  Calibration calib;
  calib.t_clean = rep.wall_seconds;
  calib.step_seconds = rep.step_seconds;
  const std::vector<ckpt::io::SnapshotMeta> snapshots = backend->list();
  ABFTC_CHECK(!snapshots.empty(), "calibration run committed no snapshot");
  calib.snapshot_bytes = snapshots.front().bytes;
  for (const ckpt::io::SnapshotMeta& m : snapshots)
    calib.commit_bytes += m.bytes;

  // check_s: one full residual sweep over the final arena state — the same
  // sweep every blind check and post-reconstruction re-verify runs. The
  // result is kept and checked, so the timed sweep cannot be optimized
  // away; the check also asserts that the calibration run was clean.
  auto t0 = Clock::now();
  const double residual = clean.residual_now();
  calib.check_s = seconds_since(t0);
  ABFTC_CHECK(residual <= kDetectFloor,
              "calibration run ended above the detection floor");

  // locate_s / recons_s: rung 1 and rung 2 on the same final state — one
  // localization sweep, then one (frozen) block rebuild.
  t0 = Clock::now();
  (void)clean.locate_fault();
  calib.locate_s = seconds_since(t0);
  t0 = Clock::now();
  clean.reconstruct_block(FaultSite{});
  calib.recons_s = seconds_since(t0);

  // restore_s: rung 3 as the cells run it — the newest snapshot read
  // straight into the arena and verified there. Timed last because it
  // overwrites the final state the sweeps above read.
  t0 = Clock::now();
  const bool restored = clean.restore_now(*backend).has_value();
  calib.restore_s = seconds_since(t0);
  ABFTC_CHECK(restored, "clean run left no restorable snapshot");

  cleanup(storage);
  return calib;
}

}  // namespace

CampaignReport run_campaign(const DistConfig& cfg, const CampaignSpec& spec,
                            const CampaignOptions& options) {
  const DistLayout lay =
      DistLayout::compute(cfg.n, cfg.nb, cfg.group, cfg.ranks);
  ABFTC_REQUIRE(spec.step_hi < lay.nbk,
                "campaign steps exceed the factorization's block steps");
  ABFTC_REQUIRE(spec.rank_hi < cfg.ranks,
                "campaign ranks exceed the configured rank count");

  // Blind campaigns run calibration and every cell with per-boundary
  // verification, so t_clean and the cells pay the same check cadence.
  DistConfig base = cfg;
  base.blind = options.blind;

  CampaignReport report;
  report.config = base;
  report.spec = spec;
  report.options = options;

  // One launcher serves the whole campaign. Its cold first run is the
  // reference solve: the clean factors every recovered cell must reproduce,
  // copied out of the arena before the next run overwrites it.
  const CellStorage ref_storage = storage_for(options.storage, "ref");
  const auto ref_backend = ckpt::io::make_backend(ref_storage.spec);
  Launcher pool(base, *ref_backend);
  (void)pool.run();
  const abft::Matrix clean_lu(pool.lu());
  cleanup(ref_storage);

  report.calib = calibrate(pool, base, options);

  // Hang cells wait out the step deadline before recovery; derive a tight
  // one from the calibrated step times so a campaign doesn't sit out the
  // default 30 s per hang cell.
  double max_step = 0.0;
  for (const double s : report.calib.step_seconds)
    max_step = std::max(max_step, s);
  report.calib.hang_timeout_s = std::max(0.25, 20.0 * max_step);

  for (const std::size_t index :
       spec.shard_indices(options.shard, options.nshards)) {
    const Cell cell = spec.cell(index);
    const CellStorage storage =
        storage_for(options.storage, "cell" + std::to_string(index));
    auto backend = ckpt::io::make_backend(storage.spec);

    DistConfig cell_cfg = base;
    cell_cfg.flip_seed = cell_seed(cfg.seed, index);
    if (cell.kind == FaultKind::Hang)
      cell_cfg.step_timeout_s = report.calib.hang_timeout_s;

    std::vector<Injection> faults;
    ckpt::io::StorageBackend* effective = backend.get();
    std::unique_ptr<ckpt::io::FaultingBackend> faulting;
    if (cell.kind == FaultKind::Torn) {
      // Tear the checkpoint write covering this step, then kill the victim
      // at the step: the restore must fall back past the torn snapshot.
      const std::size_t torn_write = cell.step / cfg.ckpt_every;
      faulting = std::make_unique<ckpt::io::FaultingBackend>(
          *backend,
          std::vector<ckpt::io::FaultingBackend::Fault>{
              {torn_write, ckpt::io::WriteFault::TornPayload}});
      effective = faulting.get();
      faults.push_back({FaultKind::Torn, cell.step, cell.rank});
    } else {
      faults.push_back({cell.kind, cell.step, cell.rank});
    }

    const RunReport rep = pool.run(cell_cfg, *effective, faults);

    CellOutcome out;
    out.cell = cell;
    out.measured_seconds = rep.wall_seconds;
    out.predicted_seconds =
        predict(report.calib, cell, cfg.ckpt_every, options.blind);
    out.ratio = out.predicted_seconds > 0.0
                    ? rep.wall_seconds / out.predicted_seconds
                    : 0.0;
    out.residual = rep.residual;
    out.restores = rep.restores;
    out.reconstructions = rep.reconstructions;
    out.respawns = rep.respawns;
    out.escalations = rep.escalations;
    out.hangs = rep.hangs;
    out.commit_seconds = rep.commit_seconds;
    out.check_seconds = rep.check_seconds;
    out.locate_seconds = rep.locate_seconds;
    out.recons_seconds = rep.recons_seconds;
    out.restore_seconds = rep.restore_seconds;
    out.hang_wait_seconds = rep.hang_wait_seconds;
    out.injected = rep.injected;
    out.located = rep.located;
    out.site_match = sites_match(rep.injected, rep.located);
    out.factor_error = abft::relative_error(pool.lu(), clean_lu);
    // Recovered = the run survived AND produced the right answer: the
    // checksum invariants hold and the factors match the uninjected run
    // (bitwise for kill/torn via restore+replay; to reconstruction rounding
    // for flips).
    out.recovered =
        rep.completed && rep.residual < 1e-7 && out.factor_error < 1e-8;
    if (!out.recovered) ++report.unrecovered;
    report.cells.push_back(out);
    cleanup(storage);
  }

  report.forks = pool.forks();
  double sum = 0.0;
  for (const CellOutcome& c : report.cells) {
    sum += c.ratio;
    report.max_ratio = std::max(report.max_ratio, c.ratio);
  }
  report.mean_ratio =
      report.cells.empty() ? 0.0 : sum / static_cast<double>(report.cells.size());
  return report;
}

// --- the "dist" evaluator ---------------------------------------------------

DistEvalOptions& dist_eval_options() {
  static DistEvalOptions opts;
  return opts;
}

namespace {

/// Measures waste by running the miniature protected factorization with the
/// scenario's expected failure count injected as real faults. The launcher
/// forks and the options are process-global, so evaluations serialize on a
/// mutex (the Evaluator contract only demands thread-safety, not
/// parallelism).
class DistEvaluator final : public core::Evaluator {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "dist";
  }

  [[nodiscard]] core::EvalResult evaluate(
      core::Protocol p, const core::ScenarioParams& s,
      const core::EvalContext& ctx) const override {
    static std::mutex mutex;
    const std::lock_guard<std::mutex> lock(mutex);

    const DistEvalOptions& opts = dist_eval_options();
    DistConfig cfg;
    cfg.n = opts.n;
    cfg.nb = opts.nb;
    cfg.ranks = opts.ranks;
    cfg.group = opts.group;
    cfg.ckpt_every = opts.ckpt_every;
    cfg.seed = ctx.mc.seed;
    const std::size_t nbk = cfg.n / cfg.nb;

    // Scenario → injection schedule: the expected failure count over the
    // run, placed systematically (mid-interval), round-robin over ranks.
    // Under the ABFT protocol the library-phase share α of failures is
    // absorbed by checksum reconstruction (flips); the rest — and every
    // failure under the checkpoint-only protocols — costs a rollback
    // (kills).
    const double expected =
        s.platform.mtbf > 0.0 ? s.total_work() / s.platform.mtbf : 1.0;
    const std::size_t faults = static_cast<std::size_t>(std::clamp<double>(
        std::llround(expected), 1.0, static_cast<double>(nbk)));
    const bool abft = p == core::Protocol::AbftPeriodicCkpt;
    const std::size_t flips =
        abft ? static_cast<std::size_t>(
                   std::llround(s.epoch.alpha * static_cast<double>(faults)))
             : 0;

    std::vector<Injection> plan;
    for (std::size_t i = 0; i < faults; ++i) {
      Injection inj;
      inj.step = static_cast<std::size_t>(
          (static_cast<double>(i) + 0.5) * static_cast<double>(nbk) /
          static_cast<double>(faults));
      inj.rank = i % cfg.ranks;
      inj.kind = i < flips ? FaultKind::Flip : FaultKind::Kill;
      plan.push_back(inj);
    }

    core::EvalResult result;
    try {
      // Both runs are cold, each on its own launcher: a cold clean run
      // against a warm faulty one would bias the measured waste.
      auto clean_backend = ckpt::io::make_backend(opts.storage);
      Launcher clean(cfg, *clean_backend);
      const RunReport clean_rep = clean.run();

      auto faulty_backend = ckpt::io::make_backend(opts.storage);
      Launcher faulty(cfg, *faulty_backend);
      const RunReport faulty_rep = faulty.run(plan);

      result.valid = clean_rep.completed && faulty_rep.completed;
      result.t_final = faulty_rep.wall_seconds;
      result.failures = static_cast<double>(faults);
      result.abft_active = abft;
      result.waste =
          faulty_rep.wall_seconds > clean_rep.wall_seconds
              ? 1.0 - clean_rep.wall_seconds / faulty_rep.wall_seconds
              : 0.0;
    } catch (const std::exception&) {
      result.valid = false;
      result.waste = 1.0;
    }
    return result;
  }
};

}  // namespace

void register_dist_evaluator() {
  if (core::EvaluatorRegistry::instance().find("dist") != nullptr) return;
  core::EvaluatorRegistry::instance().add(std::make_unique<DistEvaluator>());
}

}  // namespace abftc::dist
