/// \file dist_campaign.cpp
/// Driver for distributed fault-injection campaigns: real forked ranks,
/// real SIGKILLs, real torn checkpoint writes — measured survival compared
/// against the model-predicted completion time per injection cell.
///
///   dist_campaign --campaign=steps:0-5,ranks:0-3,kinds:kill+flip+torn+hang
///                 --ranks=4 --n=192 --nb=32 --group=3 --ckpt-every=2
///                 --storage=log:/dev/shm/abftc_campaign
///                 --seed=3405676766 --shard=0/1 --blind=1 --json
///
/// `--blind=1` runs every cell blind: the launcher verifies the checksum
/// invariant at every step boundary and localizes corruption from the
/// weighted/unweighted residual ratio — injection sites never reach its
/// recovery paths (each cell record carries injected vs located
/// coordinates and a site_match flag to prove it).
///
/// Every cell must recover (unrecovered == 0 is the hard gate); the
/// measured/predicted ratio per cell is reported for the CI band check.
/// `--shard=K/M` runs cells with index % M == K — shards of the same seed
/// merge by concatenation. `--sweep` additionally runs a small scenario
/// sweep through the experiment engine with the "dist" evaluator next to
/// the analytical model, demonstrating measured-vs-model waste.
///
/// The JSON artifact (BENCH_dist_campaign.json with bare --json) carries
/// the config (with the payload bytes of one committed snapshot), the
/// calibration constants, one record per cell, the rank forks of the
/// campaign's one warm launcher, and the aggregate gates.
///
/// Exit codes: 0 every cell recovered, 1 some cell did not (or the run
/// failed), 2 a malformed argument (an unknown --storage scheme or option,
/// a bad --campaign spec, a --shard that is not K/M).

#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/time_units.hpp"
#include "core/experiment.hpp"
#include "core/params.hpp"
#include "dist/campaign.hpp"

using namespace abftc;

namespace {

void emit_json(const std::string& path, const dist::CampaignReport& report) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "error: cannot open " << path << " for writing\n";
    std::exit(2);
  }
  common::JsonWriter json(os);
  json.begin_object();
  json.kv("bench", "dist_campaign");
  json.key("config");
  json.begin_object();
  json.kv("n", report.config.n);
  json.kv("nb", report.config.nb);
  json.kv("ranks", report.config.ranks);
  json.kv("group", report.config.group);
  json.kv("ckpt_every", report.config.ckpt_every);
  json.kv("seed", report.config.seed);
  json.kv("storage", report.options.storage);
  json.kv("campaign", report.spec.to_spec());
  json.kv("shard", report.options.shard);
  json.kv("nshards", report.options.nshards);
  json.kv("blind", report.options.blind);
  json.kv("snapshot_bytes", report.calib.snapshot_bytes);
  json.kv("hardware_threads",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.end_object();
  json.key("calibration");
  json.begin_object();
  json.kv("clean_seconds", report.calib.t_clean);
  json.kv("restore_seconds", report.calib.restore_s);
  json.kv("check_seconds", report.calib.check_s);
  json.kv("recons_seconds", report.calib.recons_s);
  json.kv("locate_seconds", report.calib.locate_s);
  json.kv("hang_timeout_seconds", report.calib.hang_timeout_s);
  json.key("step_seconds");
  json.begin_array();
  for (const double s : report.calib.step_seconds) json.value(s);
  json.end_array();
  json.end_object();
  json.key("cells");
  json.begin_array();
  for (const dist::CellOutcome& c : report.cells) {
    json.begin_object();
    json.kv("index", c.cell.index);
    json.kv("step", c.cell.step);
    json.kv("rank", c.cell.rank);
    json.kv("kind", dist::to_string(c.cell.kind));
    json.kv("recovered", c.recovered);
    json.kv("measured_seconds", c.measured_seconds);
    json.kv("predicted_seconds", c.predicted_seconds);
    json.kv("ratio", c.ratio);
    json.kv("residual", c.residual);
    json.kv("factor_error", c.factor_error);
    json.kv("restores", c.restores);
    json.kv("reconstructions", c.reconstructions);
    json.kv("respawns", c.respawns);
    json.kv("escalations", c.escalations);
    json.kv("hangs", c.hangs);
    // Per-rung timing breakdown of the recovery this cell actually took.
    json.kv("commit_seconds", c.commit_seconds);
    json.kv("check_seconds", c.check_seconds);
    json.kv("locate_seconds", c.locate_seconds);
    json.kv("recons_seconds", c.recons_seconds);
    json.kv("restore_seconds", c.restore_seconds);
    json.kv("hang_wait_seconds", c.hang_wait_seconds);
    json.kv("site_match", c.site_match);
    const auto sites = [&](const char* key,
                           const std::vector<dist::FaultSite>& list) {
      json.key(key);
      json.begin_array();
      for (const dist::FaultSite& s : list) {
        json.begin_object();
        json.kv("block_row", s.block_row);
        json.kv("block_col", s.block_col);
        json.kv("row", s.row);
        json.kv("col", s.col);
        json.end_object();
      }
      json.end_array();
    };
    sites("injected", c.injected);
    sites("located", c.located);
    json.end_object();
  }
  json.end_array();
  json.kv("cells_run", report.cells.size());
  json.kv("unrecovered", report.unrecovered);
  json.kv("forks", report.forks);
  json.kv("mean_ratio", report.mean_ratio);
  json.kv("max_ratio", report.max_ratio);
  json.end_object();
}

void run_sweep_demo(const dist::DistConfig& cfg, const std::string& storage,
                    std::uint64_t seed) {
  dist::register_dist_evaluator();
  dist::DistEvalOptions& opts = dist::dist_eval_options();
  opts.n = cfg.n;
  opts.nb = cfg.nb;
  opts.ranks = cfg.ranks;
  opts.group = cfg.group;
  opts.ckpt_every = cfg.ckpt_every;
  opts.storage = storage.rfind("memory", 0) == 0 ? storage : "memory";

  core::MonteCarloOptions mc;
  mc.seed = seed;

  core::ExperimentSpec spec;
  spec.name = "dist_sweep";
  spec.threads = 1;  // the dist evaluator forks; keep the grid serial
  spec.sweep.base = core::figure7_scenario(common::minutes(120), 0.5);
  spec.sweep.axes = {core::Axis::step("alpha", core::AxisField::Alpha, 0.0,
                                      1.0, 0.5)};
  spec.series = core::cross_series(core::all_protocols(), {"model", "dist"},
                                   {}, mc);

  core::Experiment experiment(std::move(spec));
  core::TableSink table(std::cout);
  experiment.add_sink(table);
  std::cout << "\n# measured (dist) vs analytical (model) waste — "
               "miniature scenarios\n";
  (void)experiment.run();
}

int run(int argc, char** argv) {
  const common::ArgParser args(argc, argv);
  dist::DistConfig cfg;
  cfg.n = static_cast<std::size_t>(args.get_int("n", 192));
  cfg.nb = static_cast<std::size_t>(args.get_int("nb", 32));
  cfg.ranks = static_cast<std::size_t>(args.get_int("ranks", 4));
  cfg.group = static_cast<std::size_t>(args.get_int("group", 3));
  cfg.ckpt_every =
      static_cast<std::size_t>(args.get_int("ckpt-every", 2));
  cfg.seed = core::seed_from_args(args);

  const std::size_t nbk = cfg.n / cfg.nb;
  const std::string default_campaign =
      "steps:0-" + std::to_string(nbk - 1) + ",ranks:0-" +
      std::to_string(cfg.ranks - 1) + ",kinds:kill+flip+torn";
  const dist::CampaignSpec spec =
      dist::CampaignSpec::parse(args.get_string("campaign", default_campaign));

  dist::CampaignOptions options;
  options.storage = args.get_string("storage", "memory");
  {
    const std::string shard = args.get_string("shard", "0/1");
    const auto slash = shard.find('/');
    const auto is_count = [](const std::string& s) {
      return !s.empty() && s.find_first_not_of("0123456789") == s.npos;
    };
    if (slash == std::string::npos || !is_count(shard.substr(0, slash)) ||
        !is_count(shard.substr(slash + 1))) {
      std::cerr << "error: --shard expects K/M\n";
      return 2;
    }
    options.shard = static_cast<std::size_t>(std::stoull(shard.substr(0, slash)));
    options.nshards =
        static_cast<std::size_t>(std::stoull(shard.substr(slash + 1)));
  }
  options.blind = args.get_bool("blind", false);
  const bool want_json = args.has("json");
  std::string json_path = args.get_string("json", "");
  if (want_json && json_path.empty()) json_path = "BENCH_dist_campaign.json";
  const bool sweep = args.get_bool("sweep", false);
  args.warn_unknown(std::cerr);

  std::cout << "# dist campaign — " << spec.to_spec() << " (shard "
            << options.shard << "/" << options.nshards << ", "
            << spec.cell_count() << " cells total), n=" << cfg.n
            << " nb=" << cfg.nb << " ranks=" << cfg.ranks
            << " ckpt_every=" << cfg.ckpt_every << " storage="
            << options.storage << " seed=" << cfg.seed
            << (options.blind ? " blind" : "") << "\n";

  const dist::CampaignReport report = dist::run_campaign(cfg, spec, options);

  std::cout << "clean run: " << report.calib.t_clean * 1e3 << " ms over "
            << report.calib.step_seconds.size() << " steps; restore "
            << report.calib.restore_s * 1e3 << " ms, check "
            << report.calib.check_s * 1e3 << " ms, recons "
            << report.calib.recons_s * 1e3 << " ms, locate "
            << report.calib.locate_s * 1e3 << " ms, hang deadline "
            << report.calib.hang_timeout_s * 1e3 << " ms\n\n";
  std::cout << "index step rank kind  recovered measured[ms] predicted[ms] "
               "ratio  restores recons respawns escal hangs sites\n";
  for (const dist::CellOutcome& c : report.cells) {
    // "sites" compares derived localization to the injector's ground truth;
    // cells that inject no corruption trivially match.
    std::printf("%5zu %4zu %4zu %-5s %-9s %12.3f %13.3f %6.2f %9zu %6zu %8zu "
                "%5zu %5zu %s\n",
                c.cell.index, c.cell.step, c.cell.rank,
                std::string(dist::to_string(c.cell.kind)).c_str(),
                c.recovered ? "yes" : "NO", c.measured_seconds * 1e3,
                c.predicted_seconds * 1e3, c.ratio, c.restores,
                c.reconstructions, c.respawns, c.escalations, c.hangs,
                c.site_match ? "match" : "MISS");
  }
  std::cout << "\ncells=" << report.cells.size()
            << " unrecovered=" << report.unrecovered
            << " mean_ratio=" << report.mean_ratio
            << " max_ratio=" << report.max_ratio << "\n";

  if (want_json) {
    emit_json(json_path, report);
    std::cout << "wrote " << json_path << "\n";
  }
  if (sweep) run_sweep_demo(cfg, options.storage, cfg.seed);

  return report.unrecovered == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A bad argument is a usage error, not a crash: common::precondition_error
  // (an unknown storage scheme or option, a malformed campaign spec, a
  // shard out of range) is an std::invalid_argument.
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
