#include "workloads.hpp"

#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "abft/abft_lu.hpp"
#include "ckpt/io/backend.hpp"
#include "common/executor.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "dist/campaign.hpp"
#include "dist/launcher.hpp"
#include "probes.hpp"
#include "svc/net.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "trace.hpp"

namespace perfbench {

namespace ab = abftc::abft;
namespace cm = abftc::common;
namespace core = abftc::core;
namespace dist = abftc::dist;
namespace fs = std::filesystem;
namespace io = abftc::ckpt::io;
namespace svc = abftc::svc;

namespace {

constexpr std::size_t kMaxErrors = 8;
constexpr std::size_t kHopTrips = 400;

void add_error(Result& r, std::string msg) {
  if (r.errors.size() < kMaxErrors) r.errors.push_back(std::move(msg));
}

/// A program input seed derived from the benchmark seed, one per stream.
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  return cm::splitmix64(state);
}

std::string store_spec(const Options& o, const std::string& tag) {
  // flush=0: the store may sit on a disk-backed filesystem, and fdatasync
  // latency there would swamp the commit cost (on tmpfs it is a no-op).
  return "log:" + o.store + "/" + o.prefix + "-" + tag + "?flush=0";
}

/// Remove every store entry this process created. Called between ops,
/// outside their timed regions.
void purge(const Options& o) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(o.store, ec)) {
    if (entry.path().filename().string().rfind(o.prefix + "-", 0) == 0)
      fs::remove_all(entry.path(), ec);
  }
}

/// In the traced pass every other slot is traced; the untraced ones are
/// the same-run baseline for the tracing overhead.
Tracer* op_tracer(Tracer* tracer, std::size_t slot) {
  return tracer != nullptr && slot % 2 == 0 ? tracer : nullptr;
}

bool keep_going(const Options& o, Clock::time_point t0, std::size_t done) {
  return o.smoke ? done < 1 : seconds_since(t0) < o.seconds;
}

std::size_t setup_reps(const Options& o, std::size_t reps) {
  return o.smoke ? 1 : reps;
}

cm::ExecutorCounters exec_now() { return cm::Executor::global().stats().total; }

void set_layer(Result& r, const std::string& name, double value) {
  const auto it = r.layers.find(name);
  if (it == r.layers.end())
    throw std::logic_error("unknown per-layer metric " + name);
  it->second = value;
}

void init_layers(Result& r) {
  for (const std::string& name : layer_names()) r.layers[name] = 0.0;
}

double sum(const std::vector<double>& xs) {
  double s = 0.0;
  for (const double x : xs) s += x;
  return s;
}

/// The replay probes both dist workloads run at their own shapes.
CkptProbe dist_probes(const Options& o, const dist::DistLayout& lay,
                      std::uint64_t seed, Tracer* tracer, Result& res) {
  const CkptProbe ck = probe_ckpt(lay, store_spec(o, "probe"), tracer);
  purge(o);
  set_layer(res, "ckpt.write_ms", ck.write_ms);
  set_layer(res, "ckpt.restore_ms", ck.restore_ms);
  set_layer(res, "common.crc32_gbps", ck.crc_gbps);
  const AbftProbe abp = probe_abft(lay, seed, tracer);
  set_layer(res, "abft.update_gflops", abp.update_gflops);
  set_layer(res, "abft.panel_ms", abp.panel_ms);
  set_layer(res, "abft.phi", abp.phi);
  set_layer(res, "abft.flops", protected_lu_flops(lay));
  set_layer(res, "dist.hop_us_p50", probe_hop_us(kHopTrips, tracer));
  return ck;
}

// --- lu_steady ---------------------------------------------------------------

dist::DistConfig steady_config(const Options& o) {
  dist::DistConfig cfg;
  cfg.n = o.smoke ? 192 : 1536;
  cfg.nb = o.smoke ? 32 : 64;
  cfg.ranks = 3;
  cfg.group = 3;
  cfg.ckpt_every = 2;
  cfg.blind = true;
  cfg.seed = input_seed(o.seed, 1);
  return cfg;
}

struct Solve {
  double wall = 0.0;
  bool ok = false;
  bool traced = false;
  std::string error;
  dist::RunReport rep;
  cm::ExecutorCounters exec;
};

/// The serial AbftLu factors every dist solve must reproduce.
ab::Matrix serial_reference(const dist::DistConfig& cfg, Tracer* tracer) {
  Span span(tracer, "abft", "AbftLu::factor (reference)");
  cm::Rng rng(cfg.seed);
  ab::AbftLu lu(ab::Matrix::diag_dominant(cfg.n, rng), cfg.nb,
                ab::ProcessGrid{cfg.group, 1});
  lu.factor();
  return lu.lu();
}

/// One clean blind solve into a fresh store. Timed from opening the store
/// to Launcher::run returning; verification comes after the clock stops.
Solve steady_solve(const Options& o, const dist::DistConfig& cfg,
                   const ab::Matrix& reference, const std::string& tag,
                   Tracer* tracer) {
  Solve s;
  s.traced = tracer != nullptr;
  Span op(tracer, "bench", "op lu_steady");
  const cm::ExecutorCounters e0 = exec_now();
  const auto t0 = Clock::now();
  std::unique_ptr<io::StorageBackend> backend;
  {
    Span span(tracer, "ckpt", "make_backend");
    backend = io::make_backend(store_spec(o, tag));
  }
  dist::Launcher launcher(cfg, *backend);
  {
    Span span(tracer, "dist", "Launcher::run");
    s.rep = launcher.run();
    s.wall = seconds_since(t0);
    span.arg("step_s", sum(s.rep.step_seconds));
    span.arg("check_s", s.rep.check_seconds);
    span.arg("checkpoints", static_cast<double>(s.rep.checkpoints));
    span.arg("restores", static_cast<double>(s.rep.restores));
    span.arg("residual", s.rep.residual);
  }
  s.exec = exec_now() - e0;
  double err = 0.0;
  {
    Span span(tracer, "abft", "relative_error");
    err = ab::relative_error(launcher.lu(), reference);
    span.arg("relative_error", err);
  }
  s.ok = s.rep.completed && s.rep.residual < 1e-7 && err <= 1e-10;
  if (!s.ok) {
    std::ostringstream msg;
    msg << "lu_steady " << tag << ": completed=" << s.rep.completed
        << " residual=" << s.rep.residual << " relative_error=" << err;
    s.error = msg.str();
  }
  return s;
}

void steady_layers(const Options& o, const dist::DistConfig& cfg,
                   const std::vector<Solve>& solves, Tracer* tracer,
                   Result& res) {
  const dist::DistLayout lay =
      dist::DistLayout::compute(cfg.n, cfg.nb, cfg.group, cfg.ranks);
  std::vector<double> walls, untraced, steps, steps_ms, checks, other, commits,
      restores, respawns, recons, escalations, chunks, steals, parks;
  for (const Solve& s : solves) {
    if (!s.traced) {
      untraced.push_back(s.wall);
      continue;
    }
    const dist::RunReport& r = s.rep;
    const double step_s = sum(r.step_seconds);
    walls.push_back(s.wall);
    steps.push_back(step_s);
    for (const double x : r.step_seconds) steps_ms.push_back(x * 1e3);
    checks.push_back(r.check_seconds);
    other.push_back(s.wall - step_s - r.check_seconds - r.restore_seconds -
                    r.locate_seconds - r.recons_seconds);
    commits.push_back(static_cast<double>(r.checkpoints));
    restores.push_back(static_cast<double>(r.restores));
    respawns.push_back(static_cast<double>(r.respawns));
    recons.push_back(static_cast<double>(r.reconstructions));
    escalations.push_back(static_cast<double>(r.escalations));
    chunks.push_back(static_cast<double>(s.exec.chunks_claimed));
    steals.push_back(static_cast<double>(s.exec.tasks_stolen));
    parks.push_back(static_cast<double>(s.exec.parks));
  }
  const double op_p50 = median(walls);
  const double step_s = median(steps);
  const double check_s = median(checks);
  const double n_commits = median(commits);

  set_layer(res, "dist.step_s", step_s);
  set_layer(res, "dist.step_ms_p50", median(steps_ms));
  set_layer(res, "dist.other_s", median(other));
  set_layer(res, "dist.restores", median(restores));
  set_layer(res, "dist.respawns", median(respawns));
  set_layer(res, "dist.reconstructions", median(recons));
  set_layer(res, "dist.escalations", median(escalations));
  set_layer(res, "ckpt.commits", n_commits);
  set_layer(res, "ckpt.commit_mb",
            n_commits * static_cast<double>(snapshot_bytes(lay)) / 1e6);
  set_layer(res, "common.exec_chunks", median(chunks));
  set_layer(res, "common.exec_steals", median(steals));
  set_layer(res, "common.exec_parks", median(parks));
  set_layer(res, "abft.verify_ms",
            check_s / static_cast<double>(lay.nbk) * 1e3);
  const CkptProbe ck = dist_probes(o, lay, cfg.seed, tracer, res);

  set_layer(res, "trace.overhead_s", op_p50 - median(untraced));
  // Named layers: the step loop, the per-boundary verification, and each
  // commit priced as one replayed write plus one CRC pass.
  const double named =
      step_s + check_s + n_commits * (ck.write_ms + ck.crc_ms) / 1e3;
  set_layer(res, "trace.accounted_share", op_p50 > 0.0 ? named / op_p50 : 0.0);
}

Result run_lu_steady(const Options& o, Tracer* tracer) {
  Result res;
  const dist::DistConfig cfg = steady_config(o);
  ab::Matrix reference;
  for (std::size_t r = 0; r < setup_reps(o, 3); ++r) {
    const auto t0 = Clock::now();
    reference = serial_reference(cfg, tracer);
    const Solve warm = steady_solve(o, cfg, reference,
                                    "warmup" + std::to_string(r), tracer);
    res.setup_s.push_back(seconds_since(t0));
    purge(o);
    if (!warm.ok) throw std::runtime_error("warm-up solve: " + warm.error);
  }

  std::vector<Solve> solves;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; keep_going(o, t0, i); ++i) {
    Solve s = steady_solve(o, cfg, reference, "solve" + std::to_string(i),
                           op_tracer(tracer, i));
    ++res.attempted;
    res.op_s.push_back(s.wall);
    if (!s.ok) {
      ++res.failed;
      add_error(res, s.error);
    }
    {
      Span span(op_tracer(tracer, i), "bench", "remove store");
      purge(o);
    }
    solves.push_back(std::move(s));
  }
  res.run_s = seconds_since(t0);

  if (tracer != nullptr) {
    init_layers(res);
    steady_layers(o, cfg, solves, tracer, res);
  }
  return res;
}

// --- lu_faults ---------------------------------------------------------------

dist::DistConfig faults_config(const Options& o) {
  dist::DistConfig cfg;
  cfg.n = 192;
  cfg.nb = 32;
  cfg.ranks = 3;
  cfg.group = 3;
  cfg.ckpt_every = 2;
  cfg.seed = input_seed(o.seed, 2);
  return cfg;
}

struct Campaign {
  dist::CampaignReport report;
  double wall = 0.0;
  bool traced = false;
  cm::ExecutorCounters exec;
};

Campaign campaign(const Options& o, const dist::DistConfig& cfg,
                  const dist::CampaignSpec& spec, const std::string& tag,
                  Tracer* tracer) {
  Campaign c;
  c.traced = tracer != nullptr;
  dist::CampaignOptions options;
  options.storage = store_spec(o, tag);
  options.blind = true;
  const cm::ExecutorCounters e0 = exec_now();
  Span span(tracer, "dist", "run_campaign");
  const auto t0 = Clock::now();
  c.report = dist::run_campaign(cfg, spec, options);
  c.wall = seconds_since(t0);
  c.exec = exec_now() - e0;
  span.arg("cells", static_cast<double>(c.report.cells.size()));
  span.arg("unrecovered", static_cast<double>(c.report.unrecovered));
  span.arg("mean_ratio", c.report.mean_ratio);
  span.arg("calib.t_clean_s", c.report.calib.t_clean);
  span.arg("calib.restore_s", c.report.calib.restore_s);
  span.arg("calib.locate_s", c.report.calib.locate_s);
  return c;
}

/// Two flips in one checksum residual slot (same group, same row within the
/// block, same column) leave a single combined residual that the weighted /
/// unweighted pair cannot split, so no localization can name both sites;
/// such a cell must still recover (the ladder escalates to a restore).
bool separable(const dist::CellOutcome& c, const dist::DistConfig& cfg) {
  if (c.injected.size() != 2) return true;
  const dist::FaultSite& a = c.injected[0];
  const dist::FaultSite& b = c.injected[1];
  return a.block_row / cfg.group != b.block_row / cfg.group ||
         a.row % cfg.nb != b.row % cfg.nb || a.col != b.col;
}

bool cell_ok(const dist::CellOutcome& c, const dist::DistConfig& cfg) {
  return c.recovered && (c.site_match || !separable(c, cfg));
}

std::string cell_error(const dist::CellOutcome& c) {
  std::ostringstream msg;
  msg << "lu_faults cell " << c.cell.index << " ("
      << dist::to_string(c.cell.kind) << " step " << c.cell.step << " rank "
      << c.cell.rank << "): recovered=" << c.recovered
      << " site_match=" << c.site_match;
  return msg.str();
}

void faults_layers(const Options& o, const dist::DistConfig& cfg,
                   const std::vector<Campaign>& campaigns, Tracer* tracer,
                   Result& res) {
  std::vector<const dist::CellOutcome*> cells, untraced_cells;
  std::vector<double> step_sums, steps_ms, exec_chunks, exec_steals,
      exec_parks, respawns, restores, recons, escalations;
  for (const Campaign& c : campaigns) {
    for (const dist::CellOutcome& cell : c.report.cells)
      (c.traced ? cells : untraced_cells).push_back(&cell);
    if (!c.traced) continue;
    step_sums.push_back(sum(c.report.calib.step_seconds));
    for (const double s : c.report.calib.step_seconds) steps_ms.push_back(s * 1e3);
    const double n_cells = static_cast<double>(c.report.cells.size());
    exec_chunks.push_back(static_cast<double>(c.exec.chunks_claimed) / n_cells);
    exec_steals.push_back(static_cast<double>(c.exec.tasks_stolen) / n_cells);
    exec_parks.push_back(static_cast<double>(c.exec.parks) / n_cells);
    double rs = 0, rt = 0, rc = 0, es = 0;
    for (const dist::CellOutcome& cell : c.report.cells) {
      rs += static_cast<double>(cell.respawns);
      rt += static_cast<double>(cell.restores);
      rc += static_cast<double>(cell.reconstructions);
      es += static_cast<double>(cell.escalations);
    }
    respawns.push_back(rs);
    restores.push_back(rt);
    recons.push_back(rc);
    escalations.push_back(es);
  }
  const double step_s = median(step_sums);
  const auto rungs = [](const dist::CellOutcome& c) {
    return c.check_seconds + c.restore_seconds + c.locate_seconds +
           c.recons_seconds + c.hang_wait_seconds;
  };
  std::vector<double> measured, other, restore_ms, locate_ms, ratios, shares;
  for (const dist::CellOutcome* c : cells) {
    measured.push_back(c->measured_seconds);
    other.push_back(c->measured_seconds - step_s - rungs(*c));
    if (c->restores > 0)
      restore_ms.push_back(c->restore_seconds /
                           static_cast<double>(c->restores) * 1e3);
    if (c->locate_seconds > 0.0) locate_ms.push_back(c->locate_seconds * 1e3);
    ratios.push_back(c->ratio);
    shares.push_back((step_s + rungs(*c)) / c->measured_seconds);
  }
  std::vector<double> untraced;
  for (const dist::CellOutcome* c : untraced_cells)
    untraced.push_back(c->measured_seconds);

  set_layer(res, "dist.step_s", step_s);
  set_layer(res, "dist.step_ms_p50", median(steps_ms));
  set_layer(res, "dist.other_s", median(other));
  set_layer(res, "dist.restore_ms", median(restore_ms));
  set_layer(res, "dist.respawns", median(respawns));
  set_layer(res, "dist.restores", median(restores));
  set_layer(res, "dist.reconstructions", median(recons));
  set_layer(res, "dist.escalations", median(escalations));
  set_layer(res, "common.exec_chunks", median(exec_chunks));
  set_layer(res, "common.exec_steals", median(exec_steals));
  set_layer(res, "common.exec_parks", median(exec_parks));
  set_layer(res, "abft.locate_ms", median(locate_ms));
  set_layer(res, "core.pred_ratio_p50", median(ratios));
  set_layer(res, "trace.overhead_s", median(measured) - median(untraced));
  set_layer(res, "trace.accounted_share", median(shares));

  // A clean solve of the campaign's shape gives the commit count and the
  // per-boundary verification cost; the replays price the rest.
  const dist::DistLayout lay =
      dist::DistLayout::compute(cfg.n, cfg.nb, cfg.group, cfg.ranks);
  dist::DistConfig clean = cfg;
  clean.blind = true;
  dist::RunReport rep;
  {
    const auto backend = io::make_backend(store_spec(o, "probe-solve"));
    dist::Launcher launcher(clean, *backend);
    Span span(tracer, "dist", "Launcher::run (clean)");
    rep = launcher.run();
  }
  purge(o);
  const double commits = static_cast<double>(rep.checkpoints);
  set_layer(res, "ckpt.commits", commits);
  set_layer(res, "ckpt.commit_mb",
            commits * static_cast<double>(snapshot_bytes(lay)) / 1e6);
  set_layer(res, "abft.verify_ms",
            rep.check_seconds / static_cast<double>(lay.nbk) * 1e3);
  (void)dist_probes(o, lay, cfg.seed, tracer, res);
}

Result run_lu_faults(const Options& o, Tracer* tracer) {
  Result res;
  const dist::DistConfig cfg = faults_config(o);
  const dist::CampaignSpec spec = dist::CampaignSpec::parse(
      o.smoke ? "steps:0-1,ranks:0,kinds:kill+flip+torn"
              : "steps:0-5,ranks:0-2,kinds:kill+flip+torn+flip2");
  const dist::CampaignSpec warm_spec =
      dist::CampaignSpec::parse("steps:0,ranks:0,kinds:kill");

  for (std::size_t r = 0; r < setup_reps(o, 5); ++r) {
    const auto t0 = Clock::now();
    const Campaign warm =
        campaign(o, cfg, warm_spec, "warmup" + std::to_string(r), tracer);
    res.setup_s.push_back(seconds_since(t0));
    purge(o);
    for (const dist::CellOutcome& c : warm.report.cells)
      if (!cell_ok(c, cfg)) throw std::runtime_error("warm-up " + cell_error(c));
  }

  std::vector<Campaign> campaigns;
  std::vector<double> calib_check_s;
  double inseparable = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; keep_going(o, t0, i); ++i) {
    Campaign c = campaign(o, cfg, spec, "camp" + std::to_string(i),
                          op_tracer(tracer, i));
    for (const dist::CellOutcome& cell : c.report.cells) {
      ++res.attempted;
      res.op_s.push_back(cell.measured_seconds);
      if (!separable(cell, cfg)) ++inseparable;
      if (!cell_ok(cell, cfg)) {
        ++res.failed;
        add_error(res, cell_error(cell));
      }
    }
    calib_check_s.push_back(c.report.calib.check_s);
    purge(o);
    campaigns.push_back(std::move(c));
  }
  res.run_s = seconds_since(t0);
  // Calibration::check_s times a final_residual() call whose result is
  // discarded, so the optimizer may delete the timed sweep: recorded for
  // the record, never used as a metric.
  res.notes["calibration_check_s_unreliable"] = median(calib_check_s);
  res.notes["flip2_cells_sharing_a_residual_slot"] = inseparable;

  if (tracer != nullptr) {
    init_layers(res);
    faults_layers(o, cfg, campaigns, tracer, res);
  }
  return res;
}

// --- sweep_mix ---------------------------------------------------------------

struct SpecLine {
  std::string line;
  bool model_only = false;
  std::size_t cells = 0;
  std::string reference;  ///< Experiment::run bytes of the same line
};

/// Two sim-heavy lines (44 cells × 3 protocols × 200 replicates) and two
/// model-only lines (88 and 96 cells), alternating.
std::vector<SpecLine> sweep_lines(std::uint64_t seed) {
  const std::string s1 = std::to_string(input_seed(seed, 3) % 1'000'000'007);
  const std::string s2 = std::to_string(input_seed(seed, 4) % 1'000'000'007);
  const std::string down = std::to_string(30 + input_seed(seed, 5) % 61);
  const auto line = [](std::string text, bool model_only) {
    SpecLine s;
    s.line = std::move(text);
    s.model_only = model_only;
    return s;
  };
  return {
      line("sweep name=sim_a proto=all evaluator=sim reps=200 "
           "axis=alpha:0.1-1.0:4 axis=mtbf:3600-14400:11 seed=" + s1,
           false),
      line("sweep name=model_a proto=all evaluator=model "
           "axis=alpha:0.0-1.0:8 axis=mtbf:3600-14400:11 downtime=" + down,
           true),
      line("sweep name=sim_b proto=all evaluator=sim reps=200 "
           "axis=mtbf:1800-7200:11 axis=downtime:30,60,120,240 seed=" + s2,
           false),
      line("sweep name=model_b proto=all evaluator=model "
           "axis=nodes:1000-100000:12:log axis=rho:0.5-0.9:8 downtime=" + down,
           true),
  };
}

/// The batch-engine bytes of one spec line (what sweepctl --local emits).
std::string batch_payload(const std::string& line, std::size_t* cells,
                          Tracer* tracer) {
  const svc::RequestSpec req = svc::parse_request_line(line);
  const core::ExperimentSpec spec = svc::to_experiment_spec(req);
  std::ostringstream os;
  {
    const auto sink = svc::make_sink(req.sink, os, /*row_flush=*/false);
    core::Experiment exp(spec);
    exp.add_sink(*sink);
    Span span(tracer, "core", "Experiment::run");
    span.arg("cells", static_cast<double>(spec.sweep.cells()));
    (void)exp.run();
  }
  if (cells != nullptr) *cells = spec.sweep.cells();
  return os.str();
}

struct Reply {
  bool ok = false;
  bool traced = false;
  std::string error;
  double rt = 0.0, queue_wait = 0.0, server = 0.0, tenants = 0.0;
  double chunks = 0.0, steals = 0.0, parks = 0.0;
};

/// The number after "key": in a one-line trailer record (keys are unique).
double trailer_number(const std::string& doc, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = doc.find(needle);
  if (at == std::string::npos)
    throw std::runtime_error("trailer lacks " + key + ": " + doc);
  return std::stod(doc.substr(at + needle.size()));
}

/// One closed-loop request: send the line, reassemble the data frames,
/// read the trailer, stop the clock at `end`, then compare with batch.
Reply request(int fd, svc::LineReader& reader, const SpecLine& spec,
              Tracer* tracer) {
  Reply r;
  r.traced = tracer != nullptr;
  Span span(tracer, "svc", spec.model_only ? "request (model)" : "request (sim)");
  std::string payload, trailer, line;
  const auto t0 = Clock::now();
  if (!svc::write_line(fd, spec.line)) {
    r.error = "write_line failed";
    return r;
  }
  while (true) {
    if (reader.read_line(line) != svc::LineReader::Status::Ok) {
      r.error = "connection lost before end";
      return r;
    }
    if (line.rfind("data ", 0) == 0) {
      std::size_t len = 0;
      try {
        len = std::stoull(line.substr(5));
      } catch (const std::exception&) {
        r.error = "malformed frame header: " + line;
        return r;
      }
      if (reader.read_exact(len, payload) != svc::LineReader::Status::Ok) {
        r.error = "truncated data frame";
        return r;
      }
    } else if (line.rfind("trailer ", 0) == 0) {
      trailer = line.substr(8);
    } else if (line.rfind("end", 0) == 0) {
      break;
    } else if (line.rfind("ok", 0) != 0) {
      r.error = "server answered: " + line;
      return r;
    }
  }
  r.rt = seconds_since(t0);
  try {
    r.queue_wait = trailer_number(trailer, "queue_wait_s");
    r.server = trailer_number(trailer, "wall_s");
    r.tenants = trailer_number(trailer, "batch_requests");
    r.chunks = trailer_number(trailer, "chunks_claimed");
    r.steals = trailer_number(trailer, "tasks_stolen");
    r.parks = trailer_number(trailer, "parks");
  } catch (const std::exception& e) {
    r.error = e.what();
    return r;
  }
  span.arg("queue_wait_s", r.queue_wait);
  span.arg("server_wall_s", r.server);
  span.arg("batch_requests", r.tenants);
  span.arg("payload_bytes", static_cast<double>(payload.size()));
  r.ok = payload == spec.reference;
  if (!r.ok) r.error = "payload of " + spec.line + " differs from batch bytes";
  return r;
}

std::unique_ptr<svc::SweepServer> start_server(const std::string& socket) {
  svc::ServerConfig cfg;
  cfg.unix_path = socket;
  auto server = std::make_unique<svc::SweepServer>(cfg);
  server->start();
  return server;
}

void sweep_layers(const std::vector<SpecLine>& lines,
                  const std::vector<Reply>& replies, Tracer* tracer,
                  Result& res) {
  std::vector<double> rt, untraced_rt, qw, server, transport, tenants, chunks,
      steals, parks, shares;
  for (const Reply& r : replies) {
    if (!r.ok) continue;
    if (!r.traced) {
      untraced_rt.push_back(r.rt);
      continue;
    }
    rt.push_back(r.rt);
    qw.push_back(r.queue_wait * 1e3);
    server.push_back(r.server * 1e3);
    transport.push_back((r.rt - r.queue_wait - r.server) * 1e3);
    tenants.push_back(r.tenants);
    chunks.push_back(r.chunks);
    steals.push_back(r.steals);
    parks.push_back(r.parks);
    shares.push_back((r.queue_wait + r.server) / r.rt);
  }
  set_layer(res, "svc.queue_wait_ms_p50", median(qw));
  set_layer(res, "svc.server_ms_p50", median(server));
  set_layer(res, "svc.transport_ms_p50", median(transport));
  set_layer(res, "svc.batch_tenants_mean",
            tenants.empty() ? 0.0
                            : sum(tenants) / static_cast<double>(tenants.size()));
  set_layer(res, "common.exec_chunks", median(chunks));
  set_layer(res, "common.exec_steals", median(steals));
  set_layer(res, "common.exec_parks", median(parks));
  set_layer(res, "trace.overhead_s", median(rt) - median(untraced_rt));
  set_layer(res, "trace.accounted_share", median(shares));

  // The same spec lines through the batch engine, without the service.
  double sim_s = 0, model_s = 0;
  std::size_t sim_cells = 0, model_cells = 0;
  for (const SpecLine& s : lines) {
    std::vector<double> secs;
    for (int r = 0; r < 3; ++r) {
      const auto t0 = Clock::now();
      const std::string bytes = batch_payload(s.line, nullptr, tracer);
      secs.push_back(seconds_since(t0));
      probe_sink() += static_cast<double>(bytes.size());
    }
    (s.model_only ? model_s : sim_s) += median(secs);
    (s.model_only ? model_cells : sim_cells) += s.cells;
  }
  set_layer(res, "core.cells_per_s",
            static_cast<double>(sim_cells + model_cells) / (sim_s + model_s));
  set_layer(res, "core.sim_cell_ms",
            sim_s / static_cast<double>(sim_cells) * 1e3);
  set_layer(res, "core.model_cell_us",
            model_s / static_cast<double>(model_cells) * 1e6);
}

Result run_sweep_mix(const Options& o, Tracer* tracer) {
  Result res;
  const std::string socket = o.store + "/" + o.prefix + "-sweep.sock";
  std::vector<SpecLine> lines;
  std::unique_ptr<svc::SweepServer> server;

  for (std::size_t r = 0; r < setup_reps(o, 3); ++r) {
    server.reset();
    const auto t0 = Clock::now();
    lines = sweep_lines(o.seed);
    for (SpecLine& s : lines)
      s.reference = batch_payload(s.line, &s.cells, tracer);
    {
      Span span(tracer, "svc", "SweepServer::start");
      server = start_server(socket);
    }
    const svc::Fd fd = svc::connect_unix(socket);
    svc::LineReader reader(fd.get());
    for (const SpecLine& s : lines) {
      const Reply warm = request(fd.get(), reader, s, tracer);
      if (!warm.ok) throw std::runtime_error("warm-up request: " + warm.error);
    }
    res.setup_s.push_back(seconds_since(t0));
  }

  const std::size_t clients = o.smoke ? 1 : 3;
  std::mutex mu;
  std::vector<Reply> replies;  // guarded by mu
  const auto t0 = Clock::now();
  const auto client = [&](std::size_t c) {
    try {
      const svc::Fd fd = svc::connect_unix(socket);
      svc::LineReader reader(fd.get());
      for (std::size_t i = 0; keep_going(o, t0, i); ++i) {
        // Traced and untraced requests alternate in blocks of one full
        // cycle of spec lines, so both halves see the same request mix.
        Reply r = request(fd.get(), reader, lines[(c + i) % lines.size()],
                          op_tracer(tracer, (c + i) / lines.size()));
        const bool ok = r.ok;
        {
          const std::lock_guard<std::mutex> lock(mu);
          replies.push_back(std::move(r));
        }
        if (!ok) break;  // the connection's framing can no longer be trusted
      }
    } catch (const std::exception& e) {
      Reply r;
      r.error = std::string("client ") + std::to_string(c) + ": " + e.what();
      const std::lock_guard<std::mutex> lock(mu);
      replies.push_back(std::move(r));
    }
  };
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
  }
  res.run_s = seconds_since(t0);
  {
    Span span(tracer, "svc", "SweepServer::stop");
    server->stop();
  }
  for (const Reply& r : replies) {
    ++res.attempted;
    res.op_s.push_back(r.rt);
    if (!r.ok) {
      ++res.failed;
      add_error(res, r.error);
    }
  }
  if (tracer != nullptr) {
    init_layers(res);
    sweep_layers(lines, replies, tracer, res);
  }
  return res;
}

}  // namespace

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = {
      "dist.step_s",          "dist.step_ms_p50",      "dist.hop_us_p50",
      "dist.other_s",         "dist.restore_ms",       "dist.respawns",
      "dist.restores",        "dist.reconstructions",  "dist.escalations",
      "ckpt.commits",         "ckpt.commit_mb",        "ckpt.write_ms",
      "ckpt.restore_ms",      "common.crc32_gbps",     "common.exec_chunks",
      "common.exec_steals",   "common.exec_parks",     "abft.update_gflops",
      "abft.panel_ms",        "abft.verify_ms",        "abft.locate_ms",
      "abft.phi",             "abft.flops",            "core.cells_per_s",
      "core.sim_cell_ms",     "core.model_cell_us",    "core.pred_ratio_p50",
      "svc.queue_wait_ms_p50", "svc.server_ms_p50",    "svc.transport_ms_p50",
      "svc.batch_tenants_mean", "trace.overhead_s",    "trace.accounted_share",
  };
  return names;
}

Result run_workload(const Options& o, Tracer* tracer) {
  std::error_code ec;
  fs::create_directories(o.store, ec);
  Result res;
  try {
    if (o.workload == "lu_steady") {
      res = run_lu_steady(o, tracer);
    } else if (o.workload == "lu_faults") {
      res = run_lu_faults(o, tracer);
    } else if (o.workload == "sweep_mix") {
      res = run_sweep_mix(o, tracer);
    } else {
      throw std::invalid_argument("unknown workload " + o.workload);
    }
  } catch (...) {
    purge(o);
    throw;
  }
  purge(o);
  return res;
}

}  // namespace perfbench
