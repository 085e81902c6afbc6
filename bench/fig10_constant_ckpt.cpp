/// \file fig10_constant_ckpt.cpp
/// Reproduces Figure 10: the Figure-9 scenario under the optimistic storage
/// hypothesis — buddy/in-memory checkpointing whose cost does NOT grow with
/// the node count (C = R = 60 s at every scale). The paper's headline
/// claims: even at 1M nodes the periodic protocols stay below ~15% waste,
/// the composite's waste is nearly constant in the node count, and matching
/// the composite with checkpointing alone requires cutting C = R to ~6 s
/// (printed here as the extra `C=R=6s` series).
///
/// Flags: --json[=PATH]  (the C = R = 6 s counterfactual series lands in a
///        companion artifact with a `_c6` suffix before the extension)
///        --storage=SPEC  checkpoint storage to derive C/R from instead of
///                        the calibrated 60 s constant: analytic
///                        (pfs:GBps / buddy:GBps / nvram:GBps) or *measured*
///                        (memory, log:DIR — the backend is
///                        benchmarked and a StorageModel fitted, so the
///                        figure runs on measured checkpoint costs)
///        --bytes-per-node-gb=G  per-node checkpoint image size for
///                        --storage (default 2 GiB)

#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/measured_storage.hpp"
#include "core/scaling.hpp"

using namespace abftc;

// The published Figs 8-10 run ABFT at every scale (the text's safeguard
// would collapse the composite onto BiPeriodicCkpt below the crossover --
// see EXPERIMENTS.md), so these benches disable it.
static constexpr core::ModelOptions kNoSafeguard{.safeguard = false};

int main(int argc, char** argv) {
  const common::ArgParser args(argc, argv);
  std::unique_ptr<core::JsonSink> json_sink, json_sink_c6;
  if (args.has("json")) {
    std::string path = args.get_string("json", "");
    if (path.empty()) path = "BENCH_fig10.json";
    std::string c6_path = path;
    const auto ext = c6_path.rfind(".json");
    if (ext != std::string::npos) c6_path.insert(ext, "_c6");
    else c6_path += "_c6";
    json_sink = std::make_unique<core::JsonSink>(path);
    json_sink_c6 = std::make_unique<core::JsonSink>(c6_path);
  }
  const unsigned threads = core::threads_from_args(args);
  const auto storage = core::storage_model_from_args(args);
  const double bytes_per_node =
      args.get_double("bytes-per-node-gb", 2.0) * 1024.0 * 1024.0 * 1024.0;
  args.warn_unknown(std::cerr);

  const auto cfg = core::figure10_config();
  std::cout << "# Figure 10 — weak scaling, variable alpha, "
            << (storage ? "C/R from the --storage model\n\n"
                        : "constant checkpoint cost (C = R = 60 s)\n\n");

  if (storage) {
    // C/R derived from the (possibly measured) storage model at every node
    // count instead of the calibrated 60 s constant. A per-node-bandwidth
    // model (buddy/nvram/any calibrated local backend) keeps C constant in
    // the node count — the Fig 10 regime — while an aggregate pfs model
    // reproduces the non-scalable Fig 8–9 growth on the same axis.
    constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;  // spec units (GiB/s)
    std::cout << "storage model '" << storage->name << "': "
              << (storage->node_bandwidth > 0.0
                      ? storage->node_bandwidth / kGiB
                      : storage->aggregate_bandwidth / kGiB)
              << " GiB/s "
              << (storage->node_bandwidth > 0.0 ? "per node" : "aggregate")
              << ", latency " << storage->latency << " s, read speedup "
              << storage->read_speedup << "\n  C(base) = "
              << storage->write_time(
                     bytes_per_node * cfg.base_nodes,
                     static_cast<std::size_t>(cfg.base_nodes))
              << " s, R(base) = "
              << storage->read_time(
                     bytes_per_node * cfg.base_nodes,
                     static_cast<std::size_t>(cfg.base_nodes))
              << " s for " << bytes_per_node / (1024.0 * 1024.0 * 1024.0)
              << " GiB/node\n\n";
  }
  auto fast = cfg;
  fast.base_ckpt = 6.0;  // the paper's "C = R = 6 s" NVRAM remark

  core::ExperimentSpec spec;
  spec.name = "fig10";
  spec.sweep.axes = {core::Axis::custom(
      "nodes", core::default_node_sweep(),
      [cfg, storage, bytes_per_node](core::ScenarioParams& s, double nodes) {
        s = core::scenario_at(cfg, nodes);
        if (storage)
          s.ckpt = core::ckpt_from_storage(
              *storage, bytes_per_node, static_cast<std::size_t>(nodes),
              cfg.rho);
      })};
  spec.series = core::cross_series(core::all_protocols(), {"model"},
                                   kNoSafeguard);
  spec.threads = threads;

  core::Experiment experiment(std::move(spec));
  if (json_sink) experiment.add_sink(*json_sink);
  const auto result = experiment.run();

  // The NVRAM counterfactual re-derives every parameter from the C = R = 6 s
  // config, so it runs as its own one-series experiment on the same axis.
  core::ExperimentSpec fast_spec;
  fast_spec.name = "fig10_c6";
  fast_spec.sweep.axes = {core::Axis::custom(
      "nodes", core::default_node_sweep(),
      [fast](core::ScenarioParams& s, double nodes) {
        s = core::scenario_at(fast, nodes);
      })};
  fast_spec.series = {{"model_pure_c6", core::Protocol::PurePeriodicCkpt,
                       "model", kNoSafeguard, {}}};
  fast_spec.threads = threads;
  core::Experiment experiment_c6(std::move(fast_spec));
  if (json_sink_c6) experiment_c6.add_sink(*json_sink_c6);
  const auto result_c6 = experiment_c6.run();

  std::vector<std::size_t> model_idx;
  for (const auto p : core::all_protocols())
    model_idx.push_back(result.series_index(
        "model_" + std::string(core::protocol_key(p))));

  common::Table table({"nodes", "alpha", "waste Pure", "waste Bi",
                       "waste ABFT&", "waste Pure(C=6s)", "flt Pure", "flt Bi",
                       "flt ABFT&"});
  for (const auto& cell : result.cells) {
    const auto s = result.sweep.scenario(cell.index);
    std::vector<std::string> row{common::fmt(cell.axis_values[0], 6),
                                 common::fmt_fixed(s.epoch.alpha, 3)};
    std::vector<std::string> faults;
    for (const std::size_t si : model_idx) {
      const auto& m = cell.series[si];
      row.push_back(m.diverged ? "1.000(div)" : common::fmt_fixed(m.waste, 3));
      faults.push_back(m.diverged ? "inf" : common::fmt_fixed(m.failures, 1));
    }
    const auto& m6 = result_c6.cells[cell.index].series[0];
    row.push_back(m6.diverged ? "1.000(div)" : common::fmt_fixed(m6.waste, 3));
    for (auto& f : faults) row.push_back(std::move(f));
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::cout
      << "\nShape checks (paper, Section V-C):\n"
         "  * both periodic protocols stay below ~15% waste at 1M nodes;\n"
         "  * the composite's waste is almost flat in the node count (the "
         "ABFT overhead is scale-independent);\n"
         "  * the composite still wins at 1M nodes; only ~6 s checkpoints "
         "would bring pure checkpointing level with it.\n";
  return 0;
}
