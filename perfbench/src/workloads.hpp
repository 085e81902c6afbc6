#pragma once
/// \file workloads.hpp
/// The benchmark's three closed-loop workloads (see perfbench/README.md for
/// why each exists and what it stresses):
///
///   lu_steady — clean blind dist protected LU, back to back (one op = one
///               Launcher::run at n=1536);
///   lu_faults — blind dist::run_campaign over a 72-cell fault grid (one op
///               = one cell);
///   sweep_mix — three connections to an in-process svc::SweepServer,
///               alternating sim-heavy and model-only spec lines (one op =
///               one request round trip).

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for checkpoint stores and the service socket. Relative to
  /// the working directory is best: Unix socket paths are length-capped.
  std::string store = ".bench_build/store";
  /// Unique per process; every file this run creates under `store` starts
  /// with it, so cleanup never touches another run's files.
  std::string prefix = "pb";
  /// Tiny shapes and a single op (tests): n=192 steady solve, a 6-cell
  /// campaign, one request.
  bool smoke = false;
};

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  std::vector<double> op_s;         ///< wall time of every attempted op
  std::vector<double> setup_s;      ///< one entry per set-up repetition
  double run_s = 0.0;               ///< wall time of the measured loop
  /// Per-layer metrics (traced pass only): every name in layer_names().
  std::map<std::string, double> layers;
  /// Values reported for the record, not as metrics.
  std::map<std::string, double> notes;
};

/// Every per-layer metric a traced run reports; a layer a workload does not
/// exercise reads 0.
[[nodiscard]] const std::vector<std::string>& layer_names();

/// Run one workload; throws on a set-up failure (the caller reports it).
[[nodiscard]] Result run_workload(const Options& opts, Tracer* tracer);

}  // namespace perfbench
