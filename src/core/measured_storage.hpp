#pragma once
/// \file measured_storage.hpp
/// The `--storage=` bridge between figure drivers and checkpoint storage:
/// a spec string resolves to a ckpt::StorageModel, either analytically
/// (named Section V-C hypotheses with a given bandwidth) or *measured* (a
/// real ckpt::io backend is constructed, benchmarked by the calibrator, and
/// the fitted model returned).
///
///   pfs:GBps[,latency_s]      remote parallel FS (aggregate-bound, Fig 8–9)
///   buddy:GBps[,latency_s]    partner-node store (per-node link, Fig 10)
///   nvram:GBps[,latency_s]    node-local NVRAM
///   memory                    calibrated MemoryBackend (RAM speed)
///   log:DIR[?opts]            calibrated LogBackend under DIR (options as
///                             in ckpt::io::make_backend, plus committers=N;
///                             any other key is rejected)
///
/// Schemes live in a process-global registry so a new backend plugs into
/// every driver by registering itself.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/storage.hpp"

namespace abftc::common {
class ArgParser;  // defined in common/cli.hpp
}

namespace abftc::core {

/// Process-global scheme → resolver registry. The factory receives the full
/// spec (scheme included) and returns the resolved model.
class StorageResolver {
 public:
  using Factory = std::function<ckpt::StorageModel(std::string_view spec)>;

  static StorageResolver& instance();

  /// Register (or replace) a scheme.
  void add(std::string scheme, Factory factory);
  /// Resolve a spec; throws common::precondition_error for unknown schemes,
  /// naming the registered ones.
  [[nodiscard]] ckpt::StorageModel resolve(std::string_view spec) const;
  [[nodiscard]] std::vector<std::string> schemes() const;

 private:
  StorageResolver();
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Shared driver idiom for the `--storage=SPEC` flag: nullopt when absent,
/// else the resolved (possibly calibrated) model. Reads the flag, so call
/// before ArgParser::unknown()/warn_unknown().
[[nodiscard]] std::optional<ckpt::StorageModel> storage_model_from_args(
    const common::ArgParser& args);

}  // namespace abftc::core
