#include "core/measured_storage.hpp"

#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>

#include "ckpt/io/backend.hpp"
#include "ckpt/io/calibrate.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"

namespace abftc::core {

namespace {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

/// "scheme:GBps[,latency_s]" → (bandwidth bytes/s, latency).
struct AnalyticArgs {
  double bandwidth = 0.0;
  double latency = 0.0;
  bool has_latency = false;
};

AnalyticArgs parse_analytic(std::string_view spec) {
  const auto colon = spec.find(':');
  ABFTC_REQUIRE(colon != std::string_view::npos && colon + 1 < spec.size(),
                "analytic storage spec needs a bandwidth: scheme:GBps");
  const std::string rest(spec.substr(colon + 1));
  AnalyticArgs out;
  char* end = nullptr;
  out.bandwidth = std::strtod(rest.c_str(), &end) * kGiB;
  ABFTC_REQUIRE(end != rest.c_str() && out.bandwidth > 0.0,
                "malformed storage bandwidth in spec: " + std::string(spec));
  if (*end == ',') {
    const char* lat = end + 1;
    out.latency = std::strtod(lat, &end);
    ABFTC_REQUIRE(end != lat && out.latency >= 0.0,
                  "malformed storage latency in spec: " + std::string(spec));
    out.has_latency = true;
  }
  ABFTC_REQUIRE(*end == '\0',
                "trailing junk in storage spec: " + std::string(spec));
  return out;
}

ckpt::StorageModel measured(std::string_view spec) {
  auto backend = ckpt::io::make_backend(spec);
  return ckpt::io::calibrate_backend(*backend).model;
}

}  // namespace

struct StorageResolver::Impl {
  mutable std::mutex m;
  std::map<std::string, Factory> factories;
};

StorageResolver::StorageResolver() : impl_(std::make_shared<Impl>()) {
  add("pfs", [](std::string_view spec) {
    const AnalyticArgs a = parse_analytic(spec);
    return ckpt::remote_pfs(a.bandwidth,
                            a.has_latency ? a.latency : 1.0);
  });
  add("buddy", [](std::string_view spec) {
    const AnalyticArgs a = parse_analytic(spec);
    return ckpt::buddy_store(a.bandwidth,
                             a.has_latency ? a.latency : 0.1);
  });
  add("nvram", [](std::string_view spec) {
    const AnalyticArgs a = parse_analytic(spec);
    return ckpt::local_nvram(a.bandwidth,
                             a.has_latency ? a.latency : 0.01);
  });
  add("memory", measured);
  add("log", measured);
}

StorageResolver& StorageResolver::instance() {
  static StorageResolver resolver;
  return resolver;
}

void StorageResolver::add(std::string scheme, Factory factory) {
  ABFTC_REQUIRE(!scheme.empty(), "storage scheme must not be empty");
  ABFTC_REQUIRE(factory != nullptr, "storage factory must not be null");
  std::lock_guard lock(impl_->m);
  impl_->factories[std::move(scheme)] = std::move(factory);
}

ckpt::StorageModel StorageResolver::resolve(std::string_view spec) const {
  const auto colon = spec.find(':');
  const std::string scheme(colon == std::string_view::npos
                               ? spec
                               : spec.substr(0, colon));
  Factory factory;
  {
    std::lock_guard lock(impl_->m);
    const auto it = impl_->factories.find(scheme);
    if (it != impl_->factories.end()) factory = it->second;
  }
  if (!factory) {
    std::ostringstream os;
    os << "unknown storage scheme '" << scheme << "' (registered:";
    for (const std::string& s : schemes()) os << ' ' << s;
    os << ')';
    ABFTC_REQUIRE(false, os.str());
  }
  ckpt::StorageModel model = factory(spec);
  model.validate();
  return model;
}

std::vector<std::string> StorageResolver::schemes() const {
  std::lock_guard lock(impl_->m);
  std::vector<std::string> out;
  out.reserve(impl_->factories.size());
  for (const auto& [scheme, _] : impl_->factories) out.push_back(scheme);
  return out;
}

std::optional<ckpt::StorageModel> storage_model_from_args(
    const common::ArgParser& args) {
  if (!args.has("storage")) return std::nullopt;
  const std::string spec = args.get_string("storage", "");
  ABFTC_REQUIRE(!spec.empty(), "--storage needs a spec (e.g. log:/tmp/ckpt)");
  return StorageResolver::instance().resolve(spec);
}

}  // namespace abftc::core
