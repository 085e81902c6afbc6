#include "ckpt/io/calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "ckpt/io/writer.hpp"
#include "common/error.hpp"

namespace abftc::ckpt::io {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

Calibration calibrate_backend(StorageBackend& backend,
                              const CalibrationOptions& opts) {
  ABFTC_REQUIRE(!opts.sizes.empty(), "calibration needs at least one size");
  ABFTC_REQUIRE(opts.reps > 0, "calibration needs at least one rep");

  Calibration cal;
  const std::size_t largest =
      *std::max_element(opts.sizes.begin(), opts.sizes.end());
  std::vector<std::byte> scratch(largest);
  for (std::size_t i = 0; i < scratch.size(); ++i)
    scratch[i] = static_cast<std::byte>(i * 1315423911u >> 17);

  CkptWriter writer(backend, opts.writer);
  // Start past any existing history: the writer enforces non-decreasing
  // timestamps across the backend's whole lifetime.
  double when = 1.0;
  for (const SnapshotMeta& m : backend.list())
    when = std::max(when, m.when + 1.0);
  for (const std::size_t bytes : opts.sizes) {
    ABFTC_REQUIRE(bytes > 0, "calibration sizes must be positive");
    CalibrationPoint pt;
    pt.bytes = bytes;
    pt.write_seconds = std::numeric_limits<double>::infinity();
    pt.read_seconds = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < opts.reps; ++rep) {
      MemoryImage image;
      image.add_region("calibration", std::span(scratch.data(), bytes),
                       RegionClass::Remainder);
      auto t0 = Clock::now();
      const CkptId id = writer.take_full(image, when);
      pt.write_seconds = std::min(pt.write_seconds, seconds_since(t0));
      when += 1.0;

      t0 = Clock::now();
      (void)writer.restore_latest(image);
      pt.read_seconds = std::min(pt.read_seconds, seconds_since(t0));
      backend.drop(id);  // leave the backend as we found it
    }
    cal.points.push_back(pt);
  }

  // Least squares of t = latency + bytes / bandwidth over the write points.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const auto n = static_cast<double>(cal.points.size());
  for (const CalibrationPoint& p : cal.points) {
    const auto x = static_cast<double>(p.bytes);
    sx += x;
    sy += p.write_seconds;
    sxx += x * x;
    sxy += x * p.write_seconds;
  }
  const double var = sxx - sx * sx / n;
  double slope = var > 0.0 ? (sxy - sx * sy / n) / var : 0.0;
  double intercept = (sy - slope * sx) / n;
  if (slope <= 0.0) {
    // Sub-noise regime (or a single point): fall back to the aggregate
    // throughput of the largest measurement and attribute no latency.
    const CalibrationPoint& big =
        *std::max_element(cal.points.begin(), cal.points.end(),
                          [](const auto& a, const auto& b) {
                            return a.bytes < b.bytes;
                          });
    slope = big.write_seconds / static_cast<double>(big.bytes);
    intercept = 0.0;
  }
  cal.write_bandwidth = 1.0 / slope;

  const CalibrationPoint& big =
      *std::max_element(cal.points.begin(), cal.points.end(),
                        [](const auto& a, const auto& b) {
                          return a.bytes < b.bytes;
                        });
  cal.read_bandwidth =
      static_cast<double>(big.bytes) / std::max(big.read_seconds, 1e-9);

  cal.model.name = "measured:" + std::string(backend.name());
  cal.model.node_bandwidth = cal.write_bandwidth;
  cal.model.aggregate_bandwidth = 0.0;
  cal.model.latency = std::max(intercept, 0.0);
  cal.model.read_speedup =
      std::max(big.write_seconds / std::max(big.read_seconds, 1e-9), 1e-3);
  cal.model.validate();
  return cal;
}

}  // namespace abftc::ckpt::io
