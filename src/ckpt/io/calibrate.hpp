#pragma once
/// \file calibrate.hpp
/// MeasuredStorage: benchmark a StorageBackend and fit a ckpt::StorageModel
/// from the timings, so the Fig 8–10 protocols can run on *measured* C/R
/// instead of assumed bandwidths (Section V-C anchored in hardware terms).
///
/// The fit is the model the analytic layer already speaks:
///   write_time(bytes) = latency + bytes / bandwidth
/// estimated by least squares over timed commits at a few image sizes
/// (best-of-reps per size, so page-cache warmup and scheduler noise bias
/// every point the same way). Reads are timed the same way and expressed as
/// the model's read_speedup. The fitted bandwidth maps to
/// StorageModel::node_bandwidth: a locally measured device is per-node
/// storage (the scalable Fig 10 regime); scaling it as a shared aggregate
/// pipe is the caller's modelling decision.

#include <cstddef>
#include <vector>

#include "ckpt/io/writer.hpp"
#include "ckpt/storage.hpp"

namespace abftc::ckpt::io {

struct CalibrationOptions {
  /// Image sizes to time (bytes). Spread over ~an order of magnitude so the
  /// latency/bandwidth split is identifiable.
  std::vector<std::size_t> sizes = {1u << 20, 4u << 20, 16u << 20};
  /// Timed repetitions per size; the best (minimum) time is kept.
  int reps = 3;
  /// Writer pipeline options used for the timed commits.
  WriterOptions writer{};
};

struct CalibrationPoint {
  std::size_t bytes = 0;
  double write_seconds = 0.0;  ///< best-of-reps commit wall time
  double read_seconds = 0.0;   ///< best-of-reps restore wall time
};

struct Calibration {
  ckpt::StorageModel model;  ///< fitted: node_bandwidth, latency, read_speedup
  std::vector<CalibrationPoint> points;
  double write_bandwidth = 0.0;  ///< fitted bytes/s
  double read_bandwidth = 0.0;   ///< measured at the largest size
};

/// Time full-checkpoint commits and restores on `backend` and fit the
/// model. The backend is left as it was found (calibration snapshots are
/// dropped). Throws if the backend cannot hold the largest size.
[[nodiscard]] Calibration calibrate_backend(StorageBackend& backend,
                                            const CalibrationOptions& opts = {});

}  // namespace abftc::ckpt::io
