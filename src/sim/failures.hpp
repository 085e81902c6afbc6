#pragma once
/// \file failures.hpp
/// Failure arrival processes for the segment-walk simulator (Section V-A:
/// "failures are generated following an Exponential distribution law
/// parameterized to fix the MTBF to a given value").
///
/// Failures form a renewal process in wall-clock time: the interval between
/// consecutive platform failures is drawn i.i.d. from an InterArrival
/// distribution. For the Exponential case this is exactly a Poisson process
/// and aggregating N nodes is equivalent to one stream with mean µ_ind/N;
/// for Weibull/Log-normal (the ablation of E11) a per-node simulation is
/// provided.

#include <memory>
#include <queue>
#include <vector>

#include "common/rng.hpp"

namespace abftc::sim {

/// Distribution of the time between consecutive failures.
class InterArrival {
 public:
  virtual ~InterArrival() = default;
  [[nodiscard]] virtual double sample(common::Rng& rng) const = 0;
  [[nodiscard]] virtual double mean() const noexcept = 0;
  [[nodiscard]] virtual std::unique_ptr<InterArrival> clone() const = 0;
};

/// Exponential(mean): the memoryless distribution the paper uses.
class ExponentialArrivals final : public InterArrival {
 public:
  explicit ExponentialArrivals(double mean);
  [[nodiscard]] double sample(common::Rng& rng) const override;
  [[nodiscard]] double mean() const noexcept override { return mean_; }
  [[nodiscard]] std::unique_ptr<InterArrival> clone() const override;

 private:
  double mean_;
};

/// Weibull(shape k, scale λ); k < 1 models infant-mortality-heavy clusters.
class WeibullArrivals final : public InterArrival {
 public:
  WeibullArrivals(double shape, double scale);
  /// Build from shape and the desired mean: λ = mean / Γ(1 + 1/k).
  [[nodiscard]] static WeibullArrivals from_mean(double shape, double mean);
  [[nodiscard]] double sample(common::Rng& rng) const override;
  [[nodiscard]] double mean() const noexcept override;
  [[nodiscard]] std::unique_ptr<InterArrival> clone() const override;
  [[nodiscard]] double shape() const noexcept { return shape_; }
  [[nodiscard]] double scale() const noexcept { return scale_; }

 private:
  double shape_, scale_;
};

/// Log-normal parameterized by its mean and coefficient of variation.
class LogNormalArrivals final : public InterArrival {
 public:
  /// mean > 0, cv = stddev/mean > 0.
  LogNormalArrivals(double mean, double cv);
  [[nodiscard]] double sample(common::Rng& rng) const override;
  [[nodiscard]] double mean() const noexcept override { return mean_; }
  [[nodiscard]] std::unique_ptr<InterArrival> clone() const override;

 private:
  double mean_, mu_log_, sigma_log_;
};

/// A monotone stream of platform failure instants.
class FailureClock {
 public:
  virtual ~FailureClock() = default;
  /// First failure instant strictly greater than t. Repeated calls with
  /// non-decreasing t are O(1) amortized.
  [[nodiscard]] virtual double next_after(double t) = 0;
};

/// Single aggregated renewal stream (exact for Exponential platforms).
class AggregateFailureClock final : public FailureClock {
 public:
  AggregateFailureClock(std::unique_ptr<InterArrival> dist, common::Rng rng);
  [[nodiscard]] double next_after(double t) override;

 private:
  std::unique_ptr<InterArrival> dist_;
  common::Rng rng_;
  double next_;
};

/// N independent per-node renewal processes; also reports which node fails.
class NodeFailureClock final : public FailureClock {
 public:
  struct Failure {
    double time;
    std::size_t node;
  };

  NodeFailureClock(std::unique_ptr<InterArrival> per_node_dist,
                   std::size_t nodes, common::Rng rng);
  [[nodiscard]] double next_after(double t) override;
  /// Like next_after but identifies the failing node.
  [[nodiscard]] Failure next_failure_after(double t);

 private:
  void refill_past(double t);
  struct Entry {
    double time;
    std::size_t node;
    bool operator>(const Entry& o) const noexcept { return time > o.time; }
  };
  std::unique_ptr<InterArrival> dist_;
  common::Rng rng_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
};

}  // namespace abftc::sim
