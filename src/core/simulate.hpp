#pragma once
/// \file simulate.hpp
/// Segment-walk simulation of the three protocols (Section V-A).
///
/// A ProtocolPlan freezes every decision the protocol makes up front
/// (periods, periodic-vs-segment per phase, ABFT engagement), derived from
/// the same logic the analytical model uses — so simulator and model always
/// describe the same protocol instance and Figure 7's
/// WASTE_simul − WASTE_model comparison is meaningful.

#include <cstdint>

#include "core/protocol_models.hpp"
#include "sim/failures.hpp"
#include "sim/segments.hpp"

namespace abftc::core {

/// The concrete execution plan of one protocol on one scenario.
struct ProtocolPlan {
  Protocol protocol{};
  bool valid = true;  ///< false: the protocol has no feasible period (µ too small)

  bool general_periodic = false;  ///< GENERAL phase periodic vs single segment
  double period_general = 0.0;
  double general_tail = 0.0;  ///< checkpoint closing the GENERAL phase

  bool abft_active = false;       ///< LIBRARY phase under ABFT?
  bool library_periodic = false;  ///< (when !abft_active)
  double period_library = 0.0;
  double library_tail = 0.0;  ///< checkpoint closing the LIBRARY phase

  /// BiPeriodicCkpt short-phase mode: one periodic stream across epochs
  /// with the averaged checkpoint cost (see evaluate_bi).
  bool bi_stream = false;
  double stream_ckpt = 0.0;
};

/// Derive the plan for a protocol on a scenario (mirrors the model's
/// decision logic; asserted equivalent by tests).
[[nodiscard]] ProtocolPlan make_plan(Protocol p, const ScenarioParams& s,
                                     const ModelOptions& opt = {});

/// Result of one simulated execution.
struct SimResult {
  double work = 0.0;     ///< useful seconds the application required
  double t_final = 0.0;  ///< simulated makespan
  std::size_t failures = 0;
  sim::TimeBreakdown breakdown;

  [[nodiscard]] double waste() const noexcept {
    return t_final > 0.0 ? 1.0 - work / t_final : 0.0;
  }
};

/// Simulate one execution of the scenario under the plan, drawing failures
/// from `clock`. Throws abftc::common::invariant_error if the plan is
/// invalid or the failure budget is exhausted (diverged regime).
[[nodiscard]] SimResult simulate_run(const ScenarioParams& s,
                                     const ProtocolPlan& plan,
                                     sim::FailureClock& clock);

/// Convenience: simulate with an Exponential(µ) aggregate failure clock
/// seeded deterministically.
[[nodiscard]] SimResult simulate_run(const ScenarioParams& s,
                                     const ProtocolPlan& plan,
                                     std::uint64_t seed);

}  // namespace abftc::core
