// Tests for the protocol simulators: plan derivation, exactness in the
// fault-free limit, agreement with the analytical model (the Figure 7
// validation as a parameterized property), and reproducibility.

#include <gtest/gtest.h>

#include "common/error.hpp"

#include <cmath>

#include "common/time_units.hpp"
#include "core/monte_carlo.hpp"
#include "core/simulate.hpp"

namespace {

using namespace abftc;
using namespace abftc::core;
using common::hours;
using common::minutes;

TEST(Plan, PureUsesOnePeriodNoTail) {
  const auto s = figure7_scenario(hours(2), 0.5);
  const auto plan = make_plan(Protocol::PurePeriodicCkpt, s);
  EXPECT_TRUE(plan.valid);
  EXPECT_TRUE(plan.general_periodic);
  EXPECT_DOUBLE_EQ(plan.general_tail, 0.0);
  EXPECT_FALSE(plan.abft_active);
}

TEST(Plan, CompositeDisablesPeriodicInsideLibrary) {
  const auto s = figure7_scenario(hours(2), 0.8);
  const auto plan = make_plan(Protocol::AbftPeriodicCkpt, s);
  EXPECT_TRUE(plan.abft_active);
  EXPECT_FALSE(plan.library_periodic);
  EXPECT_DOUBLE_EQ(plan.library_tail, s.ckpt.library_cost());
}

TEST(Plan, CompositeEntryCheckpointIsRemainderWhenShortGeneral) {
  // T_G = 0.001 × 1 week ≈ 10 min, well below P_opt ≈ 47 min.
  auto s = figure7_scenario(hours(2), 0.999);
  const auto plan = make_plan(Protocol::AbftPeriodicCkpt, s);
  EXPECT_FALSE(plan.general_periodic);
  EXPECT_DOUBLE_EQ(plan.general_tail, s.ckpt.remainder_cost());
}

TEST(Plan, SafeguardFallbackMatchesBiPlan) {
  auto s = figure7_scenario(hours(2), 0.8);
  s.epoch.duration = minutes(10);
  s.epochs = 1008;
  const auto comp = make_plan(Protocol::AbftPeriodicCkpt, s, {});
  const auto bi = make_plan(Protocol::BiPeriodicCkpt, s, {});
  EXPECT_FALSE(comp.abft_active);
  EXPECT_EQ(comp.bi_stream, bi.bi_stream);
  EXPECT_DOUBLE_EQ(comp.stream_ckpt, bi.stream_ckpt);
  EXPECT_EQ(comp.protocol, Protocol::AbftPeriodicCkpt);
}

TEST(Plan, MirrorsModelDecisions) {
  for (const double alpha : {0.0, 0.3, 0.8, 1.0})
    for (const double mtbf_min : {60.0, 120.0, 240.0}) {
      const auto s = figure7_scenario(minutes(mtbf_min), alpha);
      for (const auto p :
           {Protocol::PurePeriodicCkpt, Protocol::BiPeriodicCkpt,
            Protocol::AbftPeriodicCkpt}) {
        const auto m = evaluate(p, s);
        const auto plan = make_plan(p, s);
        EXPECT_EQ(plan.abft_active, m.abft_active);
        if (plan.general_periodic) {
          EXPECT_DOUBLE_EQ(plan.period_general, m.period_general);
        }
      }
    }
}

TEST(Simulate, FaultFreeRunMatchesModelExactly) {
  // With an (effectively) infinite MTBF the simulator must reproduce the
  // model's fault-free time T_ff to rounding.
  for (const double alpha : {0.0, 0.4, 0.8, 1.0}) {
    auto s = figure7_scenario(hours(2), alpha);
    const auto plans_for = [&](Protocol p) { return make_plan(p, s); };
    auto huge = s;
    huge.platform.mtbf = 1e18;
    for (const auto p : {Protocol::PurePeriodicCkpt, Protocol::BiPeriodicCkpt,
                         Protocol::AbftPeriodicCkpt}) {
      const auto m = evaluate(p, s);  // periods chosen at the real MTBF
      auto plan = plans_for(p);
      sim::AggregateFailureClock clock(
          std::make_unique<sim::ExponentialArrivals>(huge.platform.mtbf),
          common::Rng(1));
      const auto r = simulate_run(s, plan, clock);
      // The model assumes an integer number of periods; the simulator packs
      // a possibly-short final chunk, so allow one period of slack.
      EXPECT_NEAR(r.t_final, m.t_ff,
                  std::max(1.0, m.period_general + m.period_library))
          << to_string(p) << " alpha=" << alpha;
      EXPECT_EQ(r.failures, 0u);
      EXPECT_DOUBLE_EQ(r.breakdown.lost, 0.0);
    }
  }
}

TEST(Simulate, SameSeedSameResult) {
  const auto s = figure7_scenario(minutes(90), 0.7);
  const auto plan = make_plan(Protocol::AbftPeriodicCkpt, s);
  const auto a = simulate_run(s, plan, 1234);
  const auto b = simulate_run(s, plan, 1234);
  EXPECT_DOUBLE_EQ(a.t_final, b.t_final);
  EXPECT_EQ(a.failures, b.failures);
  const auto c = simulate_run(s, plan, 99);
  EXPECT_NE(a.t_final, c.t_final);
}

TEST(Simulate, BreakdownIdentityUnderFailures) {
  const auto s = figure7_scenario(minutes(60), 0.8);
  for (const auto p : {Protocol::PurePeriodicCkpt, Protocol::BiPeriodicCkpt,
                       Protocol::AbftPeriodicCkpt}) {
    const auto plan = make_plan(p, s);
    const auto r = simulate_run(s, plan, 7);
    EXPECT_NEAR(r.breakdown.total(), r.t_final, 1e-6 * r.t_final)
        << to_string(p);
    EXPECT_NEAR(r.breakdown.useful, r.work, 1e-6) << to_string(p);
    EXPECT_GT(r.failures, 0u);
  }
}

TEST(Simulate, AbftLosesNoWorkToRollback) {
  // At alpha = 1 the composite never rolls back: lost time stays 0 except
  // possibly partial exit-checkpoint I/O.
  const auto s = figure7_scenario(minutes(60), 1.0);
  const auto plan = make_plan(Protocol::AbftPeriodicCkpt, s);
  const auto r = simulate_run(s, plan, 21);
  EXPECT_LE(r.breakdown.lost, s.ckpt.library_cost());
  EXPECT_GT(r.failures, 0u);
}

TEST(Simulate, InvalidPlanRejected) {
  auto s = figure7_scenario(minutes(15), 0.0);
  s.ckpt.full_cost = minutes(20);
  s.ckpt.full_recovery = minutes(20);
  const auto plan = make_plan(Protocol::PurePeriodicCkpt, s);
  EXPECT_FALSE(plan.valid);
  EXPECT_THROW((void)simulate_run(s, plan, 1), common::precondition_error);
}

// --- Figure 7 validation as a property ------------------------------------

struct GridPoint {
  double mtbf_min;
  double alpha;
  Protocol protocol;
};

class SimVsModel : public ::testing::TestWithParam<GridPoint> {};

TEST_P(SimVsModel, AgreesWithinPaperTolerance) {
  const auto [mtbf_min, alpha, protocol] = GetParam();
  const auto s = figure7_scenario(minutes(mtbf_min), alpha);
  const auto model = evaluate(protocol, s);
  MonteCarloOptions mc;
  mc.replicates = 300;
  const auto sim = monte_carlo(protocol, s, {}, mc);
  const double diff = std::fabs(sim.waste.mean() - model.waste());
  // Paper, Section V-A: the gap peaks at ~0.12 at the smallest MTBF and
  // "quickly decreases to below 5%".
  const double tolerance = mtbf_min <= 60.0 ? 0.12 : 0.05;
  EXPECT_LT(diff, tolerance)
      << to_string(protocol) << " mtbf=" << mtbf_min << " alpha=" << alpha
      << " model=" << model.waste() << " sim=" << sim.waste.mean();
}

INSTANTIATE_TEST_SUITE_P(
    Fig7Grid, SimVsModel,
    ::testing::Values(
        GridPoint{60, 0.0, Protocol::PurePeriodicCkpt},
        GridPoint{60, 0.5, Protocol::PurePeriodicCkpt},
        GridPoint{120, 0.5, Protocol::PurePeriodicCkpt},
        GridPoint{240, 0.8, Protocol::PurePeriodicCkpt},
        GridPoint{60, 0.5, Protocol::BiPeriodicCkpt},
        GridPoint{120, 0.8, Protocol::BiPeriodicCkpt},
        GridPoint{240, 1.0, Protocol::BiPeriodicCkpt},
        GridPoint{60, 0.5, Protocol::AbftPeriodicCkpt},
        GridPoint{60, 0.9, Protocol::AbftPeriodicCkpt},
        GridPoint{120, 0.8, Protocol::AbftPeriodicCkpt},
        GridPoint{240, 0.2, Protocol::AbftPeriodicCkpt},
        GridPoint{240, 1.0, Protocol::AbftPeriodicCkpt}));

}  // namespace
