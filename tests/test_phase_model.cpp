// Tests for the Section IV phase primitives: equations (1)-(11) are checked
// against hand-computed values, limits and the exact numeric optimizer.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/time_units.hpp"
#include "core/phase_model.hpp"

namespace {

using namespace abftc;
using namespace abftc::core;
using common::hours;
using common::minutes;

TEST(PeriodicPhase, MatchesEquationTen) {
  // T_ff = W/(P−C)·P, t_lost = D+R+P/2, T_final = T_ff/(1−t_lost/µ).
  const double work = 100000, period = 2000, c = 300, r = 400, d = 60,
               mu = 20000;
  const auto out = periodic_phase(work, period, c, r, d, mu);
  const double t_ff = work / (period - c) * period;
  const double t_lost = d + r + period / 2;
  EXPECT_DOUBLE_EQ(out.t_ff, t_ff);
  EXPECT_DOUBLE_EQ(out.t_lost, t_lost);
  EXPECT_DOUBLE_EQ(out.t_final, t_ff / (1.0 - t_lost / mu));
  EXPECT_NEAR(out.waste(), 1.0 - work / out.t_final, 1e-15);
  EXPECT_FALSE(out.diverged);
}

TEST(PeriodicPhase, NoFailureLimit) {
  // µ → ∞: only the checkpoint overhead remains: waste → C/P.
  const auto out = periodic_phase(1e6, 1000, 100, 100, 10, 1e18);
  EXPECT_NEAR(out.waste(), 100.0 / 1000.0, 1e-9);
}

TEST(PeriodicPhase, DivergesWhenLossExceedsMtbf) {
  const auto out = periodic_phase(1000, 500, 100, 400, 100, 700);
  EXPECT_TRUE(out.diverged);
  EXPECT_EQ(out.waste(), 1.0);
}

TEST(PeriodicPhase, RejectsPeriodBelowCheckpoint) {
  EXPECT_THROW((void)periodic_phase(100, 50, 60, 0, 0, 1000),
               common::precondition_error);
}

TEST(SingleSegmentPhase, MatchesEquationNine) {
  const double work = 500, ckpt = 120, r = 600, d = 60, mu = 7200;
  const auto out = single_segment_phase(work, ckpt, r, d, mu);
  const double t_ff = work + ckpt;
  const double t_lost = d + r + t_ff / 2;
  EXPECT_DOUBLE_EQ(out.t_ff, t_ff);
  EXPECT_DOUBLE_EQ(out.t_final, t_ff / (1.0 - t_lost / mu));
}

TEST(SingleSegmentPhase, ZeroWorkStillPaysCheckpoint) {
  const auto out = single_segment_phase(0.0, 120, 600, 60, 1e9);
  EXPECT_DOUBLE_EQ(out.t_ff, 120.0);
}

TEST(AbftPhase, MatchesEquationsTwoAndEight) {
  const double tl = 10000, phi = 1.03, cl = 480, rl = 120, recons = 2, d = 60,
               mu = 7200;
  const auto out = abft_phase(tl, phi, cl, rl, recons, d, mu);
  const double t_ff = phi * tl + cl;
  const double t_lost = d + rl + recons;
  EXPECT_DOUBLE_EQ(out.t_ff, t_ff);
  EXPECT_DOUBLE_EQ(out.t_lost, t_lost);
  EXPECT_DOUBLE_EQ(out.t_final, t_ff / (1.0 - t_lost / mu));
}

TEST(AbftPhase, LostTimeIndependentOfPhaseLength) {
  // ABFT loses no work: t_lost must not change with T_L.
  const auto small = abft_phase(10, 1.03, 0, 120, 2, 60, 7200);
  const auto large = abft_phase(1e7, 1.03, 0, 120, 2, 60, 7200);
  EXPECT_DOUBLE_EQ(small.t_lost, large.t_lost);
}

TEST(AbftPhase, WasteTendsToPhiOverheadAtLargeMtbf) {
  const auto out = abft_phase(1e6, 1.03, 0.0, 120, 2, 60, 1e18);
  EXPECT_NEAR(out.waste(), 1.0 - 1.0 / 1.03, 1e-9);
}

TEST(OptimalPeriod, FirstOrderMatchesEquationEleven) {
  const double c = 600, mu = 7200, d = 60, r = 600;
  const auto p = optimal_period_first_order(c, mu, d, r);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(*p, std::sqrt(2.0 * c * (mu - d - r)));
}

TEST(OptimalPeriod, NoPeriodWhenMtbfTooSmall) {
  EXPECT_FALSE(optimal_period_first_order(600, 500, 60, 600).has_value());
  EXPECT_FALSE(optimal_period_exact(600, 500, 60, 600).has_value());
}

TEST(OptimalPeriod, ClampsAboveCheckpointCost) {
  // √(2C(µ−D−R)) < C when µ−D−R < C/2.
  const auto p = optimal_period_first_order(1000, 1400, 0, 1000);
  ASSERT_TRUE(p.has_value());
  EXPECT_GT(*p, 1000.0);
}

TEST(OptimalPeriod, ExactIsNoWorseThanFirstOrder) {
  for (const double mu : {hours(1), hours(2), hours(12), hours(100)}) {
    const double c = minutes(10), r = minutes(10), d = minutes(1);
    const auto p1 = optimal_period_first_order(c, mu, d, r);
    const auto p2 = optimal_period_exact(c, mu, d, r);
    ASSERT_TRUE(p1 && p2);
    const auto w1 = periodic_phase(1e6, *p1, c, r, d, mu);
    const auto w2 = periodic_phase(1e6, *p2, c, r, d, mu);
    EXPECT_LE(w2.t_final, w1.t_final * (1.0 + 1e-9)) << "mu = " << mu;
  }
}

TEST(OptimalPeriod, ExactAgreesWithFirstOrderAtLargeMtbf) {
  const double c = 600, r = 600, d = 60, mu = 3.6e6;  // µ = 1000 h
  const auto p1 = optimal_period_first_order(c, mu, d, r);
  const auto p2 = optimal_period_exact(c, mu, d, r);
  ASSERT_TRUE(p1 && p2);
  EXPECT_NEAR(*p2 / *p1, 1.0, 0.02);  // first-order is asymptotically exact
}

TEST(OptimalPeriod, ExactBeatsNeighbouringPeriods) {
  const double c = 600, r = 600, d = 60, mu = 7200;
  const auto p = optimal_period_exact(c, mu, d, r);
  ASSERT_TRUE(p.has_value());
  const auto at = [&](double period) {
    return periodic_phase(1e6, period, c, r, d, mu).t_final;
  };
  EXPECT_LE(at(*p), at(*p * 0.9));
  EXPECT_LE(at(*p), at(*p * 1.1));
}

TEST(PhaseOutcome, AccumulationAddsTimes) {
  PhaseOutcome a = single_segment_phase(100, 10, 5, 1, 1e6);
  const PhaseOutcome b = single_segment_phase(200, 20, 5, 1, 1e6);
  const double t = a.t_final + b.t_final;
  a += b;
  EXPECT_DOUBLE_EQ(a.t_final, t);
  EXPECT_DOUBLE_EQ(a.work, 300.0);
}

TEST(PhaseOutcome, ExpectedFailuresScalesWithTime) {
  const auto out = periodic_phase(1e6, 2000, 300, 400, 60, 20000);
  EXPECT_NEAR(out.expected_failures(20000), out.t_final / 20000, 1e-12);
}

}  // namespace
