// Tests for the three protocol waste models (Sections IV-B/IV-C), including
// the claims the paper makes about their qualitative behaviour.

#include <gtest/gtest.h>

#include "common/time_units.hpp"
#include "core/protocol_models.hpp"

namespace {

using namespace abftc;
using namespace abftc::core;
using common::hours;
using common::minutes;
using common::weeks;

TEST(PureModel, WasteIndependentOfAlpha) {
  for (const double mtbf : {hours(1), hours(2), hours(4)}) {
    const double w0 = evaluate_pure(figure7_scenario(mtbf, 0.0)).waste();
    for (const double alpha : {0.2, 0.5, 0.8, 1.0}) {
      EXPECT_NEAR(evaluate_pure(figure7_scenario(mtbf, alpha)).waste(), w0,
                  1e-12);
    }
  }
}

TEST(PureModel, WasteDecreasesWithMtbf) {
  double prev = 1.0;
  for (const double mtbf_min : {60.0, 90.0, 120.0, 180.0, 240.0}) {
    const double w =
        evaluate_pure(figure7_scenario(minutes(mtbf_min), 0.5)).waste();
    EXPECT_LT(w, prev);
    prev = w;
  }
}

TEST(PureModel, UsesYoungDalyPeriod) {
  const auto s = figure7_scenario(hours(2), 0.5);
  const auto m = evaluate_pure(s);
  const auto p = optimal_period_first_order(
      s.ckpt.full_cost, s.platform.mtbf, s.platform.downtime,
      s.ckpt.full_recovery);
  EXPECT_DOUBLE_EQ(m.period_general, *p);
}

TEST(PureModel, FreeCheckpointLimit) {
  auto s = figure7_scenario(hours(2), 0.5);
  s.ckpt.full_cost = 0.0;
  s.ckpt.full_recovery = 0.0;
  const auto m = evaluate_pure(s);
  // Only downtime remains: waste = D/(µ) to first order.
  EXPECT_NEAR(m.waste(), s.platform.downtime / s.platform.mtbf, 1e-3);
}

TEST(BiModel, EqualsPureWhenAlphaZero) {
  const auto s = figure7_scenario(hours(2), 0.0);
  EXPECT_NEAR(evaluate_bi(s).waste(), evaluate_pure(s).waste(), 1e-12);
}

TEST(BiModel, LongPhasesUseEquationThirteenFourteen) {
  const auto s = figure7_scenario(hours(2), 0.5);  // 3.5-day phases: long
  const auto m = evaluate_bi(s);
  EXPECT_FALSE(m.bi_stream);
  // Library period follows Eq. (14) with C_L = ρC.
  const auto pl = optimal_period_first_order(
      s.ckpt.library_cost(), s.platform.mtbf, s.platform.downtime,
      s.ckpt.full_recovery);
  EXPECT_DOUBLE_EQ(m.period_library, *pl);
  EXPECT_GT(m.period_general, m.period_library);  // C > C_L
}

TEST(BiModel, BetterThanPureForPositiveAlpha) {
  for (const double alpha : {0.3, 0.5, 0.8, 1.0}) {
    const auto s = figure7_scenario(hours(2), alpha);
    EXPECT_LT(evaluate_bi(s).waste(), evaluate_pure(s).waste())
        << "alpha = " << alpha;
  }
}

TEST(BiModel, GainGrowsWithAlpha) {
  double prev_gain = -1.0;
  for (const double alpha : {0.2, 0.5, 0.8, 1.0}) {
    const auto s = figure7_scenario(hours(2), alpha);
    const double gain =
        evaluate_pure(s).waste() - evaluate_bi(s).waste();
    EXPECT_GT(gain, prev_gain) << "alpha = " << alpha;
    prev_gain = gain;
  }
}

TEST(BiModel, ShortPhasesUseAveragedStream) {
  auto s = figure7_scenario(hours(2), 0.8);
  s.epoch.duration = minutes(30);  // phases far below the optimal period
  s.epochs = 336;
  const auto m = evaluate_bi(s);
  EXPECT_TRUE(m.bi_stream);
  const double avg = 0.2 * s.ckpt.full_cost + 0.8 * s.ckpt.library_cost();
  EXPECT_DOUBLE_EQ(m.stream_ckpt, avg);
  // Still cheaper than pure (whose checkpoints always cost C).
  EXPECT_LT(m.waste(), evaluate_pure(s).waste());
}

TEST(CompositeModel, TendsToAbftOverheadAtAlphaOne) {
  const auto s = figure7_scenario(hours(1000), 1.0);
  const auto m = evaluate_composite(s);
  EXPECT_TRUE(m.abft_active);
  EXPECT_NEAR(m.waste(), 1.0 - 1.0 / s.abft.phi, 2e-3);
}

TEST(CompositeModel, EqualsPureishAtAlphaZero) {
  const auto s = figure7_scenario(hours(2), 0.0);
  const auto c = evaluate_composite(s);
  EXPECT_FALSE(c.abft_active);
  EXPECT_NEAR(c.waste(), evaluate_pure(s).waste(), 1e-6);
}

TEST(CompositeModel, BeatsBothAtHighAlphaSmallMtbf) {
  const auto s = figure7_scenario(minutes(60), 0.8);
  const double comp = evaluate_composite(s).waste();
  EXPECT_LT(comp, evaluate_pure(s).waste());
  EXPECT_LT(comp, evaluate_bi(s).waste());
}

TEST(CompositeModel, LibraryPhaseHasNoPeriod) {
  const auto m = evaluate_composite(figure7_scenario(hours(2), 0.8));
  EXPECT_TRUE(m.abft_active);
  EXPECT_EQ(m.period_library, 0.0);  // periodic ckpt disabled under ABFT
}

TEST(CompositeModel, SafeguardFallsBackToBi) {
  auto s = figure7_scenario(hours(2), 0.8);
  s.epoch.duration = minutes(10);  // tiny library calls
  s.epochs = 1008;
  const auto guarded = evaluate_composite(s, {.safeguard = true});
  EXPECT_FALSE(guarded.abft_active);
  EXPECT_NEAR(guarded.waste(), evaluate_bi(s).waste(), 1e-12);
  const auto always = evaluate_composite(s, {.safeguard = false});
  EXPECT_TRUE(always.abft_active);
  EXPECT_GT(always.waste(), guarded.waste());  // forced ckpts dominate
}

TEST(CompositeModel, GeneralPhaseEntryCheckpointWhenShort) {
  // With T_G below the optimal period the phase is one segment closed by
  // the C_L̄ entry checkpoint: t_ff = T_G + C_L̄ (Eq. 9). At α = 0.999,
  // T_G ≈ 10 min while P_opt ≈ 47 min.
  auto s = figure7_scenario(hours(2), 0.999);
  const auto m = evaluate_composite(s);
  const double tg = s.epoch.general();
  ASSERT_LT(tg, m.period_general);
  EXPECT_DOUBLE_EQ(m.general.t_ff, tg + s.ckpt.remainder_cost());
}

TEST(CompositeModel, AbftRecoveryCostMatchesEquationEight) {
  const auto s = figure7_scenario(hours(2), 0.8);
  const auto m = evaluate_composite(s);
  EXPECT_DOUBLE_EQ(m.library.t_lost, s.platform.downtime +
                                         s.ckpt.remainder_recovery() +
                                         s.abft.recons);
}

TEST(AllModels, WasteWithinUnitInterval) {
  for (const double mtbf_min : {60.0, 120.0, 240.0})
    for (const double alpha : {0.0, 0.3, 0.7, 1.0})
      for (const auto p :
           {Protocol::PurePeriodicCkpt, Protocol::BiPeriodicCkpt,
            Protocol::AbftPeriodicCkpt}) {
        const double w =
            evaluate(p, figure7_scenario(minutes(mtbf_min), alpha)).waste();
        EXPECT_GE(w, 0.0);
        EXPECT_LE(w, 1.0);
      }
}

TEST(AllModels, DivergedRegimeReportsUnitWaste) {
  ScenarioParams s = figure7_scenario(minutes(15), 0.5);
  // µ = 15 min < D + R = 11 min leaves no feasible period, and segments
  // diverge too.
  s.ckpt.full_cost = minutes(20);
  s.ckpt.full_recovery = minutes(20);
  const auto pure = evaluate_pure(s);
  EXPECT_TRUE(pure.diverged);
  EXPECT_EQ(pure.waste(), 1.0);
  // The composite survives: ABFT recovery is much cheaper than µ.
  const auto comp = evaluate_composite(s);
  EXPECT_TRUE(comp.abft_active);
}

TEST(AllModels, ToStringNames) {
  EXPECT_EQ(to_string(Protocol::PurePeriodicCkpt), "PurePeriodicCkpt");
  EXPECT_EQ(to_string(Protocol::BiPeriodicCkpt), "BiPeriodicCkpt");
  EXPECT_EQ(to_string(Protocol::AbftPeriodicCkpt), "ABFT&PeriodicCkpt");
}

TEST(AllModels, ValidationRejectsNonsense) {
  ScenarioParams s = figure7_scenario(hours(2), 0.5);
  s.abft.phi = 0.5;
  EXPECT_THROW((void)evaluate_composite(s), common::precondition_error);
  s = figure7_scenario(hours(2), 0.5);
  s.epoch.alpha = 1.5;
  EXPECT_THROW((void)evaluate_pure(s), common::precondition_error);
  s = figure7_scenario(hours(2), 0.5);
  s.platform.mtbf = -1;
  EXPECT_THROW((void)evaluate_bi(s), common::precondition_error);
}

}  // namespace
