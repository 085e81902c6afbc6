// Tests for the restartable-segment simulation primitives, including the
// bucket-accounting identity (every simulated second lands in exactly one
// bucket) as a parameterized property.

#include <gtest/gtest.h>

#include "common/error.hpp"

#include <memory>

#include "sim/failures.hpp"
#include "sim/segments.hpp"

namespace {

using namespace abftc;
using namespace abftc::sim;

/// A scripted clock for deterministic tests.
class ScriptedClock final : public FailureClock {
 public:
  explicit ScriptedClock(std::vector<double> failures)
      : failures_(std::move(failures)) {}
  double next_after(double t) override {
    for (const double f : failures_)
      if (f > t) return f;
    return 1e300;  // no more failures
  }

 private:
  std::vector<double> failures_;
};

SimState make_state(FailureClock& clock) {
  SimState st;
  st.clock = &clock;
  return st;
}

TEST(Attempt, CompletesWithoutFailure) {
  ScriptedClock clock({1000.0});
  auto st = make_state(clock);
  const auto a = attempt(st, 100.0);
  EXPECT_TRUE(a.completed);
  EXPECT_DOUBLE_EQ(a.elapsed, 100.0);
  EXPECT_DOUBLE_EQ(st.now, 100.0);
  EXPECT_EQ(st.failures, 0u);
}

TEST(Attempt, StopsAtFailureInstant) {
  ScriptedClock clock({40.0});
  auto st = make_state(clock);
  const auto a = attempt(st, 100.0);
  EXPECT_FALSE(a.completed);
  EXPECT_DOUBLE_EQ(a.elapsed, 40.0);
  EXPECT_DOUBLE_EQ(st.now, 40.0);
  EXPECT_EQ(st.failures, 1u);
}

TEST(Attempt, ZeroDurationNeverFails) {
  ScriptedClock clock({0.5});
  auto st = make_state(clock);
  const auto a = attempt(st, 0.0);
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(st.failures, 0u);
}

TEST(Attempt, BoundaryFailureDoesNotInterrupt) {
  // Failure exactly at the end of the span: the span completes.
  ScriptedClock clock({100.0});
  auto st = make_state(clock);
  const auto a = attempt(st, 100.0);
  EXPECT_TRUE(a.completed);
}

TEST(Recover, RestartsOnNestedFailures) {
  // Failures at 5 and 12 interrupt downtime(10)+recovery(10) twice.
  ScriptedClock clock({5.0, 12.0});
  auto st = make_state(clock);
  recover(st, 10.0, 10.0);
  // Timeline: [0,5) downtime (failed), [5,12) downtime again: 5+7?  No —
  // downtime restarts at 5, would finish at 15, but fails at 12; restarts,
  // finishes at 22; recovery [22,32).
  EXPECT_DOUBLE_EQ(st.now, 32.0);
  EXPECT_EQ(st.failures, 2u);
  EXPECT_DOUBLE_EQ(st.acc.downtime, 5.0 + 7.0 + 10.0);
  EXPECT_DOUBLE_EQ(st.acc.recovery, 10.0);
  EXPECT_DOUBLE_EQ(st.acc.total(), st.now);
}

TEST(RunSegment, NoFailureAccounting) {
  ScriptedClock clock({1e9});
  auto st = make_state(clock);
  run_segment(st, 500.0, 50.0, 100.0, 10.0);
  EXPECT_DOUBLE_EQ(st.now, 550.0);
  EXPECT_DOUBLE_EQ(st.acc.useful, 500.0);
  EXPECT_DOUBLE_EQ(st.acc.ckpt, 50.0);
  EXPECT_DOUBLE_EQ(st.acc.total(), st.now);
}

TEST(RunSegment, FailureRestartsFromScratch) {
  // Segment of 100 + ckpt 10; failure at t=60 loses 60s of work.
  ScriptedClock clock({60.0});
  auto st = make_state(clock);
  run_segment(st, 100.0, 10.0, 20.0, 5.0);
  // 60 lost + 5 down + 20 recover + 100 work + 10 ckpt = 195.
  EXPECT_DOUBLE_EQ(st.now, 195.0);
  EXPECT_DOUBLE_EQ(st.acc.lost, 60.0);
  EXPECT_DOUBLE_EQ(st.acc.useful, 100.0);
  EXPECT_DOUBLE_EQ(st.acc.total(), st.now);
}

TEST(RunSegment, FailureDuringTrailingCheckpointLosesWork) {
  ScriptedClock clock({105.0});
  auto st = make_state(clock);
  run_segment(st, 100.0, 10.0, 20.0, 5.0);
  // Work [0,100), ckpt fails at 105: lose 100 work + 5 partial ckpt.
  EXPECT_DOUBLE_EQ(st.acc.lost, 105.0);
  EXPECT_DOUBLE_EQ(st.now, 105.0 + 5.0 + 20.0 + 110.0);
  EXPECT_DOUBLE_EQ(st.acc.total(), st.now);
}

TEST(RunPeriodicStream, CommitsPerPeriod) {
  // Two periods of (90 work + 10 ckpt); failure at t=150 (inside period 2)
  // loses only period 2's progress.
  ScriptedClock clock({150.0});
  auto st = make_state(clock);
  run_periodic_stream(st, 180.0, 100.0, 10.0, 10.0, 20.0, 5.0);
  // Period 1: [0,100) committed. Period 2 work [100,150) fails: 50 lost,
  // down 5, recover 20 -> 175, redo [175,265), ckpt [265,275).
  EXPECT_DOUBLE_EQ(st.now, 275.0);
  EXPECT_DOUBLE_EQ(st.acc.useful, 180.0);
  EXPECT_DOUBLE_EQ(st.acc.lost, 50.0);
  EXPECT_DOUBLE_EQ(st.acc.ckpt, 20.0);
  EXPECT_DOUBLE_EQ(st.acc.total(), st.now);
}

TEST(RunPeriodicStream, TailCheckpointDiffers) {
  ScriptedClock clock({1e9});
  auto st = make_state(clock);
  // 150 work in periods of 100 (90 work each): chunks 90 + 60; tail ckpt 0.
  run_periodic_stream(st, 150.0, 100.0, 10.0, 0.0, 20.0, 5.0);
  EXPECT_DOUBLE_EQ(st.acc.ckpt, 10.0);  // only the intermediate one
  EXPECT_DOUBLE_EQ(st.now, 160.0);

  // Fault-free time is exact: 3 chunks of 90 + 2 intermediate ckpts of 10
  // + a tail ckpt of 5.
  ScriptedClock quiet({1e9});
  auto st2 = make_state(quiet);
  run_periodic_stream(st2, 270.0, 100.0, 10.0, 5.0, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(st2.now, 270.0 + 2 * 10.0 + 5.0);
}

TEST(RunAbftPhase, NoWorkIsLostOnFailure) {
  // φ = 2: 100 useful = 200 protected seconds. Failure at t=50.
  ScriptedClock clock({50.0});
  auto st = make_state(clock);
  run_abft_phase(st, 100.0, 2.0, 0.0, 30.0, 10.0, 5.0);
  // [0,50) protected compute survives; recovery 5+30+10; remaining 150.
  EXPECT_DOUBLE_EQ(st.now, 50.0 + 45.0 + 150.0);
  EXPECT_DOUBLE_EQ(st.acc.useful, 100.0);
  EXPECT_DOUBLE_EQ(st.acc.abft_overhead, 100.0);
  EXPECT_DOUBLE_EQ(st.acc.recons, 10.0);
  EXPECT_DOUBLE_EQ(st.acc.lost, 0.0);  // the ABFT guarantee
  EXPECT_DOUBLE_EQ(st.acc.total(), st.now);
}

TEST(RunAbftPhase, ExitCheckpointRetriesAfterFailure) {
  // Work [0,100); exit ckpt 20 fails at 110; recovery 5+0+0; retry ckpt.
  ScriptedClock clock({110.0});
  auto st = make_state(clock);
  run_abft_phase(st, 100.0, 1.0, 20.0, 0.0, 0.0, 5.0);
  EXPECT_DOUBLE_EQ(st.now, 110.0 + 5.0 + 20.0);
  EXPECT_DOUBLE_EQ(st.acc.lost, 10.0);  // the partial checkpoint I/O
  EXPECT_DOUBLE_EQ(st.acc.ckpt, 20.0);
  EXPECT_DOUBLE_EQ(st.acc.total(), st.now);
}

TEST(SafetyValve, ThrowsInsteadOfLoopingForever) {
  // Failures every 1s but the segment needs 100s: impossible.
  AggregateFailureClock clock(std::make_unique<ExponentialArrivals>(1.0),
                              common::Rng(3));
  auto st = make_state(clock);
  st.max_failures = 1000;
  EXPECT_THROW(run_segment(st, 100.0, 0.0, 1.0, 1.0),
               common::invariant_error);
}

// --- accounting identity as a property over random regimes ---------------

class AccountingIdentity
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(AccountingIdentity, TotalEqualsClock) {
  const auto [mtbf, seed] = GetParam();
  AggregateFailureClock clock(std::make_unique<ExponentialArrivals>(mtbf),
                              common::Rng(seed));
  SimState st;
  st.clock = &clock;
  run_periodic_stream(st, 5000.0, 300.0, 30.0, 10.0, 50.0, 5.0);
  run_abft_phase(st, 2000.0, 1.03, 40.0, 10.0, 2.0, 5.0);
  run_segment(st, 200.0, 25.0, 50.0, 5.0);
  EXPECT_NEAR(st.acc.total(), st.now, 1e-6 * st.now);
  EXPECT_NEAR(st.acc.useful, 7200.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, AccountingIdentity,
    ::testing::Combine(::testing::Values(200.0, 1000.0, 10000.0, 1e8),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

}  // namespace
