/// \file micro_sim.cpp
/// google-benchmark microbenches for the simulator substrate (E12): they
/// quantify the "1000 executions per grid cell" methodology of Section V-A.

#include <benchmark/benchmark.h>

#include "common/time_units.hpp"
#include "core/monte_carlo.hpp"
#include "core/simulate.hpp"
#include "sim/failures.hpp"

using namespace abftc;

namespace {

core::ScenarioParams scenario(double mtbf_min) {
  return core::figure7_scenario(common::minutes(mtbf_min), 0.8);
}

void BM_SimulateRun(benchmark::State& state) {
  const auto s = scenario(static_cast<double>(state.range(0)));
  const auto plan =
      core::make_plan(core::Protocol::AbftPeriodicCkpt, s, {});
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::simulate_run(s, plan, seed++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulateRun)->Arg(60)->Arg(120)->Arg(240);

void BM_MonteCarlo1000(benchmark::State& state) {
  const auto s = scenario(120);
  core::MonteCarloOptions mc;
  mc.replicates = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::monte_carlo(core::Protocol::PurePeriodicCkpt, s, {}, mc));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_MonteCarlo1000)->Unit(benchmark::kMillisecond);

void BM_FailureClockAggregate(benchmark::State& state) {
  sim::AggregateFailureClock clock(
      std::make_unique<sim::ExponentialArrivals>(3600.0), common::Rng(7));
  double t = 0.0;
  for (auto _ : state) {
    t = clock.next_after(t) + 1.0;
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_FailureClockAggregate);

void BM_FailureClockPerNode(benchmark::State& state) {
  sim::NodeFailureClock clock(
      std::make_unique<sim::ExponentialArrivals>(3600.0 * 1e4),
      static_cast<std::size_t>(state.range(0)), common::Rng(7));
  double t = 0.0;
  for (auto _ : state) {
    t = clock.next_after(t) + 1.0;
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_FailureClockPerNode)->Arg(100)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
