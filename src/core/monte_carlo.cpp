#include "core/monte_carlo.hpp"

#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/executor.hpp"
#include "sim/failures.hpp"

namespace abftc::core {

namespace {

/// Replicates per chunk: small enough to balance a 1000-replicate run over
/// any realistic pool (63 chunks), large enough that a chunk's result slot
/// and merge cost nothing next to its simulations.
constexpr std::size_t kReplicateBlock = 16;

std::unique_ptr<sim::InterArrival> make_distribution(
    const MonteCarloOptions& opt, double mean) {
  switch (opt.distribution) {
    case FailureDistribution::Exponential:
      return std::make_unique<sim::ExponentialArrivals>(mean);
    case FailureDistribution::Weibull:
      return std::make_unique<sim::WeibullArrivals>(
          sim::WeibullArrivals::from_mean(opt.weibull_shape, mean));
    case FailureDistribution::LogNormal:
      return std::make_unique<sim::LogNormalArrivals>(mean, opt.lognormal_cv);
  }
  ABFTC_CHECK(false, "unknown failure distribution");
}

std::unique_ptr<sim::FailureClock> make_clock(const ScenarioParams& s,
                                              const MonteCarloOptions& opt,
                                              common::Rng rng) {
  if (opt.per_node && s.platform.nodes > 1) {
    const double per_node_mtbf =
        s.platform.mtbf * static_cast<double>(s.platform.nodes);
    return std::make_unique<sim::NodeFailureClock>(
        make_distribution(opt, per_node_mtbf), s.platform.nodes, rng);
  }
  return std::make_unique<sim::AggregateFailureClock>(
      make_distribution(opt, s.platform.mtbf), rng);
}

}  // namespace

MonteCarloResult monte_carlo(Protocol p, const ScenarioParams& s,
                             const ModelOptions& model_opt,
                             const MonteCarloOptions& opt) {
  ABFTC_REQUIRE(opt.replicates > 0, "need at least one replicate");
  s.validate();

  MonteCarloResult out;
  const ProtocolPlan plan = make_plan(p, s, model_opt);
  if (!plan.valid) {
    out.plan_valid = false;
    return out;
  }

  const common::Rng base(opt.seed);
  // Preallocated disjoint slots: replicate `rep` writes waste_sample[rep]
  // and nothing else, so the stored sample is deterministic regardless of
  // how chunks land on workers (no merge order to get wrong).
  if (opt.collect_waste_sample) out.waste_sample.resize(opt.replicates);

  // Chunk replicates into fixed blocks; each chunk accumulates into its
  // own slot, and the slots are merged serially in chunk order afterwards.
  // Welford merges are not associative in floating point, so the merge tree
  // must not depend on scheduling (completion order) or on the worker count
  // (chunk sizes): with fixed blocks the statistics are bitwise the same
  // for every thread count.
  const std::size_t chunks = (opt.replicates + kReplicateBlock - 1) /
                             kReplicateBlock;
  std::vector<MonteCarloResult> partial(chunks);

  common::parallel_for(
      chunks,
      [&](std::size_t chunk) {
        const std::size_t lo = chunk * kReplicateBlock;
        const std::size_t hi = std::min(lo + kReplicateBlock, opt.replicates);
        MonteCarloResult& local = partial[chunk];
        for (std::size_t rep = lo; rep < hi; ++rep) {
          auto clock = make_clock(s, opt, base.split(rep));
          const SimResult r = simulate_run(s, plan, *clock);
          local.waste.add(r.waste());
          local.t_final.add(r.t_final);
          local.failures.add(static_cast<double>(r.failures));
          local.lost_time.add(r.breakdown.lost);
          if (opt.collect_waste_sample) out.waste_sample[rep] = r.waste();
        }
      },
      opt.threads);
  for (const MonteCarloResult& local : partial) {
    out.waste.merge(local.waste);
    out.t_final.merge(local.t_final);
    out.failures.merge(local.failures);
    out.lost_time.merge(local.lost_time);
  }
  return out;
}

}  // namespace abftc::core
