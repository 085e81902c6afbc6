// Tests for the weak-scaling scenario generator (Section V-C) and the
// storage-model bridge.

#include <gtest/gtest.h>

#include "ckpt/storage.hpp"
#include "common/time_units.hpp"
#include "core/protocol_models.hpp"
#include "core/scaling.hpp"

namespace {

using namespace abftc;
using namespace abftc::core;

TEST(ScaleFactor, Laws) {
  EXPECT_DOUBLE_EQ(scale_factor(ScalingLaw::Constant, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(scale_factor(ScalingLaw::Sqrt, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(scale_factor(ScalingLaw::Linear, 100.0), 100.0);
  EXPECT_THROW((void)scale_factor(ScalingLaw::Sqrt, 0.0),
               common::precondition_error);
}

TEST(Scaling, Figure9AlphaAnchorsMatchPaper) {
  const auto cfg = figure9_config();
  EXPECT_NEAR(alpha_at(cfg, 1e3), 0.55, 0.01);
  EXPECT_NEAR(alpha_at(cfg, 1e4), 0.80, 1e-9);
  EXPECT_NEAR(alpha_at(cfg, 1e5), 0.92, 0.01);
  EXPECT_NEAR(alpha_at(cfg, 1e6), 0.975, 0.002);
}

TEST(Scaling, Figure8AlphaIsConstant) {
  const auto cfg = figure8_config();
  for (const double n : {1e3, 1e4, 1e5, 1e6})
    EXPECT_NEAR(alpha_at(cfg, n), 0.8, 1e-9);
}

TEST(Scaling, AnchorsAtBaseNodes) {
  for (const auto& cfg :
       {figure8_config(), figure9_config(), figure10_config()}) {
    const auto s = scenario_at(cfg, cfg.base_nodes);
    EXPECT_DOUBLE_EQ(s.ckpt.full_cost, cfg.base_ckpt);
    EXPECT_DOUBLE_EQ(s.platform.mtbf, cfg.base_mtbf);
    EXPECT_NEAR(s.epoch.alpha, 0.8, 1e-9);
  }
}

TEST(Scaling, MtbfShrinksAndCkptGrows) {
  const auto cfg = figure8_config();
  const auto small = scenario_at(cfg, 1e3);
  const auto large = scenario_at(cfg, 1e6);
  EXPECT_GT(small.platform.mtbf, large.platform.mtbf);
  EXPECT_LT(small.ckpt.full_cost, large.ckpt.full_cost);
}

TEST(Scaling, Figure10CkptConstant) {
  const auto cfg = figure10_config();
  EXPECT_DOUBLE_EQ(scenario_at(cfg, 1e3).ckpt.full_cost,
                   scenario_at(cfg, 1e6).ckpt.full_cost);
}

TEST(Scaling, NodeSweepIsLogSpacedAndCoversRange) {
  const auto sweep = default_node_sweep();
  ASSERT_GE(sweep.size(), 4u);
  EXPECT_DOUBLE_EQ(sweep.front(), 1000.0);
  EXPECT_DOUBLE_EQ(sweep.back(), 1e6);
  for (std::size_t i = 1; i < sweep.size(); ++i)
    EXPECT_GT(sweep[i], sweep[i - 1]);
}

TEST(Scaling, LiteralConfigDivergesAtScale) {
  // The paper's literal Section V-C reading: every protocol collapses once
  // µ < C + R + D (documented deviation, EXPERIMENTS.md).
  const auto cfg = figure8_literal_config();
  const auto s = scenario_at(cfg, 1e6);
  EXPECT_TRUE(evaluate_pure(s).diverged);
  EXPECT_TRUE(evaluate_bi(s).diverged);
}

TEST(Scaling, CrossoverNearHundredThousandNodes) {
  // The headline Figure 8 claim.
  const auto cfg = figure8_config();
  const ModelOptions no_guard{.safeguard = false};
  const auto waste = [&](Protocol p, double n) {
    return evaluate(p, scenario_at(cfg, n), no_guard).waste();
  };
  // Composite worse (ABFT overhead) at 10k, better at 1M.
  EXPECT_GT(waste(Protocol::AbftPeriodicCkpt, 1e4),
            waste(Protocol::PurePeriodicCkpt, 1e4));
  EXPECT_LT(waste(Protocol::AbftPeriodicCkpt, 1e6),
            waste(Protocol::PurePeriodicCkpt, 1e6) * 0.5);
}

TEST(StorageModels, RemotePfsBottlenecksOnAggregate) {
  const auto pfs = ckpt::remote_pfs(1e9);  // 1 GB/s total
  // 1 TB over 100 nodes or 1000 nodes: same aggregate time.
  EXPECT_NEAR(pfs.write_time(1e12, 100), pfs.write_time(1e12, 1000), 1e-9);
  // Doubling the data doubles the time.
  EXPECT_NEAR(pfs.write_time(2e12, 100) / pfs.write_time(1e12, 100), 2.0,
              0.01);
}

TEST(StorageModels, BuddyScalesWithNodes) {
  const auto buddy = ckpt::buddy_store(1e9);  // 1 GB/s per link
  // Constant per-node data -> constant time regardless of node count.
  EXPECT_NEAR(buddy.write_time(1e9 * 100, 100),
              buddy.write_time(1e9 * 1000, 1000), 1e-9);
}

TEST(StorageModels, ReadSpeedupAffectsRecovery) {
  auto m = ckpt::remote_pfs(1e9);
  m.read_speedup = 2.0;
  EXPECT_NEAR(m.read_time(1e12, 10),
              m.latency + (m.write_time(1e12, 10) - m.latency) / 2.0, 1e-9);
}

TEST(StorageModels, BridgeProducesModelParams) {
  const auto buddy = ckpt::buddy_store(10e9, 0.0);  // 10 GB/s links
  const auto p = ckpt_from_storage(buddy, 64e9, 10000, 0.8);  // 64 GB/node
  EXPECT_NEAR(p.full_cost, 6.4, 1e-9);
  EXPECT_DOUBLE_EQ(p.rho, 0.8);
  EXPECT_NEAR(p.library_cost(), 0.8 * p.full_cost, 1e-12);
}

TEST(StorageModels, Validation) {
  ckpt::StorageModel bad;
  EXPECT_THROW(bad.validate(), common::precondition_error);
  EXPECT_THROW(ckpt::remote_pfs(-1.0), common::precondition_error);
  const auto pfs = ckpt::remote_pfs(1e9);
  EXPECT_THROW((void)pfs.write_time(-1.0, 10), common::precondition_error);
  EXPECT_THROW((void)pfs.write_time(1.0, 0), common::precondition_error);
}

TEST(Scaling, ConfigValidation) {
  auto cfg = figure8_config();
  cfg.epochs = 0;
  EXPECT_THROW((void)scenario_at(cfg, 1e4), common::precondition_error);
  cfg = figure8_config();
  cfg.base_library = cfg.base_general = 0.0;
  EXPECT_THROW((void)scenario_at(cfg, 1e4), common::precondition_error);
  cfg = figure8_config();
  EXPECT_THROW((void)scenario_at(cfg, -5), common::precondition_error);
}

}  // namespace
