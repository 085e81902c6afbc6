// Tests for the persistent executor: pool reuse across many epochs, lazy
// worker start, nested-parallelism arbitration (no deadlock, no
// oversubscription), the exception rethrow/short-circuit contract,
// submit()/ScopedArena (including help-first arena waits on pool workers),
// scheduler counters, and the determinism guarantees the rest of the repo
// leans on — group checksums and a small Experiment sweep must be bitwise
// identical across worker counts and against serial execution.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "abft/checksum.hpp"
#include "abft/kernels.hpp"
#include "common/executor.hpp"
#include "common/rng.hpp"
#include "common/time_units.hpp"
#include "core/experiment.hpp"
#include "core/params.hpp"

namespace {

using namespace abftc;
using common::Executor;
using common::parallel_for;

// Runs first (default gtest ordering is declaration order): nothing in this
// binary has touched the pool yet, so no worker may exist — the pool starts
// lazily, on demand, not at static-init time.
TEST(Executor, StartsLazilyAndGrowsOnDemand) {
  EXPECT_EQ(Executor::global().spawned_helpers(), 0u)
      << "workers must not exist before the first parallel loop";

  // A serial loop must not start workers either.
  parallel_for(100, [](std::size_t) {}, 1);
  EXPECT_EQ(Executor::global().spawned_helpers(), 0u);

  std::atomic<int> hits{0};
  parallel_for(100, [&](std::size_t) { hits.fetch_add(1); }, 3);
  EXPECT_EQ(hits.load(), 100);
  EXPECT_EQ(Executor::global().spawned_helpers(), 2u)
      << "a 3-way loop needs exactly two helpers";

  // Growth is monotonic: a wider request adds workers, a narrower one
  // does not retire them.
  parallel_for(100, [&](std::size_t) {}, 5);
  EXPECT_EQ(Executor::global().spawned_helpers(), 4u);
  parallel_for(100, [&](std::size_t) {}, 2);
  EXPECT_EQ(Executor::global().spawned_helpers(), 4u);
}

TEST(Executor, ReusableAcrossManyEpochs) {
  // The regime the pool exists for: many small loops in sequence, varying
  // widths, one process-lifetime worker set. 300 epochs × up to 4 workers
  // would have been ~900 thread spawns under the old dispatcher.
  for (int epoch = 0; epoch < 300; ++epoch) {
    std::atomic<long long> sum{0};
    const std::size_t n = 64 + static_cast<std::size_t>(epoch % 37);
    parallel_for(
        n, [&](std::size_t i) { sum += static_cast<long long>(i); },
        1 + epoch % 4);
    EXPECT_EQ(sum.load(), static_cast<long long>(n * (n - 1) / 2));
  }
  EXPECT_LE(Executor::global().spawned_helpers(), 4u);
}

TEST(Executor, NestedLoopIsBoundedAndDeadlockFree) {
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::atomic<long long> inner_total{0};
  parallel_for(
      8,
      [&](std::size_t) {
        EXPECT_GE(Executor::nesting_depth(), 1u);
        const int now = concurrent.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        // The nested loop may only borrow workers that are idle right now
        // (none, while the outer loop occupies the pool) and must never
        // grow the pool — so it completes, with the caller guaranteed to
        // make progress itself, and total concurrency stays bounded.
        parallel_for(
            64,
            [&](std::size_t i) {
              inner_total += static_cast<long long>(i);
            },
            4);
        concurrent.fetch_sub(1);
      },
      4);
  EXPECT_EQ(inner_total.load(), 8LL * (64 * 63 / 2));
  EXPECT_LE(peak.load(), 4) << "outer loop must bound outer concurrency";
  EXPECT_LE(Executor::global().spawned_helpers(), 4u)
      << "nested loops must not grow the pool";
  EXPECT_EQ(Executor::nesting_depth(), 0u);
}

TEST(Executor, RethrowsFirstExceptionWithMessage) {
  try {
    parallel_for(
        1000,
        [](std::size_t i) {
          if (i == 0) throw std::runtime_error("boom");
        },
        4);
    FAIL() << "exception must propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(Executor, SubmitReturnsValuesAndPropagatesErrors) {
  auto ok = Executor::global().submit([] { return 6 * 7; });
  EXPECT_EQ(ok.get(), 42);

  auto bad = Executor::global().submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW((void)bad.get(), std::runtime_error);

  // Tasks run inside the pool's depth accounting, so loops they issue
  // follow the bounded-share nesting rules (idle workers may help, the
  // pool never grows, the task's thread always makes progress itself).
  auto nested = Executor::global().submit([] {
    std::atomic<long long> sum{0};
    parallel_for(100, [&](std::size_t i) { sum += static_cast<long long>(i); },
                 4);
    return sum.load();
  });
  EXPECT_EQ(nested.get(), 100LL * 99 / 2);
}

TEST(Executor, ScopedArenaWaitsForAllTasks) {
  std::atomic<int> done{0};
  {
    Executor::ScopedArena arena(Executor::global());
    for (int t = 0; t < 16; ++t)
      arena.submit([&done] { done.fetch_add(1); });
    arena.wait();
    EXPECT_EQ(done.load(), 16);
    EXPECT_EQ(arena.pending(), 0u);
  }

  Executor::ScopedArena failing(Executor::global());
  failing.submit([] { throw std::runtime_error("arena task"); });
  failing.submit([&done] { done.fetch_add(1); });
  EXPECT_THROW(failing.wait(), std::runtime_error);
  EXPECT_EQ(done.load(), 17) << "a failing task must not cancel its peers";
}

TEST(Executor, IsolatedInstanceHasItsOwnWorkers) {
  Executor isolated(2);
  EXPECT_EQ(isolated.max_helpers(), 2u);
  EXPECT_EQ(isolated.spawned_helpers(), 0u);

  std::atomic<int> hits{0};
  isolated.parallel_for(1000, [&](std::size_t) { hits.fetch_add(1); }, 8);
  EXPECT_EQ(hits.load(), 1000);
  EXPECT_LE(isolated.spawned_helpers(), 2u)
      << "an isolated executor must respect its own cap";
  // Destruction joins the isolated workers without touching the global pool.
}

TEST(Executor, TopLevelLoopGrowsPoolToFullBudget) {
  // A 3-cell grid with a 16-thread budget can only queue 2 helper jobs, but
  // the pool must still grow to the full budget (clamped by the cap) so the
  // cells' nested loops have parked workers to borrow.
  Executor ex(8);
  std::atomic<long long> total{0};
  ex.parallel_for(
      3,
      [&](std::size_t) {
        EXPECT_GE(Executor::nesting_depth(), 1u);
        ex.parallel_for(
            200, [&](std::size_t i) { total += static_cast<long long>(i); },
            4);
      },
      16);
  EXPECT_EQ(total.load(), 3LL * (200 * 199 / 2));
  EXPECT_EQ(ex.spawned_helpers(), 8u)
      << "pool must grow to the requested budget, not the helper-job count";
}

TEST(Executor, EffectiveThreadsIsCachedAndStable) {
  const unsigned hw = common::hardware_workers();
  EXPECT_GE(hw, 1u);
  EXPECT_EQ(common::effective_threads(0), hw);
  EXPECT_EQ(common::effective_threads(0), hw);  // second call: cached value
  EXPECT_EQ(common::effective_threads(7), 7u);
  EXPECT_EQ(abft::resolved_threads(abft::KernelPolicy{}), hw);
  EXPECT_EQ(
      abft::resolved_threads(abft::KernelPolicy{abft::KernelPath::blocked, 3}),
      3u);
}

// ---- Determinism across worker counts ---------------------------------------

TEST(ExecutorDeterminism, GroupChecksumsBitwiseInvariant) {
  common::Rng rng(42);
  const abft::Matrix a = abft::Matrix::random(96, 96, rng);
  const std::size_t nb = 8, group = 3;

  abft::KernelPolicyGuard serial_guard({abft::KernelPath::blocked, 1});
  const abft::Matrix row_ref = abft::row_group_checksums(a, nb, group);
  const abft::Matrix col_ref = abft::col_group_checksums(a, nb, group);

  for (const unsigned threads : {2u, 4u}) {
    abft::KernelPolicyGuard guard({abft::KernelPath::blocked, threads});
    EXPECT_EQ(max_abs_diff(abft::row_group_checksums(a, nb, group), row_ref),
              0.0)
        << "threads=" << threads;
    EXPECT_EQ(max_abs_diff(abft::col_group_checksums(a, nb, group), col_ref),
              0.0)
        << "threads=" << threads;
  }
}

TEST(ExecutorDeterminism, BlockedGemmBitwiseInvariant) {
  common::Rng rng(7);
  const abft::Matrix a = abft::Matrix::random(128, 96, rng);
  const abft::Matrix b = abft::Matrix::random(96, 112, rng);

  abft::Matrix ref(128, 112, 0.0);
  abft::blocked_gemm(1.0, a.view(), abft::Trans::No, b.view(), abft::Trans::No,
                     0.0, ref.view(), 1);

  for (const unsigned threads : {2u, 4u}) {
    abft::Matrix c(128, 112, 0.0);
    abft::blocked_gemm(1.0, a.view(), abft::Trans::No, b.view(),
                       abft::Trans::No, 0.0, c.view(), threads);
    EXPECT_EQ(max_abs_diff(c, ref), 0.0) << "threads=" << threads;
  }
}

core::ExperimentSpec mini_sweep_spec(unsigned threads) {
  core::ExperimentSpec spec;
  spec.name = "executor_smoke";
  spec.threads = threads;
  spec.sweep.base = core::figure7_scenario(common::minutes(120), 0.0);
  spec.sweep.axes = {core::Axis::step("alpha", core::AxisField::Alpha, 0.0,
                                      1.0, 0.5)};
  core::MonteCarloOptions mc;
  mc.replicates = 40;
  spec.series = core::cross_series({core::Protocol::PurePeriodicCkpt,
                                    core::Protocol::AbftPeriodicCkpt},
                                   {"model", "sim"}, {}, mc);
  return spec;
}

std::string sweep_json(unsigned threads) {
  std::ostringstream os;
  core::JsonSink sink(os);
  core::Experiment experiment(mini_sweep_spec(threads));
  experiment.add_sink(sink);
  (void)experiment.run();
  return os.str();
}

TEST(ExecutorDeterminism, ExperimentSweepBitwisePoolVsSerial) {
  const std::string serial = sweep_json(1);  // serial grid, no pool
  EXPECT_FALSE(serial.empty());
  for (const unsigned threads : {2u, 4u})
    EXPECT_EQ(sweep_json(threads), serial)
        << "sweep JSON must be byte-identical at threads=" << threads;
}

TEST(Executor, RethrowsExceptionFromLateChunkAndPoolSurvives) {
  // The throwing index sits in a late chunk that a helper usually claims;
  // the error must still surface on the calling thread, and the remaining
  // chunks must be abandoned, not wedged.
  try {
    parallel_for(
        2048,
        [](std::size_t i) {
          if (i == 1500) throw std::runtime_error("late boom");
        },
        4);
    FAIL() << "exception from a helper's chunk must propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "late boom");
  }

  std::atomic<int> hits{0};
  parallel_for(100, [&](std::size_t) { hits.fetch_add(1); }, 4);
  EXPECT_EQ(hits.load(), 100);
}

TEST(Executor, ArenaWaitInsidePoolTasksDoesNotDeadlock) {
  // More pool tasks than workers, each waiting on its own arena's subtasks:
  // with every worker inside wait(), the subtasks and the surplus task sit
  // in the queue, so a worker that blocked instead of helping would hang
  // the pool.
  const unsigned workers = common::hardware_workers();
  Executor ex(workers);
  ex.parallel_for(std::size_t{workers} * 8, [](std::size_t) {}, workers + 1);
  ASSERT_EQ(ex.spawned_helpers(), workers);

  std::atomic<int> subtasks{0};
  std::vector<std::future<void>> tasks;
  for (unsigned t = 0; t < workers + 1; ++t)
    tasks.push_back(ex.submit([&ex, &subtasks] {
      Executor::ScopedArena arena(ex);
      for (int k = 0; k < 8; ++k)
        arena.submit([&subtasks] { subtasks.fetch_add(1); });
      arena.wait();
      EXPECT_EQ(arena.pending(), 0u);
    }));
  for (auto& f : tasks) f.get();
  EXPECT_EQ(subtasks.load(), static_cast<int>(workers + 1) * 8);
}

TEST(ExecutorStats, CountersAdvanceAndRowsSumToTotal) {
  const common::ExecutorStats before = Executor::global().stats();
  std::atomic<long long> sum{0};
  parallel_for(1024, [&](std::size_t i) { sum += static_cast<long long>(i); },
               4);
  EXPECT_EQ(sum.load(), 1024LL * 1023 / 2);

  const common::ExecutorStats after = Executor::global().stats();
  EXPECT_GT(after.total.chunks_claimed, before.total.chunks_claimed)
      << "a parallel loop must claim chunks";
  EXPECT_EQ(after.total.tasks_stolen, 0u) << "no schedule steals";
  EXPECT_GE(after.total.parks, before.total.parks);
  EXPECT_GE(after.total.unparks, before.total.unparks);

  common::ExecutorCounters rows = after.callers;
  for (const common::ExecutorCounters& w : after.per_worker) {
    rows.chunks_claimed += w.chunks_claimed;
    rows.parks += w.parks;
    rows.unparks += w.unparks;
  }
  EXPECT_EQ(rows.chunks_claimed, after.total.chunks_claimed);
  EXPECT_EQ(rows.parks, after.total.parks);
  EXPECT_EQ(rows.unparks, after.total.unparks);
}

TEST(ExecutorStats, DeltaSubtractsSnapshots) {
  const common::ExecutorStats before = Executor::global().stats();
  std::atomic<long long> sum{0};
  parallel_for(512, [&](std::size_t i) { sum += static_cast<long long>(i); },
               4);
  const common::ExecutorStats after = Executor::global().stats();

  const common::ExecutorStats delta = after - before;
  EXPECT_EQ(delta.total.chunks_claimed,
            after.total.chunks_claimed - before.total.chunks_claimed);
  EXPECT_EQ(delta.callers.chunks_claimed,
            after.callers.chunks_claimed - before.callers.chunks_claimed);
  EXPECT_GT(delta.total.chunks_claimed, 0u)
      << "the loop between the snapshots claimed chunks";
  ASSERT_EQ(delta.per_worker.size(), after.per_worker.size());
  for (std::size_t i = 0; i < delta.per_worker.size(); ++i) {
    const common::ExecutorCounters expect =
        i < before.per_worker.size()
            ? after.per_worker[i] - before.per_worker[i]
            : after.per_worker[i];  // worker born between the snapshots
    EXPECT_EQ(delta.per_worker[i].chunks_claimed, expect.chunks_claimed);
    EXPECT_EQ(delta.per_worker[i].parks, expect.parks);
    EXPECT_EQ(delta.per_worker[i].unparks, expect.unparks);
  }

  // Self-delta is identically zero.
  const common::ExecutorCounters zero = after.total - after.total;
  EXPECT_EQ(zero.chunks_claimed, 0u);
  EXPECT_EQ(zero.parks, 0u);
  EXPECT_EQ(zero.unparks, 0u);
}

TEST(ExecutorDeterminism, ExperimentReportsResolvedWorkerCount) {
  auto spec = mini_sweep_spec(3);
  const auto result = core::Experiment(spec).run();
  EXPECT_EQ(result.resolved_threads, 3u);

  // Metadata is opt-in so default artifacts stay byte-identical across
  // worker counts; enabling it stamps the resolved count into the JSON.
  EXPECT_EQ(sweep_json(3).find("\"threads\""), std::string::npos);
  spec.emit_thread_meta = true;
  std::ostringstream os;
  core::JsonSink sink(os);
  core::Experiment experiment(std::move(spec));
  experiment.add_sink(sink);
  (void)experiment.run();
  EXPECT_NE(os.str().find("\"threads\": 3"), std::string::npos);
}

}  // namespace
