// Tests for the distributed fault-injection runtime: mailbox framing
// (seq/CRC protocol) and its futex wake-up, campaign enumeration and
// deterministic sharding, the FaultingBackend write decorator, and the
// forked Launcher end to end — clean runs vs the serial AbftLu reference,
// SIGKILL + respawn + restore replay determinism, bit-flip reconstruction,
// torn-checkpoint fallback, death/hang detection latency, orphaned ranks,
// the fds a rank keeps, and a mini campaign in which every cell recovers.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "abft/abft_lu.hpp"
#include "abft/checksum.hpp"
#include "abft/grid.hpp"
#include "abft/lu_kernel.hpp"
#include "abft/matrix.hpp"
#include "ckpt/io/backend.hpp"
#include "ckpt/io/faulting.hpp"
#include "ckpt/io/log_backend.hpp"
#include "ckpt/io/writer.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/campaign.hpp"
#include "dist/channel.hpp"
#include "dist/fault.hpp"
#include "dist/launcher.hpp"

namespace {

using namespace abftc;
using namespace abftc::dist;

// --- mailbox framing --------------------------------------------------------

TEST(Mailbox, RoundTripsFrames) {
  Mailbox mb;
  reset(mb);
  std::uint64_t last_seen = 0;

  EXPECT_FALSE(try_recv(mb, last_seen).has_value());  // nothing posted yet

  post(mb, MsgType::Update, 3, 7);
  const auto msg = try_recv(mb, last_seen);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, MsgType::Update);
  EXPECT_EQ(msg->args[0], 3u);
  EXPECT_EQ(msg->args[1], 7u);
  EXPECT_EQ(last_seen, 1u);
  EXPECT_FALSE(try_recv(mb, last_seen).has_value());  // consumed exactly once

  post(mb, MsgType::Done, 3);
  ASSERT_TRUE(try_recv(mb, last_seen).has_value());
  EXPECT_EQ(last_seen, 2u);
}

TEST(Mailbox, RejectsCorruptFrames) {
  Mailbox mb;
  reset(mb);
  std::uint64_t last_seen = 0;
  post(mb, MsgType::Update, 5);
  mb.args[0] = 6;  // payload corrupted after the CRC was computed
  EXPECT_THROW((void)try_recv(mb, last_seen), dist_error);
}

TEST(Mailbox, BlockingRecvTimesOut) {
  Mailbox mb;
  reset(mb);
  std::uint64_t last_seen = 0;
  EXPECT_FALSE(recv(mb, last_seen, 0.01).has_value());
}

TEST(Mailbox, DelayedPostIsReceivedWellBeforeDeadline) {
  Mailbox mb;
  reset(mb);
  std::uint64_t last_seen = 0;
  std::thread poster([&mb] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    post(mb, MsgType::Done, 9);
  });
  const auto t0 = std::chrono::steady_clock::now();
  const auto msg = recv(mb, last_seen, 5.0);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  poster.join();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, MsgType::Done);
  EXPECT_EQ(msg->args[0], 9u);
  // The post's futex wake ends the receiver's sleep, so a frame posted
  // ~20 ms in is seen at once — nowhere near the 5 s deadline.
  EXPECT_LT(waited, 1.0);
}

TEST(Mailbox, IdleReceiverInAnotherProcessWakesPromptly) {
  // A forked echo rank idles in recv between frames, the way a worker waits
  // out a checkpoint boundary; each post must wake it directly instead of
  // at its next poll.
  SharedRegion region(2 * sizeof(Mailbox));
  auto* boxes = static_cast<Mailbox*>(region.data());
  reset(boxes[0]);
  reset(boxes[1]);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    try {
      std::uint64_t seen = 0;
      while (true) {
        const auto msg = recv(boxes[0], seen, 30.0);
        if (!msg) ::_exit(1);
        post(boxes[1], MsgType::Done, msg->args[0]);
        if (msg->type == MsgType::Shutdown) ::_exit(0);
      }
    } catch (...) {
      ::_exit(2);
    }
  }

  std::vector<double> latency;
  std::uint64_t seen = 0;
  for (std::uint64_t i = 0; i < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto t0 = std::chrono::steady_clock::now();
    post(boxes[0], MsgType::Update, i);
    const auto reply = recv(boxes[1], seen, 5.0);
    latency.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    EXPECT_TRUE(reply.has_value() && reply->args[0] == i) << "trial " << i;
    if (!reply) break;
  }
  post(boxes[0], MsgType::Shutdown);
  (void)recv(boxes[1], seen, 5.0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  ASSERT_EQ(latency.size(), 20u);
  std::nth_element(latency.begin(), latency.begin() + 10, latency.end());
  // One post→reply round trip is two futex wakes; a sleep-poll receiver
  // would sit at its nap length here instead.
  EXPECT_LT(latency[10], 250e-6);
}

TEST(SharedRegion, FreshArenaReadsZero) {
  // The n = 192 arena's size, then one that reuses pages a dirtied and
  // unmapped arena gave back: a fresh mapping is zero with no memset.
  const std::size_t bytes =
      DistLayout::compute(192, 32, 3, 3).total_bytes + 4096 + 8;
  const auto all_zero = [](const SharedRegion& r) {
    const auto* p = static_cast<const unsigned char*>(r.data());
    return std::all_of(p, p + r.size(), [](unsigned char c) { return c == 0; });
  };
  {
    SharedRegion dirty(bytes);
    ASSERT_EQ(dirty.size(), bytes);
    EXPECT_TRUE(all_zero(dirty));
    std::memset(dirty.data(), 0xA5, dirty.size());
  }
  const SharedRegion fresh(bytes);
  EXPECT_TRUE(all_zero(fresh));
}

TEST(StepGate, ReleasesOnItsTokenOrItsAbortOnly) {
  std::atomic<std::uint32_t> gate{0};
  // A word left by an earlier step, aborted or not, releases no one.
  EXPECT_EQ(publish(gate, 4 | kStepAbort), 0u);
  bool published = false, aborted = true;
  std::thread owner_waiter([&] { published = await_gate(gate, 5); });
  std::thread abort_waiter([&] { aborted = !await_gate(gate, 6); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(publish(gate, 5), 4u | kStepAbort);  // the owner's panel is done
  owner_waiter.join();
  EXPECT_TRUE(published);
  // The next step is given up while its waiter sleeps past the spin.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(publish(gate, 6 | kStepAbort), 5u);
  abort_waiter.join();
  EXPECT_TRUE(aborted);
}

TEST(StepGate, WakesAWaiterInAnotherProcess) {
  SharedRegion region(sizeof(std::atomic<std::uint32_t>));
  auto* gate = new (region.data()) std::atomic<std::uint32_t>(0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ::_exit(await_gate(*gate, 9) ? 0 : 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  (void)publish(*gate, 9);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// --- campaign enumeration ---------------------------------------------------

TEST(CampaignSpec, ParsesAndRoundTrips) {
  const auto spec = CampaignSpec::parse("steps:2-5,ranks:0-3,kinds:kill+torn");
  EXPECT_EQ(spec.step_lo, 2u);
  EXPECT_EQ(spec.step_hi, 5u);
  EXPECT_EQ(spec.rank_lo, 0u);
  EXPECT_EQ(spec.rank_hi, 3u);
  ASSERT_EQ(spec.kinds.size(), 2u);
  EXPECT_EQ(spec.kinds[0], FaultKind::Kill);
  EXPECT_EQ(spec.kinds[1], FaultKind::Torn);
  EXPECT_EQ(spec.cell_count(), 4u * 4u * 2u);

  const auto again = CampaignSpec::parse(spec.to_spec());
  EXPECT_EQ(again.to_spec(), spec.to_spec());

  // Single-value ranges and reordered keys are accepted.
  const auto single = CampaignSpec::parse("kinds:flip,steps:3,ranks:1");
  EXPECT_EQ(single.cell_count(), 1u);
  EXPECT_EQ(single.cell(0).step, 3u);
  EXPECT_EQ(single.cell(0).rank, 1u);
  EXPECT_EQ(single.cell(0).kind, FaultKind::Flip);
}

TEST(CampaignSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)CampaignSpec::parse(""), common::precondition_error);
  EXPECT_THROW((void)CampaignSpec::parse("steps:0-1,ranks:0"),
               common::precondition_error);  // kinds missing
  EXPECT_THROW((void)CampaignSpec::parse("steps:5-2,ranks:0,kinds:kill"),
               common::precondition_error);  // inverted range
  EXPECT_THROW((void)CampaignSpec::parse("steps:0,ranks:0,kinds:melt"),
               common::precondition_error);  // unknown kind
}

TEST(CampaignSpec, EnumeratesRowMajorAndShardsPartition) {
  const auto spec =
      CampaignSpec::parse("steps:1-3,ranks:0-1,kinds:kill+flip+torn");
  ASSERT_EQ(spec.cell_count(), 18u);

  // Row-major: step-major, then rank, then kind.
  EXPECT_EQ(spec.cell(0).step, 1u);
  EXPECT_EQ(spec.cell(0).rank, 0u);
  EXPECT_EQ(spec.cell(0).kind, FaultKind::Kill);
  EXPECT_EQ(spec.cell(2).kind, FaultKind::Torn);
  EXPECT_EQ(spec.cell(3).rank, 1u);
  EXPECT_EQ(spec.cell(6).step, 2u);
  for (std::size_t i = 0; i < spec.cell_count(); ++i)
    EXPECT_EQ(spec.cell(i).index, i);

  // Shards partition [0, cell_count()): every index exactly once.
  std::set<std::size_t> seen;
  for (std::size_t shard = 0; shard < 4; ++shard)
    for (const std::size_t i : spec.shard_indices(shard, 4)) {
      EXPECT_EQ(i % 4, shard);
      EXPECT_TRUE(seen.insert(i).second) << "index " << i << " duplicated";
    }
  EXPECT_EQ(seen.size(), spec.cell_count());
}

TEST(CampaignSpec, ParsesHangAndFlip2AndRoundTrips) {
  const auto spec = CampaignSpec::parse("steps:0-1,ranks:0,kinds:hang+flip2");
  ASSERT_EQ(spec.kinds.size(), 2u);
  EXPECT_EQ(spec.kinds[0], FaultKind::Hang);
  EXPECT_EQ(spec.kinds[1], FaultKind::Flip2);
  EXPECT_EQ(CampaignSpec::parse(spec.to_spec()).to_spec(), spec.to_spec());
  EXPECT_EQ(to_string(FaultKind::Hang), "hang");
  EXPECT_EQ(to_string(FaultKind::Flip2), "flip2");
}

TEST(CampaignSpec, CellSeedsAreDeterministicAndDistinct) {
  EXPECT_EQ(cell_seed(42, 7), cell_seed(42, 7));
  EXPECT_NE(cell_seed(42, 7), cell_seed(42, 8));
  EXPECT_NE(cell_seed(42, 7), cell_seed(43, 7));
}

// --- FaultingBackend --------------------------------------------------------

ckpt::io::SnapshotBlob tiny_blob(ckpt::CkptId id) {
  ckpt::io::SnapshotBlob blob;
  blob.meta.id = id;
  blob.meta.kind = ckpt::CkptKind::Full;
  blob.meta.when = static_cast<double>(id);
  ckpt::io::RegionBlob r;
  r.region = 0;
  r.payload.assign(256, std::byte{0x5A});
  r.crc = common::crc32(std::span(r.payload));
  blob.meta.bytes = r.payload.size();
  blob.regions.push_back(std::move(r));
  return blob;
}

TEST(FaultingBackend, TornPayloadCommitsCorruptBytes) {
  const auto inner = ckpt::io::make_backend("memory");
  ckpt::io::FaultingBackend faulting(
      *inner, {{1, ckpt::io::WriteFault::TornPayload}});

  faulting.write_snapshot(tiny_blob(1));  // write 0: clean
  faulting.write_snapshot(tiny_blob(2));  // write 1: torn
  EXPECT_EQ(faulting.writes_started(), 2u);
  EXPECT_EQ(faulting.faults_fired(), 1u);

  // The torn snapshot committed — it is visible — but its payload fails
  // verification, which is exactly what the restore path must survive.
  ASSERT_EQ(faulting.list().size(), 2u);
  EXPECT_NO_THROW(faulting.read_snapshot(1).verify());
  EXPECT_THROW(faulting.read_snapshot(2).verify(), ckpt::io::io_error);

  // latest_restorable walks past the torn newest to the older clean one.
  const auto best = ckpt::io::latest_restorable(faulting);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->meta.id, 1u);
}

TEST(FaultingBackend, FailedCommitLeavesNoSnapshot) {
  const auto inner = ckpt::io::make_backend("memory");
  ckpt::io::FaultingBackend faulting(
      *inner, {{0, ckpt::io::WriteFault::FailedCommit}});

  EXPECT_THROW(faulting.write_snapshot(tiny_blob(1)), ckpt::io::io_error);
  EXPECT_TRUE(faulting.list().empty());
  EXPECT_TRUE(inner->list().empty());

  // The backend keeps working for later, unfaulted writes.
  EXPECT_NO_THROW(faulting.write_snapshot(tiny_blob(2)));
  EXPECT_EQ(faulting.list().size(), 1u);
}

// --- blind localization -----------------------------------------------------

// Hand-built states for locate_corruption: a random matrix with nothing
// frozen, so the stacked active accumulator is the row-group checksum pair
// of A and the frozen one is all zeros.

struct LocalizationFixture {
  static constexpr std::size_t n = 48, nb = 8, group = 3;  // 6 block rows
  abft::Matrix a, active, frozen;

  LocalizationFixture() {
    common::Rng rng(123);
    a = abft::Matrix::diag_dominant(n, rng);
    active = abft::row_group_checksum_pair(a, nb, group);
    frozen = abft::Matrix::zeros(active.rows(), n);
  }

  [[nodiscard]] Localization locate() const {
    return locate_corruption(a.view(), active.view(), frozen.view(), nb,
                             group, 0);
  }
  /// The same state with every block row frozen: the pair moves to the
  /// frozen accumulator and the active one drains to zero.
  [[nodiscard]] Localization locate_all_frozen() const {
    return locate_corruption(a.view(), frozen.view(), active.view(), nb,
                             group, n / nb);
  }
};

TEST(LocateCorruption, CleanStateNamesNothing) {
  const LocalizationFixture fx;
  const Localization loc = fx.locate();
  EXPECT_FALSE(loc.ambiguous);
  EXPECT_TRUE(loc.sites.empty());
}

TEST(LocateCorruption, NamesASingleCorruptedElementExactly) {
  LocalizationFixture fx;
  // Block row 4 is position 1 (0-based) of group 1, so the weighted
  // residual is 2× the unweighted one in that column.
  fx.a(4 * fx.nb + 3, 17) += 0.5;
  const Localization loc = fx.locate();
  EXPECT_FALSE(loc.ambiguous);
  ASSERT_EQ(loc.sites.size(), 1u);
  EXPECT_EQ(loc.sites[0], (FaultSite{4, 17 / fx.nb, 4 * fx.nb + 3, 17}));
}

TEST(LocateCorruption, TwoBlocksYieldTwoSitesForTheLadderToRefuse) {
  LocalizationFixture fx;
  // Damage in two different blocks: each residual column still resolves
  // cleanly, but the ladder's one-block test must reject reconstruction.
  fx.a(0 * fx.nb + 2, 5) += 0.25;
  fx.a(4 * fx.nb + 6, 30) += 0.125;
  const Localization loc = fx.locate();
  EXPECT_FALSE(loc.ambiguous);
  ASSERT_EQ(loc.sites.size(), 2u);
  EXPECT_EQ(loc.sites[0], (FaultSite{0, 5 / fx.nb, 0 * fx.nb + 2, 5}));
  EXPECT_EQ(loc.sites[1], (FaultSite{4, 30 / fx.nb, 4 * fx.nb + 6, 30}));
}

TEST(LocateCorruption, NonIntegralRatioIsAmbiguous) {
  LocalizationFixture fx;
  // Two deltas in one residual column (same group, same row offset, same
  // column): r2/r1 = (1·0.5 + 3·0.3)/(0.5 + 0.3) = 1.75 — no single site.
  fx.a(3 * fx.nb + 3, 17) += 0.5;
  fx.a(5 * fx.nb + 3, 17) += 0.3;
  const Localization loc = fx.locate();
  EXPECT_TRUE(loc.ambiguous);
  EXPECT_TRUE(loc.sites.empty());
}

TEST(LocateCorruption, CancellingDeltasLeaveWeightedOnlyResidual) {
  LocalizationFixture fx;
  // The sum relation cancels exactly; only the weighted one fires.
  fx.a(3 * fx.nb + 1, 9) += 0.5;
  fx.a(4 * fx.nb + 1, 9) -= 0.5;
  const Localization loc = fx.locate();
  EXPECT_TRUE(loc.ambiguous);
  EXPECT_TRUE(loc.sites.empty());
}

TEST(LocateCorruption, NonFiniteResidualIsAmbiguous) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf,
                           -inf})
    for (const bool frozen : {false, true}) {
      SCOPED_TRACE(std::to_string(bad) + (frozen ? " frozen" : " active"));
      LocalizationFixture fx;
      fx.a(4 * fx.nb + 3, 17) = bad;
      const Localization loc =
          frozen ? fx.locate_all_frozen() : fx.locate();
      EXPECT_TRUE(loc.ambiguous);
      EXPECT_TRUE(loc.sites.empty());
    }
  // A non-finite stored accumulator entry is just as unexplainable.
  LocalizationFixture fx;
  fx.active(fx.active.rows() / 2 + 2, 9) = std::nan("");
  const Localization loc = fx.locate();
  EXPECT_TRUE(loc.ambiguous);
  EXPECT_TRUE(loc.sites.empty());
}

// --- the forked runtime -----------------------------------------------------

/// Equal shape and equal bits in every slot (+0.0 ≠ -0.0, NaN == same NaN).
bool same_bits(abft::ConstMatrixView x, abft::ConstMatrixView y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < x.cols(); ++j)
      if (std::bit_cast<std::uint64_t>(x(i, j)) !=
          std::bit_cast<std::uint64_t>(y(i, j)))
        return false;
  return true;
}

DistConfig small_config() {
  DistConfig cfg;
  cfg.n = 96;
  cfg.nb = 16;
  cfg.ranks = 2;
  cfg.group = 3;
  cfg.ckpt_every = 2;
  cfg.seed = 0x5EEDull;
  return cfg;
}

TEST(DistLauncher, CleanRunMatchesSerialAbftLu) {
  const DistConfig cfg = small_config();
  const auto backend = ckpt::io::make_backend("memory");
  Launcher launcher(cfg, *backend);
  const RunReport report = launcher.run();

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.restores, 0u);
  EXPECT_EQ(report.respawns, 0u);
  EXPECT_EQ(report.reconstructions, 0u);
  EXPECT_LT(report.residual, 1e-8);
  EXPECT_EQ(report.step_seconds.size(), launcher.block_steps());
  EXPECT_EQ(report.checkpoints,
            (launcher.block_steps() + cfg.ckpt_every - 1) / cfg.ckpt_every);

  // The ranks and the serial AbftLu run the one update routine, the ranks
  // over their column sets and AbftLu over all columns at once, so the
  // factors and all four accumulator halves are bitwise the serial ones.
  common::Rng rng(cfg.seed);
  abft::AbftLu serial(abft::Matrix::diag_dominant(cfg.n, rng), cfg.nb,
                      abft::ProcessGrid{cfg.group, 1});
  serial.factor();
  EXPECT_TRUE(same_bits(launcher.lu(), serial.lu()));
  EXPECT_TRUE(same_bits(launcher.active_cs(), serial.active_cs()));
  EXPECT_TRUE(same_bits(launcher.weighted_active_cs(),
                        serial.weighted_active_cs()));
  EXPECT_TRUE(same_bits(launcher.frozen_cs(), serial.frozen_cs()));
  EXPECT_TRUE(same_bits(launcher.weighted_frozen_cs(),
                        serial.weighted_frozen_cs()));
}

TEST(DistLauncher, RepeatRunsAreBitwiseIdentical) {
  const DistConfig cfg = small_config();
  const auto b1 = ckpt::io::make_backend("memory");
  const auto b2 = ckpt::io::make_backend("memory");
  Launcher first(cfg, *b1), second(cfg, *b2);
  (void)first.run();
  (void)second.run();
  EXPECT_EQ(abft::max_abs_diff(first.lu(), second.lu()), 0.0);
}

TEST(DistLauncher, ShapeIsFixedButPerRunFieldsMayChange) {
  const DistConfig cfg = small_config();
  const auto backend = ckpt::io::make_backend("memory");
  Launcher launcher(cfg, *backend);
  (void)launcher.run();

  // Every field but the backend, flip_seed and step_timeout_s fixes the
  // arena, the ranks or the pristine image: changing one throws.
  const std::vector<void (*)(DistConfig&)> reshapes = {
      [](DistConfig& c) { c.n = 48; },
      [](DistConfig& c) { c.nb = 32; },
      [](DistConfig& c) { c.ranks = 3; },
      [](DistConfig& c) { c.group = 2; },
      [](DistConfig& c) { c.seed += 1; },
      [](DistConfig& c) { c.ckpt_every = 3; },
      [](DistConfig& c) { c.blind = !c.blind; },
  };
  for (const auto reshape : reshapes) {
    DistConfig other = cfg;
    reshape(other);
    const auto fresh = ckpt::io::make_backend("memory");
    EXPECT_THROW((void)launcher.run(other, *fresh), common::precondition_error);
  }

  DistConfig per_run = cfg;
  per_run.flip_seed = 7;
  per_run.step_timeout_s = 5.0;
  const auto fresh = ckpt::io::make_backend("memory");
  const RunReport report =
      launcher.run(per_run, *fresh, {{FaultKind::Flip, 2, 1}});
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.reconstructions, 1u);
  EXPECT_EQ(launcher.forks(), cfg.ranks);
}

TEST(DistLauncher, KillRecoversByRestoreAndReplay) {
  const DistConfig cfg = small_config();
  const auto clean_backend = ckpt::io::make_backend("memory");
  Launcher clean(cfg, *clean_backend);
  (void)clean.run();

  const auto backend = ckpt::io::make_backend("memory");
  Launcher injected(cfg, *backend);
  const RunReport report = injected.run({{FaultKind::Kill, 3, 1}});

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.restores, 1u);
  EXPECT_EQ(report.respawns, 1u);
  EXPECT_EQ(report.reconstructions, 0u);
  ASSERT_EQ(report.restored_to_steps.size(), 1u);
  // Step 3 with ckpt_every=2: the covering boundary is step 2.
  EXPECT_EQ(report.restored_to_steps[0], 2u);
  EXPECT_LT(report.residual, 1e-8);

  // Deterministic replay: the recovered run is bitwise the uninjected one.
  EXPECT_EQ(abft::max_abs_diff(injected.lu(), clean.lu()), 0.0);
}

TEST(DistLauncher, FlipRecoversByChecksumReconstruction) {
  const DistConfig cfg = small_config();
  const auto clean_backend = ckpt::io::make_backend("memory");
  Launcher clean(cfg, *clean_backend);
  (void)clean.run();

  const auto backend = ckpt::io::make_backend("memory");
  Launcher injected(cfg, *backend);
  const RunReport report = injected.run({{FaultKind::Flip, 2, 1}});

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.reconstructions, 1u);  // no process died
  EXPECT_EQ(report.restores, 0u);
  EXPECT_EQ(report.respawns, 0u);
  EXPECT_LT(report.residual, 1e-8);
  // Reconstruction is accumulator algebra, not bit replay: the factors agree
  // to rounding, not bitwise.
  EXPECT_LT(abft::relative_error(injected.lu(), clean.lu()), 1e-8);
}

TEST(DistLauncher, WeightedAccumulatorsMatchSerialReference) {
  const DistConfig cfg = small_config();
  const auto backend = ckpt::io::make_backend("memory");
  Launcher launcher(cfg, *backend);
  (void)launcher.run();

  common::Rng rng(cfg.seed);
  abft::AbftLu serial(abft::Matrix::diag_dominant(cfg.n, rng), cfg.nb,
                      abft::ProcessGrid{cfg.group, 1});
  serial.factor();

  // The weighted pair rides through the identical per-element operations as
  // the sum pair, so the dist copies track the serial reference (after the
  // full factorization every group is dead and its active rows are 0.0).
  EXPECT_LT(abft::max_abs_diff(launcher.weighted_frozen_cs(),
                               serial.weighted_frozen_cs()),
            1e-8);
  EXPECT_LT(abft::max_abs_diff(launcher.weighted_active_cs(),
                               serial.weighted_active_cs()),
            1e-8);
}

TEST(DistLauncher, WeightedAccumulatorsAreBitwiseAcrossRankCounts) {
  const DistConfig cfg = small_config();
  DistConfig cfg3 = cfg;
  cfg3.ranks = 3;
  const auto b1 = ckpt::io::make_backend("memory");
  const auto b2 = ckpt::io::make_backend("memory");
  Launcher two(cfg, *b1), three(cfg3, *b2);
  (void)two.run();
  (void)three.run();
  // Column ownership moves work between ranks but never changes any
  // per-element expression, so the factors AND both weighted accumulators
  // are bitwise identical.
  EXPECT_EQ(abft::max_abs_diff(two.lu(), three.lu()), 0.0);
  EXPECT_EQ(abft::max_abs_diff(two.weighted_active_cs(),
                               three.weighted_active_cs()),
            0.0);
  EXPECT_EQ(abft::max_abs_diff(two.weighted_frozen_cs(),
                               three.weighted_frozen_cs()),
            0.0);
}

TEST(DistLauncher, BlindFlipIsLocatedAndReconstructed) {
  DistConfig cfg = small_config();
  cfg.blind = true;  // verify at every boundary; no injection-timing hints
  const auto clean_backend = ckpt::io::make_backend("memory");
  Launcher clean(cfg, *clean_backend);
  (void)clean.run();

  const auto backend = ckpt::io::make_backend("memory");
  Launcher injected(cfg, *backend);
  const RunReport report = injected.run({{FaultKind::Flip, 2, 1}});

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.reconstructions, 1u);
  EXPECT_EQ(report.restores, 0u);
  EXPECT_EQ(report.escalations, 0u);
  EXPECT_GE(report.locates, 1u);
  EXPECT_GT(report.locate_seconds, 0.0);
  EXPECT_GT(report.check_seconds, 0.0);
  // Localization derived the injector's exact site from the residual ratio.
  ASSERT_EQ(report.injected.size(), 1u);
  ASSERT_EQ(report.located.size(), 1u);
  EXPECT_EQ(report.located[0], report.injected[0]);
  EXPECT_LT(report.residual, 1e-8);
  EXPECT_LT(abft::relative_error(injected.lu(), clean.lu()), 1e-8);
}

TEST(DistLauncher, BlindRunReportsItsLastCheckAsTheFinalResidual) {
  DistConfig cfg = small_config();
  cfg.blind = true;
  const auto backend = ckpt::io::make_backend("memory");
  Launcher launcher(cfg, *backend);
  const std::size_t last = launcher.block_steps() - 1;
  // Clean; a flip repaired at the last boundary (the re-verify is the last
  // check); a kill at the last step (the replay's check is).
  const std::vector<std::vector<Injection>> runs = {
      {}, {{FaultKind::Flip, last, 0}}, {{FaultKind::Kill, last, 1}}};
  for (const auto& faults : runs) {
    const auto store = ckpt::io::make_backend("memory");
    const RunReport report = launcher.run(cfg, *store, faults);
    ASSERT_TRUE(report.completed);
    EXPECT_LT(report.residual, kDetectFloor);
    // The sweep over the final state gives the same value, bit for bit.
    EXPECT_EQ(report.residual, launcher.residual_now())
        << "faults=" << faults.size();
  }
}

TEST(DistLauncher, HangIsKilledAtTheDeadlineAndRecovered) {
  DistConfig cfg = small_config();
  cfg.step_timeout_s = 0.5;  // the hang deadline; a real step is ~ms
  const auto clean_backend = ckpt::io::make_backend("memory");
  Launcher clean(cfg, *clean_backend);
  (void)clean.run();

  const auto backend = ckpt::io::make_backend("memory");
  Launcher injected(cfg, *backend);
  const RunReport report = injected.run({{FaultKind::Hang, 3, 1}});

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.hangs, 1u);
  EXPECT_GT(report.hang_wait_seconds, 0.2);
  EXPECT_EQ(report.respawns, 1u);
  EXPECT_EQ(report.restores, 1u);
  EXPECT_EQ(report.reconstructions, 0u);
  ASSERT_EQ(report.restored_to_steps.size(), 1u);
  EXPECT_EQ(report.restored_to_steps[0], 2u);  // covering boundary of step 3
  EXPECT_LT(report.residual, 1e-8);
  // Post-SIGKILL recovery is the death path: deterministic bitwise replay.
  EXPECT_EQ(abft::max_abs_diff(injected.lu(), clean.lu()), 0.0);
}

TEST(DistLauncher, DeathIsSeenWithoutWaitingForTheDeadline) {
  DistConfig cfg = small_config();
  cfg.step_timeout_s = 10.0;
  const auto backend = ckpt::io::make_backend("memory");
  Launcher launcher(cfg, *backend);
  const auto t0 = std::chrono::steady_clock::now();
  const RunReport report = launcher.run({{FaultKind::Kill, 3, 1}});
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // The corpse hangs up its ready pipe, which ends the coordinator's wait
  // at once: the 10 s step deadline never comes into play.
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.hangs, 0u);
  EXPECT_EQ(report.respawns, 1u);
  EXPECT_LT(took, 1.0);
}

TEST(DistLauncher, HangIsCaughtAtItsDeadlineAndNoLater) {
  DistConfig cfg = small_config();
  cfg.step_timeout_s = 0.2;
  const auto backend = ckpt::io::make_backend("memory");
  Launcher launcher(cfg, *backend);
  const RunReport report = launcher.run({{FaultKind::Hang, 3, 1}});

  // The stopped rank keeps its pipe open, so only the deadline ends the
  // wait — one ppoll timeout, not a poll loop overshooting it.
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.hangs, 1u);
  EXPECT_GE(report.hang_wait_seconds, 0.2);
  EXPECT_LT(report.hang_wait_seconds, 0.3);
  EXPECT_LT(report.residual, 1e-8);
}

/// Scheduler state letter ('R', 'S', 'T', 'Z', ...) and parent pid of a
/// process, from /proc/<pid>/stat; nullopt once the process is gone.
struct ProcStat {
  char state = 0;
  pid_t ppid = 0;
};
std::optional<ProcStat> proc_stat(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return std::nullopt;
  // "pid (comm) state ppid ..." — comm may hold spaces; parse past ')'.
  const auto close = line.rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream rest(line.substr(close + 1));
  ProcStat st;
  if (!(rest >> st.state >> st.ppid)) return std::nullopt;
  return st;
}

std::vector<pid_t> children_of(pid_t parent) {
  std::vector<pid_t> kids;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    const auto pid = static_cast<pid_t>(std::stol(name));
    if (const auto st = proc_stat(pid); st && st->ppid == parent)
      kids.push_back(pid);
  }
  return kids;
}

TEST(DistLauncher, RanksDieWithTheirCoordinator) {
  // A helper process runs a launcher into a long hang wait: rank 1 is
  // SIGSTOPped at step 0 and rank 0 idles in its mailbox wait. Killing the
  // helper must take both ranks down instead of leaving them orphaned.
  const pid_t helper = ::fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    try {
      DistConfig cfg = small_config();
      cfg.step_timeout_s = 60.0;
      const auto backend = ckpt::io::make_backend("memory");
      Launcher launcher(cfg, *backend);
      (void)launcher.run({{FaultKind::Hang, 0, 1}});
    } catch (...) {
    }
    ::_exit(0);
  }

  // Wait until both ranks exist and the victim is stopped.
  std::vector<pid_t> ranks;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < give_up) {
    ranks = children_of(helper);
    const bool stopped = std::any_of(ranks.begin(), ranks.end(), [](pid_t p) {
      const auto st = proc_stat(p);
      return st && st->state == 'T';
    });
    if (ranks.size() == 2 && stopped) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(ranks.size(), 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  ::kill(helper, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(helper, &status, 0), helper);

  // A dead rank is gone or a zombie awaiting its new parent's reap.
  const auto alive = [](pid_t p) {
    const auto st = proc_stat(p);
    return st && st->state != 'Z' && st->state != 'X';
  };
  const auto limit = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (std::chrono::steady_clock::now() < limit &&
         std::any_of(ranks.begin(), ranks.end(), alive))
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  for (const pid_t p : ranks) {
    EXPECT_FALSE(alive(p)) << "rank pid " << p << " outlived its coordinator";
    if (alive(p)) ::kill(p, SIGKILL);
  }
}

/// Row-by-row bit equality of two views (NaN-safe, unlike max_abs_diff).
bool bitwise_equal(abft::ConstMatrixView a, abft::ConstMatrixView b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i)
    if (std::memcmp(a.data() + i * a.ld(), b.data() + i * b.ld(),
                    a.cols() * sizeof(double)) != 0)
      return false;
  return true;
}

/// The launcher's own rank processes: children of this process that were
/// not there before it forked.
std::vector<pid_t> ranks_of(const std::vector<pid_t>& before) {
  std::vector<pid_t> ranks;
  for (const pid_t p : children_of(::getpid()))
    if (std::find(before.begin(), before.end(), p) == before.end())
      ranks.push_back(p);
  std::sort(ranks.begin(), ranks.end());
  return ranks;
}

/// One run's inputs: its faults and, for a torn run, the write to tear.
struct RunCase {
  std::vector<Injection> faults;
  std::optional<std::size_t> torn_write;
};

/// Run `rc` on `launcher` into a fresh memory store.
RunReport run_case(Launcher& launcher, const DistConfig& cfg,
                   const RunCase& rc) {
  const auto inner = ckpt::io::make_backend("memory");
  if (!rc.torn_write) return launcher.run(cfg, *inner, rc.faults);
  ckpt::io::FaultingBackend faulting(
      *inner, {{*rc.torn_write, ckpt::io::WriteFault::TornPayload}});
  return launcher.run(cfg, faulting, rc.faults);
}

TEST(DistLauncher, WarmRunsMatchFreshLaunchers) {
  DistConfig cfg = small_config();
  cfg.blind = true;
  const std::vector<RunCase> cases = {
      {{}, std::nullopt},
      {{{FaultKind::Kill, 3, 1}}, std::nullopt},
      {{{FaultKind::Flip, 2, 0}}, std::nullopt},
      {{{FaultKind::Torn, 4, 0}}, 4 / cfg.ckpt_every},
      {{{FaultKind::Flip2, 5, 1}}, std::nullopt},
      {{}, std::nullopt},
  };
  const auto unused = ckpt::io::make_backend("memory");
  Launcher pool(cfg, *unused);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    DistConfig run_cfg = cfg;
    run_cfg.flip_seed = 100 + i;
    const RunReport warm = run_case(pool, run_cfg, cases[i]);
    Launcher fresh(cfg, *unused);
    const RunReport cold = run_case(fresh, run_cfg, cases[i]);

    EXPECT_TRUE(warm.completed);
    EXPECT_EQ(warm.completed, cold.completed);
    EXPECT_EQ(warm.checkpoints, cold.checkpoints);
    EXPECT_EQ(warm.restores, cold.restores);
    EXPECT_EQ(warm.respawns, cold.respawns);
    EXPECT_EQ(warm.reconstructions, cold.reconstructions);
    EXPECT_EQ(warm.locates, cold.locates);
    EXPECT_EQ(warm.escalations, cold.escalations);
    EXPECT_EQ(warm.hangs, cold.hangs);
    EXPECT_EQ(warm.restored_to_steps, cold.restored_to_steps);
    EXPECT_EQ(warm.step_seconds.size(), cold.step_seconds.size());
    EXPECT_EQ(warm.injected, cold.injected);
    EXPECT_EQ(warm.located, cold.located);
    EXPECT_EQ(warm.residual, cold.residual);
    EXPECT_TRUE(bitwise_equal(pool.lu(), fresh.lu()));
    EXPECT_TRUE(bitwise_equal(pool.active_cs(), fresh.active_cs()));
    EXPECT_TRUE(bitwise_equal(pool.frozen_cs(), fresh.frozen_cs()));
    EXPECT_TRUE(
        bitwise_equal(pool.weighted_active_cs(), fresh.weighted_active_cs()));
    EXPECT_TRUE(
        bitwise_equal(pool.weighted_frozen_cs(), fresh.weighted_frozen_cs()));
  }
  // Forked once, plus one per rank a kill or torn run lost (a flip2 run
  // restores without a death).
  std::size_t lost = 0;
  for (const RunCase& rc : cases)
    for (const Injection& f : rc.faults)
      lost += f.kind == FaultKind::Kill || f.kind == FaultKind::Torn;
  EXPECT_EQ(pool.forks(), cfg.ranks + lost);
}

TEST(DistLauncher, WarmRanksKeepTheirPidsAndDieWithTheLauncher) {
  const DistConfig cfg = small_config();
  const std::vector<pid_t> before = children_of(::getpid());
  {
    const auto b1 = ckpt::io::make_backend("memory");
    Launcher launcher(cfg, *b1);
    (void)launcher.run();
    const std::vector<pid_t> first = ranks_of(before);
    ASSERT_EQ(first.size(), cfg.ranks);

    const auto b2 = ckpt::io::make_backend("memory");
    EXPECT_TRUE(launcher.run(cfg, *b2).completed);
    EXPECT_EQ(ranks_of(before), first);  // the same processes served both
    EXPECT_EQ(launcher.forks(), cfg.ranks);
  }
  EXPECT_TRUE(ranks_of(before).empty()) << "a rank outlived ~Launcher";
}

TEST(DistLauncher, RankKilledBetweenRunsIsReplacedBeforeTheNextRun) {
  const DistConfig cfg = small_config();
  const std::vector<pid_t> before = children_of(::getpid());
  const auto b1 = ckpt::io::make_backend("memory");
  Launcher launcher(cfg, *b1);
  (void)launcher.run();
  const abft::Matrix first(launcher.lu());

  const std::vector<pid_t> ranks = ranks_of(before);
  ASSERT_EQ(ranks.size(), cfg.ranks);
  const pid_t victim = ranks.front();
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  // Wait until the victim is a zombie: its ready pipe has hung up.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < give_up) {
    const auto st = proc_stat(victim);
    if (st && st->state == 'Z') break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The corpse is found and replaced before the first step, so the run
  // itself sees no death: nothing is restored.
  const auto b2 = ckpt::io::make_backend("memory");
  const RunReport report = launcher.run(cfg, *b2);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.restores, 0u);
  EXPECT_EQ(report.respawns, 1u);
  EXPECT_EQ(launcher.forks(), cfg.ranks + 1);
  EXPECT_TRUE(bitwise_equal(launcher.lu(), first));
  const std::vector<pid_t> now = ranks_of(before);
  EXPECT_EQ(now.size(), cfg.ranks);
  EXPECT_EQ(std::count(now.begin(), now.end(), victim), 0);
}

/// What each fd ≥ 3 of `pid` links to ("pipe:[N]", a path, ...).
std::vector<std::string> fd_targets(pid_t pid) {
  std::vector<std::string> out;
  std::error_code ec;
  const std::string dir = "/proc/" + std::to_string(pid) + "/fd";
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (std::stoi(entry.path().filename().string()) < 3) continue;
    std::error_code link_ec;
    const auto target = std::filesystem::read_symlink(entry.path(), link_ec);
    if (!link_ec) out.push_back(target.string());
  }
  return out;
}

TEST(DistLauncher, RanksHoldNoFdOfTheCoordinator) {
  // Three kill cells on one warm launcher, each committing to its own log
  // store that is removed after the cell. Every replacement rank is forked
  // while the coordinator holds that cell's segment fds and the other
  // ranks' ready-pipe read ends; it must keep neither.
  const DistConfig cfg = small_config();
  const std::filesystem::path base =
      std::filesystem::path(::testing::TempDir()) / "abftc_dist_rank_fds";
  std::filesystem::remove_all(base);
  const std::vector<pid_t> before = children_of(::getpid());
  const auto unused = ckpt::io::make_backend("memory");
  Launcher launcher(cfg, *unused);
  for (std::size_t cell = 0; cell < 3; ++cell) {
    const std::filesystem::path store = base / ("cell" + std::to_string(cell));
    {
      const auto backend = ckpt::io::make_backend("log:" + store.string());
      const RunReport report = launcher.run(
          cfg, *backend, {{FaultKind::Kill, 3, cell % cfg.ranks}});
      EXPECT_TRUE(report.completed) << "cell " << cell;
      EXPECT_EQ(report.respawns, 1u) << "cell " << cell;
    }
    std::filesystem::remove_all(store);
  }
  std::filesystem::remove_all(base);

  const std::vector<pid_t> ranks = ranks_of(before);
  ASSERT_EQ(ranks.size(), cfg.ranks);
  std::map<std::string, pid_t> pipe_holder;
  for (const pid_t rank : ranks) {
    for (const std::string& target : fd_targets(rank)) {
      EXPECT_EQ(target.find("(deleted)"), std::string::npos)
          << "rank " << rank << " holds " << target;
      if (!target.starts_with("pipe:")) continue;
      // Each ready pipe belongs to one rank: a second holder has another
      // rank's read end.
      const auto [it, fresh] = pipe_holder.emplace(target, rank);
      EXPECT_TRUE(fresh) << "ranks " << it->second << " and " << rank
                         << " both hold " << target;
    }
  }
  EXPECT_EQ(launcher.forks(), cfg.ranks + 3);
}

/// Pids both lists hold.
std::size_t shared_pids(const std::vector<pid_t>& a,
                        const std::vector<pid_t>& b) {
  return static_cast<std::size_t>(std::count_if(
      a.begin(), a.end(), [&](pid_t p) {
        return std::find(b.begin(), b.end(), p) != b.end();
      }));
}

TEST(DistLauncher, SilentStepOwnerIsTheOnlyHangAndSurvivorsKeepTheirPids) {
  DistConfig cfg = small_config();
  cfg.ranks = 3;
  cfg.step_timeout_s = 0.3;
  const std::size_t k = 4;
  const std::size_t owner = owner_of(k, cfg.ranks);
  const std::vector<pid_t> before = children_of(::getpid());
  const auto clean_backend = ckpt::io::make_backend("memory");
  Launcher clean(cfg, *clean_backend);
  (void)clean.run();
  const std::vector<pid_t> others = ranks_of(before);

  const auto backend = ckpt::io::make_backend("memory");
  Launcher launcher(cfg, *backend);
  (void)launcher.run();
  std::vector<pid_t> mine;
  for (const pid_t p : ranks_of(before))
    if (std::find(others.begin(), others.end(), p) == others.end())
      mine.push_back(p);
  ASSERT_EQ(mine.size(), cfg.ranks);

  // The stopped owner never publishes step k's panel, so the other two
  // ranks wait on it until the deadline aborts the step. Only the owner is
  // silent: they answer once released and live on.
  const auto b2 = ckpt::io::make_backend("memory");
  const RunReport report = launcher.run(cfg, *b2, {{FaultKind::Hang, k, owner}});
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.hangs, 1u);
  EXPECT_EQ(report.respawns, 1u);
  EXPECT_EQ(report.restores, 1u);
  EXPECT_TRUE(bitwise_equal(launcher.lu(), clean.lu()));
  std::vector<pid_t> now;
  for (const pid_t p : ranks_of(before))
    if (std::find(others.begin(), others.end(), p) == others.end())
      now.push_back(p);
  EXPECT_EQ(now.size(), cfg.ranks);
  EXPECT_EQ(shared_pids(now, mine), cfg.ranks - 1);
}

TEST(DistLauncher, KilledNonOwnerRestoresOnceAndReplaysBitwise) {
  DistConfig cfg = small_config();
  cfg.ranks = 3;
  const std::size_t k = 4;
  const std::size_t victim = (owner_of(k, cfg.ranks) + 1) % cfg.ranks;
  const auto clean_backend = ckpt::io::make_backend("memory");
  Launcher clean(cfg, *clean_backend);
  (void)clean.run();

  const auto backend = ckpt::io::make_backend("memory");
  Launcher injected(cfg, *backend);
  const RunReport report = injected.run({{FaultKind::Kill, k, victim}});
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.hangs, 0u);
  EXPECT_EQ(report.restores, 1u);
  EXPECT_EQ(report.respawns, 1u);
  ASSERT_EQ(report.restored_to_steps.size(), 1u);
  EXPECT_EQ(report.restored_to_steps[0], k);  // covering boundary of step 4
  EXPECT_TRUE(bitwise_equal(injected.lu(), clean.lu()));
  // The restore re-encodes the accumulators from the restored payload: the
  // frozen half is built exactly as the run maintains it, the active half
  // only agrees to rounding.
  EXPECT_TRUE(bitwise_equal(injected.frozen_cs(), clean.frozen_cs()));
  EXPECT_LE(abft::max_abs_diff(injected.active_cs(), clean.active_cs()),
            kDetectFloor);
}

TEST(DistLauncher, RestoreReencodesTheAccumulatorsFromTheSnapshotPayload) {
  const DistConfig cfg = small_config();
  ckpt::io::MemoryBackend clean_store;
  Launcher launcher(cfg, clean_store);
  ASSERT_TRUE(launcher.run().completed);
  const DistLayout lay =
      DistLayout::compute(cfg.n, cfg.nb, cfg.group, cfg.ranks);
  const std::size_t row = cfg.nb * cfg.n;

  // Restore each boundary from the store's prefix up to it, and compare
  // the arena with the clean run's payload at that boundary — each block
  // row from its newest record in the prefix — encoded from scratch.
  ckpt::io::MemoryBackend prefix;
  abft::Matrix a(cfg.n, cfg.n);
  for (const ckpt::io::SnapshotMeta& meta : clean_store.list()) {
    const std::size_t b = meta.id - 1;
    SCOPED_TRACE("boundary " + std::to_string(b));
    const ckpt::io::SnapshotBlob blob = clean_store.read_snapshot(meta.id);
    prefix.write_snapshot(blob);
    for (std::size_t r = 1; r < blob.regions.size(); ++r) {
      const std::size_t bi = blob.regions[r].region - 1;
      ASSERT_EQ(blob.regions[r].payload.size(), row * sizeof(double));
      std::memcpy(a.storage().data() + bi * row,
                  blob.regions[r].payload.data(), row * sizeof(double));
    }
    ASSERT_TRUE(launcher.restore_now(prefix).has_value());

    abft::Matrix active(2 * lay.csr, cfg.n), frozen(2 * lay.csr, cfg.n);
    abft::lu_encode({a.view(), active.view(), frozen.view(), cfg.nb,
                     cfg.group},
                    b, 1);

    EXPECT_TRUE(bitwise_equal(launcher.lu(), a));
    EXPECT_TRUE(bitwise_equal(launcher.active_cs(),
                              active.view().block(0, 0, lay.csr, cfg.n)));
    EXPECT_TRUE(bitwise_equal(launcher.weighted_active_cs(),
                              active.view().block(lay.csr, 0, lay.csr, cfg.n)));
    EXPECT_TRUE(bitwise_equal(launcher.frozen_cs(),
                              frozen.view().block(0, 0, lay.csr, cfg.n)));
    EXPECT_TRUE(bitwise_equal(launcher.weighted_frozen_cs(),
                              frozen.view().block(lay.csr, 0, lay.csr, cfg.n)));
    EXPECT_LE(launcher.residual_now(), kDetectFloor);
  }
}

/// A StorageBackend decorator that calls `hook` with the snapshot id at
/// every begin_snapshot — the moment of each commit, with the arena
/// quiescent — and forwards everything to `inner`.
class CommitHook final : public ckpt::io::StorageBackend {
 public:
  CommitHook(ckpt::io::StorageBackend& inner,
             std::function<void(ckpt::CkptId)> hook)
      : inner_(inner), hook_(std::move(hook)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "commit-hook";
  }
  void open() override { inner_.open(); }
  [[nodiscard]] ckpt::io::ReadResult read_regions(
      ckpt::CkptId id, const ckpt::io::RegionSink& sink) const override {
    return inner_.read_regions(id, sink);
  }
  [[nodiscard]] std::vector<ckpt::io::SnapshotMeta> list() const override {
    return inner_.list();
  }
  void drop(ckpt::CkptId id) override { inner_.drop(id); }
  [[nodiscard]] std::unique_ptr<WriteSession> begin_snapshot(
      const ckpt::io::SnapshotMeta& meta, std::vector<ckpt::RegionId> regions,
      std::vector<std::uint64_t> region_sizes) override {
    hook_(meta.id);
    return inner_.begin_snapshot(meta, std::move(regions),
                                 std::move(region_sizes));
  }

 private:
  ckpt::io::StorageBackend& inner_;
  std::function<void(ckpt::CkptId)> hook_;
};

/// One run of `launcher` on a fresh memory store, with `write_faults` on
/// its writes, copying the arena matrix at every commit by snapshot id.
struct RecordedRun {
  ckpt::io::MemoryBackend store;
  std::map<ckpt::CkptId, abft::Matrix> copies;
  RunReport report;

  RecordedRun(Launcher& launcher, const DistConfig& cfg,
              const std::vector<Injection>& faults,
              std::vector<ckpt::io::FaultingBackend::Fault> write_faults = {}) {
    ckpt::io::FaultingBackend faulting(store, std::move(write_faults));
    CommitHook recorder(faulting, [&](ckpt::CkptId id) {
      copies.insert_or_assign(id, abft::Matrix(launcher.lu()));
    });
    report = launcher.run(cfg, recorder, faults);
  }

  /// Restore the store's prefix up to each record (records 0..i) on
  /// `launcher` and require the arena to equal, bit for bit, the copy taken
  /// when the restored snapshot was committed. Returns the restored
  /// snapshot's id per prefix (0: none restored).
  std::vector<ckpt::CkptId> restore_every_prefix(Launcher& launcher) const {
    std::vector<ckpt::CkptId> restored;
    ckpt::io::MemoryBackend prefix;
    for (const ckpt::io::SnapshotMeta& meta : store.list()) {
      prefix.write_snapshot(store.read_snapshot(meta.id));
      const auto got = launcher.restore_now(prefix);
      restored.push_back(got ? got->id : 0);
      if (got) {
        EXPECT_TRUE(bitwise_equal(launcher.lu(), copies.at(got->id)))
            << "prefix up to snapshot " << meta.id << " restored " << got->id;
      }
    }
    return restored;
  }
};

/// The ids `store` lists.
std::vector<ckpt::CkptId> ids_of(const ckpt::io::StorageBackend& store) {
  std::vector<ckpt::CkptId> ids;
  for (const ckpt::io::SnapshotMeta& m : store.list()) ids.push_back(m.id);
  return ids;
}

/// The first flip seed from 1 on whose Flip at `step` lands in a block row
/// below `below` and is rebuilt with other bits than the clean run holds
/// there (so a stale stored copy of the row would show).
std::uint64_t frozen_rebuild_seed(Launcher& launcher, DistConfig cfg,
                                  std::size_t step, std::size_t below,
                                  const abft::Matrix& clean_lu) {
  for (cfg.flip_seed = 1; cfg.flip_seed < 400; ++cfg.flip_seed) {
    const auto store = ckpt::io::make_backend("memory");
    const RunReport r =
        launcher.run(cfg, *store, {{FaultKind::Flip, step, step % cfg.ranks}});
    if (r.reconstructions == 1 && r.escalations == 0 &&
        r.injected.front().block_row < below &&
        !bitwise_equal(launcher.lu(), clean_lu))
      return cfg.flip_seed;
  }
  ADD_FAILURE() << "no flip seed rebuilds a frozen row with other bits";
  return 0;
}

TEST(DistLauncher, ChainRestoreEqualsTheArenaAtEveryBoundary) {
  for (const std::size_t every : {1, 2, 3}) {
    SCOPED_TRACE("ckpt_every " + std::to_string(every));
    DistConfig cfg = small_config();
    cfg.ckpt_every = every;
    const auto unused = ckpt::io::make_backend("memory");
    Launcher launcher(cfg, *unused);
    const RecordedRun clean(launcher, cfg, {});
    ASSERT_TRUE(clean.report.completed);
    EXPECT_EQ(clean.restore_every_prefix(launcher), ids_of(clean.store));
  }

  DistConfig cfg = small_config();
  cfg.ckpt_every = 1;  // boundaries 0..5, ids 1..6
  const auto unused = ckpt::io::make_backend("memory");
  Launcher launcher(cfg, *unused);
  const RecordedRun clean(launcher, cfg, {});
  const abft::Matrix clean_lu(launcher.lu());
  using ckpt::io::WriteFault;
  {
    // A torn middle record (boundary 2) and a kill in the step after it:
    // the restore falls back to boundary 1, and the commits after it
    // supersede every row of the torn record, so their chains skip it.
    SCOPED_TRACE("torn record, restore, further commits");
    const RecordedRun run(launcher, cfg, {{FaultKind::Kill, 2, 0}},
                          {{2, WriteFault::TornPayload}});
    ASSERT_TRUE(run.report.completed);
    EXPECT_EQ(run.report.restored_to_steps, std::vector<std::size_t>{1});
    EXPECT_EQ(run.restore_every_prefix(launcher),
              (std::vector<ckpt::CkptId>{1, 2, 2, 4, 5, 6}));
  }
  {
    // A failed commit (boundary 2): the next one writes its rows again.
    SCOPED_TRACE("failed commit");
    const RecordedRun run(launcher, cfg, {}, {{2, WriteFault::FailedCommit}});
    ASSERT_TRUE(run.report.completed);
    EXPECT_EQ(ids_of(run.store), (std::vector<ckpt::CkptId>{1, 2, 4, 5, 6}));
    EXPECT_EQ(run.restore_every_prefix(launcher), ids_of(run.store));
  }
  {
    // A flip in a block row frozen before the last commit (step 4 → rows
    // < 4), rebuilt from the checksums: the rebuilt row agrees with its
    // stored copy only to rounding, so the next commit holds it again.
    SCOPED_TRACE("flip rebuilt in a frozen row");
    DistConfig flip = cfg;
    flip.flip_seed = frozen_rebuild_seed(launcher, cfg, 4, 4, clean_lu);
    const RecordedRun run(launcher, flip, {{FaultKind::Flip, 4, 0}});
    ASSERT_TRUE(run.report.completed);
    ASSERT_EQ(run.report.reconstructions, 1u);
    EXPECT_EQ(run.restore_every_prefix(launcher), ids_of(run.store));
  }
  {
    // The same at step 2 (a rebuilt row < 2), then a torn commit of
    // boundary 3 and a kill in step 3: the restore goes back to boundary 2,
    // before the rebuild, and the torn record holds the rebuilt row. The
    // commits after the restore hold that row too, so their chains skip
    // the torn record instead of falling back past it.
    SCOPED_TRACE("flip rebuilt, torn commit, restore");
    DistConfig flip = cfg;
    flip.flip_seed = frozen_rebuild_seed(launcher, cfg, 2, 2, clean_lu);
    const RecordedRun run(launcher, flip,
                          {{FaultKind::Flip, 2, 0}, {FaultKind::Kill, 3, 1}},
                          {{3, WriteFault::TornPayload}});
    ASSERT_TRUE(run.report.completed);
    EXPECT_EQ(run.report.restored_to_steps, std::vector<std::size_t>{2});
    EXPECT_EQ(run.restore_every_prefix(launcher),
              (std::vector<ckpt::CkptId>{1, 2, 3, 3, 5, 6}));
  }
}

TEST(DistLauncher, KillAfterCompactionFoldedTheChainRestoresTheNewestBoundary) {
  DistConfig cfg = small_config();
  cfg.ckpt_every = 1;
  const auto clean_store = ckpt::io::make_backend("memory");
  Launcher clean(cfg, *clean_store);
  ASSERT_TRUE(clean.run().completed);

  // The store folds the Full and the Incrementals behind it while the run
  // goes on: a pass before every commit, plus a background one after each
  // (compact=1), so the kill's restore may also list the chain before a
  // fold and read it after. Several runs, for the background pass to land
  // anywhere.
  const char* env = std::getenv("TMPDIR");
  const std::filesystem::path base =
      (env != nullptr && *env != '\0') ? std::filesystem::path(env)
                                       : std::filesystem::temp_directory_path();
  const std::filesystem::path dir =
      base / ("abftc_dist_fold." + std::to_string(::getpid()));
  const std::size_t last = clean.block_steps() - 1;
  Launcher injected(cfg, *clean_store);
  for (int run = 0; run < 6; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    std::filesystem::remove_all(dir);
    const auto store =
        ckpt::io::make_backend("log:" + dir.string() + "?flush=0&compact=1");
    auto& log = dynamic_cast<ckpt::io::LogBackend&>(*store);
    CommitHook folding(log, [&](ckpt::CkptId) { (void)log.compact_now(); });
    const RunReport report = injected.run(
        cfg, folding, {{FaultKind::Kill, last, last % cfg.ranks}});
    log.wait_for_compaction();
    EXPECT_GT(log.compaction_stats().records_folded, 0u);
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.restores, 1u);
    EXPECT_EQ(report.restored_to_steps, std::vector<std::size_t>{last});
    EXPECT_TRUE(bitwise_equal(injected.lu(), clean.lu()));
  }
  std::filesystem::remove_all(dir);
}

TEST(DistLauncher, KilledRankIsReapedBeforeRunReturns) {
  const DistConfig cfg = small_config();
  const std::vector<pid_t> before = children_of(::getpid());
  const auto b1 = ckpt::io::make_backend("memory");
  Launcher launcher(cfg, *b1);
  (void)launcher.run();
  const std::vector<pid_t> ranks = ranks_of(before);
  ASSERT_EQ(ranks.size(), cfg.ranks);

  const auto b2 = ckpt::io::make_backend("memory");
  const RunReport report = launcher.run(cfg, *b2, {{FaultKind::Kill, 3, 1}});
  ASSERT_EQ(report.respawns, 1u);
  // The live ranks are still our children; the dead one is already reaped,
  // so waiting for it fails with ECHILD instead of finding a zombie.
  std::size_t reaped = 0;
  for (const pid_t p : ranks) {
    int status = 0;
    const pid_t rc = ::waitpid(p, &status, WNOHANG);
    if (rc < 0) {
      EXPECT_EQ(errno, ECHILD);
      ++reaped;
    } else {
      EXPECT_EQ(rc, 0) << "a live rank had exited";
    }
  }
  EXPECT_EQ(reaped, 1u);
}

extern "C" void ignore_alarm(int) {}

TEST(DistLauncher, SignalsInterruptingSpawnAndReapAreRetried) {
  // A host process's signal handler interrupts the coordinator's blocking
  // waits: here a no-op SIGALRM without SA_RESTART every 200 µs, against
  // runs that kill a rank and so fork, handshake and reap.
  const DistConfig cfg = small_config();
  const auto clean_backend = ckpt::io::make_backend("memory");
  Launcher clean(cfg, *clean_backend);
  (void)clean.run();
  const std::vector<pid_t> before = children_of(::getpid());

  struct sigaction act {};
  act.sa_handler = ignore_alarm;
  sigemptyset(&act.sa_mask);
  act.sa_flags = 0;  // no SA_RESTART: interrupted calls fail with EINTR
  struct sigaction old {};
  ASSERT_EQ(::sigaction(SIGALRM, &act, &old), 0);
  const itimerval every{{0, 200}, {0, 200}};
  ASSERT_EQ(::setitimer(ITIMER_REAL, &every, nullptr), 0);

  std::vector<RunReport> reports;
  bool threw = false;
  abft::Matrix last;
  try {
    const auto backend = ckpt::io::make_backend("memory");
    Launcher launcher(cfg, *backend);
    for (std::size_t step = 0; step < launcher.block_steps(); ++step) {
      const auto b = ckpt::io::make_backend("memory");
      reports.push_back(
          launcher.run(cfg, *b, {{FaultKind::Kill, step, step % cfg.ranks}}));
    }
    last = abft::Matrix(launcher.lu());
  } catch (const std::exception& e) {
    threw = true;
    ADD_FAILURE() << e.what();
  }
  const itimerval off{};
  ::setitimer(ITIMER_REAL, &off, nullptr);
  ::sigaction(SIGALRM, &old, nullptr);

  ASSERT_FALSE(threw);
  for (const RunReport& r : reports) {
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.respawns, 1u);
    EXPECT_EQ(r.restores, 1u);
  }
  EXPECT_TRUE(bitwise_equal(last, clean.lu()));
  // ~Launcher reaped its ranks, and every corpse before that: no zombie.
  for (const pid_t p : children_of(::getpid())) {
    if (std::find(before.begin(), before.end(), p) != before.end()) continue;
    const auto st = proc_stat(p);
    EXPECT_FALSE(st && st->state == 'Z') << "zombie rank " << p;
  }
  EXPECT_TRUE(ranks_of(before).empty());
}

TEST(DistLauncher, RunFromAnotherThreadThrows) {
  const DistConfig cfg = small_config();
  const auto b1 = ckpt::io::make_backend("memory");
  Launcher launcher(cfg, *b1);
  (void)launcher.run();

  // The ranks' parent-death signal follows the thread that forked them, so
  // only that thread may drive (and respawn into) the pool.
  bool threw = false;
  std::thread other([&] {
    const auto b2 = ckpt::io::make_backend("memory");
    try {
      (void)launcher.run(cfg, *b2);
    } catch (const common::precondition_error&) {
      threw = true;
    }
  });
  other.join();
  EXPECT_TRUE(threw);

  const auto b3 = ckpt::io::make_backend("memory");
  EXPECT_TRUE(launcher.run(cfg, *b3).completed);
}

TEST(DistLauncher, Flip2SitesAreLocalizedForEveryFlipSeed) {
  // The two flips of a flip2 cell must land in distinct residual slots
  // (group, in-block row, column); sharing one would leave a combined
  // residual that names neither site. Small 8×8 blocks make a shared slot
  // a 1-in-64 draw, so an injector that allowed it would show up within
  // these 200 seeds.
  DistConfig cfg = small_config();
  cfg.n = 48;
  cfg.nb = 8;
  cfg.blind = true;
  const auto by_site = [](const FaultSite& a, const FaultSite& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  };
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    cfg.flip_seed = seed;
    const std::size_t step = seed % (cfg.n / cfg.nb);
    const std::size_t rank = (seed / 7) % cfg.ranks;
    const auto backend = ckpt::io::make_backend("memory");
    Launcher launcher(cfg, *backend);
    const RunReport report = launcher.run({{FaultKind::Flip2, step, rank}});
    ASSERT_TRUE(report.completed) << "flip_seed " << seed;
    std::vector<FaultSite> want = report.injected, got = report.located;
    std::sort(want.begin(), want.end(), by_site);
    std::sort(got.begin(), got.end(), by_site);
    EXPECT_EQ(got, want) << "flip_seed " << seed << " step " << step
                         << " rank " << rank;
    EXPECT_LT(report.residual, 1e-8) << "flip_seed " << seed;
  }
}

TEST(DistLauncher, Flip2EscalatesPastReconstruction) {
  const DistConfig cfg = small_config();
  const auto clean_backend = ckpt::io::make_backend("memory");
  Launcher clean(cfg, *clean_backend);
  (void)clean.run();

  const auto backend = ckpt::io::make_backend("memory");
  Launcher injected(cfg, *backend);
  const RunReport report = injected.run({{FaultKind::Flip2, 2, 1}});

  EXPECT_TRUE(report.completed);
  // Two corrupted block rows in one group: localization names both sites,
  // the one-block test fails, and the ladder MUST climb to a restore —
  // single-block reconstruction provably cannot repair this.
  EXPECT_EQ(report.reconstructions, 0u);
  EXPECT_EQ(report.escalations, 1u);
  EXPECT_EQ(report.restores, 1u);
  EXPECT_EQ(report.respawns, 0u);  // nobody died; the arena was re-seeded
  ASSERT_EQ(report.injected.size(), 2u);
  EXPECT_NE(report.injected[0].block_row, report.injected[1].block_row);
  EXPECT_EQ(report.injected[0].block_col, report.injected[1].block_col);
  // Both sites were still localized exactly before the ladder escalated.
  auto by_site = [](const FaultSite& a, const FaultSite& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  };
  std::vector<FaultSite> want = report.injected, got = report.located;
  std::sort(want.begin(), want.end(), by_site);
  std::sort(got.begin(), got.end(), by_site);
  EXPECT_EQ(got, want);
  EXPECT_LT(report.residual, 1e-8);
  EXPECT_EQ(abft::max_abs_diff(injected.lu(), clean.lu()), 0.0);
}

TEST(DistLauncher, TornCheckpointFallsBackToOlderSnapshot) {
  const DistConfig cfg = small_config();
  const auto clean_backend = ckpt::io::make_backend("memory");
  Launcher clean(cfg, *clean_backend);
  (void)clean.run();

  // Tear the write covering step 4 (boundary 4 = write index 2), then kill
  // rank 0 at step 4: the restore must skip the torn snapshot and fall back
  // to boundary 2, replaying two extra steps.
  const auto inner = ckpt::io::make_backend("memory");
  ckpt::io::FaultingBackend faulting(
      *inner, {{4 / cfg.ckpt_every, ckpt::io::WriteFault::TornPayload}});
  Launcher injected(cfg, faulting);
  const RunReport report = injected.run({{FaultKind::Torn, 4, 0}});

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(faulting.faults_fired(), 1u);
  EXPECT_EQ(report.restores, 1u);
  EXPECT_EQ(report.respawns, 1u);
  ASSERT_EQ(report.restored_to_steps.size(), 1u);
  EXPECT_EQ(report.restored_to_steps[0], 2u);  // fell back past boundary 4
  EXPECT_LT(report.residual, 1e-8);
  EXPECT_EQ(abft::max_abs_diff(injected.lu(), clean.lu()), 0.0);
}

// One snapshot per ckpt_every-th boundary k, id k+1: progress (region 0)
// and block rows [f, nbk) as regions 1 + f, …, nbk, where f = max(0, k − e)
// is the frozen count of the commit before (the rows it left unfinished);
// kind Full exactly when f = 0. The accumulators are derived data and stay
// out. Every CRC is intact, progress == {k, k} (at a boundary the first k
// block rows are exactly the frozen ones), and the rows the record holds
// that are frozen at k already carry the final factors, bit for bit.
void expect_arena_snapshots(const DistConfig& cfg, const Launcher& launcher,
                            const ckpt::io::MemoryBackend& backend,
                            const RunReport& report) {
  const std::size_t nbk = cfg.n / cfg.nb;
  const std::size_t row_bytes = cfg.nb * cfg.n * sizeof(double);
  const auto metas = backend.list();
  ASSERT_EQ(metas.size(), report.checkpoints);
  for (std::size_t i = 0; i < metas.size(); ++i) {
    const std::uint64_t k = i * cfg.ckpt_every;
    const std::size_t first = k > cfg.ckpt_every ? k - cfg.ckpt_every : 0;
    SCOPED_TRACE("boundary " + std::to_string(k));
    const ckpt::io::SnapshotBlob blob = backend.read_snapshot(metas[i].id);
    EXPECT_NO_THROW(blob.verify());
    EXPECT_EQ(blob.meta.id, k + 1);
    EXPECT_EQ(blob.meta.kind, first == 0 ? ckpt::CkptKind::Full
                                         : ckpt::CkptKind::Incremental);
    EXPECT_EQ(blob.meta.when, static_cast<double>(k));
    EXPECT_EQ(metas[i].bytes, 16 + (nbk - first) * row_bytes);
    ASSERT_EQ(blob.regions.size(), 1 + nbk - first);
    EXPECT_EQ(blob.regions[0].region, 0u);
    std::uint64_t progress[2] = {0, 0};
    ASSERT_EQ(blob.regions[0].payload.size(), sizeof(progress));
    std::memcpy(progress, blob.regions[0].payload.data(), sizeof(progress));
    EXPECT_EQ(progress[0], k);
    EXPECT_EQ(progress[1], k);
    for (std::size_t r = 1; r < blob.regions.size(); ++r) {
      const std::size_t bi = first + r - 1;
      EXPECT_EQ(blob.regions[r].region, 1 + bi);
      ASSERT_EQ(blob.regions[r].payload.size(), row_bytes);
      if (bi < k) {
        EXPECT_EQ(std::memcmp(blob.regions[r].payload.data(),
                              launcher.lu().data() + bi * cfg.nb * cfg.n,
                              row_bytes),
                  0)
            << "frozen block row " << bi;
      }
    }
  }
}

TEST(DistLauncher, CleanRunCommitsVerifiableSnapshotsStraightFromTheArena) {
  const DistConfig cfg = small_config();
  ckpt::io::MemoryBackend backend;
  Launcher launcher(cfg, backend);
  const RunReport report = launcher.run();
  ASSERT_TRUE(report.completed);
  EXPECT_GT(report.commit_seconds, 0.0);
  EXPECT_LT(report.commit_seconds, report.wall_seconds);
  expect_arena_snapshots(cfg, launcher, backend, report);
}

// n=576, nb=48: ~2.7 MB per snapshot, several commit chunks, so every
// commit hashes on a pool task while the launcher appends.
DistConfig multi_chunk_config() {
  DistConfig cfg = small_config();
  cfg.n = 576;
  cfg.nb = 48;
  return cfg;
}

TEST(DistLauncher, MultiChunkSnapshotsHashOnThePoolAndVerify) {
  const DistConfig cfg = multi_chunk_config();
  ckpt::io::MemoryBackend backend;
  Launcher launcher(cfg, backend);
  const RunReport report = launcher.run();
  ASSERT_TRUE(report.completed);
  ASSERT_GT(report.checkpoints, 0u);
  EXPECT_GT(backend.list().front().bytes,
            2 * ckpt::io::WriterOptions{}.chunk_bytes);
  expect_arena_snapshots(cfg, launcher, backend, report);
}

TEST(DistLauncher, FailedMultiChunkCommitThenKillRestoresTheOlderSnapshot) {
  const DistConfig cfg = multi_chunk_config();
  const auto clean_backend = ckpt::io::make_backend("memory");
  Launcher clean(cfg, *clean_backend);
  (void)clean.run();

  // The commit of boundary 4 (write index 2) fails after its hashing task
  // was joined; the kill at step 5 then forks a fresh rank. Recovery must
  // fall back to boundary 2 and replay to the clean factors.
  const auto inner = ckpt::io::make_backend("memory");
  ckpt::io::FaultingBackend faulting(
      *inner, {{4 / cfg.ckpt_every, ckpt::io::WriteFault::FailedCommit}});
  Launcher injected(cfg, faulting);
  const RunReport report = injected.run({{FaultKind::Kill, 5, 1}});

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(faulting.faults_fired(), 1u);
  EXPECT_EQ(report.restores, 1u);
  EXPECT_EQ(report.respawns, 1u);
  EXPECT_EQ(report.restored_to_steps, std::vector<std::size_t>{2});
  EXPECT_LT(report.residual, 1e-8);
  EXPECT_EQ(abft::max_abs_diff(injected.lu(), clean.lu()), 0.0);
}

TEST(DistLauncher, EveryCheckpointTornFallsBackToTheInitialImage) {
  const DistConfig cfg = small_config();
  const auto clean_backend = ckpt::io::make_backend("memory");
  Launcher clean(cfg, *clean_backend);
  (void)clean.run();

  // Tear every snapshot write, then kill a rank at the last step: nothing
  // in storage verifies, so recovery restarts from the initial image.
  const std::size_t last = clean.block_steps() - 1;
  const std::size_t writes =
      (clean.block_steps() + cfg.ckpt_every - 1) / cfg.ckpt_every;
  std::vector<ckpt::io::FaultingBackend::Fault> faults;
  for (std::size_t w = 0; w < writes; ++w)
    faults.push_back({w, ckpt::io::WriteFault::TornPayload});
  const auto inner = ckpt::io::make_backend("memory");
  ckpt::io::FaultingBackend faulting(*inner, faults);
  Launcher injected(cfg, faulting);
  const RunReport report =
      injected.run({{FaultKind::Kill, last, last % cfg.ranks}});

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(faulting.faults_fired(), writes);
  EXPECT_EQ(report.restores, 1u);
  EXPECT_EQ(report.respawns, 1u);
  EXPECT_EQ(report.restored_to_steps, std::vector<std::size_t>{0});
  EXPECT_LT(report.residual, 1e-8);
  EXPECT_EQ(abft::max_abs_diff(injected.lu(), clean.lu()), 0.0);
}

TEST(DistLauncher, ColdInitialImageFallbackThenWarmRunsMatchAFreshCleanRun) {
  const DistConfig cfg = small_config();
  const auto clean_backend = ckpt::io::make_backend("memory");
  Launcher clean(cfg, *clean_backend);
  (void)clean.run();

  // The cold run keeps no pristine copy, so its initial-image fallback
  // draws the matrix from the seed again; the first warm run then draws
  // the copy every later run starts from. Each must land on the clean
  // state bit for bit.
  const auto same_as_clean = [&](const Launcher& l) {
    EXPECT_TRUE(bitwise_equal(l.lu(), clean.lu()));
    EXPECT_TRUE(bitwise_equal(l.active_cs(), clean.active_cs()));
    EXPECT_TRUE(bitwise_equal(l.frozen_cs(), clean.frozen_cs()));
    EXPECT_TRUE(
        bitwise_equal(l.weighted_active_cs(), clean.weighted_active_cs()));
    EXPECT_TRUE(
        bitwise_equal(l.weighted_frozen_cs(), clean.weighted_frozen_cs()));
  };
  const std::size_t last = clean.block_steps() - 1;
  const std::size_t writes =
      (clean.block_steps() + cfg.ckpt_every - 1) / cfg.ckpt_every;
  std::vector<ckpt::io::FaultingBackend::Fault> faults;
  for (std::size_t w = 0; w < writes; ++w)
    faults.push_back({w, ckpt::io::WriteFault::TornPayload});
  const auto inner = ckpt::io::make_backend("memory");
  ckpt::io::FaultingBackend faulting(*inner, faults);
  Launcher pool(cfg, faulting);
  const RunReport cold =
      pool.run({{FaultKind::Kill, last, last % cfg.ranks}});
  EXPECT_TRUE(cold.completed);
  EXPECT_EQ(faulting.faults_fired(), writes);
  EXPECT_EQ(cold.restored_to_steps, std::vector<std::size_t>{0});
  same_as_clean(pool);

  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE("warm run " + std::to_string(i + 1));
    const auto backend = ckpt::io::make_backend("memory");
    const RunReport warm = pool.run(cfg, *backend);
    EXPECT_TRUE(warm.completed);
    EXPECT_EQ(warm.restores, 0u);
    same_as_clean(pool);
  }
  EXPECT_EQ(pool.forks(), cfg.ranks + 1);
}

TEST(DistCampaign, MiniCampaignRecoversEveryCell) {
  DistConfig cfg = small_config();
  cfg.n = 48;  // 3 block steps: 3 × 2 ranks × 3 kinds = 18 cells
  const auto spec =
      CampaignSpec::parse("steps:0-2,ranks:0-1,kinds:kill+flip+torn");

  const CampaignReport report = run_campaign(cfg, spec);
  ASSERT_EQ(report.cells.size(), spec.cell_count());

  std::set<std::size_t> indices;
  for (const CellOutcome& c : report.cells) {
    EXPECT_TRUE(c.recovered) << "cell " << c.cell.index << " ("
                             << to_string(c.cell.kind) << " step "
                             << c.cell.step << " rank " << c.cell.rank << ")";
    EXPECT_TRUE(indices.insert(c.cell.index).second);
    EXPECT_GT(c.measured_seconds, 0.0);
    EXPECT_GT(c.predicted_seconds, 0.0);
  }
  EXPECT_EQ(indices.size(), spec.cell_count());
  EXPECT_EQ(report.unrecovered, 0u);
  EXPECT_GT(report.calib.t_clean, 0.0);
  EXPECT_EQ(report.calib.step_seconds.size(), cfg.n / cfg.nb);
}

TEST(DistCampaign, BlindMiniCampaignLocalizesAndEscalatesEveryCell) {
  DistConfig cfg = small_config();
  cfg.n = 48;  // 3 block steps: 3 × 2 ranks × 3 kinds = 18 cells
  const auto spec =
      CampaignSpec::parse("steps:0-2,ranks:0-1,kinds:flip+hang+flip2");
  CampaignOptions options;
  options.blind = true;

  const CampaignReport report = run_campaign(cfg, spec, options);
  ASSERT_EQ(report.cells.size(), spec.cell_count());
  EXPECT_EQ(report.unrecovered, 0u);
  EXPECT_GT(report.calib.locate_s, 0.0);
  EXPECT_GE(report.calib.hang_timeout_s, 0.25);

  for (const CellOutcome& c : report.cells) {
    EXPECT_TRUE(c.recovered) << "cell " << c.cell.index << " ("
                             << to_string(c.cell.kind) << " step "
                             << c.cell.step << " rank " << c.cell.rank << ")";
    // No cell ever saw its injection coordinates; a derived localization
    // that disagreed with the injector's ground truth would show up here.
    EXPECT_TRUE(c.site_match) << "cell " << c.cell.index;
    switch (c.cell.kind) {
      case FaultKind::Flip:
        EXPECT_EQ(c.reconstructions, 1u);
        EXPECT_EQ(c.escalations, 0u);
        EXPECT_GT(c.locate_seconds, 0.0);
        EXPECT_EQ(c.injected.size(), 1u);
        break;
      case FaultKind::Flip2:
        EXPECT_EQ(c.reconstructions, 0u);
        EXPECT_EQ(c.escalations, 1u);
        EXPECT_GE(c.restores, 1u);
        EXPECT_EQ(c.injected.size(), 2u);
        break;
      case FaultKind::Hang:
        EXPECT_EQ(c.hangs, 1u);
        EXPECT_GT(c.hang_wait_seconds, 0.0);
        EXPECT_GE(c.respawns, 1u);
        break;
      default:
        FAIL() << "unexpected kind in this campaign";
    }
  }
}

TEST(DistCampaign, BlindKillCellsPriceEveryReverifiedBoundary) {
  DistConfig cfg = small_config();  // 6 block steps
  cfg.ckpt_every = 3;               // replays of up to 3 steps
  const auto spec = CampaignSpec::parse("steps:0-5,ranks:0,kinds:kill");
  CampaignOptions options;
  options.blind = true;

  const CampaignReport report = run_campaign(cfg, spec, options);
  ASSERT_EQ(report.cells.size(), spec.cell_count());
  EXPECT_EQ(report.unrecovered, 0u);
  const Calibration& calib = report.calib;
  EXPECT_GT(calib.check_s, 0.0);
  for (const CellOutcome& c : report.cells) {
    // Restore to covering boundary b, replay steps b..s; a blind run
    // re-verifies b..s-1 (s was never verified before the kill).
    const std::size_t s = c.cell.step, b = s / cfg.ckpt_every * cfg.ckpt_every;
    double replay = 0.0;
    for (std::size_t k = b; k <= s; ++k) replay += calib.step_seconds[k];
    const double expected = calib.t_clean + calib.restore_s + replay +
                            static_cast<double>(s - b) * calib.check_s;
    EXPECT_NEAR(c.predicted_seconds, expected, 1e-12) << "step " << s;
  }
}

TEST(DistCampaign, LogStorageRecoversEveryCellWithCompaction) {
  DistConfig cfg = small_config();
  cfg.n = 48;
  const auto spec =
      CampaignSpec::parse("steps:0-2,ranks:0-1,kinds:kill+torn");

  // Durable sharded-log store with background compaction racing the
  // campaign's checkpoint traffic; storage_for splices ".cellN" before the
  // '?' so cells never share a directory.
  const char* env = std::getenv("TMPDIR");
  const std::filesystem::path base =
      (env != nullptr && *env != '\0') ? std::filesystem::path(env)
                                       : std::filesystem::temp_directory_path();
  const std::filesystem::path store =
      base / ("abftc_dist_log_campaign." + std::to_string(::getpid()));
  std::filesystem::remove_all(store);
  CampaignOptions options;
  options.storage = "log:" + store.string() + "?compact=4";

  const CampaignReport report = run_campaign(cfg, spec, options);
  ASSERT_EQ(report.cells.size(), spec.cell_count());
  for (const CellOutcome& c : report.cells)
    EXPECT_TRUE(c.recovered) << "cell " << c.cell.index << " ("
                             << to_string(c.cell.kind) << " step "
                             << c.cell.step << " rank " << c.cell.rank << ")";
  EXPECT_EQ(report.unrecovered, 0u);
  std::filesystem::remove_all(store);
}

TEST(DistCampaign, CalibrationTimesItsResidualSweep) {
  DistConfig cfg = small_config();
  cfg.n = 192;
  cfg.nb = 32;
  const CampaignReport report =
      run_campaign(cfg, CampaignSpec::parse("steps:0,ranks:0,kinds:kill"));
  EXPECT_EQ(report.unrecovered, 0u);
  // One sweep over 192² elements and two stacked accumulators cannot take
  // under a microsecond; a sweep whose result is discarded and optimized
  // away reads tens of nanoseconds.
  EXPECT_GT(report.calib.check_s, 1e-6);
  // A snapshot is progress and the payload: the accumulators stay out.
  EXPECT_EQ(report.calib.snapshot_bytes, 16 + 8 * cfg.n * cfg.n);
  // Boundaries 0, 2, 4 of 6 block rows commit 6, 6 and 4 of them.
  EXPECT_EQ(report.calib.commit_bytes, 3 * 16 + 16 * 8 * cfg.n * cfg.nb);
}

TEST(DistCampaign, ShardsCoverTheCampaignExactlyOnce) {
  DistConfig cfg = small_config();
  cfg.n = 48;
  const auto spec = CampaignSpec::parse("steps:0-2,ranks:0-1,kinds:kill");

  std::set<std::size_t> indices;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    CampaignOptions options;
    options.shard = shard;
    options.nshards = 2;
    const CampaignReport report = run_campaign(cfg, spec, options);
    EXPECT_EQ(report.unrecovered, 0u);
    for (const CellOutcome& c : report.cells)
      EXPECT_TRUE(indices.insert(c.cell.index).second);
  }
  EXPECT_EQ(indices.size(), spec.cell_count());
}


/// A campaign's cells replayed by hand on one fresh launcher each: what
/// the campaign's warm launcher must reproduce cell for cell.
std::vector<CellOutcome> fresh_launcher_cells(const CampaignReport& pooled) {
  const DistConfig& base = pooled.config;
  const auto unused = ckpt::io::make_backend("memory");
  Launcher ref(base, *unused);
  (void)ref.run();
  const abft::Matrix clean_lu(ref.lu());

  std::vector<CellOutcome> cells;
  for (const CellOutcome& p : pooled.cells) {
    const Cell& cell = p.cell;
    DistConfig cfg = base;
    cfg.flip_seed = cell_seed(base.seed, cell.index);
    if (cell.kind == FaultKind::Hang)
      cfg.step_timeout_s = pooled.calib.hang_timeout_s;
    RunCase rc;
    rc.faults = {{cell.kind, cell.step, cell.rank}};
    if (cell.kind == FaultKind::Torn) rc.torn_write = cell.step / base.ckpt_every;
    Launcher fresh(base, *unused);
    const RunReport rep = run_case(fresh, cfg, rc);

    CellOutcome out;
    out.cell = cell;
    out.residual = rep.residual;
    out.factor_error = abft::relative_error(fresh.lu(), clean_lu);
    out.recovered =
        rep.completed && rep.residual < 1e-7 && out.factor_error < 1e-8;
    out.restores = rep.restores;
    out.reconstructions = rep.reconstructions;
    out.respawns = rep.respawns;
    out.escalations = rep.escalations;
    out.hangs = rep.hangs;
    out.injected = rep.injected;
    out.located = rep.located;
    cells.push_back(out);
  }
  return cells;
}

TEST(DistCampaign, PooledCampaignMatchesFreshLaunchersPerCell) {
  DistConfig cfg = small_config();
  cfg.n = 192;
  cfg.nb = 32;
  cfg.ranks = 3;
  CampaignOptions options;
  options.blind = true;
  for (const char* text : {"steps:0-5,ranks:0-2,kinds:kill+flip+torn+flip2",
                           "steps:0-1,ranks:0-1,kinds:hang"}) {
    SCOPED_TRACE(text);
    const CampaignSpec spec = CampaignSpec::parse(text);
    const CampaignReport pooled = run_campaign(cfg, spec, options);
    ASSERT_EQ(pooled.cells.size(), spec.cell_count());
    EXPECT_EQ(pooled.unrecovered, 0u);

    // The campaign forked its ranks once and re-forked only dead ones.
    std::size_t respawns = 0;
    for (const CellOutcome& c : pooled.cells) respawns += c.respawns;
    EXPECT_EQ(pooled.forks, cfg.ranks + respawns);

    const std::vector<CellOutcome> fresh = fresh_launcher_cells(pooled);
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      const CellOutcome& p = pooled.cells[i];
      const CellOutcome& f = fresh[i];
      SCOPED_TRACE("cell " + std::to_string(p.cell.index));
      EXPECT_EQ(p.recovered, f.recovered);
      EXPECT_EQ(p.residual, f.residual);
      EXPECT_EQ(p.factor_error, f.factor_error);  // bitwise-equal factors
      EXPECT_EQ(p.restores, f.restores);
      EXPECT_EQ(p.reconstructions, f.reconstructions);
      EXPECT_EQ(p.respawns, f.respawns);
      EXPECT_EQ(p.escalations, f.escalations);
      EXPECT_EQ(p.hangs, f.hangs);
      EXPECT_EQ(p.injected, f.injected);
      EXPECT_EQ(p.located, f.located);
      EXPECT_EQ(p.site_match, f.injected.size() == f.located.size() &&
                                  std::is_permutation(f.injected.begin(),
                                                      f.injected.end(),
                                                      f.located.begin()));
    }
  }
}

}  // namespace
