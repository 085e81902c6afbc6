#include "dist/launcher.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "abft/checksum.hpp"
#include "abft/kernels.hpp"
#include "ckpt/io/writer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace abftc::dist {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Empty a non-blocking doorbell pipe. Every wake drains it fully, so the
/// 64 KiB pipe never fills and a ringing worker never blocks in write().
void drain(int fd) {
  char buf[64];
  while (::read(fd, buf, sizeof(buf)) > 0) {
  }
}

/// Minimum post-flip |Δ| the injector accepts: 10⁴× the detection floor, so
/// a chosen site *provably* clears it instead of hoping the element was big.
constexpr double kFlipMargin = 1e-4;

/// Maximum post-flip magnitude the injector accepts. A top-exponent-bit flip
/// can land just under DBL_MAX — finite, but the weighted accumulator
/// recomputation multiplies it by the group position, overflowing r2 to Inf
/// and turning a localizable single flip into an unresolvable column. Capped
/// far enough below DBL_MAX that w·Δ plus the surviving addends stays
/// finite for any realistic group size.
constexpr double kFlipMagnitudeCap = 1e300;

}  // namespace

struct Launcher::Rank {
  pid_t pid = -1;
  /// Read end of the ready pipe, non-blocking after the handshake: one
  /// byte per Done (POLLIN), POLLHUP once the rank is dead.
  int ready_fd = -1;
  std::uint64_t rsp_seen = 0;
};

Launcher::Launcher(DistConfig cfg, ckpt::io::StorageBackend& backend)
    : cfg_(cfg), backend_(backend) {
  layout_ = DistLayout::compute(cfg_.n, cfg_.nb, cfg_.group, cfg_.ranks);
  nbk_ = layout_.nbk;
  ABFTC_REQUIRE(cfg_.ckpt_every > 0, "ckpt_every must be positive");
  ranks_.resize(cfg_.ranks);
  // Resolved here, outside the serial KernelPolicyGuard that run() holds:
  // the residual sweep passes this thread count to parallel_for explicitly.
  verify_threads_ =
      cfg_.verify_threads != 0
          ? cfg_.verify_threads
          : std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
}

Launcher::~Launcher() { reap_all(); }

void Launcher::reap_all() noexcept {
  for (Rank& r : ranks_) {
    if (r.pid > 0) {
      ::kill(r.pid, SIGKILL);
      int status = 0;
      ::waitpid(r.pid, &status, 0);
      r.pid = -1;
    }
    if (r.ready_fd >= 0) {
      ::close(r.ready_fd);
      r.ready_fd = -1;
    }
  }
}

void Launcher::spawn(std::size_t r) {
  int fds[2];
  if (::pipe(fds) != 0) throw dist_error("pipe() for ready handshake failed");
  const pid_t coordinator = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw dist_error("fork() of worker rank failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    worker_main(arena_->data(), layout_, r, fds[1], coordinator);  // no return
  }
  ::close(fds[1]);
  // Wait for the one-byte ready handshake; a child that dies before serving
  // shows up as POLLHUP here instead of hanging the launcher.
  pollfd pfd{fds[0], POLLIN, 0};
  const int rc = ::poll(&pfd, 1, 10'000);
  char byte = 0;
  if (rc <= 0 || ::read(fds[0], &byte, 1) != 1 ||
      ::fcntl(fds[0], F_SETFL, O_NONBLOCK) != 0) {
    ::close(fds[0]);
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    throw dist_error("worker rank " + std::to_string(r) +
                     " failed the ready handshake");
  }
  ranks_[r].pid = pid;
  ranks_[r].ready_fd = fds[0];
  ranks_[r].rsp_seen = shared_.rsp[r].seq.load(std::memory_order_acquire);
}

bool Launcher::await_done(std::size_t r, std::size_t k, RunReport& report) {
  Rank& rank = ranks_[r];
  if (rank.pid <= 0) return false;  // already known dead (killed before)
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(cfg_.step_timeout_s));
  const auto bury = [&] {
    int status = 0;
    ::waitpid(rank.pid, &status, 0);
    rank.pid = -1;
    ::close(rank.ready_fd);
    rank.ready_fd = -1;
  };
  bool hung_up = false;
  while (true) {
    // A Done posted just before the rank died still counts, so the frame
    // is checked before the hang-up.
    if (auto msg = try_recv(shared_.rsp[r], rank.rsp_seen)) {
      if (msg->type != MsgType::Done || msg->args[0] != k)
        throw dist_error("rank " + std::to_string(r) +
                         " answered out of protocol at step " +
                         std::to_string(k));
      return true;
    }
    if (hung_up) {  // every write end closed and no frame: the rank died
      bury();
      return false;
    }
    const auto left = deadline - Clock::now();
    if (left <= Clock::duration::zero()) {
      // Deadline with the pipe still open: the rank is alive but silent —
      // SIGSTOPped, livelocked, or wedged. That distinction (livelock vs
      // death) is worth a separate counter; the remedy is the same: SIGKILL
      // (which stopped processes do honor) and let the death path recover.
      ++report.hangs;
      report.hang_wait_seconds += seconds_since(t0);
      ::kill(rank.pid, SIGKILL);
      bury();
      return false;
    }
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
    const timespec timeout{static_cast<time_t>(ns / 1'000'000'000),
                           static_cast<long>(ns % 1'000'000'000)};
    pollfd pfd{rank.ready_fd, POLLIN, 0};
    const int rc = ::ppoll(&pfd, 1, &timeout, nullptr);
    if (rc < 0 && errno != EINTR)
      throw dist_error("ppoll on rank " + std::to_string(r) +
                       "'s ready pipe failed");
    if (rc <= 0) continue;  // timeout or signal: re-check, then deadline
    if ((pfd.revents & POLLIN) != 0) drain(rank.ready_fd);
    hung_up = (pfd.revents & (POLLHUP | POLLERR)) != 0;
  }
}

Launcher::Regions Launcher::snapshot_regions(std::uint64_t (&progress)[2]) {
  const std::size_t mat = layout_.n * layout_.n;
  const std::size_t acc = 2 * layout_.csr * layout_.n;
  return {std::as_writable_bytes(std::span(progress)),
          std::as_writable_bytes(std::span(shared_.matrix, mat)),
          std::as_writable_bytes(std::span(shared_.active, acc)),
          std::as_writable_bytes(std::span(shared_.frozen, acc))};
}

void Launcher::load_blob(const ckpt::io::SnapshotBlob& blob) {
  std::uint64_t progress[2] = {0, 0};
  const Regions regions = snapshot_regions(progress);
  for (const ckpt::io::RegionBlob& r : blob.regions) {
    ABFTC_CHECK(r.region < regions.size(),
                "dist snapshot has an unknown region");
    const std::span<std::byte> dst = regions[r.region];
    ABFTC_CHECK(r.payload.size() == dst.size(),
                "dist snapshot region has the wrong size");
    std::memcpy(dst.data(), r.payload.data(), dst.size());
  }
  frozen_steps_ = static_cast<std::size_t>(progress[1]);
}

void Launcher::checkpoint(std::size_t boundary, RunReport& report) {
  // Replay revisits earlier boundaries; their snapshots already exist (or
  // already failed), so only first encounters write.
  if (max_boundary_attempted_ != std::numeric_limits<std::size_t>::max() &&
      boundary <= max_boundary_attempted_)
    return;
  max_boundary_attempted_ = boundary;
  ++report.checkpoints;
  const auto t0 = Clock::now();

  // Zero-copy commit through the shared routine: every region streams
  // straight out of the arena while one pool task hashes the same spans.
  // The arena is quiescent here — each rank answered Done and waits in
  // recv — so the bytes cannot move under the hash or the write, and the
  // routine joins its task before returning, so no later fork inherits it.
  std::uint64_t progress[2] = {boundary, frozen_steps_};
  const Regions regions = snapshot_regions(progress);
  std::array<ckpt::io::RegionSpan, std::tuple_size_v<Regions>> spans;
  for (ckpt::RegionId id = 0; id < regions.size(); ++id)
    spans[id] = {id, regions[id]};
  ckpt::io::SnapshotMeta meta;
  meta.id = static_cast<ckpt::CkptId>(boundary + 1);
  meta.kind = ckpt::CkptKind::Full;
  meta.when = static_cast<double>(boundary);
  try {
    ckpt::io::commit_snapshot(backend_, meta, spans);
  } catch (const ckpt::io::io_error&) {
    // An injected (or real) commit failure costs this protection point but
    // not the run: recovery falls back to the previous snapshot.
  }
  report.commit_seconds += seconds_since(t0);
}

void Launcher::load_initial() {
  // Restart from scratch: the pristine matrix and its step-0 accumulator;
  // nothing is frozen yet, so the frozen accumulator restarts at zero.
  const auto copy_in = [](double* dst, const abft::Matrix& src) {
    std::memcpy(dst, src.storage().data(),
                src.storage().size() * sizeof(double));
  };
  copy_in(shared_.matrix, a0_);
  copy_in(shared_.active, cs0_);
  std::memset(shared_.frozen, 0, cs0_.storage().size() * sizeof(double));
  frozen_steps_ = 0;
}

std::size_t Launcher::restore_and_respawn(RunReport& report) {
  const auto t0 = Clock::now();
  if (const auto blob = ckpt::io::latest_restorable(backend_))
    load_blob(*blob);
  else
    load_initial();
  const std::size_t resume = frozen_steps_;
  report.restore_seconds += seconds_since(t0);
  ++report.restores;
  report.restored_to_steps.push_back(resume);

  for (std::size_t r = 0; r < cfg_.ranks; ++r) {
    if (ranks_[r].pid > 0) continue;
    reset(shared_.cmd[r]);
    reset(shared_.rsp[r]);
    spawn(r);
    ++report.respawns;
  }
  return resume;
}

double Launcher::residual_now() const {
  // The invariants hold at every step boundary, so any excess residual is
  // silent corruption.
  return abft::lu_checksum_residual(shared_.lu(), frozen_steps_,
                                    verify_threads_);
}

Localization locate_corruption(abft::ConstMatrixView a,
                               abft::ConstMatrixView active,
                               abft::ConstMatrixView frozen, std::size_t nb,
                               std::size_t group, std::size_t frozen_steps) {
  const abft::LuConstView s{a, active, frozen, nb, group};
  Localization loc;
  for (std::size_t row = 0; row < s.csr(); ++row) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      // A single corrupted element with delta d at group position m leaves
      // r1 = d in the sum relation and r2 = (m+1)·d in the weighted one for
      // its class; r2/r1 names the victim exactly.
      const abft::SlotResidual res =
          abft::lu_slot_residual(s, frozen_steps, row, j);
      for (int cls = 0; cls < 2; ++cls) {
        const double r1 = res.sum[cls], r2 = res.weighted[cls];
        if (std::abs(r1) <= kDetectFloor &&
            std::abs(r2) <= kDetectFloor * static_cast<double>(group + 1))
          continue;  // clean slot (weighted noise scales with the weights)
        if (std::abs(r1) <= kDetectFloor) {
          // Weighted-only residual: cancelling deltas or a corrupted
          // accumulator — no single site explains it.
          loc.ambiguous = true;
          continue;
        }
        const double ratio = r2 / r1;
        const double nearest = std::round(ratio);
        if (nearest < 1.0 || nearest > static_cast<double>(group) ||
            std::abs(ratio - nearest) > 0.05) {
          loc.ambiguous = true;  // not a single-element signature
          continue;
        }
        const std::size_t bi =
            (row / nb) * group + static_cast<std::size_t>(nearest) - 1;
        if ((bi < frozen_steps) != (cls == 1)) {
          loc.ambiguous = true;  // named row lives in the other class
          continue;
        }
        loc.sites.push_back(FaultSite{bi, j / nb, bi * nb + row % nb, j});
      }
    }
  }
  return loc;
}

Localization Launcher::locate_fault() const {
  const abft::LuView s = shared_.lu();
  return locate_corruption(s.a, s.active, s.frozen, cfg_.nb, cfg_.group,
                           frozen_steps_);
}

void Launcher::reconstruct_block(const FaultSite& site) {
  abft::lu_rebuild_block(shared_.lu(), frozen_steps_, site.block_row,
                         site.block_col);
}

std::size_t Launcher::recover_from_corruption(std::size_t step,
                                              RunReport& report) {
  // Rung 1: localize from the weighted/unweighted residual ratio.
  auto t0 = Clock::now();
  const Localization loc = locate_fault();
  report.locate_seconds += seconds_since(t0);
  ++report.locates;
  for (const FaultSite& s : loc.sites) report.located.push_back(s);

  // Rung 2: clean localization with all damage inside one block →
  // dual-accumulator reconstruction, then re-verify (a wrong or partial
  // repair must not survive into the next step).
  bool one_block = !loc.ambiguous && !loc.sites.empty();
  for (const FaultSite& s : loc.sites)
    one_block = one_block && s.block_row == loc.sites.front().block_row &&
                s.block_col == loc.sites.front().block_col;
  if (one_block) {
    t0 = Clock::now();
    reconstruct_block(loc.sites.front());
    report.recons_seconds += seconds_since(t0);
    ++report.reconstructions;
    t0 = Clock::now();
    const double res = residual_now();
    report.check_seconds += seconds_since(t0);
    if (res <= kDetectFloor) return step + 1;
  }

  // Rung 3+: reconstruction cannot explain (or did not repair) the damage —
  // escalate to the checkpoint ladder. restore_and_respawn itself walks
  // latest_restorable past torn snapshots and bottoms out at the initial
  // image, so every deeper rung is already inside it.
  ++report.escalations;
  return restore_and_respawn(report);
}

void Launcher::inject_flip(const Injection& inj, std::uint64_t seed,
                           RunReport& report) {
  // Injection ONLY: sites go into report.injected for post-hoc campaign
  // comparison, never into a recovery decision — detection happens at the
  // step-boundary verification and localization is derived from the
  // weighted residuals.
  abft::MatrixView a = shared_.lu().a;
  common::Rng rng(seed);

  std::vector<std::size_t> owned;
  for (std::size_t j = inj.rank; j < nbk_; j += cfg_.ranks) owned.push_back(j);
  ABFTC_CHECK(!owned.empty(), "victim rank owns no columns");

  // Deterministic-retry site selection: flip one exponent bit (52–62 of the
  // IEEE-754 representation — at least a factor-of-2 change, the way a DRAM
  // upset in the high bits corrupts) and accept the site only if the
  // realized |Δ| provably clears the detection floor and the result stays
  // finite (an Inf would break the ratio algebra instead of testing it).
  // Rejected probes re-roll everything, so the choice stays a deterministic
  // function of the seed.
  const auto flip_element = [&](std::size_t fbi, std::size_t fbj,
                                bool any_block,
                                const FaultSite* avoid) -> FaultSite {
    for (int probe = 0; probe < 100'000; ++probe) {
      const std::size_t bj = any_block ? owned[rng.below(owned.size())] : fbj;
      const std::size_t bi = any_block ? rng.below(nbk_) : fbi;
      const std::size_t er = rng.below(cfg_.nb);
      const std::size_t ec = rng.below(cfg_.nb);
      const std::size_t bit = 52 + rng.below(11);
      const std::size_t row = bi * cfg_.nb + er, col = bj * cfg_.nb + ec;
      // flip2 needs two distinct residual slots. Both flips share the
      // checksum group and block column, so one slot is one (er, col): two
      // flips there leave a single combined residual that names no site.
      if (avoid != nullptr && avoid->row % cfg_.nb == er && avoid->col == col)
        continue;
      double& victim = a(row, col);
      const double value = victim;
      if (!std::isfinite(value) || value == 0.0) continue;
      std::uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof(bits));
      bits ^= std::uint64_t{1} << bit;
      double flipped = 0.0;
      std::memcpy(&flipped, &bits, sizeof(bits));
      if (!std::isfinite(flipped) || std::abs(flipped) > kFlipMagnitudeCap ||
          std::abs(flipped - value) < kFlipMargin)
        continue;
      victim = flipped;
      return FaultSite{bi, bj, row, col};
    }
    ABFTC_CHECK(false, "no element in the victim blocks cleared the "
                       "detection floor after a bit flip");
    return {};
  };

  if (inj.kind == FaultKind::Flip2) {
    // Two flips in one checksum group, one block column, same frozen/active
    // class, distinct element slots: the located sites land in two distinct
    // block rows, so single-block reconstruction provably cannot repair the
    // damage — the recovery ladder MUST escalate to a restore.
    const std::size_t bj = owned[rng.below(owned.size())];
    const std::size_t g = rng.below(layout_.groups);
    std::vector<std::size_t> frozen_rows, active_rows;
    for (std::size_t m = 0; m < cfg_.group; ++m) {
      const std::size_t bi = g * cfg_.group + m;
      (bi < frozen_steps_ ? frozen_rows : active_rows).push_back(bi);
    }
    // The larger class always has ≥ 2 members for group ≥ 3 (ties, only
    // possible for even groups, go to active).
    std::vector<std::size_t>& rows =
        frozen_rows.size() > active_rows.size() ? frozen_rows : active_rows;
    ABFTC_CHECK(rows.size() >= 2,
                "flip2 needs two same-class rows in one checksum group");
    const std::size_t i1 = rng.below(rows.size());
    std::size_t i2 = rng.below(rows.size());
    while (i2 == i1) i2 = rng.below(rows.size());
    const FaultSite s1 = flip_element(rows[i1], bj, false, nullptr);
    const FaultSite s2 = flip_element(rows[i2], bj, false, &s1);
    report.injected.push_back(s1);
    report.injected.push_back(s2);
  } else {
    report.injected.push_back(flip_element(0, 0, true, nullptr));
  }
}

RunReport Launcher::run(const std::vector<Injection>& faults) {
  ABFTC_REQUIRE(!ran_, "a Launcher runs once; construct a fresh one");
  ran_ = true;
  for (const Injection& f : faults) {
    ABFTC_REQUIRE(f.step < nbk_, "injection step out of range");
    ABFTC_REQUIRE(f.rank < cfg_.ranks, "injection rank out of range");
  }

  // One inline compute thread for the whole run: the coordinator forks, and
  // a child must never inherit a process whose executor pool is mid-kernel.
  abft::KernelPolicy serial = abft::kernel_policy();
  serial.threads = 1;
  const abft::KernelPolicyGuard guard(serial);

  RunReport report;
  const auto wall0 = Clock::now();

  // --- arena + initial state ------------------------------------------------
  arena_ = std::make_unique<SharedRegion>(layout_.total_bytes);
  shared_ = SharedState::attach(arena_->data(), layout_);
  shared_.ctl->magic = kArenaMagic;
  shared_.ctl->n = cfg_.n;
  shared_.ctl->nb = cfg_.nb;
  shared_.ctl->group = cfg_.group;
  shared_.ctl->nranks = cfg_.ranks;

  // The pristine state doubles as the restart-from-scratch image that
  // restore_and_respawn falls back to when storage holds nothing restorable.
  common::Rng rng(cfg_.seed);
  a0_ = abft::Matrix::diag_dominant(cfg_.n, rng);
  cs0_ = abft::row_group_checksum_pair(a0_, cfg_.nb, cfg_.group);
  load_initial();

  for (std::size_t r = 0; r < cfg_.ranks; ++r) spawn(r);

  // --- the factorization loop ----------------------------------------------
  std::vector<bool> consumed(faults.size(), false);
  const auto pending_at = [&](std::size_t step) -> const Injection* {
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (!consumed[i] && faults[i].step == step) {
        consumed[i] = true;
        return &faults[i];
      }
    return nullptr;
  };

  std::size_t k = 0;
  while (k < nbk_) {
    if (k % cfg_.ckpt_every == 0) checkpoint(k, report);

    const auto t0 = Clock::now();
    const Injection* inj = pending_at(k);
    const std::size_t owner = owner_of(k, cfg_.ranks);

    post(shared_.cmd[owner], MsgType::Panel, k);
    if (inj != nullptr && inj->kind == FaultKind::Hang) {
      // Hang/livelock: the victim stays alive but stops making progress
      // mid-step. Its ready pipe never hangs up — only the response
      // deadline can tell, which is exactly what this cell exercises.
      ::kill(ranks_[inj->rank].pid, SIGSTOP);
    } else if (inj != nullptr && inj->kind != FaultKind::Flip &&
               inj->kind != FaultKind::Flip2) {
      // Kill / torn: SIGKILL the victim mid-step, right after the step's
      // first command went out. (For torn the covering checkpoint write was
      // already torn by the storage decorator.)
      ::kill(ranks_[inj->rank].pid, SIGKILL);
    }
    bool ok = await_done(owner, k, report);

    if (ok) {
      for (std::size_t r = 0; r < cfg_.ranks; ++r)
        post(shared_.cmd[r], MsgType::Update, k);
      // Collect every rank's response before deciding: survivors must
      // finish their writes so the arena is quiescent when we restore.
      for (std::size_t r = 0; r < cfg_.ranks; ++r)
        ok = await_done(r, k, report) && ok;
    }

    if (!ok) {
      k = restore_and_respawn(report);
      continue;
    }

    frozen_steps_ = k + 1;
    if (report.step_seconds.size() == k)  // first execution, not a replay
      report.step_seconds.push_back(seconds_since(t0));

    if (inj != nullptr &&
        (inj->kind == FaultKind::Flip || inj->kind == FaultKind::Flip2)) {
      const std::uint64_t base =
          cfg_.flip_seed != 0 ? cfg_.flip_seed : cfg_.seed;
      std::uint64_t mix = base + 0x9e3779b97f4a7c15ULL * (inj->step + 1);
      inject_flip(*inj, common::splitmix64(mix), report);
    }

    // Verification: a blind run checks the checksum invariant at EVERY
    // boundary — the coordinator knows nothing about injection timing; the
    // legacy mode checks only right after its own injector fired. Either
    // way a residual above the floor enters the escalation ladder, which
    // decides everything from derived localization alone.
    if (cfg_.blind ||
        (inj != nullptr &&
         (inj->kind == FaultKind::Flip || inj->kind == FaultKind::Flip2))) {
      const auto tc = Clock::now();
      const double res = residual_now();
      report.check_seconds += seconds_since(tc);
      if (res > kDetectFloor) {
        k = recover_from_corruption(k, report);
        continue;
      }
    }
    ++k;
  }

  // --- final state + teardown ----------------------------------------------
  report.residual = residual_now();
  const auto copy_out = [](const double* src, std::size_t rows,
                           std::size_t cols) {
    abft::Matrix m(rows, cols);
    std::memcpy(m.storage().data(), src, rows * cols * sizeof(double));
    return m;
  };
  lu_ = copy_out(shared_.matrix, layout_.n, layout_.n);
  active_ = copy_out(shared_.active, 2 * layout_.csr, layout_.n);
  frozen_ = copy_out(shared_.frozen, 2 * layout_.csr, layout_.n);

  for (std::size_t r = 0; r < cfg_.ranks; ++r) {
    if (ranks_[r].pid <= 0) continue;
    post(shared_.cmd[r], MsgType::Shutdown);
    (void)await_done(r, 0, report);
    if (ranks_[r].pid > 0) {
      int status = 0;
      ::waitpid(ranks_[r].pid, &status, 0);
      ranks_[r].pid = -1;
      ::close(ranks_[r].ready_fd);
      ranks_[r].ready_fd = -1;
    }
  }
  report.wall_seconds = seconds_since(wall0);
  report.completed = true;
  return report;
}

}  // namespace abftc::dist
