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

#include "abft/kernels.hpp"
#include "ckpt/io/writer.hpp"
#include "common/error.hpp"
#include "common/executor.hpp"
#include "common/rng.hpp"

namespace abftc::dist {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The time left until `deadline` as a ppoll timeout (zero once it passed).
timespec time_left(Clock::time_point deadline) {
  const auto ns = std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(deadline -
                                                              Clock::now())
             .count());
  return {static_cast<time_t>(ns / 1'000'000'000),
          static_cast<long>(ns % 1'000'000'000)};
}

/// Empty a non-blocking doorbell pipe. Every wake drains it fully, so the
/// 64 KiB pipe never fills and a ringing worker never blocks in write().
void drain(int fd) {
  char buf[64];
  while (::read(fd, buf, sizeof(buf)) > 0) {
  }
}

/// waitpid a child to the end: a signal that interrupts the wait must not
/// leave the zombie behind.
void reap(pid_t pid) noexcept {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

/// How long a forked rank may take to ring its ready byte.
constexpr std::chrono::seconds kBootTimeout{10};

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
  bool booting = false;  ///< forked; its ready byte not taken yet
  bool hung_up = false;  ///< its ready pipe hung up: the rank is dead
  // collect_step's per-step state.
  bool pending = false;  ///< owes the current step its Done
  bool killed = false;   ///< SIGKILLed as silent at a step deadline
};

Launcher::Launcher(DistConfig cfg, ckpt::io::StorageBackend& backend)
    : cfg_(cfg), default_backend_(backend) {
  layout_ = DistLayout::compute(cfg_.n, cfg_.nb, cfg_.group, cfg_.ranks);
  nbk_ = layout_.nbk;
  ABFTC_REQUIRE(cfg_.ckpt_every > 0, "ckpt_every must be positive");
  ranks_.resize(cfg_.ranks);
  corpses_.reserve(cfg_.ranks);
  // Resolved here, outside the serial KernelPolicyGuard that run() holds:
  // the residual sweep passes this thread count to parallel_for explicitly.
  verify_threads_ = std::min(4u, common::hardware_workers());
}

Launcher::~Launcher() { reap_all(); }

void Launcher::bury(Rank& rank) {
  ::close(rank.ready_fd);
  corpses_.push_back(rank.pid);  // within the capacity reserved up front
  rank = Rank{};
}

void Launcher::reap_corpses() noexcept {
  for (const pid_t pid : corpses_) reap(pid);
  corpses_.clear();
}

void Launcher::kill_now(Rank& rank) noexcept {
  ::kill(rank.pid, SIGKILL);
  reap(rank.pid);
  ::close(rank.ready_fd);
  rank = Rank{};
}

void Launcher::reap_all() noexcept {
  for (Rank& rank : ranks_)
    if (rank.pid > 0) kill_now(rank);
  reap_corpses();
}

void Launcher::fork_rank(std::size_t r) {
  reset(shared_.cmd[r]);
  reset(shared_.rsp[r]);
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
  Rank& rank = ranks_[r];
  rank = Rank{};
  rank.pid = pid;
  rank.ready_fd = fds[0];
  rank.booting = true;
  ++forks_;
}

void Launcher::await_ready(std::size_t r) {
  // Wait for the one-byte ready handshake; a child that dies before serving
  // shows up as POLLHUP here instead of hanging the launcher. A signal that
  // interrupts the wait is no verdict: wait again for the time left.
  Rank& rank = ranks_[r];
  const auto deadline = Clock::now() + kBootTimeout;
  pollfd pfd{rank.ready_fd, POLLIN, 0};
  int rc = 0;
  do {
    const timespec left = time_left(deadline);
    rc = ::ppoll(&pfd, 1, &left, nullptr);
  } while (rc < 0 && errno == EINTR);
  char byte = 0;
  if (rc <= 0 || ::read(rank.ready_fd, &byte, 1) != 1 ||
      ::fcntl(rank.ready_fd, F_SETFL, O_NONBLOCK) != 0) {
    kill_now(rank);
    throw dist_error("worker rank " + std::to_string(r) +
                     " failed the ready handshake");
  }
  rank.booting = false;
  rank.rsp_seen = shared_.rsp[r].seq.load(std::memory_order_acquire);
}

std::size_t Launcher::fork_replacements() {
  std::size_t forked = 0;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    if (ranks_[r].pid > 0) continue;
    fork_rank(r);
    ++forked;
  }
  return forked;
}

void Launcher::finish_replacements() {
  for (std::size_t r = 0; r < ranks_.size(); ++r)
    if (ranks_[r].booting) await_ready(r);
  // Every dead rank hung up its pipe long ago, so these waits are instant.
  reap_corpses();
}

void Launcher::prepare(RunReport& report) {
  const bool cold = arena_ == nullptr;
  if (cold) {
    arena_ = std::make_unique<SharedRegion>(layout_.total_bytes);
    shared_ = SharedState::attach(arena_->data(), layout_);
    shared_.ctl->magic = kArenaMagic;
    shared_.ctl->n = cfg_.n;
    shared_.ctl->nb = cfg_.nb;
    shared_.ctl->group = cfg_.group;
    shared_.ctl->nranks = cfg_.ranks;
    common::Rng rng(cfg_.seed);
    a0_ = abft::Matrix::diag_dominant(cfg_.n, rng);
    owner_ = std::this_thread::get_id();
  }
  // A rank that died idle since the last run has hung up its ready pipe
  // with no command outstanding: bury it so it is replaced below.
  for (Rank& rank : ranks_) {
    if (rank.pid <= 0) continue;
    pollfd pfd{rank.ready_fd, POLLIN, 0};
    if (::poll(&pfd, 1, 0) > 0 && (pfd.revents & (POLLHUP | POLLERR)) != 0)
      bury(rank);
  }
  // Replacements boot while the initial image loads: a booting rank touches
  // only its mailboxes and the control block. Every live rank idles in
  // recv, so the arena is quiescent.
  const std::size_t forked = fork_replacements();
  if (!cold) report.respawns += forked;
  load_initial();
  max_boundary_attempted_ = std::numeric_limits<std::size_t>::max();
  last_check_ = std::numeric_limits<double>::quiet_NaN();
  finish_replacements();
}

bool Launcher::collect_step(std::size_t k, std::uint32_t token,
                            Clock::time_point t0, RunReport& report) {
  std::atomic<std::uint32_t>& gate = shared_.ctl->step_gate;
  const std::size_t owner = owner_of(k, cfg_.ranks);
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(step_timeout_s_));
  auto window_start = t0;
  auto deadline = t0 + window;
  bool ok = true;
  // Whether the owner had published its panel when the gate was aborted.
  bool aborted = false, published = false;
  const auto abort_step = [&] {
    ok = false;
    if (aborted) return;
    aborted = true;
    // Releases every rank still waiting on the panel: it answers Done
    // without updating, so it is back in recv before any restore.
    published = publish(gate, token | kStepAbort) == token;
  };
  for (Rank& rank : ranks_) {
    rank.pending = rank.pid > 0;  // every rank is live at a step's start
    rank.killed = false;
    if (!rank.pending) abort_step();
  }

  std::vector<pollfd> fds;
  std::vector<std::size_t> polled;
  fds.reserve(ranks_.size());
  polled.reserve(ranks_.size());
  while (true) {
    fds.clear();
    polled.clear();
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      Rank& rank = ranks_[r];
      if (!rank.pending) continue;
      // A Done posted just before the rank died still counts, so the frame
      // is checked before the hang-up.
      if (auto msg = try_recv(shared_.rsp[r], rank.rsp_seen)) {
        if (msg->type != MsgType::Done || msg->args[0] != k)
          throw dist_error("rank " + std::to_string(r) +
                           " answered out of protocol at step " +
                           std::to_string(k));
        rank.pending = false;
        continue;
      }
      if (rank.hung_up) {  // every write end closed and no frame: it died
        rank.pending = false;
        bury(rank);
        abort_step();
        continue;
      }
      fds.push_back({rank.ready_fd, POLLIN, 0});
      polled.push_back(r);
    }
    if (fds.empty()) return ok;

    const auto now = Clock::now();
    if (now >= deadline) {
      // Deadline with pipes still open: those ranks are alive but silent —
      // SIGSTOPped, livelocked or wedged. That distinction (livelock vs
      // death) is worth a separate counter; the remedy is the same: SIGKILL
      // (which stopped processes do honor) and recover by the death path.
      for (const std::size_t r : polled)
        if (ranks_[r].killed)
          throw dist_error("rank " + std::to_string(r) +
                           " outlived its SIGKILL by a whole step deadline");
      abort_step();
      // An owner that never published holds up every other rank, so it
      // alone is silent: the rest were waiting on it and answer now that
      // the gate is aborted. Otherwise each rank yet to answer is silent.
      const bool owner_silent =
          ranks_[owner].pending && !published &&
          gate.load(std::memory_order_acquire) != token;
      for (const std::size_t r : polled) {
        if (owner_silent && r != owner) continue;
        ++report.hangs;
        ::kill(ranks_[r].pid, SIGKILL);
        ranks_[r].killed = true;
      }
      report.hang_wait_seconds +=
          std::chrono::duration<double>(now - window_start).count();
      // A fresh window for the released ranks to answer and the killed
      // ones to hang up.
      window_start = now;
      deadline = now + window;
      continue;
    }
    const timespec left = time_left(deadline);
    const int rc = ::ppoll(fds.data(), fds.size(), &left, nullptr);
    if (rc < 0 && errno != EINTR)
      throw dist_error("ppoll on the ranks' ready pipes failed");
    if (rc <= 0) continue;  // timeout or signal: re-check, then deadline
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & POLLIN) != 0) drain(fds[i].fd);
      if ((fds[i].revents & (POLLHUP | POLLERR)) != 0)
        ranks_[polled[i]].hung_up = true;
    }
  }
}

Launcher::Regions Launcher::snapshot_regions(std::uint64_t (&progress)[2]) {
  const std::size_t mat = layout_.n * layout_.n;
  return {std::as_writable_bytes(std::span(progress)),
          std::as_writable_bytes(std::span(shared_.matrix, mat))};
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
    ckpt::io::commit_snapshot(*backend_, meta, spans);
  } catch (const ckpt::io::io_error&) {
    // An injected (or real) commit failure costs this protection point but
    // not the run: recovery falls back to the previous snapshot.
  }
  report.commit_seconds += seconds_since(t0);
}

void Launcher::load_initial() {
  // Restart from scratch: the pristine matrix, encoded with nothing frozen
  // (the active accumulator is its step-0 checksum pair, the frozen one
  // all zeros).
  std::memcpy(shared_.matrix, a0_.storage().data(),
              a0_.storage().size() * sizeof(double));
  frozen_steps_ = 0;
  abft::lu_encode(shared_.lu(), frozen_steps_, verify_threads_);
}

std::optional<ckpt::io::SnapshotMeta> Launcher::restore_now(
    const ckpt::io::StorageBackend& backend) {
  // A rejected snapshot may leave pieces of itself in the arena; the older
  // one that verifies, or load_initial, rewrites every region.
  std::uint64_t progress[2] = {0, 0};
  const Regions regions = snapshot_regions(progress);
  auto restored = ckpt::io::restore_latest_into(backend, regions);
  if (restored) {
    // A snapshot holds the payload only: the accumulators are derived data,
    // re-encoded here from the restored factors.
    frozen_steps_ = static_cast<std::size_t>(progress[1]);
    abft::lu_encode(shared_.lu(), frozen_steps_, verify_threads_);
  } else {
    load_initial();
  }
  return restored;
}

std::size_t Launcher::restore_and_respawn(RunReport& report) {
  // Fork the replacements first: they boot while the arena restores (a
  // booting rank touches only its mailboxes and the control block). Their
  // ready bytes and the corpses' exit statuses are taken afterwards.
  report.respawns += fork_replacements();
  const auto t0 = Clock::now();
  (void)restore_now(*backend_);
  const std::size_t resume = frozen_steps_;
  report.restore_seconds += seconds_since(t0);
  ++report.restores;
  report.restored_to_steps.push_back(resume);
  finish_replacements();
  return resume;
}

double Launcher::residual_now() const {
  // The invariants hold at every step boundary, so any excess residual is
  // silent corruption.
  return abft::lu_checksum_residual(shared_.lu(), frozen_steps_,
                                    verify_threads_);
}

double Launcher::verify(RunReport& report) {
  const auto t0 = Clock::now();
  last_check_ = residual_now();
  report.check_seconds += seconds_since(t0);
  return last_check_;
}

Localization locate_corruption(abft::ConstMatrixView a,
                               abft::ConstMatrixView active,
                               abft::ConstMatrixView frozen, std::size_t nb,
                               std::size_t group, std::size_t frozen_steps) {
  const abft::LuConstView s{a, active, frozen, nb, group};
  const std::uint64_t floor_bits = abft::abs_bits(kDetectFloor);
  Localization loc;
  abft::RowResiduals res;
  for (std::size_t row = 0; row < s.csr(); ++row) {
    for (std::size_t j0 = 0; j0 < a.cols(); j0 += abft::kResidualChunk) {
      const std::size_t m = std::min(abft::kResidualChunk, a.cols() - j0);
      abft::lu_row_residuals(s, frozen_steps, row, j0, m, res);
      // Fast path: all four relations hold to the floor over the whole
      // chunk (a NaN or Inf never passes), so every slot in it is clean.
      if (abft::worst_abs_bits(res, m) <= floor_bits) continue;
      for (std::size_t j = 0; j < m; ++j) {
        const std::size_t col = j0 + j;
        // A single corrupted element with delta d at group position m
        // leaves r1 = d in the sum relation and r2 = (m+1)·d in the
        // weighted one for its class; r2/r1 names the victim exactly.
        for (int cls = 0; cls < 2; ++cls) {
          const double r1 = res.sum[cls][j], r2 = res.weighted[cls][j];
          if (!std::isfinite(r1) || !std::isfinite(r2)) {
            // A NaN or Inf in the state: no ratio can name a site.
            loc.ambiguous = true;
            continue;
          }
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
          loc.sites.push_back(
              FaultSite{bi, col / nb, bi * nb + row % nb, col});
        }
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
    if (verify(report) <= kDetectFloor) return step + 1;
  }

  // Rung 3+: reconstruction cannot explain (or did not repair) the damage —
  // escalate to the checkpoint ladder. restore_now walks past torn
  // snapshots and bottoms out at the initial image, so every deeper rung is
  // already inside it.
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
  return run(cfg_, default_backend_, faults);
}

RunReport Launcher::run(const DistConfig& cfg,
                        ckpt::io::StorageBackend& backend,
                        const std::vector<Injection>& faults) {
  ABFTC_REQUIRE(cfg.n == cfg_.n && cfg.nb == cfg_.nb &&
                    cfg.ranks == cfg_.ranks && cfg.group == cfg_.group &&
                    cfg.seed == cfg_.seed && cfg.ckpt_every == cfg_.ckpt_every &&
                    cfg.blind == cfg_.blind,
                "a Launcher's shape is fixed; only the backend, flip_seed and "
                "step_timeout_s may change between runs");
  ABFTC_REQUIRE(owner_ == std::thread::id{} ||
                    owner_ == std::this_thread::get_id(),
                "run() must come from the thread that forked the ranks");
  for (const Injection& f : faults) {
    ABFTC_REQUIRE(f.step < nbk_, "injection step out of range");
    ABFTC_REQUIRE(f.rank < cfg_.ranks, "injection rank out of range");
  }

  // One inline compute thread for the whole run: the coordinator forks, and
  // a child must never inherit a process whose executor pool is mid-kernel.
  abft::KernelPolicy serial = abft::kernel_policy();
  serial.threads = 1;
  const abft::KernelPolicyGuard guard(serial);

  backend_ = &backend;
  step_timeout_s_ = cfg.step_timeout_s;
  RunReport report;
  const auto wall0 = Clock::now();
  try {
    prepare(report);
    factor(faults, cfg.flip_seed != 0 ? cfg.flip_seed : cfg.seed, report);
  } catch (...) {
    // A run cut short can leave ranks mid-command over the arena: the next
    // run forks fresh ones instead of trusting them.
    reap_all();
    throw;
  }
  // A blind run's last act on the state was to verify it (the boundary
  // check or the post-rebuild re-verify): no need to sweep it again.
  report.residual = cfg_.blind ? last_check_ : residual_now();
  report.wall_seconds = seconds_since(wall0);
  report.completed = true;
  return report;
}

void Launcher::factor(const std::vector<Injection>& faults,
                      std::uint64_t flip_base, RunReport& report) {
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
    // A fault that takes its victim down is signalled before the step's
    // commands go out, so it lands inside step k whatever the victim's role
    // in it: a victim that got its command first could finish the step.
    if (inj != nullptr && inj->kind == FaultKind::Hang) {
      // Hang/livelock: the victim stays alive but makes no progress. Its
      // ready pipe never hangs up — only the step deadline can tell, which
      // is exactly what this cell exercises.
      ::kill(ranks_[inj->rank].pid, SIGSTOP);
    } else if (inj != nullptr && inj->kind != FaultKind::Flip &&
               inj->kind != FaultKind::Flip2) {
      // Kill / torn: SIGKILL the victim mid-step. (For torn the covering
      // checkpoint write was already torn by the storage decorator.)
      ::kill(ranks_[inj->rank].pid, SIGKILL);
    }

    // One command per rank carries the whole step; the owner releases the
    // others through the step gate, not through another round trip here.
    token_ = (token_ + 1) & ~kStepAbort;
    if (token_ == 0) token_ = 1;
    for (std::size_t r = 0; r < cfg_.ranks; ++r)
      post(shared_.cmd[r], MsgType::Update, k, token_);
    // Every rank answers or is found dead before the verdict, so the arena
    // is quiescent when a failed step restores.
    if (!collect_step(k, token_, t0, report)) {
      k = restore_and_respawn(report);
      continue;
    }

    frozen_steps_ = k + 1;
    if (report.step_seconds.size() == k)  // first execution, not a replay
      report.step_seconds.push_back(seconds_since(t0));

    if (inj != nullptr &&
        (inj->kind == FaultKind::Flip || inj->kind == FaultKind::Flip2)) {
      std::uint64_t mix = flip_base + 0x9e3779b97f4a7c15ULL * (inj->step + 1);
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
      // Not `res > floor`: a non-finite residual must fail too.
      if (!(verify(report) <= kDetectFloor)) {
        k = recover_from_corruption(k, report);
        continue;
      }
    }
    ++k;
  }
}

}  // namespace abftc::dist
