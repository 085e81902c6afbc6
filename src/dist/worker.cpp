#include "dist/worker.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>

#include "abft/kernels.hpp"
#include "common/error.hpp"

namespace abftc::dist {

namespace {

constexpr std::size_t align64(std::size_t x) { return (x + 63) & ~std::size_t{63}; }

}  // namespace

DistLayout DistLayout::compute(std::size_t n, std::size_t nb,
                               std::size_t group, std::size_t nranks) {
  ABFTC_REQUIRE(n > 0 && nb > 0 && n % nb == 0,
                "dimension must be a positive multiple of the block size");
  DistLayout lay;
  lay.n = n;
  lay.nb = nb;
  lay.nbk = n / nb;
  ABFTC_REQUIRE(group > 0 && lay.nbk % group == 0,
                "block count must be a multiple of the checksum group size");
  ABFTC_REQUIRE(nranks > 0, "need at least one rank");
  lay.group = group;
  lay.groups = lay.nbk / group;
  lay.csr = lay.groups * nb;
  lay.nranks = nranks;

  std::size_t off = align64(sizeof(ControlBlock));
  lay.cmd_off = off;
  off += nranks * sizeof(Mailbox);
  lay.rsp_off = off;
  off += nranks * sizeof(Mailbox);
  off = align64(off);
  lay.matrix_off = off;
  off += n * n * sizeof(double);
  lay.active_off = off;
  off += 2 * lay.csr * n * sizeof(double);
  lay.frozen_off = off;
  off += 2 * lay.csr * n * sizeof(double);
  lay.total_bytes = off;
  return lay;
}

SharedState SharedState::attach(void* base, const DistLayout& lay) {
  auto* bytes = static_cast<std::byte*>(base);
  SharedState s;
  s.ctl = reinterpret_cast<ControlBlock*>(bytes);
  s.cmd = reinterpret_cast<Mailbox*>(bytes + lay.cmd_off);
  s.rsp = reinterpret_cast<Mailbox*>(bytes + lay.rsp_off);
  s.matrix = reinterpret_cast<double*>(bytes + lay.matrix_off);
  s.active = reinterpret_cast<double*>(bytes + lay.active_off);
  s.frozen = reinterpret_cast<double*>(bytes + lay.frozen_off);
  s.layout = lay;
  return s;
}

void worker_main(void* arena, const DistLayout& lay, std::size_t rank,
                 int ready_fd, pid_t coordinator) {
  // Hold no fd but 0-2 and the ready pipe. fork() copied the coordinator's
  // whole table: the other ranks' ready-pipe read ends, and a store's
  // segment fds, which would pin deleted segments (and their tmpfs pages)
  // for as long as this rank lives. The arena is an anonymous mapping, so
  // it needs no fd.
  const auto keep = static_cast<unsigned>(ready_fd);
  if (keep > 3) (void)::close_range(3, keep - 1, 0);
  (void)::close_range(std::max(keep + 1, 3u), ~0u, 0);

  // Die with the coordinator. A rank idles in FUTEX_WAIT for up to its
  // hour-long recv deadline, so an orphan would otherwise outlive a killed
  // campaign by that long. The getppid() check closes the window in which
  // the coordinator died before the prctl: the rank was already reparented
  // and the death signal will never come. The signal follows the forking
  // thread, not the process. A Launcher's ranks idle between runs and live
  // until ~Launcher, so it forks only from the thread of its first run()
  // and refuses run() from any other thread.
  if (::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || ::getppid() != coordinator)
    ::_exit(100);

  // One inline thread, always: the forked child inherits only the calling
  // thread, so the parent's executor pool (and any mutex a pool thread held
  // at fork time) must never be touched. parallel_for with threads <= 1
  // runs inline without consulting the executor.
  abft::KernelPolicy policy = abft::kernel_policy();
  policy.threads = 1;
  abft::set_kernel_policy(policy);

  const SharedState s = SharedState::attach(arena, lay);
  if (s.ctl->magic != kArenaMagic || s.ctl->n != lay.n ||
      s.ctl->nb != lay.nb || s.ctl->group != lay.group ||
      s.ctl->nranks != lay.nranks)
    ::_exit(101);  // attached to the wrong arena; nothing sane to do

  // Snapshot the command cursor BEFORE signalling readiness: the instant
  // the ready byte lands, the coordinator may post the first command, and a
  // snapshot taken after that post would silently swallow it (the worker
  // would then wait on a frame that never comes). The coordinator zeroes
  // the mailboxes before every fork, so this reads 0 for first spawns and
  // respawns alike.
  std::uint64_t last_seen = s.cmd[rank].seq.load(std::memory_order_acquire);

  // Ready handshake: one byte tells the coordinator this rank is serving.
  // The fd stays open for the worker's lifetime — the coordinator sees
  // POLLHUP on it the instant this process dies, however it dies. The same
  // byte rings after every Done, waking the coordinator's ppoll.
  const char bell = 1;
  const auto ring = [&] {
    if (::write(ready_fd, &bell, 1) != 1) ::_exit(102);
  };
  const auto answer = [&](std::uint64_t k) {
    post(s.rsp[rank], MsgType::Done, k);
    ring();
  };
  ring();
  while (true) {
    std::optional<Message> msg;
    try {
      // Effectively blocking: the coordinator decides all timeouts.
      msg = recv(s.cmd[rank], last_seen, 3600.0);
    } catch (const dist_error&) {
      ::_exit(103);  // corrupt frame: die loudly, coordinator recovers
    }
    if (!msg) continue;
    switch (msg->type) {
      case MsgType::Update: {
        const auto k = static_cast<std::size_t>(msg->args[0]);
        const auto token = static_cast<std::uint32_t>(msg->args[1]);
        bool go = true;
        if (owner_of(k, lay.nranks) == rank) {
          abft::lu_panel(s.lu(), k);
          (void)publish(s.ctl->step_gate, token);
        } else {
          go = await_gate(s.ctl->step_gate, token);
        }
        if (go) abft::lu_update(s.lu(), k, rank, lay.nranks);
        answer(msg->args[0]);
        break;
      }
      case MsgType::Shutdown:
        answer(msg->args[0]);
        ::_exit(0);
      default:
        ::_exit(104);
    }
  }
}

}  // namespace abftc::dist
