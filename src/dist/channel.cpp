#include "dist/channel.hpp"

#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <string>

#include "common/crc32.hpp"
#include "common/error.hpp"

namespace abftc::dist {

namespace {

/// The futex word of a mailbox: the low 32 bits of `seq`. Waiters sleep
/// while it still equals the low half of their cursor; every post changes
/// it. Shared (no FUTEX_PRIVATE_FLAG): the mailbox lives in a MAP_SHARED
/// arena and the two sides are different processes after fork().
std::uint32_t* futex_word(Mailbox& mb) noexcept {
  static_assert(sizeof(std::atomic<std::uint64_t>) == sizeof(std::uint64_t));
  constexpr std::size_t low = std::endian::native == std::endian::big ? 1 : 0;
  return reinterpret_cast<std::uint32_t*>(&mb.seq) + low;
}

void futex_wake_all(std::uint32_t* word) noexcept {
  ::syscall(SYS_futex, word, FUTEX_WAKE, INT_MAX, nullptr, nullptr, 0);
}

/// Sleep while `*word == expected`, for at most `timeout` (nullptr: no
/// limit). EINTR, EAGAIN, ETIMEDOUT and spurious wakes all return; callers
/// re-check their condition.
void futex_wait(std::uint32_t* word, std::uint32_t expected,
                const timespec* timeout) noexcept {
  ::syscall(SYS_futex, word, FUTEX_WAIT, expected, timeout, nullptr, 0);
}

std::uint32_t* gate_word(std::atomic<std::uint32_t>& gate) noexcept {
  static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t));
  return reinterpret_cast<std::uint32_t*>(&gate);
}

/// How long a rank spins on the step gate before it sleeps in FUTEX_WAIT. A
/// panel at the fault-campaign shapes takes tens of µs, and a futex sleep
/// plus wake costs 10–40 µs on a small VM, so spinning through a typical
/// panel turns that wake into a cache-line transfer. On the n=192, 3-rank
/// fault campaign (4-vCPU VM) the spin won 7 of 10 alternating pairs
/// against sleeping at once (median cell time −5%); a second, three-way
/// batch could not tell the two apart.
constexpr std::chrono::microseconds kGateSpin{60};

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

SharedRegion::SharedRegion(std::size_t bytes) {
  ABFTC_REQUIRE(bytes > 0, "shared region must not be empty");
  // A fresh anonymous mapping reads zero, so nothing needs clearing, and no
  // page is populated here: each is faulted in once, by whoever writes it
  // first (the launcher's coordinator, before any rank step).
  void* map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED)
    throw dist_error("mmap of " + std::to_string(bytes) +
                     "-byte shared arena failed: " +
                     std::string(std::strerror(errno)));
  map_ = map;
  len_ = bytes;
}

SharedRegion::~SharedRegion() {
  if (map_ != nullptr) ::munmap(map_, len_);
}

std::uint32_t frame_crc(MsgType type, const std::uint64_t (&args)[4]) {
  std::byte buf[sizeof(std::uint32_t) + sizeof(args)];
  const auto t = static_cast<std::uint32_t>(type);
  std::memcpy(buf, &t, sizeof(t));
  std::memcpy(buf + sizeof(t), args, sizeof(args));
  return common::crc32(std::span<const std::byte>(buf, sizeof(buf)));
}

void post(Mailbox& mb, MsgType type, std::uint64_t a0, std::uint64_t a1,
          std::uint64_t a2, std::uint64_t a3) {
  mb.type = static_cast<std::uint32_t>(type);
  mb.args[0] = a0;
  mb.args[1] = a1;
  mb.args[2] = a2;
  mb.args[3] = a3;
  mb.crc = frame_crc(type, mb.args);
  // The release bump publishes the payload: a reader that observes the new
  // seq is guaranteed to see the completed frame, and a writer SIGKILLed
  // before this line leaves the old seq — the torn payload stays invisible.
  mb.seq.store(mb.seq.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
  futex_wake_all(futex_word(mb));
}

std::optional<Message> try_recv(Mailbox& mb, std::uint64_t& last_seen) {
  const std::uint64_t seq = mb.seq.load(std::memory_order_acquire);
  if (seq == last_seen) return std::nullopt;
  Message msg;
  msg.type = static_cast<MsgType>(mb.type);
  std::memcpy(msg.args, mb.args, sizeof(msg.args));
  if (frame_crc(msg.type, msg.args) != mb.crc)
    throw dist_error("mailbox frame CRC mismatch (seq " + std::to_string(seq) +
                     ")");
  last_seen = seq;
  return msg;
}

std::optional<Message> recv(Mailbox& mb, std::uint64_t& last_seen,
                            double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (true) {
    if (auto msg = try_recv(mb, last_seen)) return msg;
    const auto left = deadline - std::chrono::steady_clock::now();
    if (left <= std::chrono::steady_clock::duration::zero())
      return std::nullopt;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
    timespec timeout{static_cast<time_t>(ns / 1'000'000'000),
                     static_cast<long>(ns % 1'000'000'000)};
    // The kernel re-reads the word under its own lock before sleeping, so a
    // post that lands after try_recv above makes this return at once
    // (EAGAIN) instead of missing the wake.
    futex_wait(futex_word(mb), static_cast<std::uint32_t>(last_seen),
               &timeout);
  }
}

void reset(Mailbox& mb) {
  mb.seq.store(0, std::memory_order_relaxed);
  mb.type = 0;
  mb.crc = 0;
  std::memset(mb.args, 0, sizeof(mb.args));
  std::atomic_thread_fence(std::memory_order_release);
}

std::uint32_t publish(std::atomic<std::uint32_t>& gate, std::uint32_t value) {
  const std::uint32_t old = gate.exchange(value, std::memory_order_acq_rel);
  futex_wake_all(gate_word(gate));
  return old;
}

bool await_gate(std::atomic<std::uint32_t>& gate, std::uint32_t token) {
  const std::uint32_t aborted = token | kStepAbort;
  std::uint32_t seen = gate.load(std::memory_order_acquire);
  const auto spin_until = std::chrono::steady_clock::now() + kGateSpin;
  for (unsigned i = 1; seen != token && seen != aborted; ++i) {
    if (i % 64 == 0 && std::chrono::steady_clock::now() >= spin_until) break;
    cpu_relax();
    seen = gate.load(std::memory_order_acquire);
  }
  while (seen != token && seen != aborted) {
    // As in recv: the kernel re-reads the word before sleeping, so a
    // publish that lands after the load above is never missed.
    futex_wait(gate_word(gate), seen, nullptr);
    seen = gate.load(std::memory_order_acquire);
  }
  return seen == token;
}

}  // namespace abftc::dist
