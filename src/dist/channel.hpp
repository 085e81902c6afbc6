#pragma once
/// \file channel.hpp
/// Shared-memory transport for the distributed fault-injection runtime.
///
/// The dist launcher forks N worker ranks from a coordinator; all matrix
/// state and all control traffic live in one anonymous MAP_SHARED mapping
/// created before the forks, so a worker that dies and is respawned
/// re-attaches to exactly the bytes its predecessor was mutating.
///
/// Control traffic uses one single-slot SPSC `Mailbox` per direction per
/// rank. The protocol is strict lockstep — the coordinator posts a command
/// and waits for the matching response before posting the next — so one
/// slot suffices and there is no queue to corrupt. Inside a block step the
/// ranks wait for each other on one shared word, the step gate, instead of
/// on a second coordinator round trip. Framing:
///
///   sender:   write {type, args, crc}, release-store seq+1, FUTEX_WAKE
///   receiver: acquire-load seq; if it has not advanced, FUTEX_WAIT on its
///             low 32 bits; read the payload, recompute the CRC over
///             {type, args} and reject mismatches
///
/// A SIGKILLed worker can leave a half-written payload behind, but only
/// with seq un-bumped (the store is last) — the coordinator never reads it;
/// it sees the rank's death on the ready pipe (launcher.hpp) and runs
/// recovery instead.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>

namespace abftc::dist {

/// Dead rank, lost handshake, corrupt frame, worker that won't die — the
/// transport-layer failures the launcher turns into recovery actions.
class dist_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// An anonymous shared mapping (MAP_SHARED | MAP_ANONYMOUS), created by the
/// coordinator before fork() so every worker inherits the same physical
/// pages. Fresh, it reads all zero and holds no page yet: its first writer
/// faults each page in. In the launcher's arena that is the coordinator,
/// before any rank step: it writes the control block and the mailboxes,
/// then the matrix generator fills the matrix and lu_encode both
/// accumulators.
/// Unmapped on destruction (workers exit with _exit; the kernel drops their
/// reference).
class SharedRegion {
 public:
  explicit SharedRegion(std::size_t bytes);
  ~SharedRegion();
  SharedRegion(const SharedRegion&) = delete;
  SharedRegion& operator=(const SharedRegion&) = delete;

  [[nodiscard]] void* data() const noexcept { return map_; }
  [[nodiscard]] std::size_t size() const noexcept { return len_; }

 private:
  void* map_ = nullptr;
  std::size_t len_ = 0;
};

/// Command / response vocabulary of the lockstep protocol. One block step
/// is one command per rank: the owner of block column k factors the panel
/// and publishes `args[1]` on the step gate (below); every rank then updates
/// its own columns once the gate reads that token (worker.hpp).
enum class MsgType : std::uint32_t {
  None = 0,
  Update = 2,    ///< to all ranks: block step k  (args[0] = k, args[1] = token)
  Shutdown = 3,  ///< to a rank: exit cleanly
  Done = 4,      ///< from a rank: command complete       (args[0] echoes k)
};

/// One decoded frame.
struct Message {
  MsgType type = MsgType::None;
  std::uint64_t args[4] = {0, 0, 0, 0};
};

/// Single-slot SPSC mailbox in shared memory. 64-byte aligned so two
/// mailboxes never share a cache line (false sharing across processes).
struct alignas(64) Mailbox {
  std::atomic<std::uint64_t> seq;  ///< frames posted; bumped last (release)
  std::uint32_t type;
  std::uint32_t crc;  ///< crc32 over {type, args}
  std::uint64_t args[4];
};
static_assert(sizeof(Mailbox) == 64, "mailbox must be exactly a cache line");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "cross-process mailboxes need lock-free 64-bit atomics");

/// CRC over the payload a frame carries (what `post` stores and `recv`
/// recomputes).
[[nodiscard]] std::uint32_t frame_crc(MsgType type,
                                      const std::uint64_t (&args)[4]);

/// Publish one frame: payload first, seq bump (release) last, then wake any
/// receiver asleep in `recv` (a shared futex, so it reaches other processes
/// mapping the same arena).
void post(Mailbox& mb, MsgType type, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
          std::uint64_t a2 = 0, std::uint64_t a3 = 0);

/// Non-blocking receive: if `mb.seq` has advanced past `last_seen`, decode
/// the frame (throwing dist_error on a CRC mismatch), advance `last_seen`
/// and return it; otherwise nullopt.
[[nodiscard]] std::optional<Message> try_recv(Mailbox& mb,
                                              std::uint64_t& last_seen);

/// Blocking receive with deadline: sleeps in FUTEX_WAIT on the low 32 bits
/// of `mb.seq` until `post` wakes it, so a frame is seen within one
/// scheduler wake-up and an idle receiver burns no CPU. nullopt on timeout.
[[nodiscard]] std::optional<Message> recv(Mailbox& mb,
                                          std::uint64_t& last_seen,
                                          double timeout_s);

/// Zero a mailbox (coordinator, before respawning a dead rank, so the
/// replacement starts from seq 0 with no stale frame visible).
void reset(Mailbox& mb);

/// The step gate: one 32-bit word in the shared arena that releases the
/// ranks waiting on a block step's panel. The owner of step k publishes the
/// step's token when its panel is done; the coordinator publishes
/// `token | kStepAbort` when the step cannot finish (a rank died or the
/// deadline passed), which releases the waiters without their updates.
/// Tokens never carry the abort bit and are never 0 (the zeroed arena), so
/// a word left over from an earlier step releases no one.
inline constexpr std::uint32_t kStepAbort = std::uint32_t{1} << 31;

/// Release-publish `value` on `gate` and wake every waiter (a shared futex,
/// like `post`). Returns the value it replaced.
std::uint32_t publish(std::atomic<std::uint32_t>& gate, std::uint32_t value);

/// Wait until `gate` reads `token` (true: the panel is published) or
/// `token | kStepAbort` (false). Spins briefly, then sleeps in FUTEX_WAIT;
/// there is no deadline, because the coordinator aborts every step it
/// stops waiting for.
[[nodiscard]] bool await_gate(std::atomic<std::uint32_t>& gate,
                              std::uint32_t token);

}  // namespace abftc::dist
